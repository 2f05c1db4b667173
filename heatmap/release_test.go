package heatmap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/snapshot"
)

// The tests in this file read the process-wide count of mapped snapshot
// bytes, or run the collector in a loop, so none of them runs in parallel:
// parallel tests start only after every sequential one has finished.

// heatmapdDefaultSets returns the client and facility sets of heatmapd's
// default map: NYC, 2000 clients and 600 facilities.
func heatmapdDefaultSets() (clients, facilities []Point) {
	return dataset.NewYorkLike(2*(2000+600), 1).SampleClientsFacilities(2000, 600, 2)
}

// settledMappedBytes collects garbage until the process's mapped byte count
// holds still, so views earlier tests dropped are not unmapped in the middle
// of a measurement.
func settledMappedBytes() int64 {
	last := int64(-1)
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		n := snapshot.MappedBytes()
		if n == last {
			break
		}
		last = n
	}
	return last
}

// waitMappedAtMost collects garbage until the process holds at most want
// mapped bytes: finalizers run on their own goroutine after the collection
// that finds a view unreachable.
func waitMappedAtMost(t *testing.T, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		got := snapshot.MappedBytes()
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d bytes still mapped, want at most %d", what, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rssFile returns RssFile, this process's resident file-backed pages, in
// bytes, from /proc/self/status.
func rssFile(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "RssFile:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no RssFile line in /proc/self/status")
	return 0
}

// TestDroppedMappedMapsReleaseRSS opens heatmapd's default map from its
// file (89 MiB), queries it — a point, a batch and a tile — and drops it,
// three times. Open's validation faults in every page of the file, so a
// mapping that outlived its map would hold a file's worth of RssFile per
// cycle; instead the collector unmaps each, and RssFile ends within one
// file of where it started.
func TestDroppedMappedMapsReleaseRSS(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads RssFile from /proc/self/status")
	}
	if testing.Short() {
		t.Skip("builds and saves heatmapd's default map")
	}
	clients, facilities := heatmapdDefaultSets()
	built, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "default.snap")
	if err := built.SaveSnapshot(path, 1); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	probes := clients[:256]
	wantHeat, _ := built.HeatAt(probes[0])
	bounds := built.Bounds()
	tile := Rect{MinX: bounds.MinX, MinY: bounds.MinY, MaxX: (bounds.MinX + bounds.MaxX) / 2, MaxY: (bounds.MinY + bounds.MaxY) / 2}

	base, rss0 := settledMappedBytes(), rssFile(t)
	for i := 0; i < 3; i++ {
		func() {
			m, _, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			if h, _ := m.HeatAt(probes[0]); h != wantHeat {
				t.Fatalf("cycle %d: HeatAt = %v, want %v", i, h, wantHeat)
			}
			m.HeatAtBatch(probes)
			if _, err := m.RasterizeRect(tile, 256, 256); err != nil {
				t.Fatal(err)
			}
		}()
		t.Logf("after cycle %d: %d bytes mapped, RssFile %d MiB", i+1, snapshot.MappedBytes()-base, rssFile(t)>>20)
	}
	waitMappedAtMost(t, base, "after three dropped maps")
	rss := rssFile(t)
	t.Logf("file %d MiB; RssFile %d MiB at the start, %d MiB after the collector ran", size>>20, rss0>>20, rss>>20)
	if rss-rss0 > size {
		t.Errorf("RssFile grew by %d bytes over three dropped maps, want at most one file's %d", rss-rss0, size)
	}
}

// TestSnapshotOfMappedMapOutlivesFile: a Snapshot taken of a mapped map
// holds no slice of the file, so it stays intact after the map is dropped
// and its file unmapped.
func TestSnapshotOfMappedMapOutlivesFile(t *testing.T) {
	clients, facilities := snapshotTestSets(t)
	built, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := built.SaveSnapshot(path, 1); err != nil {
		t.Fatal(err)
	}
	base := settledMappedBytes()
	s := func() *snapshot.Snapshot {
		m, _, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Snapshot(1)
		if err != nil {
			t.Fatal(err)
		}
		file := m.view.Bytes()
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(file)))
		for _, ps := range [][]Point{s.Clients, s.Facilities, m.cfg.Clients, m.cfg.Facilities} {
			if p := uintptr(unsafe.Pointer(unsafe.SliceData(ps))); p >= lo && p < lo+uintptr(len(file)) {
				t.Fatal("a materialized map's points alias its mapped file")
			}
		}
		return s
	}()
	waitMappedAtMost(t, base, "after the mapped map was dropped")
	if !reflect.DeepEqual(s.Clients, clients) || !reflect.DeepEqual(s.Facilities, facilities) {
		t.Error("the snapshot's points changed once the map's file was unmapped")
	}
}

// TestCommittedMapKeepsOriginMapped: a map committed from a mapped one
// shares its slab index's clean slabs with the file, so the file stays
// mapped — and the committed map answers as a heap commit does — after the
// opened map is dropped; once the committed map goes too, the file is
// unmapped.
func TestCommittedMapKeepsOriginMapped(t *testing.T) {
	clients, facilities := snapshotTestSets(t)
	built, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := built.SaveSnapshot(path, 1); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{AddClients: []Point{Pt(250, 250)}, RemoveClients: []int{3}}
	want, _, err := built.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	base := settledMappedBytes()
	func() {
		next := func() *Map {
			m, _, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			next, _, err := m.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			return next
		}()
		if settledMappedBytes() != base+fi.Size() || next.MappedBytes() != fi.Size() {
			t.Fatalf("with only the committed map left: %d bytes mapped, the map %d; want %d and the file's %d",
				snapshot.MappedBytes()-base, next.MappedBytes(), base+fi.Size(), fi.Size())
		}
		assertSameAnswers(t, "committed map after its origin map was dropped", next, want)
	}()
	waitMappedAtMost(t, base, "after the committed map was dropped")
}

// answersOf encodes what a reader reads from m — HeatAt at each probe, one
// batch over them and a tile — as bytes, so two reads compare bit for bit.
func answersOf(m *Map, probes []Point, tile Rect) ([]byte, error) {
	var buf bytes.Buffer
	put := func(h float64, rnn []int) {
		buf.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(h)))
		fmt.Fprint(&buf, rnn)
	}
	for _, p := range probes {
		put(m.HeatAt(p))
	}
	heats, rnns := m.HeatAtBatch(probes)
	for i := range heats {
		put(heats[i], rnns[i])
	}
	r, err := m.RasterizeRect(tile, 32, 32)
	if err != nil {
		return nil, err
	}
	for _, v := range r.Values {
		buf.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return buf.Bytes(), nil
}

// TestMappedMapReadersSurviveRelease: readers that hold a map keep reading
// it byte-identically while a writer commits on it, drops it, and reopens
// the committed state from a new file, and a goroutine runs the collector
// in a loop. Every dropped file is unmapped as soon as no map or index holds
// it, and the next Open may be given its address range back, so a read of
// a released mapping would fault or, worse, read another file's bytes:
// the byte comparison catches the latter.
func TestMappedMapReadersSurviveRelease(t *testing.T) {
	clients, facilities := snapshotTestSets(t)
	built, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.snap")
	if err := built.SaveSnapshot(path, 1); err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[Map]
	opened, _, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(opened)
	probes := append([]Point(nil), clients[:24]...)
	bounds := built.Bounds()

	const readers = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	errs := make(chan error, readers) // each reader sends at most once
	var reads atomic.Int64            // held maps read and compared
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := cur.Load()
				want, err := answersOf(m, probes, bounds)
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < 3; j++ {
					got, err := answersOf(m, probes, bounds)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, want) {
						errs <- fmt.Errorf("a held map answered differently on re-read %d", j+1)
						return
					}
				}
				reads.Add(1)
			}
		}()
	}
	// readSome returns once the readers have read a few more maps, or one
	// of them has failed.
	readSome := func() {
		for want := reads.Load() + readers; reads.Load() < want && len(errs) == 0; {
			runtime.Gosched()
		}
	}

	for v := uint64(2); v < 10; v++ {
		m := cur.Load()
		next, _, err := m.ApplyDelta(Delta{AddClients: []Point{Pt(float64(40*v), float64(500-40*v))}})
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(next)
		readSome()
		// Drop the map and re-create it from the committed state's file.
		p := filepath.Join(dir, fmt.Sprintf("v%d.snap", v))
		if err := next.SaveSnapshot(p, v); err != nil {
			t.Fatal(err)
		}
		reopened, _, err := OpenSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(reopened)
		readSome()
	}
	halt()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
