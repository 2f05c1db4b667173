package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/cluster"
	"rnnheatmap/internal/snapshot"
)

// The tests in this file read the process-wide count of mapped snapshot
// bytes, so none of them runs in parallel: parallel tests start only after
// every sequential one has finished.

// mappedStatsOf returns the mapped section of name's /stats.
func mappedStatsOf(t *testing.T, s *Server, name string) mappedStats {
	t.Helper()
	rec := do(t, s, http.MethodGet, "/v1/maps/"+name+"/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET stats of %s = %d (body %s)", name, rec.Code, rec.Body)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Mapped
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
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
			return n
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

// loadedTenant starts a persisted server with a tenant map created through
// POST /v1/maps and saved, then a second server loading the same directory,
// whose tenant is served off its mapped file.
func loadedTenant(t *testing.T, name string) (created, loaded *Server, path string) {
	t.Helper()
	dir := t.TempDir()
	a, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, a, http.MethodPost, "/v1/maps", mapBody(name, 5)); rec.Code != http.StatusCreated {
		t.Fatalf("create %s = %d (body %s)", name, rec.Code, rec.Body)
	}
	if err := a.SaveAll(); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Mutable: true, TileSize: 32, SnapshotDir: dir, Load: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b, snapshot.MapPath(dir, name)
}

// TestStatsReportMappedBytes asserts /stats reports the file a loaded map
// keeps mapped, that a map committed from it still keeps that file mapped
// (its slab index shares the file's clean slabs), and that a map built by
// POST /v1/maps keeps none.
func TestStatsReportMappedBytes(t *testing.T) {
	a, b, path := loadedTenant(t, "tenant")
	size := fileSize(t, path)

	got := mappedStatsOf(t, b, "tenant")
	if got.MapBytes != size {
		t.Errorf("loaded map: map_bytes = %d, want the file's %d", got.MapBytes, size)
	}
	if got.ProcessBytes < size {
		t.Errorf("loaded map: process_bytes = %d, want at least the file's %d", got.ProcessBytes, size)
	}

	if rec := do(t, b, http.MethodPost, "/v1/maps/tenant/mutations", `{"ops":[{"add_clients":[{"x":60,"y":60}]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("mutation = %d (body %s)", rec.Code, rec.Body)
	}
	if got := mappedStatsOf(t, b, "tenant"); got.MapBytes != size {
		t.Errorf("committed map: map_bytes = %d, want its origin file's %d", got.MapBytes, size)
	}

	if got := mappedStatsOf(t, a, "tenant"); got.MapBytes != 0 {
		t.Errorf("created map: map_bytes = %d, want 0", got.MapBytes)
	}
}

// TestDeletedMapUnmapsItsFile deletes a loaded, mapped tenant and asserts
// the process gives its mapping back once the collector runs.
func TestDeletedMapUnmapsItsFile(t *testing.T) {
	_, b, path := loadedTenant(t, "doomed")
	size := fileSize(t, path)
	// A read leaves the map's renderer and index warm, as served maps are.
	if rec := do(t, b, http.MethodGet, "/v1/maps/doomed/tiles/0/0/0.png", ""); rec.Code != http.StatusOK {
		t.Fatalf("tile = %d", rec.Code)
	}
	before := settledMappedBytes()
	if before < size {
		t.Fatalf("%d bytes mapped before the delete, want at least the file's %d", before, size)
	}
	if rec := do(t, b, http.MethodDelete, "/v1/maps/doomed", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d (body %s)", rec.Code, rec.Body)
	}
	waitMappedAtMost(t, before-size, "after DELETE")
}

// fakeOwner serves one snapshot file on the cluster snapshot endpoint,
// announcing whatever version the test sets.
type fakeOwner struct {
	path    atomic.Pointer[string]
	version atomic.Uint64
}

func (o *fakeOwner) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := o.path.Load()
	if p == nil || !strings.HasSuffix(r.URL.Path, "/snapshot") {
		http.Error(w, "not serving", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set(cluster.VersionHeader, strconv.FormatUint(o.version.Load(), 10))
	http.ServeFile(w, r, *p)
}

// TestBootstrapUnmapsReplacedAndRefusedFiles bootstraps a replica whose
// default map is loaded (mapped) from an owner's file, then from a file
// whose version disagrees with the owner's announcement. After the
// collector runs, the first leaves exactly the new file mapped, and the
// refused download leaves nothing mapped.
func TestBootstrapUnmapsReplacedAndRefusedFiles(t *testing.T) {
	dir := t.TempDir()
	replicaDir := filepath.Join(dir, "replica")
	if err := os.MkdirAll(replicaDir, 0o755); err != nil {
		t.Fatal(err)
	}
	local := snapshot.MapPath(replicaDir, DefaultMapName)
	if err := handMap(t).SaveSnapshot(local, 1); err != nil {
		t.Fatal(err)
	}
	ownerFile := filepath.Join(dir, "owner.snap")
	if err := clusterMap(t).SaveSnapshot(ownerFile, 7); err != nil {
		t.Fatal(err)
	}
	localSize, ownerSize := fileSize(t, local), fileSize(t, ownerFile)

	owner := &fakeOwner{}
	hs := httptest.NewServer(owner)
	defer hs.Close()
	ownerNode := cluster.Node{ID: "owner", Addr: strings.TrimPrefix(hs.URL, "http://")}
	s, err := New(Config{
		Mutable:     true,
		TileSize:    32,
		SnapshotDir: replicaDir,
		Load:        true,
		Cluster: &ClusterOptions{
			Topology:      &cluster.Topology{Nodes: []cluster.Node{{ID: "replica", Addr: "127.0.0.1:1"}, ownerNode}, Replicas: 2},
			NodeID:        "replica",
			ShipInterval:  time.Hour,
			ProbeInterval: time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The hour-long intervals keep the replication loops idle: the test
	// drives the bootstraps itself.
	defer s.Close()

	if got := mappedStatsOf(t, s, DefaultMapName).MapBytes; got != localSize {
		t.Fatalf("loaded default map: map_bytes = %d, want %d", got, localSize)
	}
	base := settledMappedBytes() - localSize

	owner.version.Store(7)
	owner.path.Store(&ownerFile)
	if err := s.cluster.bootstrap(DefaultMapName, ownerNode); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if got := mappedStatsOf(t, s, DefaultMapName).MapBytes; got != ownerSize {
		t.Fatalf("bootstrapped map: map_bytes = %d, want the owner file's %d", got, ownerSize)
	}
	waitMappedAtMost(t, base+ownerSize, "after a bootstrap replaced the loaded map")

	owner.version.Store(8)
	err = s.cluster.bootstrap(DefaultMapName, ownerNode)
	if err == nil || !strings.Contains(err.Error(), "owner announced 8") {
		t.Fatalf("bootstrap of a version-7 file announced as 8: err = %v, want a version mismatch", err)
	}
	waitMappedAtMost(t, base+ownerSize, "after a refused bootstrap")
	if st := do(t, s, http.MethodGet, "/v1/stats", ""); st.Code != http.StatusOK {
		t.Fatalf("stats after refused bootstrap = %d", st.Code)
	}
	leftovers, _ := filepath.Glob(filepath.Join(replicaDir, "*.boot-*"))
	if len(leftovers) != 0 {
		t.Errorf("refused bootstrap left %v behind", leftovers)
	}
}

// stateAnswers encodes what a reader reads from one map state — HeatAt at
// each probe, one batch over them and a tile — as bytes, so two reads
// compare bit for bit.
func stateAnswers(s *Server, inst *mapInstance, st *mapState, probes []heatmap.Point) ([]byte, error) {
	var buf bytes.Buffer
	put := func(h float64, rnn []int) {
		buf.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(h)))
		fmt.Fprint(&buf, rnn)
	}
	for _, p := range probes {
		put(st.m.HeatAt(p))
	}
	heats, rnns := st.m.HeatAtBatch(probes)
	for i := range heats {
		put(heats[i], rnns[i])
	}
	td, err := s.renderTile(inst, st, 1, 0, 1)
	if err != nil {
		return nil, err
	}
	buf.Write(td.png)
	return buf.Bytes(), nil
}

// TestServedMapReadersSurviveDeleteAndReload: readers that loaded a map
// state keep answering byte-identically — heat, a batch, a tile — while a
// writer commits on the map, deletes it and re-creates it from its file,
// and a goroutine runs the collector in a loop. Each deleted instance's
// mapping is released once the last reader drops its state, and the next
// Open may be given its address range back, so a read of a released
// mapping would fault or read another file's bytes; the byte comparison
// catches the latter.
func TestServedMapReadersSurviveDeleteAndReload(t *testing.T) {
	_, b, path := loadedTenant(t, "hot")
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var probes []heatmap.Point
	for x := 0.0; x <= 110; x += 11 {
		for y := 3.0; y <= 110; y += 17 {
			probes = append(probes, heatmap.Pt(x, y))
		}
	}

	const readers = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	errs := make(chan error, readers) // each reader sends at most once
	var reads atomic.Int64            // held states read and compared
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
				inst := b.lookup("hot")
				if inst == nil {
					runtime.Gosched()
					continue
				}
				st := inst.state()
				want, err := stateAnswers(b, inst, st, probes)
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < 3; j++ {
					got, err := stateAnswers(b, inst, st, probes)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, want) {
						errs <- fmt.Errorf("version %d answered differently on re-read %d", st.version, j+1)
						return
					}
				}
				reads.Add(1)
			}
		}()
	}
	// readSome returns once the readers have read a few more states, or one
	// of them has failed.
	readSome := func() {
		for want := reads.Load() + readers; reads.Load() < want && len(errs) == 0; {
			runtime.Gosched()
		}
	}

	for round := 0; round < 6; round++ {
		body := fmt.Sprintf(`{"ops":[{"add_clients":[{"x":%d,"y":60}]}]}`, 20+10*round)
		if rec := do(t, b, http.MethodPost, "/v1/maps/hot/mutations", body); rec.Code != http.StatusOK {
			t.Fatalf("round %d: mutation = %d (body %s)", round, rec.Code, rec.Body)
		}
		readSome()
		if rec := do(t, b, http.MethodDelete, "/v1/maps/hot", ""); rec.Code != http.StatusOK {
			t.Fatalf("round %d: delete = %d (body %s)", round, rec.Code, rec.Body)
		}
		if err := os.WriteFile(path, saved, 0o644); err != nil {
			t.Fatal(err)
		}
		m, version, err := heatmap.OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.register("hot", m, version, true, nil); err != nil {
			t.Fatalf("round %d: re-creating the map from its file: %v", round, err)
		}
		readSome()
	}
	halt()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
