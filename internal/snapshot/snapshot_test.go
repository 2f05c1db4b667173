package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// sample builds a snapshot exercising every field, including a measure with
// capacity context.
func sample() *Snapshot {
	return &Snapshot{
		MapVersion:    7,
		Metric:        geom.L1,
		Monochromatic: false,
		Algorithm:     "crest",
		Workers:       3,
		Measure: influence.Spec{
			Kind: "capacity",
			Capacity: &influence.CapacityContext{
				Assignment:          []int{0, 1, 0},
				Capacities:          []float64{2.5, 1},
				NewFacilityCapacity: 4,
			},
		},
		Clients:    []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: -5, Y: 0.25}},
		Facilities: []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}},
		Circles: []nncircle.NNCircle{
			{Client: 0, Facility: 0, Circle: geom.NewCircle(geom.Pt(1, 2), 2.23, geom.L1)},
			{Client: 1, Facility: 1, Circle: geom.NewCircle(geom.Pt(3, 4), 9.2, geom.L1)},
			{Client: 2, Facility: 0, Circle: geom.NewCircle(geom.Pt(-5, 0.25), 5.25, geom.L1)},
		},
		Labels: []core.Label{
			{Region: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Point: geom.Pt(0.5, 0.5), RNN: []int{0, 2}, Heat: 2},
			{Region: geom.Rect{MinX: 1, MinY: 0, MaxX: 2, MaxY: 3}, Point: geom.Pt(1.5, 1.5), RNN: []int{1}, Heat: 1},
		},
		MaxHeat:  2,
		MaxLabel: core.Label{Region: geom.Rect{MaxX: 1, MaxY: 1}, Point: geom.Pt(0.5, 0.5), RNN: []int{0, 2}, Heat: 2},
		Stats: core.Stats{
			Circles: 3, Events: 12, Labelings: 2, InfluenceCalls: 2,
			MaxRNNSetSize: 2, Duration: 1234 * time.Microsecond,
		},
	}
}

// sampleTables is a small structurally valid slab index for sample() with
// its metric set to L2, so every section kind, arcs included, is present
// and non-empty in the encoded file.
func sampleTables() *SlabTables {
	return &SlabTables{
		Xs:      []float64{0, 1},
		ActOff:  []uint32{0, 1, 2},
		Actives: []int32{0, 1},
		EdgeOff: []uint32{0, 1, 2},
		Edges:   []float64{0.5, 0.25},
		Arcs:    []uint32{0<<1 | 1, 1 << 1},
		Gaps:    []uint32{0, 0, 0, 0},
		NumSets: 1,
		Set:     func(uint32) ([]int, float64) { return []int{0, 2}, 2 },
		ZeroXs:  []float64{0.5},
		ZeroIdx: []int32{1},
	}
}

// TestSnapshotRoundTrip: encoding the sample and reading it back through a
// heap-backed View (the path builds without mmap take) reproduces the exact
// snapshot, capacity measure context included.
func TestSnapshotRoundTrip(t *testing.T) {
	t.Parallel()
	want := sample()
	var buf bytes.Buffer
	if err := want.Encode(&buf, nil); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	v, err := newView(buf.Bytes(), false)
	if err != nil {
		t.Fatalf("newView: %v", err)
	}
	if got := v.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotFileRoundTrip: WriteFile + Open reproduces the original, and
// the mapped view's meta matches the snapshot's derived quantities.
func TestSnapshotFileRoundTrip(t *testing.T) {
	t.Parallel()
	want := sample()
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := want.WriteFile(path, nil); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	v, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer v.Close()
	m := v.Meta()
	if m.MapVersion != want.MapVersion || m.Metric != want.Metric ||
		m.Algorithm != want.Algorithm || m.Workers != want.Workers {
		t.Errorf("Meta mismatch: %+v", m)
	}
	if m.NumClients != len(want.Clients) || m.NumCircles != len(want.Circles) ||
		m.NumLabels != len(want.Labels) {
		t.Errorf("Meta counts mismatch: %+v", m)
	}
	if m.Summary.Count != len(want.Labels) || m.Summary.MaxHeat != 2 {
		t.Errorf("Meta summary mismatch: %+v", m.Summary)
	}
	if m.HasSlabIndex || v.HasSlabIndex() {
		t.Error("sample written without tables claims a slab index")
	}
	if got := v.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("View.Snapshot mismatch:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.Circles {
		if v.CircleAt(i) != want.Circles[i] {
			t.Errorf("CircleAt(%d) = %+v, want %+v", i, v.CircleAt(i), want.Circles[i])
		}
	}
}

// reseal recomputes every section CRC and the header CRC of an encoded
// snapshot, so a test can plant damage the checksums would otherwise catch
// and reach the structural checks behind them.
func reseal(b []byte) {
	nSec := int(binary.LittleEndian.Uint16(b[6:8]))
	headerLen := 8 + nSec*tableEntrySize + 4
	for i := 0; i < nSec; i++ {
		ent := b[8+i*tableEntrySize:]
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		binary.LittleEndian.PutUint32(ent[4:], crc32.ChecksumIEEE(b[off:off+length]))
	}
	binary.LittleEndian.PutUint32(b[headerLen-4:], crc32.ChecksumIEEE(b[:headerLen-4]))
}

// TestSnapshotRejectsCorruption: Open refuses every damaged or foreign file
// with an error, never a misread map: a bad magic, any version but Version
// (the retired format 1 included), a flipped byte in the section table or
// in any section, a truncation, and a length prefix past the sanity bound.
func TestSnapshotRejectsCorruption(t *testing.T) {
	t.Parallel()
	s := sample()
	s.Metric = geom.L2 // L2 stores slab arcs, so every section kind is present
	var buf bytes.Buffer
	if err := s.Encode(&buf, sampleTables()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	tryOpen := func(t *testing.T, b []byte) (string, error) {
		t.Helper()
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := Open(path)
		if err == nil {
			v.Close()
		}
		return path, err
	}
	if _, err := tryOpen(t, good); err != nil {
		t.Fatalf("Open of the undamaged file: %v", err)
	}

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 'X'
		if _, err := tryOpen(t, b); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("Open of bad magic: %v, want magic error", err)
		}
	})
	for _, tc := range []struct {
		name    string
		version uint16
	}{{"retired version 1", 1}, {"future version", Version + 1}} {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(b[4:6], tc.version)
			path, err := tryOpen(t, b)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", tc.version)) ||
				!strings.Contains(err.Error(), path) {
				t.Errorf("Open of version %d: %v, want an error naming the file and the version", tc.version, err)
			}
		})
	}
	t.Run("flipped body byte", func(t *testing.T) {
		nSec := int(binary.LittleEndian.Uint16(good[6:8]))
		if nSec != 20 {
			t.Fatalf("sample encodes %d sections, want all 20 kinds", nSec)
		}
		// Two bytes of the section table and the header CRC, then one byte
		// inside every section's payload. Inter-section padding is the only
		// unprotected region.
		offs := []int{9, 20, 8 + nSec*tableEntrySize}
		for i := 0; i < nSec; i++ {
			ent := good[8+i*tableEntrySize:]
			off := binary.LittleEndian.Uint64(ent[8:])
			length := binary.LittleEndian.Uint64(ent[16:])
			if length == 0 {
				t.Fatalf("section %d is empty", binary.LittleEndian.Uint32(ent))
			}
			offs = append(offs, int(off+length/2))
		}
		for _, off := range offs {
			b := append([]byte(nil), good...)
			b[off] ^= 0xff
			if _, err := tryOpen(t, b); err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Errorf("Open with byte %d flipped: %v, want a checksum error", off, err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{7, 40, len(good) / 2, len(good) - 3} {
			if _, err := tryOpen(t, good[:n]); err == nil {
				t.Errorf("Open accepted a file truncated to %d bytes", n)
			}
		}
	})
	t.Run("insane length prefix", func(t *testing.T) {
		b := append([]byte(nil), good...)
		// The meta section comes first; its algorithm-string length prefix
		// sits after mapVersion(8)+metric(1)+flags(1).
		meta := binary.LittleEndian.Uint64(b[8+8:])
		binary.LittleEndian.PutUint32(b[meta+10:], 1<<30)
		reseal(b)
		if _, err := tryOpen(t, b); err == nil || !strings.Contains(err.Error(), "sanity") {
			t.Errorf("Open with huge length prefix: %v, want sanity-bound error", err)
		}
	})
}

func walRecords() []Record {
	return []Record{
		{Version: 2, AddClients: []geom.Point{{X: 5, Y: 6}}},
		{Version: 3, RemoveClients: []int{2}, AddFacilities: []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}},
		{Version: 4, RemoveFacilities: []int{0}},
	}
}

func TestWALAppendReopen(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL has %d records", len(recs))
	}
	want := walRecords()
	for _, rec := range want {
		if err := w.AppendBatch([]Record{rec}); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed records = %+v, want %+v", got, want)
	}

	// Appending after reopen extends the log.
	extra := Record{Version: 5, AddClients: []geom.Point{{X: 9, Y: 9}}}
	if err := w2.AppendBatch([]Record{extra}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, got, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 || !reflect.DeepEqual(got[len(got)-1], extra) {
		t.Errorf("after append-after-reopen got %d records, want %d", len(got), len(want)+1)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := walRecords()
	for _, rec := range want {
		if err := w.AppendBatch([]Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a crash mid-append: half a frame of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0, 0, 0, 0xde}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore, _ := os.Stat(path)

	w2, got, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL on torn file: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("torn tail dropped records: got %d, want %d", len(got), len(want))
	}
	sizeAfter, _ := os.Stat(path)
	if sizeAfter.Size() >= sizeBefore.Size() {
		t.Errorf("torn tail not truncated: %d -> %d bytes", sizeBefore.Size(), sizeAfter.Size())
	}
	// The reopened WAL must be appendable and clean.
	if err := w2.AppendBatch([]Record{{Version: 5}}); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
}

func TestWALReset(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range walRecords() {
		if err := w.AppendBatch([]Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := w.AppendBatch([]Record{{Version: 9}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, got, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Version != 9 {
		t.Errorf("after reset+append got %+v, want one record at version 9", got)
	}
}

func TestWALShortHeaderReinitialized(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.wal")
	// A crash between file creation and the header write leaves a short
	// file; it must be re-initialized, not refused.
	if err := os.WriteFile(path, []byte{'R', 'N'}, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL on torn header: %v", err)
	}
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("torn-header WAL yielded %d records", len(recs))
	}
	if err := w.AppendBatch([]Record{{Version: 2}}); err != nil {
		t.Fatalf("append after reinit: %v", err)
	}
}

func TestWALRejectsBadLengthMidFile(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range walRecords() {
		if err := w.AppendBatch([]Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first frame's length field with an absurd value. Valid
	// acknowledged records follow it, so this must be an error — truncating
	// here would silently discard them.
	binary.LittleEndian.PutUint32(b[walHeaderLen:walHeaderLen+4], 1<<30)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("OpenWAL on bad mid-file length: %v, want corruption error", err)
	}
}

func TestWALRejectsMiddleCorruption(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range walRecords() {
		if err := w.AppendBatch([]Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload (frame starts right
	// after the 6-byte header; payload starts 8 bytes later).
	b[walHeaderLen+8] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("OpenWAL on mid-file corruption: %v, want corruption error", err)
	}
}
