package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/postprocess"
)

// sampleL2 is sample() with its metric set to L2, the metric sampleTables()
// is shaped for.
func sampleL2() *Snapshot {
	s := sample()
	s.Metric = geom.L2
	return s
}

// checkSlabIndex asserts that v carries exactly the slab index tables were
// encoded from: every slab's lists concatenated verbatim behind their
// prefix offsets, and each gap's pool id resolving to the gap label's
// members and heat.
func checkSlabIndex(t *testing.T, v *View, tables *SlabTables) {
	t.Helper()
	if !v.Meta().HasSlabIndex || !v.HasSlabIndex() {
		t.Fatal("snapshot written with tables claims no slab index")
	}
	sv, flat := v.Slab(), flatten(tables)
	if !reflect.DeepEqual(sv.Xs, flat.Xs) || !reflect.DeepEqual(sv.ActOff, flat.ActOff) ||
		!reflect.DeepEqual(sv.Actives, flat.Actives) || !reflect.DeepEqual(sv.EdgeOff, flat.EdgeOff) ||
		!reflect.DeepEqual(sv.Edges, flat.Edges) || !reflect.DeepEqual(sv.Arcs, flat.Arcs) ||
		!reflect.DeepEqual(sv.ZeroXs, flat.ZeroXs) || !reflect.DeepEqual(sv.ZeroIdx, flat.ZeroIdx) {
		t.Errorf("slab arrays mismatch:\n got %+v\nwant %+v", sv, flat)
	}
	if len(sv.Gaps) != len(flat.Gaps) {
		t.Fatalf("%d gaps, want %d", len(sv.Gaps), len(flat.Gaps))
	}
	for i, id := range sv.Gaps {
		wantRNN, wantHeat := tables.Set(flat.Gaps[i])
		if got := v.PoolRNN(id); !reflect.DeepEqual(got, wantRNN) || v.PoolHeats()[id] != wantHeat {
			t.Errorf("gap %d: pool %d holds %v heat %v, want %v heat %v",
				i, id, got, v.PoolHeats()[id], wantRNN, wantHeat)
		}
	}
	// The gap set has the same content as label 0's RNN set, so the pool
	// folds them into one record: two records, not three.
	if v.Meta().NumPool != 2 {
		t.Errorf("pool has %d records, want 2 (gap set shared with a label)", v.Meta().NumPool)
	}
}

// TestV2RoundTrip: encoding an L2 snapshot together with its slab index and
// reading it back through a heap-backed View reproduces the snapshot, the
// slab index and the version field.
func TestV2RoundTrip(t *testing.T) {
	t.Parallel()
	want, tables := sampleL2(), sampleTables()
	var buf bytes.Buffer
	if err := want.Encode(&buf, tables); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := binary.LittleEndian.Uint16(buf.Bytes()[4:6]); got != Version {
		t.Errorf("encoded version %d, want %d", got, Version)
	}
	v, err := newView(buf.Bytes(), false)
	if err != nil {
		t.Fatalf("newView: %v", err)
	}
	if got := fromFile(t, v, v.Snapshot()); !reflect.DeepEqual(got, stored(want)) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, stored(want))
	}
	checkSlabIndex(t, v, tables)
}

// TestV2CarriedSummary: a snapshot that carries its labels' summary encodes
// to the bytes of one whose encoder computes it.
func TestV2CarriedSummary(t *testing.T) {
	t.Parallel()
	s, tables := sampleL2(), sampleTables()
	var computed, carried bytes.Buffer
	if err := s.Encode(&computed, tables); err != nil {
		t.Fatal(err)
	}
	sum := postprocess.Summarize(s.Labels)
	s.Summary = &sum
	if err := s.Encode(&carried, tables); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(carried.Bytes(), computed.Bytes()) {
		t.Fatal("a carried summary changed the snapshot bytes")
	}
}

// TestV2FileRoundTrip: WriteFile with a slab index + Open reproduces the
// snapshot and the slab index through the file path, and the meta's counts
// match the snapshot.
func TestV2FileRoundTrip(t *testing.T) {
	t.Parallel()
	want, tables := sampleL2(), sampleTables()
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := want.WriteFile(path, tables); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	v, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer v.Close()
	m := v.Meta()
	if m.Metric != geom.L2 || m.NumClients != len(want.Clients) ||
		m.NumCircles != len(want.Circles) || m.NumLabels != len(want.Labels) {
		t.Errorf("Meta mismatch: %+v", m)
	}
	if got := fromFile(t, v, v.Snapshot()); !reflect.DeepEqual(got, stored(want)) {
		t.Errorf("View.Snapshot mismatch:\n got %+v\nwant %+v", got, stored(want))
	}
	checkSlabIndex(t, v, tables)
}

// TestV2PoolDedup: two labels with the same RNN set share one pool record,
// and distinct sets get distinct records.
func TestV2PoolDedup(t *testing.T) {
	t.Parallel()
	s := sample()
	s.Labels = append(s.Labels, s.Labels[0]) // duplicate content
	var buf bytes.Buffer
	if err := s.Encode(&buf, nil); err != nil {
		t.Fatal(err)
	}
	v, err := newView(buf.Bytes(), false)
	if err != nil {
		t.Fatalf("newView: %v", err)
	}
	if v.meta.NumPool != 2 {
		t.Errorf("pool has %d records, want 2 (dedup)", v.meta.NumPool)
	}
	got := v.Snapshot()
	if !reflect.DeepEqual(fromFile(t, v, got).Labels, stored(s).Labels) {
		t.Errorf("labels mismatch after dedup")
	}
	// Shared pool record means shared backing array.
	if &got.Labels[0].RNN[0] != &got.Labels[2].RNN[0] {
		t.Errorf("duplicate labels do not share the pool slice")
	}
}

// TestV2RejectsCorruption: in a file without a slab index (the smaller
// section set TestSnapshotRejectsCorruption does not cover), a flipped byte
// in the section table, the first payload or the last payload byte is
// caught at Open, and so is a truncation.
func TestV2RejectsCorruption(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := sample().Encode(&buf, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	// Inter-section padding is the only unprotected region; the first
	// payload starts right after the padded header.
	nSec := int(binary.LittleEndian.Uint16(good[6:8]))
	base := (8 + nSec*tableEntrySize + 4 + 7) &^ 7
	for _, off := range []int{9, 20, base + 2, len(good) - 1} {
		b := append([]byte(nil), good...)
		b[off] ^= 0xff
		path := filepath.Join(dir, "corrupt.snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, err := Open(path); err == nil {
			v.Close()
			t.Errorf("Open accepted a file with byte %d flipped", off)
		}
	}
	for _, n := range []int{7, 40, len(good) - 3} {
		path := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if v, err := Open(path); err == nil {
			v.Close()
			t.Errorf("Open accepted a file truncated to %d bytes", n)
		}
	}
}

// failWriter refuses every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// rectTables is sampleTables as an L∞ or L1 slab index stores it, for
// sample(): each slab's edges are heights, and no slab carries arcs.
func rectTables() *SlabTables {
	tables := sampleTables()
	slab := tables.Slab
	tables.Slab = func(i int) SlabLists {
		sl := slab(i)
		sl.Edges, sl.Arcs = []float64{0.5 - 0.25*float64(i)}, nil
		return sl
	}
	return tables
}

// TestEncodeRefusesMalformedTables: tables whose slab has the wrong number
// of gaps, a gap naming a set id past NumSets, heights on an L2 slab or
// arcs on a rectilinear one are refused before a byte is written, and a
// writer's error is returned.
func TestEncodeRefusesMalformedTables(t *testing.T) {
	t.Parallel()
	for _, s := range []*Snapshot{sample(), sampleL2()} {
		tables := rectTables()
		if s.Metric == geom.L2 {
			tables = sampleTables()
		}
		if err := s.Encode(io.Discard, tables); err != nil {
			t.Fatalf("%v: Encode refused the well-formed tables: %v", s.Metric, err)
		}
	}
	for _, c := range []struct {
		name   string
		s      *Snapshot
		tables func() *SlabTables
		mutate func(*SlabLists)
	}{
		{"gap count", sampleL2(), sampleTables, func(sl *SlabLists) { sl.Gaps = sl.Gaps[:1] }},
		{"gap set id", sampleL2(), sampleTables, func(sl *SlabLists) { sl.Gaps = []uint32{0, 5} }},
		{"L2 heights", sampleL2(), sampleTables, func(sl *SlabLists) { sl.Edges = []float64{0.25} }},
		{"rectilinear arcs", sample(), rectTables, func(sl *SlabLists) { sl.Arcs = []uint32{1 << 1} }},
		{"rectilinear gap count", sample(), rectTables, func(sl *SlabLists) { sl.Gaps = append(sl.Gaps, 0) }},
	} {
		tables := c.tables()
		slab := tables.Slab
		tables.Slab = func(i int) SlabLists {
			sl := slab(i)
			if i == 1 {
				c.mutate(&sl)
			}
			return sl
		}
		var buf bytes.Buffer
		if err := c.s.Encode(&buf, tables); err == nil || buf.Len() != 0 {
			t.Errorf("%s: Encode wrote %d bytes and returned %v, want a refusal before writing", c.name, buf.Len(), err)
		}
	}
	s := sampleL2()
	if err := s.Encode(failWriter{}, sampleTables()); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Encode into a failing writer returned %v, want its error", err)
	}
}
