package snapshot

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rnnheatmap/internal/geom"
)

// TestAliasFallbackPaths: the zero-copy section views fall back to a decoded
// copy when the input is misaligned — the answers must match the aligned view
// bit for bit (this is the path a non-8-byte-aligned mmap offset, or a
// big-endian host, would take).
func TestAliasFallbackPaths(t *testing.T) {
	t.Parallel()
	// A 1-shifted copy of an aligned pattern is guaranteed misaligned, so it
	// takes the decoding fallback; the answers must equal the aliased view of
	// the same bytes.
	aligned := make([]byte, 64)
	for i := range aligned {
		aligned[i] = byte(i*37 + 5)
	}
	holder := make([]byte, len(aligned)+1)
	copy(holder[1:], aligned)
	shifted := holder[1:]
	if !reflect.DeepEqual(asF64(shifted), asF64(aligned)) {
		t.Error("asF64 fallback diverges from the aliased view")
	}
	if !reflect.DeepEqual(asU32(shifted), asU32(aligned)) {
		t.Error("asU32 fallback diverges from the aliased view")
	}
	if !reflect.DeepEqual(asI32(shifted), asI32(aligned)) {
		t.Error("asI32 fallback diverges from the aliased view")
	}
	if !reflect.DeepEqual(asPoints(shifted), asPoints(aligned)) {
		t.Error("asPoints fallback diverges from the aliased view")
	}
	if asF64(nil) != nil || asU32(nil) != nil || asI32(nil) != nil || asPoints(nil) != nil {
		t.Error("empty sections must view as nil slices")
	}
}

// TestSlabViewValidate exercises the structural invariants Open enforces on
// the optional slab point-location sections, one violation at a time.
func TestSlabViewValidate(t *testing.T) {
	t.Parallel()
	valid := func() (*SlabView, *Meta) {
		return &SlabView{
				Xs:      []float64{0, 1},
				ActOff:  []uint32{0, 1, 2},
				Actives: []int32{0, 1},
				EdgeOff: []uint32{0, 1, 2},
				Arcs:    []uint32{0<<1 | 1, 1 << 1},
				Gaps:    []uint32{0, 0, 0, 0},
				ZeroXs:  []float64{0.5},
				ZeroIdx: []int32{1},
			}, &Meta{
				Metric:     geom.L2,
				NumSlabs:   2,
				NumCircles: 2,
				NumPool:    1,
			}
	}
	// rect turns the valid L2 view into an L∞ one: heights, no arcs.
	rect := func(s *SlabView, m *Meta) {
		m.Metric = geom.LInf
		s.Edges, s.Arcs = []float64{0.5, 0.25}, nil
	}
	for name, mutate := range map[string]func(s *SlabView, m *Meta){
		"L2":                     func(*SlabView, *Meta) {},
		"L2 with earlier height": func(s *SlabView, m *Meta) { s.Edges = []float64{0.5, 0.25} },
		"LInf":                   rect,
	} {
		s, m := valid()
		mutate(s, m)
		if err := s.validate(m); err != nil {
			t.Fatalf("valid %s slab view rejected: %v", name, err)
		}
	}

	cases := []struct {
		name   string
		mutate func(s *SlabView, m *Meta)
		// section names the list the error must name.
		section string
	}{
		{"xs count", func(s *SlabView, m *Meta) { s.Xs = s.Xs[:1] }, "slab xs"},
		{"offset arity", func(s *SlabView, m *Meta) { s.ActOff = s.ActOff[:2] }, "slab offset arrays"},
		{"offsets not from 0", func(s *SlabView, m *Meta) { s.ActOff[0] = 1 }, "slab actives offsets"},
		{"offsets decrease", func(s *SlabView, m *Meta) { s.ActOff[1] = 2; s.ActOff[2] = 1; s.Actives = s.Actives[:1] }, "slab actives offsets"},
		{"offsets end short", func(s *SlabView, m *Meta) { s.ActOff[2] = 1 }, "slab actives offsets"},
		{"active out of range", func(s *SlabView, m *Meta) { s.Actives[0] = 9 }, "slab active circle"},
		{"arc count", func(s *SlabView, m *Meta) { s.Arcs = s.Arcs[:1] }, "slab arcs"},
		{"edge offsets decrease", func(s *SlabView, m *Meta) { s.EdgeOff[1] = 3 }, "slab edge offsets"},
		{"L2 heights short", func(s *SlabView, m *Meta) { s.Edges = []float64{0.5} }, "slab edges"},
		{"L2 heights long", func(s *SlabView, m *Meta) { s.Edges = []float64{0.5, 0.25, 1} }, "slab edges"},
		{"rectilinear arcs", func(s *SlabView, m *Meta) { rect(s, m); s.Arcs = []uint32{1, 2} }, "slab arcs"},
		{"rectilinear heights", func(s *SlabView, m *Meta) { rect(s, m); s.Edges = s.Edges[:1] }, "slab edges"},
		{"arc circle out of range", func(s *SlabView, m *Meta) { s.Arcs[0] = 9 << 1 }, "slab arc circle"},
		{"gap count", func(s *SlabView, m *Meta) { s.Gaps = s.Gaps[:3] }, "slab gaps"},
		{"gap pool out of range", func(s *SlabView, m *Meta) { s.Gaps[2] = 7 }, "slab gap"},
		{"zero arrays disagree", func(s *SlabView, m *Meta) { s.ZeroIdx = nil }, "zero-circle arrays"},
		{"zero xs decrease", func(s *SlabView, m *Meta) {
			s.ZeroXs = []float64{2, 1}
			s.ZeroIdx = []int32{0, 0}
		}, "zero-circle xs"},
		{"slab xs not increasing", func(s *SlabView, m *Meta) { s.Xs[1] = s.Xs[0] }, "slab boundaries"},
	}
	for _, tc := range cases {
		s, m := valid()
		tc.mutate(s, m)
		if err := s.validate(m); err == nil {
			t.Errorf("%s: validate accepted the damaged view", tc.name)
		} else if !strings.Contains(err.Error(), tc.section) {
			t.Errorf("%s: validate returned %q, want an error naming %q", tc.name, err, tc.section)
		}
	}
}

// TestOpenWALReinitializesShortFile: a file shorter than the header is the
// footprint of a crash between create and header write — OpenWAL must
// re-initialize it rather than refuse to start, and Path names it.
func TestOpenWALReinitializesShortFile(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "stub.wal")
	if err := os.WriteFile(path, []byte("RN"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL on a short file: %v", err)
	}
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("re-initialized WAL returned %d records", len(recs))
	}
	if w.Path() != path {
		t.Errorf("Path = %q, want %q", w.Path(), path)
	}
	rec := Record{Version: 1, AddClients: []geom.Point{{X: 1, Y: 2}}}
	if err := w.AppendBatch([]Record{rec}); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], rec) {
		t.Fatalf("reopen after re-init = %+v", got)
	}
}
