package pointloc

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/snapshot"
)

// mappedFromIndex round-trips a built index through a format-v2 snapshot
// file and opens it as a Mapped locator, the way heatmap.OpenSnapshot does.
func mappedFromIndex(t *testing.T, ix *Index, measure influence.Measure) *Mapped {
	t.Helper()
	spec, err := influence.SpecOf(measure)
	if err != nil {
		t.Fatalf("SpecOf: %v", err)
	}
	snap := &snapshot.Snapshot{
		Metric:    ix.Metric(),
		Algorithm: "crest",
		Workers:   1,
		Measure:   spec,
		Circles:   ix.all,
	}
	path := filepath.Join(t.TempDir(), "ix.snap")
	if err := snap.WriteFile(path, ix.ExportTables()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	v, err := snapshot.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { v.Close() })
	m, err := NewMapped(v, measure)
	if err != nil {
		t.Fatalf("NewMapped: %v", err)
	}
	return m
}

// TestMappedMatchesIndex holds the mmap-backed locator to byte-identity
// against the heap index (and thereby the enclosure oracle the index is
// already pinned to) on the full adversarial probe set — boundary points,
// slab edges, zero-radius centers — across all three metrics, snapped and
// unsnapped, for both serializable measures.
func TestMappedMatchesIndex(t *testing.T) {
	t.Parallel()
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for _, snapped := range []bool{false, true} {
			metric, snapped := metric, snapped
			t.Run(fmt.Sprintf("%v/snapped=%v", metric, snapped), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(77))
				circles, _ := testInstance(t, 42, 60, 18, metric, snapped)
				for mi, measure := range measuresForTest(60, rng) {
					ix, err := Build(circles, measure, Options{})
					if err != nil {
						t.Fatalf("Build: %v", err)
					}
					mapped := mappedFromIndex(t, ix, measure)
					if mapped.NumSlabs() != ix.NumSlabs() || mapped.Cells() != ix.Cells() {
						t.Errorf("stats mismatch: mapped %d slabs/%d cells, index %d/%d",
							mapped.NumSlabs(), mapped.Cells(), ix.NumSlabs(), ix.Cells())
					}
					ps := probePoints(rng, circles, 400)
					for _, p := range ps {
						gotH, gotR := mapped.Query(p)
						wantH, wantR := ix.Query(p)
						if gotH != wantH || !reflect.DeepEqual(gotR, wantR) {
							t.Fatalf("measure %d: Query(%v): mapped (%v, %v), index (%v, %v)",
								mi, p, gotH, gotR, wantH, wantR)
						}
					}
					gotHs, gotRs := mapped.QueryBatch(ps)
					wantHs, wantRs := ix.QueryBatch(ps)
					if !reflect.DeepEqual(gotHs, wantHs) || !reflect.DeepEqual(gotRs, wantRs) {
						t.Fatalf("measure %d: QueryBatch diverges from index", mi)
					}
				}
			})
		}
	}
}

// TestMappedNoSlabIndex: NewMapped refuses a view without slab sections.
func TestMappedNoSlabIndex(t *testing.T) {
	t.Parallel()
	circles, _ := testInstance(t, 7, 10, 4, geom.LInf, false)
	snap := &snapshot.Snapshot{Metric: geom.LInf, Algorithm: "crest", Workers: 1, Circles: circles}
	path := filepath.Join(t.TempDir(), "noslab.snap")
	if err := snap.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	v, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, err := NewMapped(v, nil); err == nil {
		t.Error("NewMapped on a view without slab sections succeeded, want error")
	}
}
