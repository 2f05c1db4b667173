package pointloc

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/delta"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/snapshot"
)

// openedFromIndex round-trips a built index through a format-v2 snapshot
// file and opens the index the file stores, the way heatmap.OpenSnapshot
// does.
func openedFromIndex(t testing.TB, ix *Index, measure influence.Measure) *Index {
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
		t.Fatalf("snapshot.Open: %v", err)
	}
	t.Cleanup(func() { v.Close() })
	opened, err := Open(v, measure)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return opened
}

// TestOpenedMatchesBuilt holds the index opened from a snapshot to
// structural identity and byte-identical answers against the index the
// file was saved from (and thereby the enclosure oracle the built index is
// already pinned to) on the full adversarial probe set — boundary points,
// slab edges, zero-radius centers — across all three metrics, snapped and
// unsnapped, for both serializable measures.
func TestOpenedMatchesBuilt(t *testing.T) {
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
					opened := openedFromIndex(t, ix, measure)
					assertSameIndex(t, fmt.Sprintf("measure %d", mi), opened, ix)
					ps := probePoints(rng, circles, 400)
					for _, p := range ps {
						gotH, gotR := opened.Query(p)
						wantH, wantR := ix.Query(p)
						if gotH != wantH || !reflect.DeepEqual(gotR, wantR) {
							t.Fatalf("measure %d: Query(%v): opened (%v, %v), built (%v, %v)",
								mi, p, gotH, gotR, wantH, wantR)
						}
					}
					gotHs, gotRs := opened.QueryBatch(ps)
					wantHs, wantRs := ix.QueryBatch(ps)
					if !reflect.DeepEqual(gotHs, wantHs) || !reflect.DeepEqual(gotRs, wantRs) {
						t.Fatalf("measure %d: QueryBatch diverges from the built index", mi)
					}
				}
			})
		}
	}
}

// TestMappedNoSlabIndex: Open refuses a mapped snapshot without slab
// sections.
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
	if _, err := Open(v, nil); err == nil {
		t.Error("Open on a view without slab sections succeeded, want error")
	}
}

// TestPatchOpenedConcurrently patches one file-opened index twice at once —
// a dry-run optimization beside an ingest commit — while other goroutines
// query it. Both patches seed and share the receiver's one interner; each
// result must equal a fresh build, and the receiver must keep answering as
// the file does.
func TestPatchOpenedConcurrently(t *testing.T) {
	t.Parallel()
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		circles, facilities := testInstance(t, 5, 40, 6, metric, true)
		built, err := Build(circles, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		opened := openedFromIndex(t, built, influence.Size())
		clients := make([]geom.Point, len(circles))
		for i, nc := range circles {
			clients[i] = nc.Circle.Center
		}
		res, err := core.CREST(circles, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := delta.State{Clients: clients, Facilities: facilities, Circles: circles, Labels: res.Labels}
		var updates []*delta.Outcome
		for _, d := range []delta.Delta{{RemoveClients: []int{3}}, {AddFacilities: []geom.Point{geom.Pt(50.75, 8.5)}}} {
			out, err := delta.Apply(st, d, delta.Options{Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			updates = append(updates, out)
		}
		probes := probePoints(rand.New(rand.NewSource(3)), circles, 60)
		wantH, wantR := built.QueryBatch(probes)
		patched := make([]*Index, len(updates))
		errs := make([]error, len(updates))
		var wg sync.WaitGroup
		for k, u := range updates {
			wg.Add(2)
			go func() {
				defer wg.Done()
				patched[k], errs[k] = opened.Patch(u.State.Circles, u.Stats.DirtySpans, u.Events, Options{})
			}()
			go func() {
				defer wg.Done()
				out := make([]float64, 32*32)
				opened.HeatGrid(geom.Rect{MaxX: 64, MaxY: 64}, 32, 32, out)
				for i, p := range probes {
					if h, r := opened.Query(p); h != wantH[i] || !reflect.DeepEqual(r, wantR[i]) {
						t.Errorf("%v: the receiver answers (%v, %v) at %v during patches, want (%v, %v)", metric, h, r, p, wantH[i], wantR[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		for k, u := range updates {
			if errs[k] != nil {
				t.Fatalf("%v: Patch %d: %v", metric, k, errs[k])
			}
			fresh, err := Build(u.State.Circles, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameIndex(t, fmt.Sprintf("%v concurrent patch %d", metric, k), patched[k], fresh)
		}
	}
}

// TestHeatGridWarmAllocs pins the raster kernel's scratch reuse: a warm
// 128-pixel tile, with hundreds of its pixels on the exact path, allocates
// nothing, from a built index and from one opened from a file, for every
// metric.
func TestHeatGridWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		circles, _ := testInstance(t, 11, 50, 10, metric, true)
		built, err := Build(circles, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// A pitch of 0.5 from -0.25 puts every other pixel center on the
		// integer grid the snapped circles' sides and centers lie on.
		b := geom.Rect{MinX: -0.25, MinY: -0.25, MaxX: 63.75, MaxY: 63.75}
		out := make([]float64, 128*128)
		for name, ix := range map[string]*Index{"built": built, "opened": openedFromIndex(t, built, influence.Size())} {
			ix.HeatGrid(b, 128, 128, out)
			if n := testing.AllocsPerRun(20, func() { ix.HeatGrid(b, 128, 128, out) }); n != 0 {
				t.Errorf("%v %s: a warm 128x128 HeatGrid allocates %v times", metric, name, n)
			}
		}
	}
}
