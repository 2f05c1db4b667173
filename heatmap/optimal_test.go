package heatmap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rnnheatmap/internal/geom"
)

// bruteForceOptimal is the reference answer: a linear scan over every
// labeled region keeping the first one that strictly exceeds the running
// maximum — the most naive argmax there is.
func bruteForceOptimal(m *Map) (Region, bool) {
	regions := m.Regions()
	if len(regions) == 0 {
		return Region{}, false
	}
	best := regions[0]
	for _, r := range regions[1:] {
		if r.Heat > best.Heat {
			best = r
		}
	}
	return best, true
}

// randomInstance builds a random map for the differential suites.
func randomInstance(t *testing.T, rng *rand.Rand, metric Metric, workers, nClients, nFacilities int) *Map {
	t.Helper()
	pt := func() Point { return Pt(rng.Float64()*100, rng.Float64()*100) }
	cfg := Config{Metric: metric, Workers: workers}
	for i := 0; i < nClients; i++ {
		cfg.Clients = append(cfg.Clients, pt())
	}
	for i := 0; i < nFacilities; i++ {
		cfg.Facilities = append(cfg.Facilities, pt())
	}
	m, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build(%v workers=%d): %v", metric, workers, err)
	}
	return m
}

// TestOptimalMatchesBruteForce is the central differential suite: on random
// instances across every metric and worker count, Optimal() must be
// byte-identical — heat, RNN set and representative point — to the brute
// force scan over Regions().
func TestOptimalMatchesBruteForce(t *testing.T) {
	for _, metric := range []Metric{LInf, L1, L2} {
		for _, workers := range []int{1, 3} {
			t.Run(metric.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7*workers) + int64(metric)))
				for trial := 0; trial < 8; trial++ {
					m := randomInstance(t, rng, metric, workers, 40, 12)
					want, ok := bruteForceOptimal(m)
					if !ok {
						t.Fatal("random instance has no regions")
					}
					got, err := m.Optimal()
					if err != nil {
						t.Fatalf("Optimal: %v", err)
					}
					if got.Heat != want.Heat || got.Point != want.Point || !reflect.DeepEqual(got.RNN, want.RNN) {
						t.Fatalf("trial %d: Optimal = {heat %v, rnn %v, point %v}, brute force = {heat %v, rnn %v, point %v}",
							trial, got.Heat, got.RNN, got.Point, want.Heat, want.RNN, want.Point)
					}
					// The argmax also agrees with the sweep's own max tracking.
					maxHeat, maxRegion := m.MaxHeat()
					if got.Heat != maxHeat || got.Point != maxRegion.Point {
						t.Fatalf("trial %d: Optimal at %v heat %v, MaxHeat at %v heat %v",
							trial, got.Point, got.Heat, maxRegion.Point, maxHeat)
					}
					if !got.HasGeometry {
						t.Fatalf("trial %d: expected slab geometry on a small instance", trial)
					}
					if got.Area <= 0 || got.Cells <= 0 {
						t.Fatalf("trial %d: degenerate geometry: area %v cells %d", trial, got.Area, got.Cells)
					}
					if !got.Bounds.Contains(got.Point) {
						t.Fatalf("trial %d: representative %v outside face bounds %+v", trial, got.Point, got.Bounds)
					}
				}
			})
		}
	}
}

// TestOptimalTopKOrdering checks the ranking contract: distinct sets, heat
// non-increasing, first element == Optimal, and no more than k entries.
func TestOptimalTopKOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomInstance(t, rng, L2, 2, 40, 10)
	regs, err := m.OptimalTopK(5, OptimalConstraints{})
	if err != nil {
		t.Fatalf("OptimalTopK: %v", err)
	}
	if len(regs) == 0 || len(regs) > 5 {
		t.Fatalf("got %d regions, want 1..5", len(regs))
	}
	best, _ := m.Optimal()
	if regs[0].Heat != best.Heat || regs[0].Point != best.Point {
		t.Fatalf("top-1 of OptimalTopK %+v != Optimal %+v", regs[0], best)
	}
	seen := map[string]bool{}
	for i, r := range regs {
		if i > 0 && r.Heat > regs[i-1].Heat {
			t.Fatalf("heat not non-increasing at %d: %v after %v", i, r.Heat, regs[i-1].Heat)
		}
		key := ""
		for _, id := range r.RNN {
			key += string(rune(id)) + ","
		}
		if seen[key] {
			t.Fatalf("duplicate RNN set %v in top-k", r.RNN)
		}
		seen[key] = true
	}
}

// TestOptimalConstraints exercises min_dist and bbox against facts
// independently recomputable from the returned regions.
func TestOptimalConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomInstance(t, rng, LInf, 1, 40, 10)

	t.Run("min dist", func(t *testing.T) {
		const minDist = 15.0
		regs, err := m.OptimalTopK(100, OptimalConstraints{MinDist: minDist})
		if err != nil {
			t.Fatalf("OptimalTopK: %v", err)
		}
		unconstrained, _ := m.OptimalTopK(100, OptimalConstraints{})
		if len(regs) >= len(unconstrained) {
			t.Fatalf("min-dist filter dropped nothing (%d vs %d regions)", len(regs), len(unconstrained))
		}
		facilities := m.cfg.Facilities
		for _, r := range regs {
			for _, f := range facilities {
				if m.cfg.Metric.Distance(r.Point, f) < minDist {
					t.Fatalf("region at %v violates min_dist: facility %v at %v", r.Point, f, m.cfg.Metric.Distance(r.Point, f))
				}
			}
		}
	})

	t.Run("bbox", func(t *testing.T) {
		box := Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}
		regs, err := m.OptimalTopK(100, OptimalConstraints{Bounds: &box})
		if err != nil {
			t.Fatalf("OptimalTopK: %v", err)
		}
		for _, r := range regs {
			if !box.Contains(r.Point) {
				t.Fatalf("region representative %v outside bbox", r.Point)
			}
		}
	})

	t.Run("min area", func(t *testing.T) {
		all, err := m.OptimalTopK(1000, OptimalConstraints{})
		if err != nil {
			t.Fatalf("OptimalTopK: %v", err)
		}
		// Pick a threshold between the extremes so the filter provably bites.
		minA, maxA := math.Inf(1), math.Inf(-1)
		for _, r := range all {
			minA = math.Min(minA, r.Area)
			maxA = math.Max(maxA, r.Area)
		}
		if minA >= maxA {
			t.Skip("all regions have equal area; threshold cannot discriminate")
		}
		thr := (minA + maxA) / 2
		regs, err := m.OptimalTopK(1000, OptimalConstraints{MinArea: thr})
		if err != nil {
			t.Fatalf("OptimalTopK: %v", err)
		}
		if len(regs) == 0 || len(regs) >= len(all) {
			t.Fatalf("min-area filter kept %d of %d", len(regs), len(all))
		}
		for _, r := range regs {
			if r.Area < thr {
				t.Fatalf("region area %v below threshold %v", r.Area, thr)
			}
		}
	})

	t.Run("min area without slab index", func(t *testing.T) {
		cfg := m.cfg
		cfg.NoSlabIndex = true
		bare, err := Build(cfg)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if _, err := bare.OptimalTopK(1, OptimalConstraints{MinArea: 1}); !errors.Is(err, ErrNeedGeometry) {
			t.Fatalf("err = %v, want ErrNeedGeometry", err)
		}
		// Without constraints the label-scan fallback still answers, sans
		// geometry.
		best, err := bare.Optimal()
		if err != nil {
			t.Fatalf("Optimal without slab index: %v", err)
		}
		if best.HasGeometry {
			t.Fatal("fallback answer claims geometry")
		}
		withGeo, _ := m.Optimal()
		if best.Heat != withGeo.Heat || best.Point != withGeo.Point {
			t.Fatalf("fallback argmax %+v != slab argmax %+v", best, withGeo)
		}
	})
}

// TestGreedyPlaceMatchesManualChain pins the acceptance criterion: a 3-step
// greedy run equals manually chaining ApplyDeltaBatch at each step's
// reported argmax point, and the final what-if map equals one
// ApplyDeltaBatch with all three deltas.
func TestGreedyPlaceMatchesManualChain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := randomInstance(t, rng, L2, 2, 50, 8)

	steps, final, err := m.GreedyPlace(context.Background(), 3, OptimalConstraints{})
	if err != nil {
		t.Fatalf("GreedyPlace: %v", err)
	}
	if len(steps) != 3 {
		t.Fatalf("placed %d facilities, want 3", len(steps))
	}

	// Replay manually: at each step the argmax of the current map must be
	// the step's reported region, and placing there must reproduce the next
	// state.
	cur := m
	var ds []Delta
	for i, step := range steps {
		best, err := cur.Optimal()
		if err != nil {
			t.Fatalf("step %d: Optimal: %v", i, err)
		}
		if best.Point != step.Point || best.Heat != step.Heat {
			t.Fatalf("step %d: reported argmax (%v, heat %v) != recomputed (%v, heat %v)",
				i, step.Point, step.Heat, best.Point, best.Heat)
		}
		d := Delta{AddFacilities: []Point{step.Point}}
		ds = append(ds, d)
		next, _, err := cur.ApplyDeltaBatch([]Delta{d})
		if err != nil {
			t.Fatalf("step %d: ApplyDeltaBatch: %v", i, err)
		}
		maxAfter, _ := next.MaxHeat()
		if maxAfter != step.MaxHeatAfter {
			t.Fatalf("step %d: MaxHeatAfter %v, manual chain %v", i, step.MaxHeatAfter, maxAfter)
		}
		cur = next
	}
	assertSameArrangement(t, final, cur)

	// One batch with all three deltas lands on the same arrangement too
	// (ApplyDeltaBatch == chained ApplyDelta, PR 7's guarantee).
	batched, _, err := m.ApplyDeltaBatch(ds)
	if err != nil {
		t.Fatalf("ApplyDeltaBatch: %v", err)
	}
	assertSameArrangement(t, final, batched)

	// Greedy gains are the selected regions' heats and non-increasing for
	// the size measure (each placement captures the current best region).
	for i := 1; i < len(steps); i++ {
		if steps[i].Heat > steps[i-1].Heat {
			t.Fatalf("gain increased: step %d heat %v after %v", i, steps[i].Heat, steps[i-1].Heat)
		}
	}
}

// TestGreedyPlaceDefersPatches: a dry-run GreedyPlace from a map whose slab
// index is built, or opened from its file, patches no index; its final
// map's first queries and renders, concurrent ones, patch once, and the map
// then answers — regions,
// points on circle boundaries, tiles — as ApplyDeltaBatch of the steps'
// deltas and a fresh Build do, for every metric. A MinArea run resolves
// each later step's index for its geometry, one patch per step, and places
// exactly as a chain of eager ApplyDelta calls.
func TestGreedyPlaceDefersPatches(t *testing.T) {
	patches := 0
	patchHook = func() { patches++ }
	defer func() { patchHook = nil }()
	clients, facilities := snapshotTestSets(t)
	ctx := context.Background()
	for _, metric := range []Metric{LInf, L1, L2} {
		built, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "m.snap")
		if err := built.SaveSnapshot(path, 1); err != nil {
			t.Fatal(err)
		}
		opened, _, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []struct {
			name string
			m    *Map
		}{{"built", built}, {"opened", opened}} {
			c := fmt.Sprintf("%v %s", metric, src.name)
			patches = 0
			steps, final, err := src.m.GreedyPlace(ctx, 3, OptimalConstraints{})
			if err != nil || len(steps) != 3 {
				t.Fatalf("%s: GreedyPlace placed %d (%v), want 3", c, len(steps), err)
			}
			if patches != 0 {
				t.Fatalf("%s: a dry run patched %d slab indexes, want none", c, patches)
			}
			if final.pending == nil || final.pl.Load() != nil {
				t.Fatalf("%s: the final map resolved its index before its first query", c)
			}
			// Concurrent first queries and renders resolve the patch once.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if g%2 == 0 {
						final.HeatAt(steps[g/2].Point)
					} else if _, err := final.Renderer(); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if patches != 1 {
				t.Fatalf("%s: the final map's first queries and renders patched %d times, want once", c, patches)
			}
			ds := make([]Delta, len(steps))
			for i, step := range steps {
				ds[i] = Delta{AddFacilities: []Point{step.Point}}
			}
			eager, _, err := src.m.ApplyDeltaBatch(ds)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(Config{Clients: eager.cfg.Clients, Facilities: eager.cfg.Facilities, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, c+" against ApplyDeltaBatch", final, eager)
			assertSameAnswers(t, c+" against a fresh build", final, fresh)
		}

		cons := OptimalConstraints{MinArea: 1e-9}
		patches = 0
		steps, final, err := built.GreedyPlace(ctx, 3, cons)
		if err != nil || len(steps) != 3 {
			t.Fatalf("%v min_area: GreedyPlace placed %d (%v), want 3", metric, len(steps), err)
		}
		if patches != len(steps)-1 {
			t.Fatalf("%v min_area: %d patches, want one per step after the first", metric, patches)
		}
		cur := built
		for i, step := range steps {
			best, err := cur.OptimalTopK(1, cons)
			if err != nil || len(best) != 1 {
				t.Fatalf("%v min_area step %d: OptimalTopK: %v", metric, i, err)
			}
			if best[0].Point != step.Point || best[0].Heat != step.Heat || !reflect.DeepEqual(best[0].RNN, step.RNN) {
				t.Fatalf("%v min_area step %d: placed %+v, an eager chain places %+v", metric, i, step, best[0])
			}
			if cur, _, err = cur.ApplyDelta(Delta{AddFacilities: []Point{step.Point}}); err != nil {
				t.Fatal(err)
			}
			if maxAfter, _ := cur.MaxHeat(); maxAfter != step.MaxHeatAfter {
				t.Fatalf("%v min_area step %d: MaxHeatAfter %v, eager chain %v", metric, i, step.MaxHeatAfter, maxAfter)
			}
		}
		assertSameAnswers(t, fmt.Sprintf("%v min_area against an eager chain", metric), final, cur)
	}
}

// assertSameArrangement compares two maps label by label.
func assertSameArrangement(t *testing.T, a, b *Map) {
	t.Helper()
	ra, rb := a.Regions(), b.Regions()
	if len(ra) != len(rb) {
		t.Fatalf("region counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Heat != rb[i].Heat || ra[i].Point != rb[i].Point || !reflect.DeepEqual(ra[i].RNN, rb[i].RNN) {
			t.Fatalf("region %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	if a.NumFacilities() != b.NumFacilities() || a.NumClients() != b.NumClients() {
		t.Fatalf("set sizes differ: %d/%d vs %d/%d", a.NumClients(), a.NumFacilities(), b.NumClients(), b.NumFacilities())
	}
}

// TestGreedyPlaceStopsWhenDry: with constraints nothing satisfies, the
// optimizer returns zero steps and the receiver untouched rather than
// fabricating placements.
func TestGreedyPlaceStopsWhenDry(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := randomInstance(t, rng, LInf, 1, 20, 5)
	// A bbox far outside the data admits no representative point.
	box := Rect{MinX: 1e6, MinY: 1e6, MaxX: 2e6, MaxY: 2e6}
	steps, final, err := m.GreedyPlace(context.Background(), 3, OptimalConstraints{Bounds: &box})
	if err != nil {
		t.Fatalf("GreedyPlace: %v", err)
	}
	if len(steps) != 0 {
		t.Fatalf("placed %d facilities inside an empty bbox", len(steps))
	}
	if final != m {
		t.Fatal("dry run with no placements should return the receiver")
	}
}

// stepCancelled is a context that is done after its first n Err calls.
type stepCancelled struct {
	context.Context
	n int
}

func (c *stepCancelled) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestGreedyPlaceStopsWhenCancelled: GreedyPlace checks its context before
// each step and returns the context's error, with no steps and no map, once
// it is done — before the first step or between two.
func TestGreedyPlaceStopsWhenCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := randomInstance(t, rng, L2, 2, 50, 8)
	for _, n := range []int{0, 1, 2} {
		ctx := &stepCancelled{Context: context.Background(), n: n}
		steps, final, err := m.GreedyPlace(ctx, 3, OptimalConstraints{})
		if !errors.Is(err, context.Canceled) || steps != nil || final != nil {
			t.Fatalf("cancelled after %d steps: steps=%v final=%v err=%v, want context.Canceled alone", n, steps, final, err)
		}
		if ctx.n != -1 {
			t.Fatalf("cancelled after %d steps: GreedyPlace checked its context %d times, want %d", n, n-ctx.n, n+1)
		}
	}
}

// TestOptimalOnDegenerateMap: a map whose regions were all removed by
// deltas must answer ErrNoRegions, never a fabricated zero-value region.
// Deltas reach the 0-region state by opening a facility on top of every
// client: each NN-circle collapses to radius zero and drops out of the
// arrangement.
func TestOptimalOnDegenerateMap(t *testing.T) {
	m, err := Build(Config{
		Clients:    []Point{Pt(5, 5), Pt(9, 2)},
		Facilities: []Point{Pt(0, 0)},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	empty, _, err := m.ApplyDelta(Delta{AddFacilities: []Point{Pt(5, 5), Pt(9, 2)}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if n := empty.NumRegions(); n != 0 {
		t.Fatalf("expected 0 regions with every client co-located with a facility, got %d", n)
	}
	if _, err := empty.Optimal(); !errors.Is(err, ErrNoRegions) {
		t.Fatalf("Optimal on empty arrangement: err = %v, want ErrNoRegions", err)
	}
	if _, err := empty.OptimalTopK(5, OptimalConstraints{}); !errors.Is(err, ErrNoRegions) {
		t.Fatalf("OptimalTopK on empty arrangement: err = %v, want ErrNoRegions", err)
	}
	if steps, _, err := empty.GreedyPlace(context.Background(), 2, OptimalConstraints{}); err != nil || len(steps) != 0 {
		t.Fatalf("GreedyPlace on empty arrangement: steps=%v err=%v, want no steps, no error", steps, err)
	}
	// TopK stays explicit-empty rather than erroring: it is a list endpoint.
	if regs := empty.TopK(5); len(regs) != 0 {
		t.Fatalf("TopK on empty arrangement returned %v", regs)
	}
}

// TestOptimalAllEqualHeats: every region ties; the argmax must still equal
// the brute-force first-strict-max pick exactly.
func TestOptimalAllEqualHeats(t *testing.T) {
	// Far-apart clients with far-apart facilities: every NN-circle is
	// disjoint, every region has heat 1.
	cfg := Config{Metric: L2}
	for i := 0; i < 6; i++ {
		x := float64(i) * 100
		cfg.Clients = append(cfg.Clients, Pt(x, 0))
		cfg.Facilities = append(cfg.Facilities, Pt(x+1, 0))
	}
	m, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want, _ := bruteForceOptimal(m)
	got, err := m.Optimal()
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	if got.Heat != want.Heat || got.Point != want.Point || !reflect.DeepEqual(got.RNN, want.RNN) {
		t.Fatalf("all-ties argmax %+v != brute force %+v", got, want)
	}
}

// TestOptimalAreaAgainstGeometry checks the ISSUE's area criterion on the
// simplest closed-form instance: one L∞ circle, whose single region is a
// square — the slab-cell area sum must equal its bounding-box area.
func TestOptimalAreaAgainstGeometry(t *testing.T) {
	m, err := Build(Config{
		Clients:    []Point{Pt(10, 10)},
		Facilities: []Point{Pt(14, 10)}, // r = 4 → square [6,14]×[6,14]
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	best, err := m.Optimal()
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	if !best.HasGeometry {
		t.Fatal("no geometry on a one-circle map")
	}
	if want := 64.0; math.Abs(best.Area-want) > 1e-9 {
		t.Fatalf("area %v, want (2r)² = %v", best.Area, want)
	}
	if math.Abs(best.Area-best.Bounds.Area()) > 1e-9 {
		t.Fatalf("slab-cell area sum %v != bounding-box area %v", best.Area, best.Bounds.Area())
	}
	wantBounds := geom.Rect{MinX: 6, MinY: 6, MaxX: 14, MaxY: 14}
	if best.Bounds != wantBounds {
		t.Fatalf("bounds %+v, want %+v", best.Bounds, wantBounds)
	}
}
