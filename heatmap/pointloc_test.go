package heatmap

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rnnheatmap/internal/render"
)

// The slab point-location differential suite at the public API level: the
// slab-index query path must be byte-identical — heats, sorted RNN sets,
// rendered tile PNGs — to the enclosure path on random and degenerate
// instances, across all three metrics, boundary query points included.

// pointlocWorkload builds a reproducible client/facility workload; snapped
// shares of integer coordinates produce coincident circle sides, shared
// vertices and zero-radius circles.
func pointlocWorkload(seed int64, nO, nF int, snapped bool) (clients, facilities []Point) {
	rng := rand.New(rand.NewSource(seed))
	pt := func() Point {
		p := Pt(rng.Float64()*100, rng.Float64()*100)
		if snapped && rng.Intn(3) == 0 {
			p = Pt(math.Round(p.X), math.Round(p.Y))
		}
		return p
	}
	facilities = make([]Point, nF)
	for i := range facilities {
		facilities[i] = pt()
	}
	clients = make([]Point, nO)
	for i := range clients {
		if snapped && rng.Intn(12) == 0 {
			clients[i] = facilities[rng.Intn(nF)]
		} else {
			clients[i] = pt()
		}
	}
	return clients, facilities
}

// boundaryProbes returns query points lying exactly on NN-circle boundaries:
// each client's circle radius is its metric distance to the nearest
// facility, so the extreme points of every circle are exact boundary hits.
func boundaryProbes(clients, facilities []Point, metric Metric) []Point {
	var ps []Point
	for _, c := range clients {
		best := math.Inf(1)
		for _, f := range facilities {
			if d := metric.Distance(c, f); d < best {
				best = d
			}
		}
		ps = append(ps,
			Pt(c.X-best, c.Y), Pt(c.X+best, c.Y),
			Pt(c.X, c.Y-best), Pt(c.X, c.Y+best),
			c,
		)
	}
	ps = append(ps, facilities...)
	return ps
}

func assertMapsAgree(t *testing.T, ctx string, slab, oracle *Map, probes []Point) {
	t.Helper()
	for _, p := range probes {
		gh, gr := slab.HeatAt(p)
		wh, wr := oracle.HeatAt(p)
		if gh != wh || !reflect.DeepEqual(gr, wr) {
			t.Fatalf("%s: HeatAt(%v) slab=(%v,%v) enclosure=(%v,%v)", ctx, p, gh, gr, wh, wr)
		}
	}
	sh, sr := slab.HeatAtBatch(probes)
	oh, or := oracle.HeatAtBatch(probes)
	if !reflect.DeepEqual(sh, oh) || !reflect.DeepEqual(sr, or) {
		t.Fatalf("%s: HeatAtBatch differs between slab and enclosure paths", ctx)
	}
}

// tilePNG renders a sub-rectangle to PNG bytes.
func rasterPNG(t *testing.T, m *Map, bounds Rect, w, h int) []byte {
	t.Helper()
	raster, err := m.RasterizeRect(bounds, w, h)
	if err != nil {
		t.Fatalf("RasterizeRect: %v", err)
	}
	var buf bytes.Buffer
	if err := raster.WritePNG(&buf, render.Grayscale); err != nil {
		t.Fatalf("WritePNG: %v", err)
	}
	return buf.Bytes()
}

func TestSlabQueryPathByteIdentical(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(61))
	for _, metric := range []Metric{LInf, L1, L2} {
		for _, snapped := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				seed := rng.Int63()
				clients, facilities := pointlocWorkload(seed, 40, 7, snapped)
				weights := make([]float64, len(clients))
				for i := range weights {
					weights[i] = rng.Float64() * 2
				}
				for _, measure := range []Measure{nil, Weighted(weights)} {
					cfg := Config{Clients: clients, Facilities: facilities, Metric: metric,
						Measure: measure, Workers: workers}
					slab, err := Build(cfg)
					if err != nil {
						t.Fatalf("Build: %v", err)
					}
					oracleCfg := cfg
					oracleCfg.NoSlabIndex = true
					oracle, err := Build(oracleCfg)
					if err != nil {
						t.Fatalf("Build(NoSlabIndex): %v", err)
					}
					if built, _, _ := oracle.SlabIndexStats(); built {
						t.Fatal("NoSlabIndex map built a slab index")
					}

					probes := boundaryProbes(clients, facilities, metric)
					for i := 0; i < 120; i++ {
						probes = append(probes, Pt(rng.Float64()*110-5, rng.Float64()*110-5))
					}
					name := "size"
					if measure != nil {
						name = measure.Name()
					}
					ctx := fmt.Sprintf("metric=%v snapped=%v workers=%d measure=%s seed=%d",
						metric, snapped, workers, name, seed)
					assertMapsAgree(t, ctx, slab, oracle, probes)
					if built, slabs, cells := slab.SlabIndexStats(); !built || slabs == 0 || cells == 0 {
						t.Fatalf("%s: slab index not materialized after queries (built=%v slabs=%d cells=%d)",
							ctx, built, slabs, cells)
					}

					// Tile rasterization: full map and a zoomed sub-rectangle
					// must produce byte-identical PNGs on both paths.
					b := slab.Bounds()
					sub := Rect{
						MinX: b.MinX + b.Width()*0.3, MaxX: b.MinX + b.Width()*0.55,
						MinY: b.MinY + b.Height()*0.2, MaxY: b.MinY + b.Height()*0.45,
					}
					for _, view := range []Rect{b, sub} {
						if !bytes.Equal(rasterPNG(t, slab, view, 64, 64), rasterPNG(t, oracle, view, 64, 64)) {
							t.Fatalf("%s: tile PNG differs between slab and enclosure paths for %+v", ctx, view)
						}
					}
				}
			}
		}
	}
}

// TestApplyDeltaPatchesSlabIndex drives a mutation sequence through maps
// whose slab index is materialized and checks, after every step, that the
// answers and tile bytes remain identical to a from-scratch enclosure-path
// build over the updated sets, and that every metric carries the index
// forward via Patch (rather than dropping it) on at least one step. The map
// is large enough (300 clients, 60 facilities) that most single deltas
// dirty less than the patch threshold's share of the slabs.
func TestApplyDeltaPatchesSlabIndex(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(62))
	for _, metric := range []Metric{LInf, L1, L2} {
		clients, facilities := pointlocWorkload(rng.Int63(), 300, 60, true)
		m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		m.HeatAt(Pt(50, 50)) // materialize the slab index
		patchedSteps := 0

		// Mirror of the map's client/facility sets under swap-remove
		// semantics, so the oracle can be rebuilt from scratch.
		curC := append([]Point(nil), clients...)
		curF := append([]Point(nil), facilities...)
		for step := 0; step < 6; step++ {
			var d Delta
			switch step % 4 {
			case 0:
				d.AddClients = []Point{Pt(rng.Float64()*100, rng.Float64()*100)}
				curC = append(curC, d.AddClients...)
			case 1:
				i := rng.Intn(len(curC))
				d.RemoveClients = []int{i}
				curC[i] = curC[len(curC)-1]
				curC = curC[:len(curC)-1]
			case 2:
				d.AddFacilities = []Point{Pt(rng.Float64()*100, rng.Float64()*100)}
				curF = append(curF, d.AddFacilities...)
			case 3:
				j := rng.Intn(len(curF))
				d.RemoveFacilities = []int{j}
				curF[j] = curF[len(curF)-1]
				curF = curF[:len(curF)-1]
			}
			next, _, err := m.ApplyDelta(d)
			if err != nil {
				t.Fatalf("metric=%v step=%d: ApplyDelta: %v", metric, step, err)
			}
			if built, _, _ := next.SlabIndexStats(); built {
				patchedSteps++
			}
			oracle, err := Build(Config{Clients: curC, Facilities: curF, Metric: metric, NoSlabIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			probes := boundaryProbes(curC, curF, metric)
			for i := 0; i < 60; i++ {
				probes = append(probes, Pt(rng.Float64()*110-5, rng.Float64()*110-5))
			}
			assertMapsAgree(t, fmt.Sprintf("delta metric=%v step=%d", metric, step), next, oracle, probes)
			if !bytes.Equal(rasterPNG(t, next, next.Bounds(), 48, 48), rasterPNG(t, oracle, oracle.Bounds(), 48, 48)) {
				t.Fatalf("metric=%v step=%d: tile PNG differs after delta", metric, step)
			}
			m = next
		}
		t.Logf("metric=%v: %d of 6 steps patched", metric, patchedSteps)
		if patchedSteps == 0 {
			t.Fatalf("metric=%v: no delta step carried the slab index forward via Patch", metric)
		}
	}
}

// TestConcurrentCommitsShareOnePool: commits derived concurrently from one
// map — the writer's next version beside a dry-run optimizer's what-if —
// resweep into the one label pool their slab indexes share while the map
// keeps answering queries, and each equals a fresh build over its sets.
func TestConcurrentCommitsShareOnePool(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	for _, metric := range []Metric{LInf, L1, L2} {
		m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		probes := boundaryProbes(clients, facilities, metric)
		wantH, wantR := m.HeatAtBatch(probes)
		batches := [][]Delta{
			{{AddClients: []Point{Pt(120, 130), Pt(400, 60)}}, {RemoveClients: []int{7}}},
			{{AddFacilities: []Point{Pt(300, 310)}}, {RemoveFacilities: []int{4, 11}}},
			{{RemoveFacilities: busiestFacilities(m, 15)}},
		}
		next := make([]*Map, len(batches))
		var wg sync.WaitGroup
		for i, ds := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, _, err := m.ApplyDeltaBatch(ds)
				if err != nil {
					t.Error(err)
					return
				}
				n.HeatAtBatch(probes)
				next[i] = n
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h, r := m.HeatAtBatch(probes); !reflect.DeepEqual(h, wantH) || !reflect.DeepEqual(r, wantR) {
				t.Errorf("%v: the receiver's answers changed while commits were derived from it", metric)
			}
		}()
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, n := range next {
			ctx := fmt.Sprintf("%v commit %d", metric, i)
			ix, built := n.builtPointLoc()
			if !built || ix == nil || n.result.LabelPool() != ix.Pool() || ix.Pool() != m.result.LabelPool() {
				t.Fatalf("%s: the commit did not patch within its lineage's one pool", ctx)
			}
			fresh, err := Build(Config{Clients: n.cfg.Clients, Facilities: n.cfg.Facilities, Metric: metric, NoSlabIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(n.Regions(), fresh.Regions()) {
				t.Fatalf("%s: regions differ from a fresh build", ctx)
			}
			assertMapsAgree(t, ctx, n, fresh, probes)
		}
	}
}

// TestRTreeOnlyAsFallback: a map answers points from its slab index, so no
// operation on a map that has one — building, querying, rendering,
// committing, ranking, saving and opening — builds the R-tree the
// enclosure path stabs. A NoSlabIndex map builds it once, on its first
// query, and every later query reuses it.
func TestRTreeOnlyAsFallback(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	noRTree := func(ctx string, ms ...*Map) {
		t.Helper()
		for _, m := range ms {
			if st := m.pl.Load(); st != nil && st.enc != nil {
				t.Fatalf("%s: a map with a slab index built an R-tree", ctx)
			}
		}
	}
	probes := []Point{Pt(250, 250), Pt(10, 490), Pt(400, 100)}
	d := []Delta{{AddClients: []Point{Pt(120, 130)}}, {RemoveFacilities: []int{4}, AddFacilities: []Point{Pt(300, 310)}}}
	for _, metric := range []Metric{LInf, L1, L2} {
		ctx := metric.String()
		m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		noRTree(ctx+" Build", m)
		m.HeatAt(probes[0])
		noRTree(ctx+" HeatAt", m)
		m.HeatAtBatch(probes)
		noRTree(ctx+" HeatAtBatch", m)
		if _, err := m.Renderer(); err != nil {
			t.Fatal(err)
		}
		noRTree(ctx+" Renderer", m)
		next, _, err := m.ApplyDeltaBatch(d)
		if err != nil {
			t.Fatal(err)
		}
		noRTree(ctx+" ApplyDeltaBatch", m, next)
		if _, err := next.OptimalTopK(3, OptimalConstraints{}); err != nil {
			t.Fatal(err)
		}
		noRTree(ctx+" OptimalTopK", next)
		path := filepath.Join(t.TempDir(), "m.snap")
		if err := next.SaveSnapshot(path, 2); err != nil {
			t.Fatal(err)
		}
		noRTree(ctx+" SaveSnapshot", next)
		opened, _, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		noRTree(ctx+" OpenSnapshot", opened)
		opened.HeatAt(probes[1])
		opened.HeatAtBatch(probes)
		if _, err := opened.OptimalTopK(3, OptimalConstraints{}); err != nil {
			t.Fatal(err)
		}
		after, _, err := opened.ApplyDeltaBatch(d)
		if err != nil {
			t.Fatal(err)
		}
		after.HeatAt(probes[2])
		noRTree(ctx+" opened map's queries and commit", opened, after)
	}

	m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2, NoSlabIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.pl.Load() != nil {
		t.Fatal("a NoSlabIndex map resolved its point queries before the first one")
	}
	m.HeatAt(probes[0])
	st := m.pl.Load()
	if st == nil || st.enc == nil || st.ix != nil {
		t.Fatal("a NoSlabIndex map's first query did not build the R-tree")
	}
	m.HeatAtBatch(probes)
	if _, err := m.Renderer(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OptimalTopK(3, OptimalConstraints{}); err != nil {
		t.Fatal(err)
	}
	if m.pl.Load() != st {
		t.Fatal("a NoSlabIndex map resolved its point queries twice")
	}
	next, _, err := m.ApplyDelta(d[0])
	if err != nil {
		t.Fatal(err)
	}
	if next.pl.Load() != nil {
		t.Fatal("a commit on a NoSlabIndex map built an R-tree before the new map's first query")
	}
}

// TestSnapshotRebuildsSlabIndexSweepFree pins the persistence contract for
// a snapshot without slab sections (what a map whose index was disabled or
// declined to build writes): the restored map answers byte-identically to
// the original, through a slab index that materializes lazily from the
// snapshot's circles alone — no Region Coloring sweep runs on load (the
// restored build stats stay exactly as saved).
func TestSnapshotRebuildsSlabIndexSweepFree(t *testing.T) {
	t.Parallel()
	clients, facilities := pointlocWorkload(63, 50, 6, true)
	m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2, NoSlabIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := m.SaveSnapshot(path, 1); err != nil {
		t.Fatal(err)
	}
	restored, _, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if built, _, _ := restored.SlabIndexStats(); built {
		t.Fatal("restoring a snapshot should not build the slab index eagerly")
	}
	savedStats := m.Stats()
	probes := boundaryProbes(clients, facilities, L2)
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 80; i++ {
		probes = append(probes, Pt(rng.Float64()*110-5, rng.Float64()*110-5))
	}
	for _, p := range probes {
		gh, gr := restored.HeatAt(p)
		wh, wr := m.HeatAt(p)
		if gh != wh || !reflect.DeepEqual(gr, wr) {
			t.Fatalf("restored HeatAt(%v) = (%v,%v), original = (%v,%v)", p, gh, gr, wh, wr)
		}
	}
	if built, _, _ := restored.SlabIndexStats(); !built {
		t.Fatal("slab index did not materialize on first query after restore")
	}
	if got := restored.Stats(); got != savedStats {
		t.Fatalf("restore ran a sweep: stats changed from %+v to %+v", savedStats, got)
	}
}
