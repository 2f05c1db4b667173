package optimal

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/pointloc"
)

// buildIndex computes NN-circles for the given sets and builds a slab index
// over them.
func buildIndex(t *testing.T, clients, facilities []geom.Point, metric geom.Metric) *pointloc.Index {
	t.Helper()
	circles, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		t.Fatalf("nncircle.Compute: %v", err)
	}
	ix, err := pointloc.Build(circles, influence.Size(), pointloc.Options{})
	if err != nil {
		t.Fatalf("pointloc.Build: %v", err)
	}
	return ix
}

// TestSingleCircleArea pins the closed-form cell areas against the two known
// shapes: one L∞ NN-circle is a square of area (2r)², which also equals its
// bounding-box area exactly; one L2 NN-circle is a disc of area πr².
func TestSingleCircleArea(t *testing.T) {
	clients := []geom.Point{geom.Pt(3, 4)}
	facilities := []geom.Point{geom.Pt(5, 4)} // r = 2

	t.Run("linf square", func(t *testing.T) {
		ix := buildIndex(t, clients, facilities, geom.LInf)
		geo := FromIndex(ix)
		grp, ok := geo.Lookup([]int{0})
		if !ok {
			t.Fatal("no geometry for RNN set {0}")
		}
		want := 16.0 // (2r)² with r=2
		if math.Abs(grp.Area-want) > 1e-9 {
			t.Fatalf("square area = %v, want %v", grp.Area, want)
		}
		if math.Abs(grp.Bounds.Area()-want) > 1e-9 {
			t.Fatalf("bounding box area = %v, want %v (a square region is its own bounding box)", grp.Bounds.Area(), want)
		}
		total := 0.0
		for _, grp := range ix.GroupCells(nil) {
			total += grp.Area
		}
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("total slab-cell area = %v, want bounding-box area %v", total, want)
		}
	})

	t.Run("l2 disc", func(t *testing.T) {
		geo := FromIndex(buildIndex(t, clients, facilities, geom.L2))
		grp, ok := geo.Lookup([]int{0})
		if !ok {
			t.Fatal("no geometry for RNN set {0}")
		}
		want := math.Pi * 4 // πr² with r=2
		if math.Abs(grp.Area-want) > 1e-9 {
			t.Fatalf("disc area = %v, want πr² = %v", grp.Area, want)
		}
		wantBounds := geom.Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 6}
		if d := maxCornerDist(grp.Bounds, wantBounds); d > 1e-9 {
			t.Fatalf("disc bounds = %+v, want %+v", grp.Bounds, wantBounds)
		}
	})

	t.Run("l1 diamond", func(t *testing.T) {
		// One L1 circle is a diamond with diagonal 2r: area 2r² = 8. The
		// sweep runs in rotated coordinates; the rotation is orthonormal, so
		// the area needs no correction factor.
		geo := FromIndex(buildIndex(t, clients, facilities, geom.L1))
		grp, ok := geo.Lookup([]int{0})
		if !ok {
			t.Fatal("no geometry for RNN set {0}")
		}
		want := 8.0
		if math.Abs(grp.Area-want) > 1e-9 {
			t.Fatalf("diamond area = %v, want 2r² = %v", grp.Area, want)
		}
		// The rotated-back bounding box covers the diamond's axis-aligned
		// box [1,5]×[2,6] exactly here (the sweep box is the diamond's own
		// rotated square).
		wantBounds := geom.Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 6}
		if d := maxCornerDist(grp.Bounds, wantBounds); d > 1e-9 {
			t.Fatalf("diamond bounds = %+v, want %+v", grp.Bounds, wantBounds)
		}
	})
}

func maxCornerDist(a, b geom.Rect) float64 {
	return math.Max(
		math.Max(math.Abs(a.MinX-b.MinX), math.Abs(a.MinY-b.MinY)),
		math.Max(math.Abs(a.MaxX-b.MaxX), math.Abs(a.MaxY-b.MaxY)))
}

// TestOverlapAreasInclusionExclusion checks the per-set areas of two
// overlapping L∞ squares: the three regions (only-A, only-B, A∩B) partition
// the union, and each piece's area is known in closed form.
func TestOverlapAreasInclusionExclusion(t *testing.T) {
	// Two clients with the same facility distance 2: squares [1,5]×[2,6]
	// (client (3,4)) and [3,7]×[2,6] (client (5,4)); overlap [3,5]×[2,6].
	clients := []geom.Point{geom.Pt(3, 4), geom.Pt(5, 4)}
	facilities := []geom.Point{geom.Pt(3, 2), geom.Pt(5, 2)}
	geo := FromIndex(buildIndex(t, clients, facilities, geom.LInf))

	cases := []struct {
		rnn  []int
		want float64
	}{
		{[]int{0}, 8},    // only-A: 4×4 minus the 2×4 overlap
		{[]int{1}, 8},    // only-B
		{[]int{0, 1}, 8}, // A∩B: 2×4
	}
	for _, tc := range cases {
		grp, ok := geo.Lookup(tc.rnn)
		if !ok {
			t.Fatalf("no geometry for RNN set %v", tc.rnn)
		}
		if math.Abs(grp.Area-tc.want) > 1e-9 {
			t.Fatalf("area of set %v = %v, want %v", tc.rnn, grp.Area, tc.want)
		}
	}
}

// TestAreasMatchMonteCarlo cross-checks the closed-form per-set areas on
// random instances against dense grid sampling of the same index's Query —
// two independent paths over the same arrangement.
func TestAreasMatchMonteCarlo(t *testing.T) {
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		t.Run(metric.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			pt := func() geom.Point { return geom.Pt(rng.Float64()*20, rng.Float64()*20) }
			clients := make([]geom.Point, 12)
			facilities := make([]geom.Point, 5)
			for i := range facilities {
				facilities[i] = pt()
			}
			for i := range clients {
				clients[i] = pt()
			}
			ix := buildIndex(t, clients, facilities, metric)
			geo := FromIndex(ix)

			// Sample a grid over a box covering every circle, tallying area
			// per RNN set key.
			bounds := geom.Rect{MinX: -25, MinY: -25, MaxX: 45, MaxY: 45}
			const n = 400
			dx := (bounds.MaxX - bounds.MinX) / n
			dy := (bounds.MaxY - bounds.MinY) / n
			cell := dx * dy
			sampled := make(map[string]float64)
			sets := make(map[string][]int)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					p := geom.Pt(bounds.MinX+(float64(i)+0.5)*dx, bounds.MinY+(float64(j)+0.5)*dy)
					_, rnn := ix.Query(p)
					if len(rnn) == 0 {
						continue
					}
					key := oracleKey(rnn)
					sampled[key] += cell
					sets[key] = rnn
				}
			}
			for key, approx := range sampled {
				grp, ok := geo.Lookup(sets[key])
				if !ok {
					// A set sampled on the grid but absent from the
					// geometry would be a real hole in the grouping.
					t.Fatalf("set with sampled area %v has no slab-cell geometry", approx)
				}
				// Grid sampling of a region with perimeter P is accurate to
				// roughly P·h; these regions are small, so 6% + a floor
				// absorbs it without masking real errors.
				tol := 0.06*grp.Area + 3*cell*math.Sqrt(grp.Area)/dx
				if math.Abs(grp.Area-approx) > tol {
					t.Errorf("set %s: closed-form area %v vs sampled %v (tol %v)", key, grp.Area, approx, tol)
				}
			}
		})
	}
}

// TestTopKTieBreak pins the argmax tie-breaking contract: among equal-heat
// sets, the first in emission order wins, exactly as a brute-force
// first-strict-max scan would pick. A k past the number of sets ranks them
// all.
func TestTopKTieBreak(t *testing.T) {
	labels := []core.Label{
		{RNN: []int{2}, Heat: 1, Point: geom.Pt(0, 0)},
		{RNN: []int{0, 1}, Heat: 2, Point: geom.Pt(1, 0)},
		{RNN: []int{2}, Heat: 1, Point: geom.Pt(9, 9)}, // duplicate set, later face
		{RNN: []int{3, 4}, Heat: 2, Point: geom.Pt(2, 0)},
		{RNN: []int{5}, Heat: 0.5, Point: geom.Pt(3, 0)},
	}
	regs, err := TopK(labels, nil, len(labels)+1, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 4 {
		t.Fatalf("got %d distinct sets, want 4", len(regs))
	}
	// Brute-force first strict max: {0,1} at heat 2 (emitted before {3,4}).
	if got := regs[0]; got.Heat != 2 || got.Point != geom.Pt(1, 0) {
		t.Fatalf("argmax = %+v, want the first-emitted heat-2 set {0,1} at (1,0)", got)
	}
	if got := regs[1]; got.Heat != 2 || got.Point != geom.Pt(2, 0) {
		t.Fatalf("second = %+v, want {3,4} at (2,0)", got)
	}
	// The duplicate {2} keeps its first representative.
	if got := regs[2]; got.Point != geom.Pt(0, 0) {
		t.Fatalf("set {2} representative = %v, want first-emitted (0,0)", got.Point)
	}
	if got := regs[3]; got.Heat != 0.5 {
		t.Fatalf("last = %+v, want {5} at heat 0.5", got)
	}
}

// TestConstraints exercises the three filters and the geometry requirement.
func TestConstraints(t *testing.T) {
	labels := []core.Label{
		{RNN: []int{0}, Heat: 3, Point: geom.Pt(0, 0)},
		{RNN: []int{1}, Heat: 2, Point: geom.Pt(10, 10)},
		{RNN: []int{2}, Heat: 1, Point: geom.Pt(20, 20)},
	}

	t.Run("bbox", func(t *testing.T) {
		box := geom.Rect{MinX: 5, MinY: 5, MaxX: 25, MaxY: 25}
		regs, err := TopK(labels, nil, 10, Constraints{Bounds: &box})
		if err != nil || len(regs) != 2 || regs[0].Heat != 2 {
			t.Fatalf("bbox filter: regs=%v err=%v, want the two in-box sets led by heat 2", regs, err)
		}
	})

	t.Run("min dist", func(t *testing.T) {
		cons := Constraints{
			MinDist:    5,
			Facilities: []geom.Point{geom.Pt(1, 1)},
			Metric:     geom.L2,
		}
		regs, err := TopK(labels, nil, 10, cons)
		if err != nil || len(regs) != 2 || regs[0].Heat != 2 {
			t.Fatalf("min-dist filter: regs=%v err=%v, want heat-3 set (near (1,1)) dropped", regs, err)
		}
	})

	t.Run("min area requires geometry", func(t *testing.T) {
		if _, err := TopK(labels, nil, 1, Constraints{MinArea: 1}); err != ErrNeedGeometry {
			t.Fatalf("err = %v, want ErrNeedGeometry", err)
		}
	})

	t.Run("k zero", func(t *testing.T) {
		regs, err := TopK(labels, nil, 0, Constraints{})
		if err != nil || len(regs) != 0 {
			t.Fatalf("k=0: regs=%v err=%v, want empty", regs, err)
		}
	})
}

// TestGeometryIntegratesOnlyAnswers is the machine-independent
// output-sensitivity gate. On a fresh Geometry — the state a freshly built
// map holds — an unconstrained TopK(10) integrates exactly the cells of the
// regions it returns, and a repeated call integrates none. A min-area
// filter integrates every cell once, and only once.
func TestGeometryIntegratesOnlyAnswers(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(47))
	check := func(name string, clients, facilities []geom.Point, metric geom.Metric) {
		t.Helper()
		circles, err := nncircle.Compute(clients, facilities, metric)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CREST(circles, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pointloc.Build(circles, influence.Size(), pointloc.Options{Pool: res.LabelPool()})
		if err != nil {
			t.Fatal(err)
		}
		all := 0
		for _, grp := range ix.GroupCells(nil) {
			all += grp.Cells
		}
		geo := FromIndex(ix)
		regs, err := TopK(res.Labels, geo, 10, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		returned := 0
		for _, r := range regs {
			returned += r.Cells
		}
		if geo.integrated != returned || returned == 0 || returned >= all {
			t.Fatalf("%s: TopK(10) integrated %d cells, its %d regions hold %d of the index's %d", name, geo.integrated, len(regs), returned, all)
		}
		for _, k := range []int{10, 3} {
			if _, err := TopK(res.Labels, geo, k, Constraints{}); err != nil {
				t.Fatal(err)
			}
			if geo.integrated != returned {
				t.Fatalf("%s: a repeated TopK(%d) integrated %d more cells", name, k, geo.integrated-returned)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := TopK(res.Labels, geo, 10, Constraints{MinArea: 1e-9}); err != nil {
				t.Fatal(err)
			}
			if geo.integrated != returned+all {
				t.Fatalf("%s: min-area TopK #%d brought the integrated cells to %d, want %d + every cell, %d", name, i+1, geo.integrated, returned, all)
			}
		}
	}
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		clients := make([]geom.Point, 300)
		facilities := make([]geom.Point, 30)
		for i := range clients {
			clients[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		for i := range facilities {
			facilities[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		check(metric.String(), clients, facilities, metric)
	}
	if testing.Short() {
		return
	}
	pool, err := dataset.ByName("NYC", (2000+600)*2, 1)
	if err != nil {
		t.Fatal(err)
	}
	clients, facilities := pool.SampleClientsFacilities(2000, 600, 2)
	check("default map", clients, facilities, geom.L2)
}

// TestGeometryConcurrentQueries asks one Geometry from several goroutines
// at once, as concurrent /optimal requests on one map do, mixing queries
// that resolve a few sets with min-area queries that resolve every set.
// Every answer must equal the one a fresh Geometry gives alone.
func TestGeometryConcurrentQueries(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(53))
	clients := make([]geom.Point, 200)
	facilities := make([]geom.Point, 20)
	for i := range clients {
		clients[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	for i := range facilities {
		facilities[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	circles, err := nncircle.Compute(clients, facilities, geom.L2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CREST(circles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pointloc.Build(circles, influence.Size(), pointloc.Options{Pool: res.LabelPool()})
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		k    int
		cons Constraints
	}
	var queries []query
	for _, k := range []int{1, 3, 10, 50} {
		queries = append(queries, query{k, Constraints{}}, query{k, Constraints{MinArea: 0.5}})
	}
	want := make([][]Region, len(queries))
	for i, q := range queries {
		if want[i], err = TopK(res.Labels, FromIndex(ix), q.k, q.cons); err != nil {
			t.Fatal(err)
		}
	}
	geo := FromIndex(ix)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range queries {
				i := (j + 3*g) % len(queries)
				got, err := TopK(res.Labels, geo, queries[i].k, queries[i].cons)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, query %+v: got %+v (err %v), want %+v", g, queries[i], got, err, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
