package optimal_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/optimal"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/pointloc"
	"rnnheatmap/internal/snapshot"
)

// The oracle suite. The package used to group every cell of the slab index
// before ranking (oracleFromIndex) and to key every label before picking k
// (oracleTopK); both are kept here as the reference for the output-sensitive
// TopK and Geometry. Every answer must equal the oracle's under
// reflect.DeepEqual — regions, geometry and areas bit for bit — on built,
// ApplyDelta-patched and snapshot-opened maps of every metric and on
// heatmapd's default map, and GreedyPlace must take the oracle's steps.

// oracleGeometry is the eager geometry: every bounded cell of an index
// grouped by set id, each group keyed by its set's content key.
type oracleGeometry map[oset.ContentKey]optimal.Group

func oracleFromIndex(ix *pointloc.Index) oracleGeometry {
	geo := make(oracleGeometry)
	var rnn []int
	for _, grp := range ix.GroupCells(nil) {
		bounds := grp.Bounds
		if ix.Metric() == geom.L1 && !bounds.IsEmpty() {
			r := geom.EmptyRect()
			for _, c := range bounds.Corners() {
				r = r.UnionPoint(geom.RotateLInfToL1(c))
			}
			bounds = r
		}
		rnn = ix.AppendSet(rnn[:0], grp.ID)
		geo[oset.KeyOf(rnn)] = optimal.Group{Area: grp.Area, Cells: grp.Cells, Bounds: bounds}
	}
	return geo
}

// oracleTopK ranks by keying every label: the first label of each distinct
// set, sorted by heat descending and then emission order, is joined to its
// geometry and filtered in that order.
func oracleTopK(labels []core.Label, geo oracleGeometry, k int, cons optimal.Constraints) ([]optimal.Region, error) {
	if k <= 0 {
		return nil, nil
	}
	if cons.MinArea > 0 && geo == nil {
		return nil, optimal.ErrNeedGeometry
	}
	seen := make(map[oset.ContentKey]struct{})
	var first []int
	for i := range labels {
		key := oset.KeyOf(labels[i].RNN)
		if _, ok := seen[key]; !ok {
			seen[key] = struct{}{}
			first = append(first, i)
		}
	}
	slices.SortFunc(first, func(a, b int) int {
		return cmp.Or(cmp.Compare(labels[b].Heat, labels[a].Heat), cmp.Compare(a, b))
	})
	out := make([]optimal.Region, 0, k)
	for _, i := range first {
		l := &labels[i]
		r := optimal.Region{Heat: l.Heat, RNN: l.RNN, Point: l.Point}
		if grp, ok := geo[oset.KeyOf(l.RNN)]; ok {
			r.HasGeometry, r.Area, r.Cells, r.Bounds = true, grp.Area, grp.Cells, grp.Bounds
		}
		if !oracleAdmit(cons, r) {
			continue
		}
		out = append(out, r)
		if len(out) == k {
			break
		}
	}
	return out, nil
}

func oracleAdmit(c optimal.Constraints, r optimal.Region) bool {
	if c.Bounds != nil && !c.Bounds.Contains(r.Point) {
		return false
	}
	if c.MinArea > 0 && r.Area < c.MinArea {
		return false
	}
	if c.MinDist > 0 {
		for _, f := range c.Facilities {
			if c.Metric.Distance(r.Point, f) < c.MinDist {
				return false
			}
		}
	}
	return true
}

// mapUnderTest is a map with the facilities it holds, which the oracle's
// min_dist filter measures against.
type mapUnderTest struct {
	name       string
	m          *heatmap.Map
	metric     geom.Metric
	facilities []geom.Point
}

// labelsOf returns the map's labels in emission order, as a Regions() copy.
func labelsOf(m *heatmap.Map) []core.Label {
	regs := m.Regions()
	labels := make([]core.Label, len(regs))
	for i, r := range regs {
		labels[i] = core.Label{RNN: r.RNN, Heat: r.Heat, Point: r.Point}
	}
	return labels
}

// openIndex saves the map and opens the slab index its file stores: the
// map's own index, cell for cell.
func openIndex(t testing.TB, m *heatmap.Map) (*pointloc.Index, *snapshot.View) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := m.SaveSnapshot(path, 1); err != nil {
		t.Fatal(err)
	}
	v, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pointloc.Open(v, influence.Size())
	if err != nil {
		t.Fatal(err)
	}
	return ix, v
}

// oracleGeometryOf is the eager geometry of the map's own slab index.
func oracleGeometryOf(t testing.TB, m *heatmap.Map) oracleGeometry {
	t.Helper()
	ix, v := openIndex(t, m)
	defer v.Close()
	return oracleFromIndex(ix)
}

// constraintCases returns the suite's constraints for a map: none, a bbox
// over the middle of the map, a min_dist of a twentieth of its width, and a
// min_area at the median face area, so each filter drops some sets.
func constraintCases(mt mapUnderTest, geo oracleGeometry) map[string]optimal.Constraints {
	b := mt.m.Bounds()
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	box := geom.Rect{MinX: b.MinX + w/4, MinY: b.MinY + h/4, MaxX: b.MaxX - w/4, MaxY: b.MaxY - h/4}
	areas := make([]float64, 0, len(geo))
	for _, g := range geo {
		areas = append(areas, g.Area)
	}
	sort.Float64s(areas)
	return map[string]optimal.Constraints{
		"none":     {},
		"bbox":     {Bounds: &box},
		"min_dist": {MinDist: w / 20, Facilities: mt.facilities, Metric: mt.metric},
		"min_area": {MinArea: areas[len(areas)/2]},
	}
}

// toRegions converts a map's answer to the package's Region.
func toRegions(regs []heatmap.OptimalRegion) []optimal.Region {
	out := make([]optimal.Region, len(regs))
	for i, r := range regs {
		out[i] = optimal.Region{Heat: r.Heat, RNN: r.RNN, Point: r.Point, HasGeometry: r.HasGeometry, Area: r.Area, Cells: r.Cells, Bounds: r.Bounds}
	}
	return out
}

// checkAgainstOracle compares OptimalTopK on the map, and TopK over the
// index its file stores, with the oracle for every k and constraint, in the
// given constraint order (the memo makes the first query of a map the one
// that resolves its sets).
func checkAgainstOracle(t *testing.T, mt mapUnderTest, order []string) {
	t.Helper()
	labels := labelsOf(mt.m)
	ix, v := openIndex(t, mt.m)
	defer v.Close()
	geo := oracleFromIndex(ix)
	opened := optimal.FromIndex(ix)
	cases := constraintCases(mt, geo)
	for _, name := range order {
		cons := cases[name]
		for _, k := range []int{1, 3, 10, len(labels) + 1} {
			want, err := oracleTopK(labels, geo, k, cons)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mt.m.OptimalTopK(k, heatmap.OptimalConstraints{MinArea: cons.MinArea, MinDist: cons.MinDist, Bounds: cons.Bounds})
			if err != nil {
				t.Fatalf("%s %s k=%d: %v", mt.name, name, k, err)
			}
			if !reflect.DeepEqual(toRegions(got), want) {
				t.Fatalf("%s %s k=%d: OptimalTopK diverges from the oracle:\n got %+v\nwant %+v", mt.name, name, k, toRegions(got), want)
			}
			fromFile, err := optimal.TopK(labels, opened, k, cons)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromFile, want) {
				t.Fatalf("%s %s k=%d: TopK over the opened index diverges from the oracle:\n got %+v\nwant %+v", mt.name, name, k, fromFile, want)
			}
		}
	}
}

// oracleGreedy is GreedyPlace with every step ranked by the oracle.
func oracleGreedy(t *testing.T, mt mapUnderTest, k int, cons heatmap.OptimalConstraints) ([]heatmap.PlacementStep, *heatmap.Map) {
	t.Helper()
	cur, facilities := mt.m, slices.Clone(mt.facilities)
	var steps []heatmap.PlacementStep
	for len(steps) < k {
		var geo oracleGeometry
		if cons.MinArea > 0 {
			geo = oracleGeometryOf(t, cur)
		}
		regs, err := oracleTopK(labelsOf(cur), geo, 1, optimal.Constraints{
			MinArea: cons.MinArea, MinDist: cons.MinDist, Bounds: cons.Bounds,
			Facilities: facilities, Metric: mt.metric,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) == 0 {
			break
		}
		best := regs[0]
		next, st, err := cur.ApplyDelta(heatmap.Delta{AddFacilities: []geom.Point{best.Point}})
		if err != nil {
			t.Fatal(err)
		}
		maxAfter, _ := next.MaxHeat()
		steps = append(steps, heatmap.PlacementStep{Point: best.Point, Heat: best.Heat, RNN: best.RNN, MaxHeatAfter: maxAfter, Stats: st})
		facilities = append(facilities, best.Point)
		cur = next
	}
	return steps, cur
}

func checkGreedy(t *testing.T, mt mapUnderTest, cons heatmap.OptimalConstraints) {
	t.Helper()
	got, final, err := mt.m.GreedyPlace(context.Background(), 3, cons)
	if err != nil {
		t.Fatalf("%s: GreedyPlace: %v", mt.name, err)
	}
	want, wantFinal := oracleGreedy(t, mt, 3, cons)
	for _, steps := range [][]heatmap.PlacementStep{got, want} {
		for i := range steps {
			steps[i].Stats.Duration = 0
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s: the oracle placed nothing under %+v", mt.name, cons)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: GreedyPlace steps diverge from the oracle's:\n got %+v\nwant %+v", mt.name, got, want)
	}
	if !reflect.DeepEqual(final.Regions(), wantFinal.Regions()) {
		t.Fatalf("%s: GreedyPlace's final map diverges from the oracle's", mt.name)
	}
}

// oracleMaps builds, patches and snapshot-opens a map over the inputs.
func oracleMaps(t *testing.T, name string, clients, facilities []geom.Point, metric geom.Metric, rng *rand.Rand) []mapUnderTest {
	t.Helper()
	built, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: metric})
	if err != nil {
		t.Fatal(err)
	}
	// The patch splices the index only when its predecessor built one.
	if _, err := built.Renderer(); err != nil {
		t.Fatal(err)
	}
	// Clients added right next to a facility have tiny circles, so the
	// commit dirties few slabs and patches instead of declining.
	var near []geom.Point
	for _, f := range facilities[:2] {
		near = append(near, geom.Pt(f.X+1e-3*rng.Float64(), f.Y+1e-3*rng.Float64()))
	}
	patched, _, err := built.ApplyDelta(heatmap.Delta{AddClients: near})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := patched.SlabIndexStats(); !ok {
		t.Fatalf("%s: the patched map has no slab index", name)
	}
	path := filepath.Join(t.TempDir(), "built.snap")
	if err := built.SaveSnapshot(path, 1); err != nil {
		t.Fatal(err)
	}
	opened, _, err := heatmap.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh built map, so the first query of the suite is the first the
	// map answers.
	fresh, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: metric})
	if err != nil {
		t.Fatal(err)
	}
	return []mapUnderTest{
		{name + " built", fresh, metric, facilities},
		{name + " patched", patched, metric, facilities},
		{name + " opened", opened, metric, facilities},
	}
}

func randomInstance(rng *rand.Rand, nc, nf int) (clients, facilities []geom.Point) {
	pt := func() geom.Point { return geom.Pt(rng.Float64()*100, rng.Float64()*100) }
	for i := 0; i < nc; i++ {
		clients = append(clients, pt())
	}
	for i := 0; i < nf; i++ {
		facilities = append(facilities, pt())
	}
	return clients, facilities
}

var (
	// queryOrder asks the unconstrained question first, so the first query
	// of a fresh map resolves only the sets it returns; minAreaFirst makes
	// the first query the one that resolves every set.
	queryOrder   = []string{"none", "bbox", "min_dist", "min_area"}
	minAreaFirst = []string{"min_area", "none", "bbox", "min_dist"}
)

func TestTopKMatchesEagerOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for trial := 0; trial < 3; trial++ {
			clients, facilities := randomInstance(rng, 60+rng.Intn(120), 8+rng.Intn(20))
			name := fmt.Sprintf("%v trial %d", metric, trial)
			for i, mt := range oracleMaps(t, name, clients, facilities, metric, rng) {
				order := queryOrder
				if (trial+i)%2 == 1 {
					order = minAreaFirst
				}
				checkAgainstOracle(t, mt, order)
			}
		}
	}
}

func TestGreedyPlaceMatchesEagerOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(29))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		clients, facilities := randomInstance(rng, 150, 15)
		for _, mt := range oracleMaps(t, metric.String(), clients, facilities, metric, rng) {
			checkGreedy(t, mt, heatmap.OptimalConstraints{})
			checkGreedy(t, mt, heatmap.OptimalConstraints{MinDist: 5})
			geo := oracleGeometryOf(t, mt.m)
			checkGreedy(t, mt, heatmap.OptimalConstraints{MinArea: constraintCases(mt, geo)["min_area"].MinArea})
		}
	}
}

// defaultMapPoints returns heatmapd's default map inputs: NYC L2 2000/600.
func defaultMapPoints(t *testing.T) (clients, facilities []geom.Point) {
	t.Helper()
	pool, err := dataset.ByName("NYC", (2000+600)*2, 1)
	if err != nil {
		t.Fatal(err)
	}
	clients, facilities = pool.SampleClientsFacilities(2000, 600, 2)
	return clients, facilities
}

func TestTopKMatchesEagerOracleDefaultMap(t *testing.T) {
	if testing.Short() {
		t.Skip("default map skipped in short mode")
	}
	t.Parallel()
	clients, facilities := defaultMapPoints(t)
	rng := rand.New(rand.NewSource(31))
	maps := oracleMaps(t, "default map", clients, facilities, geom.L2, rng)
	// heatmapd serves the default map built, or opened from its snapshot.
	checkAgainstOracle(t, maps[0], queryOrder)
	checkAgainstOracle(t, maps[2], minAreaFirst)
	checkGreedy(t, maps[0], heatmap.OptimalConstraints{})
}

// TestLabelListsMeetTopKPrecondition checks TopK's precondition, that all
// labels of one set carry one heat (bit for bit), on every label list the
// program builds: a CREST run at 1 and 3 workers, the labels of a map
// reswept by ApplyDelta, of a snapshot-opened map, and a Regions() copy.
func TestLabelListsMeetTopKPrecondition(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(37))
	check := func(name string, labels []core.Label) {
		t.Helper()
		heats := make(map[oset.ContentKey]uint64)
		for _, l := range labels {
			key, bits := oset.KeyOf(l.RNN), math.Float64bits(l.Heat)
			if h, ok := heats[key]; ok && h != bits {
				t.Fatalf("%s: set %v carries heats %v and %v", name, l.RNN, math.Float64frombits(h), l.Heat)
			}
			heats[key] = bits
		}
		if len(heats) == len(labels) {
			t.Fatalf("%s: no set labels two faces; the check would prove nothing", name)
		}
	}
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		clients, facilities := randomInstance(rng, 200, 20)
		circles, err := nncircle.Compute(clients, facilities, metric)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			res, err := core.CREST(circles, core.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%v CREST workers=%d", metric, workers), res.Labels)
		}
		for _, mt := range oracleMaps(t, metric.String(), clients, facilities, metric, rng) {
			check(mt.name+" Regions()", labelsOf(mt.m))
		}
	}
}
