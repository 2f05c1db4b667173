package optimal

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/pointloc"
)

// The identity differential suite: TopK and Geometry key RNN sets by
// oset.ContentKey, a hash; topKOracle keys them by the exact string of the
// sorted members and ranks whole regions with a stable sort, and every
// answer must agree, geometry included.

// oracleKey is the exact string identity of an RNN set.
func oracleKey(rnn []int) string {
	sorted := append([]int(nil), rnn...)
	sort.Ints(sorted)
	return fmt.Sprint(sorted)
}

// geometryOracle groups the index's cells as FromIndex does, keyed by
// oracleKey.
func geometryOracle(ix *pointloc.Index) map[string]Group {
	out := make(map[string]Group)
	for _, grp := range ix.GroupCells(nil) {
		bounds := grp.Bounds
		if ix.Metric() == geom.L1 && !bounds.IsEmpty() {
			r := geom.EmptyRect()
			for _, c := range bounds.Corners() {
				r = r.UnionPoint(geom.RotateLInfToL1(c))
			}
			bounds = r
		}
		out[oracleKey(ix.AppendSet(nil, grp.ID))] = Group{Area: grp.Area, Cells: grp.Cells, Bounds: bounds}
	}
	return out
}

// topKOracle is TopK with sets compared by oracleKey: one Region per
// distinct set, stably sorted by heat descending, then filtered.
func topKOracle(labels []core.Label, geo map[string]Group, k int, cons Constraints) []Region {
	seen := map[string]bool{}
	var regs []Region
	for _, l := range labels {
		key := oracleKey(l.RNN)
		if seen[key] {
			continue
		}
		seen[key] = true
		r := Region{Heat: l.Heat, RNN: l.RNN, Point: l.Point}
		if grp, ok := geo[key]; ok {
			r.HasGeometry, r.Area, r.Cells, r.Bounds = true, grp.Area, grp.Cells, grp.Bounds
		}
		regs = append(regs, r)
	}
	sort.SliceStable(regs, func(i, j int) bool { return regs[i].Heat > regs[j].Heat })
	out := []Region{}
	for _, r := range regs {
		if len(out) == k {
			break
		}
		if cons.admit(r) {
			out = append(out, r)
		}
	}
	return out
}

func checkTopK(t *testing.T, name string, labels []core.Label, geo *Geometry, oracleGeo map[string]Group, cons Constraints) {
	t.Helper()
	for _, k := range []int{1, 3, 10, len(labels) + 1} {
		got, err := TopK(labels, geo, k, cons)
		if err != nil {
			t.Fatalf("%s: TopK(k=%d): %v", name, k, err)
		}
		if want := topKOracle(labels, oracleGeo, k, cons); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TopK(k=%d) = %+v\noracle %+v", name, k, got, want)
		}
	}
}

// randomLabels draws n labels from a pool of up to 12 random sets over
// clients 0..63, so equal sets recur. Every label gets its own backing
// array, including labels of equal sets; empty sets appear both as nil and
// as empty slices. Each set draws one heat from four values, so ties between
// sets are common and all labels of one set carry one heat, as TopK
// requires (an empty pool set and a drawn duplicate of it share the heat of
// the first).
func randomLabels(rng *rand.Rand, n int) []core.Label {
	pool := make([][]int, 1+rng.Intn(12))
	heats := make(map[string]float64)
	for i := range pool {
		pool[i] = rng.Perm(64)[:rng.Intn(6)]
		sort.Ints(pool[i])
		if _, ok := heats[oracleKey(pool[i])]; !ok {
			heats[oracleKey(pool[i])] = float64(rng.Intn(4))
		}
	}
	labels := make([]core.Label, n)
	for i := range labels {
		var rnn []int
		set := pool[rng.Intn(len(pool))]
		if len(set) > 0 || rng.Intn(2) == 0 {
			rnn = append([]int{}, set...)
		}
		labels[i] = core.Label{
			RNN:   rnn,
			Heat:  heats[oracleKey(set)],
			Point: geom.Pt(rng.Float64()*10, rng.Float64()*10),
		}
	}
	return labels
}

func TestTopKMatchesStringOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(16))
	box := geom.Rect{MinX: 2, MinY: 2, MaxX: 8, MaxY: 8}
	for trial := 0; trial < 200; trial++ {
		labels := randomLabels(rng, rng.Intn(60))
		name := fmt.Sprintf("trial %d", trial)
		checkTopK(t, name, labels, nil, nil, Constraints{})
		checkTopK(t, name+" bbox", labels, nil, nil, Constraints{Bounds: &box})
		checkTopK(t, name+" min dist", labels, nil, nil, Constraints{
			MinDist: 3, Facilities: []geom.Point{geom.Pt(5, 5)}, Metric: geom.L2,
		})
	}
}

// TestTopKJoinsGeometryAcrossPools ranks CREST labels against an index built
// into a fresh pool, so no label shares a slice or a pool entry with the
// slab gaps it is joined to, on random instances of every metric and on
// heatmapd's default map.
func TestTopKJoinsGeometryAcrossPools(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(61))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for trial := 0; trial < 4; trial++ {
			clients := make([]geom.Point, 10+rng.Intn(30))
			facilities := make([]geom.Point, 2+rng.Intn(6))
			for i := range clients {
				clients[i] = geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(40)))
			}
			for i := range facilities {
				facilities[i] = geom.Pt(rng.Float64()*40, rng.Float64()*40)
			}
			checkCrossPool(t, fmt.Sprintf("%v trial %d", metric, trial), clients, facilities, metric)
		}
	}
	if testing.Short() {
		t.Skip("default map skipped in short mode")
	}
	pool, err := dataset.ByName("NYC", (2000+600)*2, 1)
	if err != nil {
		t.Fatal(err)
	}
	clients, facilities := pool.SampleClientsFacilities(2000, 600, 2)
	checkCrossPool(t, "default map", clients, facilities, geom.L2)
}

func checkCrossPool(t *testing.T, name string, clients, facilities []geom.Point, metric geom.Metric) {
	t.Helper()
	circles, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CREST(circles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pointloc.Build(circles, influence.Size(), pointloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	geo, oracleGeo := FromIndex(ix), geometryOracle(ix)
	checkTopK(t, name, res.Labels, geo, oracleGeo, Constraints{})
	checkTopK(t, name+" min area", res.Labels, geo, oracleGeo, Constraints{MinArea: 1})
	groups := 0
	for _, grp := range geo.groups {
		if grp.Cells > 0 {
			groups++
		}
	}
	if groups != len(oracleGeo) {
		t.Fatalf("%s: %d geometry groups, oracle %d", name, groups, len(oracleGeo))
	}
}

// TestTopKAllocsIndependentOfSetSize is a machine-independent gate: keying a
// label costs no allocation, so TopK allocates the same count whether the
// sets hold λ or 2λ members.
func TestTopKAllocsIndependentOfSetSize(t *testing.T) {
	small, doubled := allocLabels(1), allocLabels(2)
	run := func(labels []core.Label) func() {
		return func() {
			if _, err := TopK(labels, nil, 10, Constraints{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := testing.AllocsPerRun(20, run(small))
	b := testing.AllocsPerRun(20, run(doubled))
	if a != b {
		t.Fatalf("TopK allocates %v with sets of up to 8 members and %v with twice the members", a, b)
	}
}

// allocLabels is a fixed list of 400 labels over 100 distinct sets of 1 to 8
// members; scale 2 replaces member v with 2v and 2v+1, doubling every set
// and keeping distinct sets distinct.
func allocLabels(scale int) []core.Label {
	rng := rand.New(rand.NewSource(5))
	sets := make([][]int, 100)
	for i := range sets {
		for _, v := range rng.Perm(64)[:1+i%8] {
			for j := 0; j < scale; j++ {
				sets[i] = append(sets[i], scale*v+j)
			}
		}
		sort.Ints(sets[i])
	}
	labels := make([]core.Label, 400)
	for i := range labels {
		rnn := sets[rng.Intn(len(sets))]
		labels[i] = core.Label{RNN: rnn, Heat: float64(len(rnn) / scale)}
	}
	return labels
}
