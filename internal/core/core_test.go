package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// --- shared test helpers -------------------------------------------------

// bruteRNN returns the RNN set (sorted client ids) of point p by testing
// every NN-circle directly. It is the correctness oracle for every algorithm.
func bruteRNN(circles []nncircle.NNCircle, p geom.Point) []int {
	var out []int
	for _, nc := range circles {
		if nc.Circle.ContainsStrict(p) {
			out = append(out, nc.Client)
		}
	}
	sort.Ints(out)
	return out
}

// setKey is the exact string oracle of a set's identity: its members in
// ascending order, printed comma-separated ("" for the empty set). Tests
// compare sets with it rather than with the hashed oset.ContentKey the
// program uses.
func setKey(ids []int) string {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(sorted), "[]"), " ", ",")
}

// randomInstance generates a random bichromatic instance and returns its
// NN-circles under the given metric.
func randomInstance(t testing.TB, rng *rand.Rand, nClients, nFacilities int, metric geom.Metric, span float64) ([]nncircle.NNCircle, []geom.Point, []geom.Point) {
	t.Helper()
	clients := make([]geom.Point, nClients)
	for i := range clients {
		clients[i] = geom.Pt(rng.Float64()*span, rng.Float64()*span)
	}
	facilities := make([]geom.Point, nFacilities)
	for i := range facilities {
		facilities[i] = geom.Pt(rng.Float64()*span, rng.Float64()*span)
	}
	ncs, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		t.Fatalf("nncircle.Compute: %v", err)
	}
	return ncs, clients, facilities
}

// spanOf returns the bounding rectangle of all circles, slightly expanded.
func spanOf(circles []nncircle.NNCircle) geom.Rect {
	r := geom.EmptyRect()
	for _, nc := range circles {
		r = r.Union(nc.Circle.BoundingRect())
	}
	return r.Expand(r.Width() * 0.01)
}

// labelKeys returns the set of distinct RNN-set keys among labels.
func labelKeys(labels []Label) map[string]bool {
	out := make(map[string]bool)
	for _, l := range labels {
		out[setKey(l.RNN)] = true
	}
	return out
}

// checkLabelsAgainstOracle verifies that every label's representative point
// has exactly the label's RNN set. Discrepancies are tolerated only for
// clients whose circle boundary passes within floating-point tolerance of the
// representative point: NN-circle sides frequently coincide exactly at
// facility coordinates, and rounding then produces one-ulp-thin sliver
// regions whose midpoints are numerically on the boundary.
func checkLabelsAgainstOracle(t *testing.T, name string, circles []nncircle.NNCircle, labels []Label) {
	t.Helper()
	for i, l := range labels {
		want := bruteRNN(circles, l.Point)
		if setKey(want) == setKey(l.RNN) {
			continue
		}
		if onlyBoundaryAmbiguous(circles, l.Point, symmetricDiff(want, l.RNN)) {
			continue
		}
		t.Fatalf("%s: label %d at %v has RNN %v, brute force %v", name, i, l.Point, l.RNN, want)
	}
}

// symmetricDiff returns the client ids present in exactly one of the sorted
// slices.
func symmetricDiff(a, b []int) []int {
	in := map[int]int{}
	for _, v := range a {
		in[v]++
	}
	for _, v := range b {
		in[v] += 2
	}
	var out []int
	for v, flags := range in {
		if flags != 3 {
			out = append(out, v)
		}
	}
	return out
}

// onlyBoundaryAmbiguous reports whether every client in ids has its circle
// boundary within numerical tolerance of p.
func onlyBoundaryAmbiguous(circles []nncircle.NNCircle, p geom.Point, ids []int) bool {
	byClient := map[int]geom.Circle{}
	for _, nc := range circles {
		byClient[nc.Client] = nc.Circle
	}
	for _, id := range ids {
		c, ok := byClient[id]
		if !ok {
			return false
		}
		d := c.Metric.Distance(c.Center, p)
		if absDiff(d, c.Radius) > 1e-9*(1+c.Radius) {
			return false
		}
	}
	return true
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// solidLabels filters out degenerate labels whose representative region is
// thinner than eps in either dimension (one-ulp slivers from coinciding
// circle sides).
func solidLabels(labels []Label, eps float64) []Label {
	var out []Label
	for _, l := range labels {
		if l.Region.Width() > eps && l.Region.Height() > eps {
			out = append(out, l)
		}
	}
	return out
}

// checkCompleteness verifies that the RNN set of every probe point with a
// non-empty set appears among the labels.
func checkCompleteness(t *testing.T, name string, circles []nncircle.NNCircle, labels []Label, rng *rand.Rand, probes int) {
	t.Helper()
	keys := labelKeys(labels)
	bounds := spanOf(circles)
	for i := 0; i < probes; i++ {
		p := geom.Pt(bounds.MinX+rng.Float64()*bounds.Width(), bounds.MinY+rng.Float64()*bounds.Height())
		want := bruteRNN(circles, p)
		if len(want) == 0 {
			continue
		}
		if !keys[setKey(want)] {
			t.Fatalf("%s: RNN set %v at probe %v never labeled", name, want, p)
		}
	}
}

// --- input validation ----------------------------------------------------

func TestValidation(t *testing.T) {
	t.Parallel()
	if _, err := CREST(nil, Options{}); err != ErrNoCircles {
		t.Errorf("CREST(nil) err = %v, want ErrNoCircles", err)
	}
	zero := []nncircle.NNCircle{{Client: 0, Circle: geom.NewCircle(geom.Pt(0, 0), 0, geom.LInf)}}
	if _, err := CREST(zero, Options{}); err != ErrNoCircles {
		t.Errorf("CREST(zero-radius only) err = %v, want ErrNoCircles", err)
	}
	mixed := []nncircle.NNCircle{
		{Client: 0, Circle: geom.NewCircle(geom.Pt(0, 0), 1, geom.LInf)},
		{Client: 1, Circle: geom.NewCircle(geom.Pt(0, 0), 1, geom.L2)},
	}
	if _, err := CREST(mixed, Options{}); err != ErrMixedMetrics {
		t.Errorf("CREST(mixed) err = %v, want ErrMixedMetrics", err)
	}
	l2 := []nncircle.NNCircle{{Client: 0, Circle: geom.NewCircle(geom.Pt(0, 0), 1, geom.L2)}}
	if _, err := CRESTA(l2, Options{}); err != ErrUnsupportedL2Ablation {
		t.Errorf("CRESTA(L2) err = %v", err)
	}
	if _, err := Baseline(l2, Options{}); err != ErrUnsupportedBaselineL2 {
		t.Errorf("Baseline(L2) err = %v", err)
	}
	linf := []nncircle.NNCircle{{Client: 0, Circle: geom.NewCircle(geom.Pt(0, 0), 1, geom.LInf)}}
	if _, err := CRESTL2(linf, Options{}); err != ErrNotL2 {
		t.Errorf("CRESTL2(Linf) err = %v, want ErrNotL2", err)
	}
	if _, err := PruningMax(linf, Options{}, 0); err != ErrNotL2 {
		t.Errorf("PruningMax(Linf) err = %v, want ErrNotL2", err)
	}
}

// --- single-circle and tiny instances ------------------------------------

func TestSingleCircle(t *testing.T) {
	t.Parallel()
	circles := []nncircle.NNCircle{{Client: 7, Facility: 0, Circle: geom.NewCircle(geom.Pt(5, 5), 2, geom.LInf)}}
	for name, run := range map[string]func() (*Result, error){
		"crest":    func() (*Result, error) { return CREST(circles, Options{}) },
		"crest-a":  func() (*Result, error) { return CRESTA(circles, Options{}) },
		"baseline": func() (*Result, error) { return Baseline(circles, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MaxHeat != 1 {
			t.Errorf("%s: MaxHeat = %g, want 1", name, res.MaxHeat)
		}
		if setKey(res.MaxLabel.RNN) != "7" {
			t.Errorf("%s: MaxLabel.RNN = %v", name, res.MaxLabel.RNN)
		}
		checkLabelsAgainstOracle(t, name, circles, res.Labels)
	}
}

func TestTwoDisjointCircles(t *testing.T) {
	t.Parallel()
	circles := []nncircle.NNCircle{
		{Client: 0, Circle: geom.NewCircle(geom.Pt(0, 0), 1, geom.LInf)},
		{Client: 1, Circle: geom.NewCircle(geom.Pt(10, 10), 1, geom.LInf)},
	}
	res, err := CREST(circles, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := labelKeys(res.Labels)
	if !keys["0"] || !keys["1"] {
		t.Errorf("both singleton regions must be labeled: %v", keys)
	}
	if res.MaxHeat != 1 {
		t.Errorf("MaxHeat = %g", res.MaxHeat)
	}
	if res.Stats.Events != 4 {
		t.Errorf("Events = %d, want 4", res.Stats.Events)
	}
}

func TestNestedCircles(t *testing.T) {
	t.Parallel()
	// A small square entirely inside a big one: regions {inner+outer} and
	// {outer} must both appear.
	circles := []nncircle.NNCircle{
		{Client: 0, Circle: geom.NewCircle(geom.Pt(0, 0), 5, geom.LInf)},
		{Client: 1, Circle: geom.NewCircle(geom.Pt(0, 0), 1, geom.LInf)},
	}
	for name, run := range map[string]func() (*Result, error){
		"crest":   func() (*Result, error) { return CREST(circles, Options{}) },
		"crest-a": func() (*Result, error) { return CRESTA(circles, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys := labelKeys(res.Labels)
		if !keys["0"] || !keys["0,1"] {
			t.Errorf("%s: missing nested region labels: %v", name, keys)
		}
		if res.MaxHeat != 2 {
			t.Errorf("%s: MaxHeat = %g", name, res.MaxHeat)
		}
		checkLabelsAgainstOracle(t, name, circles, res.Labels)
	}
}

// TestWorstCaseStaircase reproduces Fig. 8 of the paper: n squares of side n
// centered at (i, i); the arrangement has Θ(n²) regions.
func TestWorstCaseStaircase(t *testing.T) {
	t.Parallel()
	const n = 12
	circles := make([]nncircle.NNCircle, n)
	for i := 0; i < n; i++ {
		circles[i] = nncircle.NNCircle{
			Client: i,
			Circle: geom.NewCircle(geom.Pt(float64(i+1), float64(i+1)), float64(n)/2, geom.LInf),
		}
	}
	crest, err := CREST(circles, Options{})
	if err != nil {
		t.Fatal(err)
	}
	crestA, err := CRESTA(circles, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Baseline(circles, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLabelsAgainstOracle(t, "crest", circles, crest.Labels)
	checkLabelsAgainstOracle(t, "crest-a", circles, crestA.Labels)
	rng := rand.New(rand.NewSource(1))
	checkCompleteness(t, "crest", circles, crest.Labels, rng, 3000)
	if crest.MaxHeat != base.MaxHeat || crest.MaxHeat != crestA.MaxHeat {
		t.Errorf("max heat disagreement: crest=%g crest-a=%g baseline=%g", crest.MaxHeat, crestA.MaxHeat, base.MaxHeat)
	}
	// The staircase has every prefix set; λ = n in the middle.
	if crest.Stats.MaxRNNSetSize != n {
		t.Errorf("λ = %d, want %d", crest.Stats.MaxRNNSetSize, n)
	}
	// CREST must label fewer (or equal) regions than CREST-A, which in turn
	// labels fewer than the baseline's grid cells.
	if crest.Stats.Labelings > crestA.Stats.Labelings {
		t.Errorf("CREST labelings %d exceed CREST-A %d", crest.Stats.Labelings, crestA.Stats.Labelings)
	}
	if crestA.Stats.Labelings > base.Stats.GridCells {
		t.Errorf("CREST-A labelings %d exceed baseline cells %d", crestA.Stats.Labelings, base.Stats.GridCells)
	}
	// Lemma 3: k ≤ 14 r. The number of regions r is at least the number of
	// distinct sets; use the baseline's labels to count regions exactly via
	// distinct cells is not possible, so check the weaker k ≤ 14 * n².
	if crest.Stats.Labelings > 14*n*n {
		t.Errorf("k = %d violates the Lemma 3 style bound", crest.Stats.Labelings)
	}
}

// --- randomized cross-validation -----------------------------------------

func TestCRESTMatchesOracleRandomLInf(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		ncs, _, _ := randomInstance(t, rng, 60+trial*20, 4+trial, geom.LInf, 100)
		res, err := CREST(ncs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkLabelsAgainstOracle(t, "crest", ncs, res.Labels)
		checkCompleteness(t, "crest", ncs, res.Labels, rng, 1500)
	}
}

func TestCRESTMatchesOracleRandomL1(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 6; trial++ {
		ncs, _, _ := randomInstance(t, rng, 80, 5, geom.L1, 50)
		res, err := CREST(ncs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkLabelsAgainstOracle(t, "crest-l1", ncs, res.Labels)
		checkCompleteness(t, "crest-l1", ncs, res.Labels, rng, 1500)
	}
}

func TestCRESTAMatchesOracleRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 4; trial++ {
		metric := []geom.Metric{geom.LInf, geom.L1}[trial%2]
		ncs, _, _ := randomInstance(t, rng, 70, 6, metric, 80)
		res, err := CRESTA(ncs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkLabelsAgainstOracle(t, "crest-a", ncs, res.Labels)
		checkCompleteness(t, "crest-a", ncs, res.Labels, rng, 1000)
	}
}

func TestBaselineMatchesOracleRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 3; trial++ {
		metric := []geom.Metric{geom.LInf, geom.L1}[trial%2]
		ncs, _, _ := randomInstance(t, rng, 40, 5, metric, 60)
		res, err := Baseline(ncs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkLabelsAgainstOracle(t, "baseline", ncs, res.Labels)
		checkCompleteness(t, "baseline", ncs, res.Labels, rng, 1000)
	}
}

// TestAlgorithmsAgree verifies CREST, CREST-A and the baseline discover the
// same distinct RNN sets and the same maximum under several measures.
func TestAlgorithmsAgree(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 6; trial++ {
		metric := []geom.Metric{geom.LInf, geom.L1}[trial%2]
		ncs, clients, _ := randomInstance(t, rng, 50, 4, metric, 60)
		weights := make([]float64, len(clients))
		for i := range weights {
			weights[i] = rng.Float64()*3 + 0.5
		}
		measures := []influence.Measure{influence.Size(), influence.Weighted(weights)}
		for _, m := range measures {
			opts := Options{Measure: m}
			crest, err := CREST(ncs, opts)
			if err != nil {
				t.Fatal(err)
			}
			crestA, err := CRESTA(ncs, opts)
			if err != nil {
				t.Fatal(err)
			}
			base, err := Baseline(ncs, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Compare on solid (non-degenerate) labels: coinciding circle
			// sides produce one-ulp sliver regions whose membership is
			// numerically ambiguous and may legitimately differ between
			// algorithms.
			const eps = 1e-9
			kc, ka, kb := labelKeys(crest.Labels), labelKeys(crestA.Labels), labelKeys(base.Labels)
			for key := range labelKeys(solidLabels(base.Labels, eps)) {
				if key == "" {
					continue // exterior cells of the baseline grid
				}
				if !kc[key] {
					t.Fatalf("trial %d measure %s: baseline set %q missing from CREST", trial, m.Name(), key)
				}
				if !ka[key] {
					t.Fatalf("trial %d measure %s: baseline set %q missing from CREST-A", trial, m.Name(), key)
				}
			}
			for key := range labelKeys(solidLabels(crest.Labels, eps)) {
				if !kb[key] {
					t.Fatalf("trial %d measure %s: CREST set %q missing from baseline", trial, m.Name(), key)
				}
			}
			// CREST and CREST-A label the same arrangement exhaustively, so
			// their maxima must agree (up to floating-point summation order
			// inside the measure). The baseline resolves each grid cell at
			// its centroid with strict containment, so degenerate one-ulp
			// cells may resolve to an adjacent region: its maximum is
			// bracketed by the best solid region and the true maximum.
			tol := 1e-9 * (1 + crest.MaxHeat)
			if absDiff(crest.MaxHeat, crestA.MaxHeat) > tol {
				t.Fatalf("trial %d measure %s: max heat crest=%g crest-a=%g",
					trial, m.Name(), crest.MaxHeat, crestA.MaxHeat)
			}
			if base.MaxHeat > crest.MaxHeat+tol {
				t.Fatalf("trial %d measure %s: baseline max %g exceeds CREST max %g",
					trial, m.Name(), base.MaxHeat, crest.MaxHeat)
			}
			bestSolid := 0.0
			for _, l := range solidLabels(crest.Labels, eps) {
				if l.Heat > bestSolid {
					bestSolid = l.Heat
				}
			}
			if base.MaxHeat < bestSolid-tol {
				t.Fatalf("trial %d measure %s: baseline max %g below best solid region %g",
					trial, m.Name(), base.MaxHeat, bestSolid)
			}
			if crest.Stats.Labelings > crestA.Stats.Labelings {
				t.Errorf("trial %d: CREST should not label more than CREST-A (%d > %d)",
					trial, crest.Stats.Labelings, crestA.Stats.Labelings)
			}
		}
	}
}

// --- options and stats ----------------------------------------------------

func TestDiscardLabels(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(606))
	ncs, _, _ := randomInstance(t, rng, 60, 5, geom.LInf, 50)
	full, err := CREST(ncs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slim, err := CREST(ncs, Options{DiscardLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(slim.Labels) != 0 {
		t.Errorf("DiscardLabels kept %d labels", len(slim.Labels))
	}
	if slim.MaxHeat != full.MaxHeat {
		t.Errorf("MaxHeat differs: %g vs %g", slim.MaxHeat, full.MaxHeat)
	}
	if slim.Stats.Labelings != full.Stats.Labelings {
		t.Errorf("Labelings differ: %d vs %d", slim.Stats.Labelings, full.Stats.Labelings)
	}
	if setKey(slim.MaxLabel.RNN) != setKey(full.MaxLabel.RNN) {
		t.Errorf("MaxLabel differs: %v vs %v", slim.MaxLabel.RNN, full.MaxLabel.RNN)
	}
}

func TestStatsPopulated(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(707))
	ncs, _, _ := randomInstance(t, rng, 40, 4, geom.LInf, 50)
	res, err := CREST(ncs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Circles != 40 && res.Stats.Circles != len(ncs) {
		t.Errorf("Circles = %d", res.Stats.Circles)
	}
	if res.Stats.Events == 0 || res.Stats.Labelings == 0 || res.Stats.InfluenceCalls == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("Duration not recorded")
	}
	base, err := Baseline(ncs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.GridCells == 0 || base.Stats.EnclosureQueries != base.Stats.GridCells {
		t.Errorf("baseline stats wrong: %+v", base.Stats)
	}
}

// --- the paper's generic-measure example (Fig. 3 style) -------------------

func TestGenericMeasureExample(t *testing.T) {
	t.Parallel()
	// Four clients, two facilities, L-infinity. Clients o1 (index 0), o2 (1)
	// and o4 (3) are pairwise "connected" (e.g. passengers with nearby
	// destinations); o3 (2) is isolated. The best region under the size
	// measure contains all four clients, but the connectivity measure is
	// maximized by regions containing the connected triple.
	clients := []geom.Point{
		geom.Pt(3, 0),  // o1
		geom.Pt(4, 4),  // o2
		geom.Pt(2, -1), // o3
		geom.Pt(6, 1),  // o4
	}
	facilities := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	ncs, err := nncircle.Compute(clients, facilities, geom.LInf)
	if err != nil {
		t.Fatal(err)
	}
	edges := [][2]int{{0, 1}, {0, 3}, {1, 3}}

	sizeRes, err := CREST(ncs, Options{Measure: influence.Size()})
	if err != nil {
		t.Fatal(err)
	}
	connRes, err := CREST(ncs, Options{Measure: influence.Connectivity(edges)})
	if err != nil {
		t.Fatal(err)
	}
	if sizeRes.MaxHeat != 4 {
		t.Errorf("size max = %g, want 4", sizeRes.MaxHeat)
	}
	if connRes.MaxHeat != 3 {
		t.Errorf("connectivity max = %g, want 3", connRes.MaxHeat)
	}
	// The region {o1, o2, o4} exists and carries connectivity heat 3; the
	// region {o1, o3, o4} exists and carries connectivity heat 1.
	heats := map[string]float64{}
	for _, l := range connRes.Labels {
		heats[setKey(l.RNN)] = l.Heat
	}
	if h, ok := heats["0,1,3"]; !ok || h != 3 {
		t.Errorf("region {o1,o2,o4} heat = %g (present=%v), want 3", h, ok)
	}
	if h, ok := heats["0,2,3"]; !ok || h != 1 {
		t.Errorf("region {o1,o3,o4} heat = %g (present=%v), want 1", h, ok)
	}
	checkLabelsAgainstOracle(t, "fig3", ncs, connRes.Labels)
}
