package pointloc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/enclosure"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// oracle answers a query the way heatmap.Map's enclosure path does: stabbing
// query over every circle (closed containment), set assembled in ascending
// circle order, measure folded over that set. The differential suite holds
// the slab index to byte-identity against it.
type oracle struct {
	circles []nncircle.NNCircle
	index   enclosure.Index
	measure influence.Measure
}

func newOracle(circles []nncircle.NNCircle, measure influence.Measure) *oracle {
	return &oracle{
		circles: circles,
		index:   enclosure.NewRTreeIndex(nncircle.Circles(circles)),
		measure: measure,
	}
}

// sweptEvents returns the event list a resweep over circles sweeps: the one
// Patch takes.
func sweptEvents(t testing.TB, circles []nncircle.NNCircle) *core.SlabEvents {
	t.Helper()
	out, err := core.Resweep(circles, core.Options{DiscardLabels: true}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.Events
}

func (o *oracle) heatAt(p geom.Point) (float64, []int) {
	set := oset.New()
	for _, id := range o.index.Enclosing(p) {
		set.Add(o.circles[id].Client)
	}
	return o.measure.Influence(set), set.Sorted()
}

// testInstance builds a deliberately degenerate NN-circle instance: a share
// of coordinates snapped to the integer grid (coincident sides, shared
// vertices, tangent circles) and clients occasionally sitting exactly on a
// facility (zero-radius circles).
func testInstance(t testing.TB, seed int64, nClients, nFacilities int, metric geom.Metric, snapped bool) ([]nncircle.NNCircle, []geom.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pt := func() geom.Point {
		p := geom.Pt(rng.Float64()*64, rng.Float64()*64)
		if snapped && rng.Intn(3) == 0 {
			p = geom.Pt(math.Round(p.X), math.Round(p.Y))
		}
		return p
	}
	facilities := make([]geom.Point, nFacilities)
	for i := range facilities {
		facilities[i] = pt()
	}
	clients := make([]geom.Point, nClients)
	for i := range clients {
		if snapped && rng.Intn(10) == 0 {
			clients[i] = facilities[rng.Intn(len(facilities))]
		} else {
			clients[i] = pt()
		}
	}
	ncs, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		t.Fatalf("nncircle.Compute: %v", err)
	}
	return ncs, facilities
}

// probePoints assembles the adversarial query set for an instance: random
// interior points plus points exactly on circle boundaries, circle corners /
// extremes, slab boundaries (event abscissae at random heights), gap edges
// (side y-coordinates) and zero-radius centers.
func probePoints(rng *rand.Rand, circles []nncircle.NNCircle, n int) []geom.Point {
	var ps []geom.Point
	for i := 0; i < n; i++ {
		ps = append(ps, geom.Pt(rng.Float64()*70-3, rng.Float64()*70-3))
	}
	for _, nc := range circles {
		c := nc.Circle
		cx, cy, r := c.Center.X, c.Center.Y, c.Radius
		// The four extreme points lie on every metric's boundary.
		ps = append(ps,
			geom.Pt(cx-r, cy), geom.Pt(cx+r, cy),
			geom.Pt(cx, cy-r), geom.Pt(cx, cy+r),
			c.Center,
		)
		switch c.Metric {
		case geom.LInf:
			// Corners, side midpoints-ish, and random points on sides.
			ps = append(ps,
				geom.Pt(cx-r, cy-r), geom.Pt(cx+r, cy+r), geom.Pt(cx-r, cy+r),
				geom.Pt(cx-r, cy+(rng.Float64()*2-1)*r),
				geom.Pt(cx+(rng.Float64()*2-1)*r, cy+r),
			)
			// A point at the event abscissa but outside the circle.
			ps = append(ps, geom.Pt(cx-r, cy+r+1), geom.Pt(cx+r, cy-r-2))
		case geom.L1:
			// Diamond edge points: |dx| + |dy| == r with exact arithmetic
			// when coordinates are snapped.
			d := rng.Float64() * r
			ps = append(ps, geom.Pt(cx+d, cy+(r-d)), geom.Pt(cx-d, cy-(r-d)))
		case geom.L2:
			// Points on the disk boundary via Pythagorean-ish offsets, plus
			// the extremes appended above.
			a := rng.Float64() * 2 * math.Pi
			ps = append(ps, geom.Pt(cx+r*math.Cos(a), cy+r*math.Sin(a)))
		}
	}
	return ps
}

func measuresForTest(nClients int, rng *rand.Rand) []influence.Measure {
	weights := make([]float64, nClients)
	for i := range weights {
		weights[i] = rng.Float64() * 3
	}
	return []influence.Measure{influence.Size(), influence.Weighted(weights)}
}

// assertSameAnswer fails when the slab index and the oracle disagree on a
// single query point.
func assertSameAnswer(t *testing.T, ix *Index, o *oracle, p geom.Point, ctx string) {
	t.Helper()
	gotH, gotR := ix.Query(p)
	wantH, wantR := o.heatAt(p)
	if gotH != wantH || !reflect.DeepEqual(gotR, wantR) {
		t.Fatalf("%s: Query(%v) = (%v, %v), oracle = (%v, %v)", ctx, p, gotH, gotR, wantH, wantR)
	}
}

func checkInstance(t *testing.T, seed int64, nClients, nFacilities int, metric geom.Metric, snapped bool) {
	t.Helper()
	circles, _ := testInstance(t, seed, nClients, nFacilities, metric, snapped)
	rng := rand.New(rand.NewSource(seed ^ 0x0ddba11))
	probes := probePoints(rng, circles, 150)
	for _, m := range measuresForTest(nClients, rng) {
		ix, err := Build(circles, m, Options{})
		if err != nil {
			t.Fatalf("Build(%v/%s): %v", metric, m.Name(), err)
		}
		o := newOracle(circles, m)
		ctx := fmt.Sprintf("seed=%d metric=%v measure=%s snapped=%v", seed, metric, m.Name(), snapped)
		for _, p := range probes {
			assertSameAnswer(t, ix, o, p, ctx)
		}
		// The batch path must agree with the per-point path exactly.
		heats, rnns := ix.QueryBatch(probes)
		for k, p := range probes {
			h, r := ix.Query(p)
			if h != heats[k] || !reflect.DeepEqual(r, rnns[k]) {
				t.Fatalf("%s: QueryBatch[%d] = (%v, %v), Query = (%v, %v)", ctx, k, heats[k], rnns[k], h, r)
			}
		}
	}
}

// TestQueryMatchesEnclosureRandom is the random-instance half of the
// differential property suite.
func TestQueryMatchesEnclosureRandom(t *testing.T) {
	t.Parallel()
	trials := 6
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(52))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for i := 0; i < trials; i++ {
			checkInstance(t, rng.Int63(), 5+rng.Intn(40), 1+rng.Intn(10), metric, false)
		}
	}
}

// TestQueryMatchesEnclosureDegenerate is the snapped-integer half: shared
// circle sides, tangent circles, zero-radius circles, and query points lying
// exactly on circle and slab boundaries.
func TestQueryMatchesEnclosureDegenerate(t *testing.T) {
	t.Parallel()
	trials := 6
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(53))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for i := 0; i < trials; i++ {
			checkInstance(t, rng.Int63(), 5+rng.Intn(40), 1+rng.Intn(8), metric, true)
		}
	}
}

// TestQueryOutsideEverything pins the far-field behavior: way outside the
// arrangement the answer is the empty set with the measure's empty heat.
func TestQueryOutsideEverything(t *testing.T) {
	t.Parallel()
	circles, _ := testInstance(t, 7, 12, 3, geom.LInf, false)
	ix, err := Build(circles, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []geom.Point{geom.Pt(-1e6, 0), geom.Pt(1e6, 32), geom.Pt(32, -1e6)} {
		h, rnn := ix.Query(p)
		if h != 0 || len(rnn) != 0 || rnn == nil {
			t.Fatalf("Query(%v) = (%v, %#v), want (0, []int{})", p, h, rnn)
		}
	}
}

// TestBuildCellCap pins the ErrTooLarge guard.
func TestBuildCellCap(t *testing.T) {
	t.Parallel()
	circles, _ := testInstance(t, 11, 30, 2, geom.LInf, false)
	if _, err := Build(circles, nil, Options{MaxCells: 10}); err != ErrTooLarge {
		t.Fatalf("Build with MaxCells=10: err = %v, want ErrTooLarge", err)
	}
}

// TestPatchMatchesFreshBuild moves a handful of clients, patches the index
// with the perturbed spans, and requires the patched index to agree with a
// from-scratch build — structurally on the slab boundaries and answer for
// answer on the probe set.
func TestPatchMatchesFreshBuild(t *testing.T) {
	t.Parallel()
	trials := 5
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(54))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for trial := 0; trial < trials; trial++ {
			seed := rng.Int63()
			snapped := trial%2 == 0
			nClients := 10 + rng.Intn(30)
			circles, facilities := testInstance(t, seed, nClients, 2+rng.Intn(6), metric, snapped)
			clients := make([]geom.Point, len(circles))
			for i, nc := range circles {
				clients[i] = nc.Circle.Center
			}
			// Move a few clients and recompute their circles.
			moved := map[int]bool{}
			for k := 0; k < 1+rng.Intn(3); k++ {
				moved[rng.Intn(len(clients))] = true
			}
			var perturbed []geom.Circle
			newClients := append([]geom.Point(nil), clients...)
			for i := range moved {
				newClients[i] = geom.Pt(rng.Float64()*64, rng.Float64()*64)
			}
			newCircles, err := nncircle.Compute(newClients, facilities, metric)
			if err != nil {
				t.Fatal(err)
			}
			for i := range moved {
				perturbed = append(perturbed, circles[i].Circle, newCircles[i].Circle)
			}
			spans := core.PerturbedSpans(perturbed, metric)

			base, err := Build(circles, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			patched, err := base.Patch(newCircles, spans, sweptEvents(t, newCircles), Options{})
			if errors.Is(err, ErrPatchDeclined) {
				// Rare degenerate trial (e.g. every perturbed circle is
				// zero-radius): nothing to splice; skip it.
				continue
			}
			if err != nil {
				t.Fatalf("Patch: %v", err)
			}
			fresh, err := Build(newCircles, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(patched.xs, fresh.xs) {
				t.Fatalf("metric=%v seed=%d: patched slab boundaries differ from fresh build (%d vs %d slabs)",
					metric, seed, len(patched.xs), len(fresh.xs))
			}
			o := newOracle(newCircles, influence.Size())
			probes := probePoints(rng, newCircles, 120)
			ctx := fmt.Sprintf("patch metric=%v seed=%d", metric, seed)
			for _, p := range probes {
				assertSameAnswer(t, patched, o, p, ctx)
				hP, rP := patched.Query(p)
				hF, rF := fresh.Query(p)
				if hP != hF || !reflect.DeepEqual(rP, rF) {
					t.Fatalf("%s: patched (%v,%v) != fresh (%v,%v) at %v", ctx, hP, rP, hF, rF, p)
				}
			}
		}
	}
}

// TestPatchDeclines pins the decline contract: span-less updates that change
// the arrangement and spans inconsistent with the update decline without
// doing any splice work; a no-op update over an unchanged arrangement reuses
// the receiver, and an L2 receiver patches into an index identical to a
// fresh build.
func TestPatchDeclines(t *testing.T) {
	t.Parallel()
	circles, facilities := testInstance(t, 99, 20, 4, geom.LInf, false)
	clients := make([]geom.Point, len(circles))
	for i, nc := range circles {
		clients[i] = nc.Circle.Center
	}
	newClients := append([]geom.Point(nil), clients...)
	newClients[0] = geom.Pt(1, 1)
	newCircles, err := nncircle.Compute(newClients, facilities, geom.LInf)
	if err != nil {
		t.Fatal(err)
	}
	spans := core.PerturbedSpans([]geom.Circle{circles[0].Circle, newCircles[0].Circle}, geom.LInf)
	base, err := Build(circles, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	newEvents := sweptEvents(t, newCircles)
	fresh, err := Build(newCircles, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The update's own spans and spans dirtying every slab both patch, into
	// an index equal to a fresh build: no share of dirty slabs declines.
	for _, sp := range [][][2]float64{spans, {{-1e6, 1e6}}} {
		patched, err := base.Patch(newCircles, sp, newEvents, Options{})
		if err != nil {
			t.Fatalf("Patch over %v: %v", sp, err)
		}
		assertSameIndex(t, fmt.Sprintf("patch over %v", sp), patched, fresh)
	}
	// No spans over an unchanged arrangement: the receiver is reused.
	same, err := base.Patch(circles, nil, nil, Options{})
	if err != nil {
		t.Fatalf("no-op Patch: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, p := range probePoints(rng, circles, 40) {
		hS, rS := same.Query(p)
		hB, rB := base.Query(p)
		if hS != hB || !reflect.DeepEqual(rS, rB) {
			t.Fatalf("no-op patch differs from receiver at %v", p)
		}
	}
	// A span-less update that does change the arrangement cannot be
	// spliced.
	if _, err := base.Patch(newCircles, nil, newEvents, Options{}); !errors.Is(err, ErrPatchDeclined) {
		t.Fatalf("span-less Patch err = %v, want ErrPatchDeclined", err)
	}
	// Spans that miss the perturbation are inconsistent with the update: a
	// slab they leave clean has no counterpart in the receiver.
	if _, err := base.Patch(newCircles, [][2]float64{{1e6, 1e6 + 1}}, newEvents, Options{}); !errors.Is(err, ErrPatchDeclined) {
		t.Fatalf("inconsistent-span Patch err = %v, want ErrPatchDeclined", err)
	}
	// L2 receivers patch like the rectilinear ones, into an index
	// structurally identical to a fresh build; spans that miss the
	// perturbation decline there too.
	l2Circles, _ := testInstance(t, 99, 20, 4, geom.L2, false)
	l2New, err := nncircle.Compute(newClients, facilities, geom.L2)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Build(l2Circles, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2Spans := core.PerturbedSpans([]geom.Circle{l2Circles[0].Circle, l2New[0].Circle}, geom.L2)
	l2Events := sweptEvents(t, l2New)
	l2Patched, err := l2.Patch(l2New, l2Spans, l2Events, Options{})
	if err != nil {
		t.Fatalf("L2 Patch: %v", err)
	}
	l2Fresh, err := Build(l2New, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, "L2 patch", l2Patched, l2Fresh)
	if _, err := l2.Patch(l2New, [][2]float64{{1e6, 1e6 + 1}}, l2Events, Options{}); !errors.Is(err, ErrPatchDeclined) {
		t.Fatalf("inconsistent-span L2 Patch err = %v, want ErrPatchDeclined", err)
	}
}
