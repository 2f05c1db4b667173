package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// The CREST-L2 sweep the one sweep replaced, kept as its oracle: every slab
// re-evaluates the heights of all active arcs at its midpoint and re-sorts
// them (l2Status.order), and every event rebuilds its RNN sets by walking
// the status up from the bottom arc. It runs over the same event list.

// oracleCRESTL2 runs the retained sweep sequentially over L2 circles (all of
// positive radius) and returns its result, with the number of circle height
// evaluations (YAtX, both arcs at once) plus walk steps it made in evals.
func oracleCRESTL2(circles []nncircle.NNCircle, opts Options) (res *Result, evals int) {
	col := newCollector(opts, nil)
	events := buildL2Events(circles)
	col.AddEvents(len(events))
	evals = sweepL2Events(circles, events, nil, col, col.intern, events[len(events)-1].x)
	res = col.finish()
	res.Stats.Circles = len(circles)
	return res, evals
}

// arcRef identifies one arc (the lower or upper half of a circle boundary)
// in the line status.
type arcRef struct {
	circle int
	upper  bool
	y      float64 // position at the slab midpoint
}

// l2Status is the line status the L2 sweeps carry from slab to slab: the
// active circles and their arcs ordered at the current slab's midpoint.
// Consecutive slabs differ only by the arcs an event inserts, removes or
// swaps — the observation behind persistent slab point location (Sarnak &
// Tarjan) — so order derives each slab's status from the last one instead of
// rebuilding it: it keeps the previous arc order, drops the arcs of circles
// that are no longer active or that the new midpoint grazes (YAtX fails),
// appends the arcs of every other active circle, re-evaluates every height
// with YAtX at the new midpoint, and insertion-sorts — or fully sorts when
// many arcs are new, as at a strip or window start. compareArcs is a strict
// total order (no two arcs share circle and half), so either way the result
// is exactly the order a full sort of the slab's arcs produces.
type l2Status struct {
	circles []nncircle.NNCircle
	// Per circle: active in the current slab, cut by the current midpoint
	// (with its arc heights there), and present in arcs.
	active   []bool
	cut      []bool
	yLo, yHi []float64
	hasArcs  []bool
	// actives lists the active circles in ascending order.
	actives []int
	// arcs is the current order and prev the one before it (its buffer,
	// swapped back in by the next order).
	arcs, prev []arcRef
}

// newL2Status returns the status of a sweep line cutting the given circles
// (ascending), before any slab has been ordered.
func newL2Status(circles []nncircle.NNCircle, straddling []int) *l2Status {
	n := len(circles)
	w := &l2Status{
		circles: circles,
		active:  make([]bool, n),
		cut:     make([]bool, n),
		yLo:     make([]float64, n),
		yHi:     make([]float64, n),
		hasArcs: make([]bool, n),
		actives: straddling,
	}
	for _, ci := range straddling {
		w.active[ci] = true
	}
	return w
}

// advance applies one event's insertions and removals to the active set.
func (w *l2Status) advance(insert, remove []int) {
	for _, ci := range insert {
		w.active[ci] = true
	}
	for _, ci := range remove {
		w.active[ci] = false
	}
	if len(remove) > 0 {
		kept := w.actives[:0]
		for _, ci := range w.actives {
			if w.active[ci] {
				kept = append(kept, ci)
			}
		}
		w.actives = kept
	}
	n := len(w.actives)
	for _, ci := range insert {
		if w.active[ci] {
			w.actives = append(w.actives, ci)
		}
	}
	if len(w.actives) > n {
		slices.Sort(w.actives)
	}
}

// order derives the current slab's arc order at midpoint xm from the
// previous one (see l2Status).
func (w *l2Status) order(xm float64) {
	w.prev, w.arcs = w.arcs, w.prev[:0]
	for _, ci := range w.actives {
		w.yLo[ci], w.yHi[ci], w.cut[ci] = w.circles[ci].Circle.YAtX(xm)
	}
	for _, a := range w.prev {
		if !w.active[a.circle] || !w.cut[a.circle] {
			w.hasArcs[a.circle] = false
			continue
		}
		a.y = w.yLo[a.circle]
		if a.upper {
			a.y = w.yHi[a.circle]
		}
		w.arcs = append(w.arcs, a)
	}
	carried := len(w.arcs)
	for _, ci := range w.actives {
		if w.cut[ci] && !w.hasArcs[ci] {
			w.hasArcs[ci] = true
			w.arcs = append(w.arcs,
				arcRef{circle: ci, upper: false, y: w.yLo[ci]},
				arcRef{circle: ci, upper: true, y: w.yHi[ci]},
			)
		}
	}
	// Insertion sort costs O(n) per appended arc on top of the carried
	// order's few inversions; past about log n appended arcs a full sort is
	// cheaper.
	if len(w.arcs)-carried > bits.Len(uint(len(w.arcs))) {
		slices.SortFunc(w.arcs, compareArcs)
		return
	}
	for i := 1; i < len(w.arcs); i++ {
		a := w.arcs[i]
		j := i
		for ; j > 0 && compareArcs(a, w.arcs[j-1]) < 0; j-- {
			w.arcs[j] = w.arcs[j-1]
		}
		w.arcs[j] = a
	}
}

// compareArcs orders arcs by height at the slab midpoint, then by circle,
// the lower half first — a strict total order, since no two arcs share both
// circle and half.
func compareArcs(a, b arcRef) int {
	switch {
	case a.y < b.y:
		return -1
	case a.y > b.y:
		return 1
	case a.circle != b.circle:
		return a.circle - b.circle
	case !a.upper && b.upper:
		return -1
	case a.upper && !b.upper:
		return 1
	default:
		return 0
	}
}

// sweepL2Events advances the L2 sweep over a contiguous run of events.
// straddling must list, ascending, the circles cut by a sweep line just
// before events[0] (none for a full sweep, nncircle.StraddlingX for a
// partition strip); xAfter bounds the final event's slab on the right,
// exactly as in sweeper.run. Each slab's line status is derived from the
// previous one's by l2Status.order, which yields exactly the order a full
// sort of the slab's arcs would.
//
// It returns its circle height evaluations plus walk steps.
func sweepL2Events(circles []nncircle.NNCircle, events []event, straddling []int, sink Sink, intern *LabelInterner, xAfter float64) (evals int) {
	w := newL2Status(circles, straddling)
	// pos[2*circle+upper] is the status index of an arc of a circle whose
	// arcs are in the current status (w.hasArcs).
	pos := make([]int, 2*len(circles))
	var ranges [][2]int
	set := oset.New()
	for l, ev := range events {
		w.advance(ev.insert, ev.remove)
		if len(w.actives) == 0 {
			continue
		}
		xLeft := ev.x
		xRight := xAfter
		if l+1 < len(events) {
			xRight = events[l+1].x
		}
		if xRight <= xLeft {
			continue
		}
		// The line status for this slab: two arcs per active circle the
		// midpoint cuts, ordered by their height there.
		w.order((xLeft + xRight) / 2)
		arcs := w.arcs
		evals += len(arcs) / 2
		if len(arcs) == 0 {
			continue
		}
		for i, a := range arcs {
			pos[arcSlot(a)] = i
		}

		// Changed intervals in index space.
		ranges = ranges[:0]
		for _, ci := range ev.insert {
			if w.hasArcs[ci] {
				ranges = append(ranges, [2]int{pos[2*ci], pos[2*ci+1]})
			}
		}
		for _, in := range ev.crossings {
			idxs := append(arcIndicesAt(w, pos, in.a, in.p), arcIndicesAt(w, pos, in.b, in.p)...)
			if len(idxs) < 2 {
				continue
			}
			lo, hi := idxs[0], idxs[0]
			for _, idx := range idxs[1:] {
				if idx < lo {
					lo = idx
				}
				if idx > hi {
					hi = idx
				}
			}
			ranges = append(ranges, [2]int{lo, hi})
		}
		if len(ranges) == 0 {
			continue
		}
		ranges = mergeIndexRanges(ranges)

		// Label the pairs inside each changed range. The running RNN set is
		// built with a single prefix walk shared by all ranges.
		set.Clear()
		next := 0
		for _, r := range ranges {
			for next <= r[0] {
				applyArc(circles, arcs[next], set)
				next++
			}
			for next <= r[1] {
				cur := arcs[next-1]
				nxt := arcs[next]
				if nxt.y > cur.y {
					region := geom.Rect{MinX: xLeft, MinY: cur.y, MaxX: xRight, MaxY: nxt.y}
					sink.Label(region, intern.Intern(set))
				}
				applyArc(circles, nxt, set)
				next++
			}
		}
		evals += next
	}
	return evals
}

// arcSlot is the index of arc a in a per-arc array: 2*circle, plus one for
// the upper half.
func arcSlot(a arcRef) int {
	if a.upper {
		return 2*a.circle + 1
	}
	return 2 * a.circle
}

// applyArc folds one arc into the running RNN set: a lower arc adds its
// circle's client, an upper arc removes it.
func applyArc(circles []nncircle.NNCircle, a arcRef, set *oset.Set) {
	client := circles[a.circle].Client
	if a.upper {
		set.Remove(client)
	} else {
		set.Add(client)
	}
}

// arcIndicesAt returns the status indexes of the arcs of circle ci that pass
// through the intersection point p: the upper arc when p lies above the
// circle center, the lower arc when below, and both when p coincides with
// the center height (the point is then at the circle's horizontal extreme).
// A circle without arcs in the status contributes none. Returning both only
// widens the changed interval, which can add labels but never lose a region.
func arcIndicesAt(w *l2Status, pos []int, ci int, p geom.Point) []int {
	const tol = 1e-12
	if !w.hasArcs[ci] {
		return nil
	}
	cy := w.circles[ci].Circle.Center.Y
	var out []int
	if p.Y >= cy-tol {
		out = append(out, pos[2*ci+1])
	}
	if p.Y <= cy+tol {
		out = append(out, pos[2*ci])
	}
	return out
}

// mergeIndexRanges merges overlapping or adjacent [lo, hi] index ranges.
func mergeIndexRanges(ranges [][2]int) [][2]int {
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i][0] != ranges[j][0] {
			return ranges[i][0] < ranges[j][0]
		}
		return ranges[i][1] < ranges[j][1]
	})
	out := ranges[:1]
	for _, r := range ranges[1:] {
		last := &out[len(out)-1]
		if r[0] <= last[1]+1 {
			if r[1] > last[1] {
				last[1] = r[1]
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// assertSameBits requires got to carry exactly want's labels — regions,
// points and heats as bit patterns, RNN sets — in the same order, and the
// same Stats.Events and Stats.Labelings.
func assertSameBits(t *testing.T, ctx string, want, got *Result) {
	t.Helper()
	if got.Stats.Events != want.Stats.Events || got.Stats.Labelings != want.Stats.Labelings {
		t.Fatalf("%s: events/labelings %d/%d, oracle %d/%d", ctx, got.Stats.Events, got.Stats.Labelings, want.Stats.Events, want.Stats.Labelings)
	}
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("%s: %d labels, oracle %d", ctx, len(got.Labels), len(want.Labels))
	}
	bits := func(l Label) [7]uint64 {
		r := l.Region
		var out [7]uint64
		for i, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY, l.Point.X, l.Point.Y, l.Heat} {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for i := range want.Labels {
		w, g := want.Labels[i], got.Labels[i]
		if bits(w) != bits(g) || !slices.Equal(w.RNN, g.RNN) {
			t.Fatalf("%s: label %d differs:\noracle %+v\nsweep  %+v", ctx, i, w, g)
		}
	}
}

// checkMatchesOracle runs CREST at 1 and 3 workers over L2 circles and
// requires both runs to equal the retained oracle's sequential run bit for
// bit.
func checkMatchesOracle(t *testing.T, ctx string, ncs []nncircle.NNCircle) {
	t.Helper()
	_, usable, err := validateInput(ncs)
	if err == ErrNoCircles {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracleCRESTL2(usable, Options{})
	for _, workers := range []int{1, 3} {
		got, err := CREST(ncs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("%s workers=%d", ctx, workers), want, got)
	}
}

// TestCRESTL2MatchesRetainedOracle is the identity suite of the one sweep
// for L2: over 300 random snapped and unsnapped instances and, outside
// -short, heatmapd's default map, CREST's labels at 1 and 3 workers equal
// the retained sweep's bit for bit.
func TestCRESTL2MatchesRetainedOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 300; trial++ {
		checkMatchesOracle(t, fmt.Sprintf("instance %d", trial), identityInstance(rng, trial%2 == 0))
	}
	if testing.Short() {
		return
	}
	checkMatchesOracle(t, "heatmapd default map", sampleInstance(t, "NYC", 2000, 600, 2))
}

// sampleInstance returns the L2 NN-circles of nO clients and nF facilities
// sampled with seed from a data set of 2(nO+nF) points, the way the
// benchmarks (seed 17) and heatmapd (seed 2) draw their inputs.
func sampleInstance(t *testing.T, ds string, nO, nF int, seed int64) []nncircle.NNCircle {
	t.Helper()
	pool, err := dataset.ByName(ds, (nO+nF)*2, 1)
	if err != nil {
		t.Fatal(err)
	}
	clients, facilities := pool.SampleClientsFacilities(nO, nF, seed)
	ncs, err := nncircle.Compute(clients, facilities, geom.L2)
	if err != nil {
		t.Fatal(err)
	}
	return ncs
}

// TestStatusWorkBound checks that CREST-L2's status work per labeling meets
// the paper's O((n + k) log n) bound, as a count: on the benchmarks' Uniform
// 2000/100 input it is at most a tenth of the retained sweep's height
// evaluations plus walk steps, and from Uniform 2000/100 to 5000/250 it
// grows by at most ln 5000 / ln 2000.
func TestStatusWorkBound(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps Uniform 5000/250 and runs the retained sweep")
	}
	t.Parallel()
	perLabeling := func(ncs []nncircle.NNCircle) float64 {
		res, err := CREST(ncs, Options{Workers: 1, DiscardLabels: true})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Stats.StatusWork) / float64(res.Stats.Labelings)
	}
	small := sampleInstance(t, "Uniform", 2000, 100, 17)
	_, usable, _ := validateInput(small)
	oracle, evals := oracleCRESTL2(usable, Options{DiscardLabels: true})
	oraclePer := float64(evals) / float64(oracle.Stats.Labelings)
	smallPer := perLabeling(small)
	largePer := perLabeling(sampleInstance(t, "Uniform", 5000, 250, 17))
	t.Logf("status work per labeling: %.1f on 2000/100 (retained sweep %.1f), %.1f on 5000/250", smallPer, oraclePer, largePer)
	if smallPer > oraclePer/10 {
		t.Errorf("2000/100: %.1f status work per labeling, more than a tenth of the retained sweep's %.1f", smallPer, oraclePer)
	}
	if growth := largePer / smallPer; growth > math.Log(5000)/math.Log(2000) {
		t.Errorf("status work per labeling grows %.3fx from 2000/100 to 5000/250, more than ln 5000 / ln 2000", growth)
	}
}
