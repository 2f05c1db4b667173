package core

import (
	"cmp"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/rtree"
)

// CRESTL2 solves the Region Coloring problem for Euclidean (L2) NN-circles
// with the sweep described in Section VII-C of the paper. The events are the
// x-extremes of the circles, the circle centers, and the intersection points
// of circle boundaries; between two consecutive events the line status holds
// the circular arcs cut by the sweep line, ordered vertically (the order
// cannot change inside a slab because all intersections are events).
//
// New regions appear either at a circle's left extreme (every pair of arcs
// vertically enclosed by the new circle) or to the right of an intersection
// point (the pair between the two crossing arcs); right extremes and centers
// produce no changed intervals, exactly as in the paper. The labeled
// representative rectangle of a pair spans the slab horizontally and the
// vertical gap between the two arcs at the slab midpoint; its center is
// always interior to the labeled region.
func CRESTL2(circles []nncircle.NNCircle, opts Options) (*Result, error) {
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	if metric != geom.L2 {
		return nil, ErrNotL2
	}
	res := runL2Engine(usable, opts)
	res.Stats.Circles = len(usable)
	return res, nil
}

// ErrNotL2 is returned when CRESTL2 receives non-Euclidean circles.
var ErrNotL2 = errors.New("core: CRESTL2 requires L2 NN-circles")

// l2Event is one sweep event of the L2 variant. Circle centers are events
// too (they bound slabs) but need no list.
type l2Event struct {
	x             float64
	insert        []int // circles whose left extreme is at x
	remove        []int // circles whose right extreme is at x
	intersections []l2Intersection
}

// l2Intersection is a boundary intersection between two circles at an event.
type l2Intersection struct {
	a, b int
	p    geom.Point
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

// runCRESTL2 executes the full sequential L2 sweep, interning labels into
// intern.
func runCRESTL2(circles []nncircle.NNCircle, sink Sink, intern *LabelInterner) {
	events := buildL2Events(circles)
	sink.AddEvents(len(events))
	sweepL2Events(circles, events, nil, sink, intern, events[len(events)-1].x)
}

// sweepL2Events advances the L2 sweep over a contiguous run of events.
// straddling must list, ascending, the circles cut by a sweep line just
// before events[0] (none for a full sweep, nncircle.StraddlingX for a
// partition strip); xAfter bounds the final event's slab on the right,
// exactly as in sweepEvents. Each slab's line status is derived from the
// previous one's by l2Status.order, which yields exactly the order a full
// sort of the slab's arcs would.
func sweepL2Events(circles []nncircle.NNCircle, events []l2Event, straddling []int, sink Sink, intern *LabelInterner, xAfter float64) {
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
		for _, in := range ev.intersections {
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
	}
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

// buildL2Events constructs the sorted event list: circle x-extremes, circle
// centers, and boundary intersection points of overlapping circle pairs.
func buildL2Events(circles []nncircle.NNCircle) []l2Event {
	type tag struct {
		x, y float64 // y: the ordinate of an intersection point
		a, b int32
		kind uint8 // 0 insert, 1 remove, 2 center, 3 intersection
	}
	tags := make([]tag, 0, 3*len(circles))
	items := make([]rtree.Item, len(circles))
	for i, nc := range circles {
		c := nc.Circle
		tags = append(tags,
			tag{x: c.LeftX(), kind: 0, a: int32(i)},
			tag{x: c.RightX(), kind: 1, a: int32(i)},
			tag{x: c.Center.X, kind: 2, a: int32(i)},
		)
		items[i] = rtree.Item{ID: i, Rect: c.BoundingRect()}
	}
	tree := rtree.BulkLoad(items)
	for i, nc := range circles {
		ci := nc.Circle
		tree.Search(ci.BoundingRect(), func(it rtree.Item) bool {
			j := it.ID
			if j <= i {
				return true
			}
			for _, p := range geom.CircleIntersections(ci, circles[j].Circle) {
				tags = append(tags, tag{x: p.X, y: p.Y, kind: 3, a: int32(i), b: int32(j)})
			}
			return true
		})
	}
	// Ties may land in any order: everything that reads an event's lists
	// treats them as sets.
	slices.SortFunc(tags, func(a, b tag) int { return cmp.Compare(a.x, b.x) })
	// Cluster events whose x-coordinates agree within floating-point
	// tolerance. NN-circle arrangements are highly degenerate: every circle
	// passes through its client's nearest facility, so many boundaries meet
	// at common points whose computed coordinates differ only by rounding.
	// Treating them as one event (as exact arithmetic would) lets the merged
	// changed intervals cover every face that emerges from the shared vertex.
	// A first pass sizes everything, so each event's lists are windows of
	// three shared arrays instead of many small allocations.
	startsEvent := func(x, last float64) bool { return x-last > 1e-9*(1+math.Abs(x)) }
	nEvents, nIns, nRem, nInters := 0, 0, 0, 0
	last := 0.0
	for _, tg := range tags {
		if math.IsNaN(tg.x) {
			continue
		}
		if nEvents == 0 || startsEvent(tg.x, last) {
			nEvents++
			last = tg.x
		}
		switch tg.kind {
		case 0:
			nIns++
		case 1:
			nRem++
		case 3:
			nInters++
		}
	}
	events := make([]l2Event, 0, nEvents)
	ins := make([]int, 0, nIns)
	rem := make([]int, 0, nRem)
	inters := make([]l2Intersection, 0, nInters)
	var insFrom, remFrom, intFrom int
	// seal points the open event's lists at the entries appended since it
	// opened.
	seal := func() {
		ev := &events[len(events)-1]
		ev.insert = tail(ins, insFrom)
		ev.remove = tail(rem, remFrom)
		ev.intersections = tail(inters, intFrom)
	}
	for _, tg := range tags {
		if math.IsNaN(tg.x) {
			continue
		}
		if len(events) == 0 || startsEvent(tg.x, events[len(events)-1].x) {
			if len(events) > 0 {
				seal()
			}
			events = append(events, l2Event{x: tg.x})
			insFrom, remFrom, intFrom = len(ins), len(rem), len(inters)
		}
		switch tg.kind {
		case 0:
			ins = append(ins, int(tg.a))
		case 1:
			rem = append(rem, int(tg.a))
		case 3:
			inters = append(inters, l2Intersection{a: int(tg.a), b: int(tg.b), p: geom.Pt(tg.x, tg.y)})
		}
	}
	if len(events) > 0 {
		seal()
	}
	return events
}

// tail returns s[from:] with its capacity capped, or nil when that is empty:
// an event's list is nil exactly when it has no entry.
func tail[T any](s []T, from int) []T {
	if len(s) == from {
		return nil
	}
	return s[from:len(s):len(s)]
}
