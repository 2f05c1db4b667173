package core

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/rtree"
)

// CRESTL2 solves the Region Coloring problem for Euclidean (L2) NN-circles
// with the sweep described in Section VII-C of the paper. The events are the
// x-extremes of the circles, the circle centers, and the intersection points
// of circle boundaries; between two consecutive events the line status holds
// the circular arcs cut by the sweep line, ordered vertically at the slab's
// midpoint (the order cannot change inside a slab because all intersections
// are events). It is the sweep of CREST (sweep.go) over arcs: the status
// swaps the arcs that cross at an event instead of re-sorting, and the
// base-set records derive each RNN set in a few steps.
//
// New regions appear either at a circle's left extreme (every pair of arcs
// vertically enclosed by the new circle) or to the right of an intersection
// point (the pairs between the arcs through it); right extremes and centers
// produce no changed intervals, exactly as in the paper. The labeled
// representative rectangle of a pair spans the slab horizontally and the
// vertical gap between the two arcs at the slab midpoint; its center is
// always interior to the labeled region.
func CRESTL2(circles []nncircle.NNCircle, opts Options) (*Result, error) {
	metric, _, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	if metric != geom.L2 {
		return nil, ErrNotL2
	}
	return CREST(circles, opts)
}

// ErrNotL2 is returned when CRESTL2 receives non-Euclidean circles.
var ErrNotL2 = errors.New("core: CRESTL2 requires L2 NN-circles")

// buildL2Events constructs the sorted event list: circle x-extremes, circle
// centers, and boundary intersection points of overlapping circle pairs.
func buildL2Events(circles []nncircle.NNCircle) []event {
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
	events := make([]event, 0, nEvents)
	ins := make([]int, 0, nIns)
	rem := make([]int, 0, nRem)
	inters := make([]crossing, 0, nInters)
	var insFrom, remFrom, intFrom int
	// seal points the open event's lists at the entries appended since it
	// opened.
	seal := func() {
		ev := &events[len(events)-1]
		ev.insert = tail(ins, insFrom)
		ev.remove = tail(rem, remFrom)
		ev.crossings = tail(inters, intFrom)
	}
	for _, tg := range tags {
		if math.IsNaN(tg.x) {
			continue
		}
		if len(events) == 0 || startsEvent(tg.x, events[len(events)-1].x) {
			if len(events) > 0 {
				seal()
			}
			events = append(events, event{x: tg.x})
			insFrom, remFrom, intFrom = len(ins), len(rem), len(inters)
		}
		switch tg.kind {
		case 0:
			ins = append(ins, int(tg.a))
		case 1:
			rem = append(rem, int(tg.a))
		case 3:
			inters = append(inters, crossing{a: int(tg.a), b: int(tg.b), p: geom.Pt(tg.x, tg.y)})
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
