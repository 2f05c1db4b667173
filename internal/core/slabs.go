package core

import (
	"errors"
	"math"
	"slices"
	"sort"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// Slab emission: the optional second product of the sweep engines.
//
// The CREST Sink receives only the Θ(k) labels of regions that *change* at an
// event; a point-location structure needs the complete picture instead — for
// every slab between consecutive events, the full y-ordered list of edges
// cutting it and the RNN set of every gap. A SlabEvents streams exactly that,
// reusing the sweeps' event machinery (buildEvents / buildL2Events), so the
// slab decomposition consumed by internal/pointloc is derived from the same
// arrangement CREST labels. The rectilinear emission costs O(Σ per-slab
// edges), the size of the emitted structure itself; the L2 emission derives
// each slab's arc order and gap labels from the previous slab's (see
// l2Slabs), so its work beyond writing the slabs down is proportional to the
// arcs that change between slabs.

// ErrUnsupportedSlabMetric is returned when NewSlabEvents receives L1
// circles: the rectilinear slab sweep operates in the rotated (L-infinity)
// coordinate system, so callers must rotate L1 inputs with
// nncircle.RotateL1ToLInf first and transform queries the same way.
var ErrUnsupportedSlabMetric = errors.New("core: slab emission requires LInf or L2 circles (rotate L1 inputs first)")

// SlabSink consumes the slab decomposition of an arrangement, slab by slab in
// ascending x order. It is the point-location counterpart of Sink: where Sink
// receives the sweep's labeling operations, SlabSink receives the complete
// per-slab interval lists a query structure is built from.
//
// For each slab the engine calls StartSlab once, then Edge once per edge in
// ascending y order. Both calls may return false to abort the emission (e.g.
// when a size cap is hit); the emission then returns ErrSlabsAborted.
type SlabSink interface {
	// StartSlab opens the slab spanning [x0, x1] in sweep space. actives
	// holds the indexes (ascending) of every circle whose closed x-extent
	// covers the whole slab; the slice is reused across calls — copy it to
	// retain it. A slab has at most two edges per active circle.
	StartSlab(x0, x1 float64, actives []int) bool
	// Edge reports the next edge of the open slab in ascending y order.
	// For rectilinear sweeps y is the coordinate of a distinct horizontal
	// side (several coincident sides are coalesced into one call) and circle
	// is -1. For L2 sweeps each arc is reported individually: circle is the
	// arc's circle and upper distinguishes the two halves of its boundary; y
	// is the arc's height at the slab midpoint (the build-time ordering key —
	// the arc order cannot change inside a slab).
	// above is the interned label of the gap immediately above this edge —
	// a pointer into the emission's LabelInterner pool, immutable and safe
	// to retain as-is. The gap below a slab's first edge is always the
	// empty-set label.
	Edge(y float64, circle int, upper bool, above *Interned) bool
}

// ErrSlabsAborted is returned by an emission when the sink stopped it.
var ErrSlabsAborted = errors.New("core: slab emission aborted by sink")

// SlabEvents is the sweep-space event list of one arrangement, constructed
// once and shared by everything a slab index needs from it: the cell bound a
// build is gated on, the slab abscissae a patch aligns with, and any number
// of full or windowed emissions. Constructing it is the O(n log n) part
// (plus every boundary intersection, for L2); each emission then only walks
// it. A SlabEvents is immutable and safe for concurrent emissions.
type SlabEvents struct {
	circles []nncircle.NNCircle
	rect    []event   // LInf arrangements
	l2      []l2Event // L2 arrangements
}

// NewSlabEvents validates the circles (they must share one metric; ErrNoCircles
// when none has a positive radius) and constructs their event list. LInf is
// swept directly and L2 with the arc sweep of crestl2.go; L1 inputs are
// rejected with ErrUnsupportedSlabMetric — rotate them into the LInf system
// first (the slab structure lives in sweep space). Emitted circle indexes
// refer to the positive-radius circles in input order.
func NewSlabEvents(circles []nncircle.NNCircle) (*SlabEvents, error) {
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	e := &SlabEvents{circles: usable}
	switch metric {
	case geom.LInf:
		e.rect = buildEvents(usable)
	case geom.L2:
		e.l2 = buildL2Events(usable)
	default:
		return nil, ErrUnsupportedSlabMetric
	}
	return e, nil
}

// Xs returns the slab left edges — the event abscissae — in ascending order,
// one per emitted slab.
func (e *SlabEvents) Xs() []float64 {
	xs := make([]float64, 0, len(e.rect)+len(e.l2))
	for _, ev := range e.rect {
		xs = append(xs, ev.x)
	}
	for _, ev := range e.l2 {
		xs = append(xs, ev.x)
	}
	return xs
}

// CellBound returns an upper bound on the slab-decomposition cell count (the
// quantity pointloc's cell cap bounds) in O(events), without emitting
// anything: one cell per slab plus two per edge, with the edge count of a
// slab bounded by two per active circle. Point-location builders consult it
// to decline oversized arrangements before any emission work.
func (e *SlabEvents) CellBound() int {
	cells, active := 0, 0
	add := func(inserted, removed int) {
		active += inserted - removed
		cells += 1 + 4*active
	}
	for _, ev := range e.rect {
		add(len(ev.insert), len(ev.remove))
	}
	for _, ev := range e.l2 {
		add(len(ev.insert), len(ev.remove))
	}
	return cells
}

// Emit streams the full slab decomposition into sink, interning every gap
// label into pool (nil means a fresh size-measure pool — pass the pool of
// the measure the labels should carry, e.g. the CREST run's
// Result.LabelPool, to share already-computed heats).
func (e *SlabEvents) Emit(sink SlabSink, pool *LabelInterner) error {
	return e.EmitRanges(sink, pool, [][2]float64{{math.Inf(-1), math.Inf(1)}})
}

// EmitRanges is the partial-rebuild entry point: for each [lo, hi) window in
// turn it emits exactly the slabs of the full emission whose left edge x
// satisfies lo <= x < hi, warm-starting the active set at the window's first
// event exactly like the partition layer warm-starts a strip. Every window
// walks the one shared event list, so a patch over k dirty runs pays one
// event construction plus one O(n) warm start per window. Which slabs a
// perturbation can change — for L2 also the slab ending where a dirty run
// begins, whose midpoint moves with its right edge — is the caller's rule
// (pointloc.Index.Patch).
func (e *SlabEvents) EmitRanges(sink SlabSink, pool *LabelInterner, windows [][2]float64) error {
	if pool == nil {
		pool = NewLabelInterner(nil)
	}
	for _, w := range windows {
		var err error
		if e.l2 != nil {
			err = emitL2Slabs(e.circles, e.l2, sink, pool, w[0], w[1])
		} else {
			err = emitRectSlabs(e.circles, e.rect, sink, pool, w[0], w[1])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// emitRectSlabs walks the prebuilt rectilinear event list and emits every
// slab whose left edge lies in [lo, hi). The active set is maintained as a
// boolean per-circle membership; per slab the horizontal sides of the active
// circles are sorted and walked bottom to top with a running RNN set,
// coalescing coincident side coordinates into one edge.
func emitRectSlabs(circles []nncircle.NNCircle, events []event, sink SlabSink, pool *LabelInterner, lo, hi float64) error {
	first := sort.Search(len(events), func(i int) bool { return events[i].x >= lo })
	last := sort.Search(len(events), func(i int) bool { return events[i].x >= hi })
	if first >= last {
		return nil
	}
	active := make([]bool, len(circles))
	for i, nc := range circles {
		// Active in the slab starting at events[first].x: inserted at or
		// before it, removed strictly after it.
		if nc.Circle.LeftX() <= events[first].x && nc.Circle.RightX() > events[first].x {
			active[i] = true
		}
	}
	var (
		actives []int
		sides   []sideRef
		set     = oset.New()
	)
	for l := first; l < last; l++ {
		ev := events[l]
		for _, ci := range ev.insert {
			active[ci] = true
		}
		for _, ci := range ev.remove {
			active[ci] = false
		}
		xNext := ev.x
		if l+1 < len(events) {
			xNext = events[l+1].x
		}
		actives = actives[:0]
		for ci := range active {
			if active[ci] {
				actives = append(actives, ci)
			}
		}
		if !sink.StartSlab(ev.x, xNext, actives) {
			return ErrSlabsAborted
		}
		sides = sides[:0]
		for _, ci := range actives {
			c := circles[ci].Circle
			sides = append(sides,
				sideRef{y: c.BottomY(), circle: ci, lower: true},
				sideRef{y: c.TopY(), circle: ci, lower: false},
			)
		}
		slices.SortFunc(sides, func(a, b sideRef) int {
			switch {
			case a.y < b.y:
				return -1
			case a.y > b.y:
				return 1
			default:
				return a.circle - b.circle
			}
		})
		set.Clear()
		for k := 0; k < len(sides); {
			y := sides[k].y
			for k < len(sides) && sides[k].y == y {
				client := circles[sides[k].circle].Client
				if sides[k].lower {
					set.Add(client)
				} else {
					set.Remove(client)
				}
				k++
			}
			if !sink.Edge(y, -1, false, pool.Intern(set)) {
				return ErrSlabsAborted
			}
		}
	}
	return nil
}

// sideRef is one horizontal circle side inside a slab.
type sideRef struct {
	y      float64
	circle int
	lower  bool
}

// emitL2Slabs walks the prebuilt Euclidean event list and emits every slab
// whose left edge lies in [lo, hi), warm-starting the active set from the
// circles straddling the first such event exactly like sweepL2Strip. Each
// slab's arcs are ordered at the slab midpoint, the ordering sweepL2Events
// labels with (the order cannot change strictly inside a slab because every
// boundary intersection is an event); l2Slabs derives the order and the gap
// labels from the previous slab's.
func emitL2Slabs(circles []nncircle.NNCircle, events []l2Event, sink SlabSink, pool *LabelInterner, lo, hi float64) error {
	first := sort.Search(len(events), func(i int) bool { return events[i].x >= lo })
	last := sort.Search(len(events), func(i int) bool { return events[i].x >= hi })
	if first >= last {
		return nil
	}
	w := newL2Slabs(circles, pool, nncircle.StraddlingX(circles, events[first].x))
	for l := first; l < last; l++ {
		ev := events[l]
		xRight := ev.x
		if l+1 < len(events) {
			xRight = events[l+1].x
		}
		w.advance(ev.insert, ev.remove)
		if !sink.StartSlab(ev.x, xRight, w.actives) {
			return ErrSlabsAborted
		}
		if xRight <= ev.x || len(w.actives) == 0 {
			continue
		}
		w.order((ev.x + xRight) / 2)
		w.label()
		for i, a := range w.arcs {
			if !sink.Edge(a.y, a.circle, a.upper, w.gaps[i+1]) {
				return ErrSlabsAborted
			}
		}
	}
	return nil
}

// l2Slabs is the L2 slab emission's state: the line status it carries from
// slab to slab (see l2Status) plus each slab's gap labels, derived from the
// last labeled slab's. label reuses the gaps below the first arc that
// differs from the previous order and above the last one: a gap's RNN set
// holds the clients whose lower arc lies below it and upper arc above it, so
// it depends only on the arcs below the gap, or equally only on those above
// it. The gaps in between are re-keyed by carrying the interner's key,
// oset.ContentKey, across each arc (Add for a lower arc, Remove for an upper
// one), and a set is materialized only when that key misses the pool. This
// relies on every circle carrying a distinct client, as NN-circles do. The
// emitted stream is therefore identical to sorting every slab's arcs and
// walking them with a running set: same heights bit for bit, same arc order,
// and the same interned label pointers.
type l2Slabs struct {
	*l2Status
	pool *LabelInterner
	// gaps[k] labels the gap below arcs[k] (gaps[len(arcs)] the top one)
	// and keys[k] is its interner key; prevGaps and prevKeys are the last
	// labeled slab's, whose buffers label swaps back in.
	gaps, prevGaps []*Interned
	keys, prevKeys []oset.ContentKey
	set            *oset.Set // a gap's set, materialized on a pool miss
}

// newL2Slabs returns the emission state for a sweep line cutting the given
// circles (ascending), before any slab has been labeled.
func newL2Slabs(circles []nncircle.NNCircle, pool *LabelInterner, straddling []int) *l2Slabs {
	return &l2Slabs{
		l2Status: newL2Status(circles, straddling),
		pool:     pool,
		gaps:     []*Interned{pool.Empty()},
		keys:     []oset.ContentKey{{}},
		set:      oset.New(),
	}
}

// label derives the current slab's gap labels, for the order the last order
// call produced, from the last labeled slab's (see l2Slabs).
func (w *l2Slabs) label() {
	w.prevGaps, w.gaps = w.gaps, w.prevGaps[:0]
	w.prevKeys, w.keys = w.keys, w.prevKeys[:0]
	n, m := len(w.arcs), len(w.prev)
	d := 0 // common prefix of the two orders
	for d < n && d < m && arcSlot(w.arcs[d]) == arcSlot(w.prev[d]) {
		d++
	}
	s := 0 // common suffix, disjoint from the prefix
	for s < n-d && s < m-d && arcSlot(w.arcs[n-1-s]) == arcSlot(w.prev[m-1-s]) {
		s++
	}
	// Gaps 0..d lie below the common prefix.
	w.gaps = append(w.gaps, w.prevGaps[:d+1]...)
	w.keys = append(w.keys, w.prevKeys[:d+1]...)
	// Gaps d+1 .. n-s-1 are re-keyed; the set of gap g is materialized only
	// on a miss, from gap d's label and the arcs in between.
	key, setGap := w.keys[d], -1
	for g := d + 1; g < n-s; g++ {
		a := w.arcs[g-1]
		if c := w.circles[a.circle].Client; a.upper {
			key = key.Remove(c)
		} else {
			key = key.Add(c)
		}
		l := w.pool.lookup(key)
		if l == nil {
			if setGap < 0 {
				w.set.Reset(w.gaps[d].RNN)
				setGap = d
			}
			for ; setGap < g; setGap++ {
				applyArc(w.circles, w.arcs[setGap], w.set)
			}
			l = w.pool.Intern(w.set)
		}
		w.gaps = append(w.gaps, l)
		w.keys = append(w.keys, key)
	}
	// Gaps from n-s up lie above the common suffix: gap g is the previous
	// slab's gap g-n+m.
	from := max(d+1, n-s)
	w.gaps = append(w.gaps, w.prevGaps[from-n+m:]...)
	w.keys = append(w.keys, w.prevKeys[from-n+m:]...)
}

// PerturbedSpans returns the merged sweep-space x-intervals covered by the
// given perturbed circles, as [lo, hi] pairs in ascending order — the same
// spans Resweep dirties (L1 circles are rotated into the LInf sweep system,
// L2 spans carry the event-clustering epsilon). Package delta forwards them
// so a slab point-location index can be patched over exactly the slabs the
// resweep touched.
func PerturbedSpans(perturbed []geom.Circle, metric geom.Metric) [][2]float64 {
	spans := perturbedSpans(perturbed, metric)
	out := make([][2]float64, len(spans))
	for i, s := range spans {
		out[i] = [2]float64{s.lo, s.hi}
	}
	return out
}
