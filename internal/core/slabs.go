package core

import (
	"errors"
	"math"
	"slices"
	"sort"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// Slab emission: the optional second product of the sweep.
//
// The CREST Sink receives only the Θ(k) labels of regions that *change* at an
// event; a point-location structure needs the complete picture instead — for
// every slab between consecutive events, the full y-ordered list of edges
// cutting it and the RNN set of every gap. A SlabEvents streams exactly that
// with the one sweeper of sweep.go over the sweep's own event list, so the
// slab decomposition consumed by internal/pointloc is derived from the same
// arrangement CREST labels. The emission keeps a base-set record on every
// arc: each event's changed ranges refresh the records they pass, and each
// slab is written by one walk up the status that reads every gap's label
// from the record of the arc below it. So its work beyond writing the slabs
// down is proportional to the arcs the events change.

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
	// is the arc's height at the slab midpoint, the emission's ordering key
	// (the arc order cannot change inside a slab). internal/pointloc ignores
	// an arc's y: it evaluates arcs at the query's own x.
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
	events  []event
}

// NewSlabEvents validates the circles (they must share one metric; ErrNoCircles
// when none has a positive radius) and constructs their event list. LInf and
// L2 are swept directly; L1 inputs are rejected with
// ErrUnsupportedSlabMetric — rotate them into the LInf system first (the
// slab structure lives in sweep space). Emitted circle indexes refer to the
// positive-radius circles in input order.
func NewSlabEvents(circles []nncircle.NNCircle) (*SlabEvents, error) {
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	if metric == geom.L1 {
		return nil, ErrUnsupportedSlabMetric
	}
	return &SlabEvents{circles: usable, events: eventsOf(usable)}, nil
}

// Xs returns the slab left edges — the event abscissae — in ascending order,
// one per emitted slab.
func (e *SlabEvents) Xs() []float64 {
	xs := make([]float64, len(e.events))
	for i, ev := range e.events {
		xs[i] = ev.x
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
	for _, ev := range e.events {
		active += len(ev.insert) - len(ev.remove)
		cells += 1 + 4*active
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
// satisfies lo <= x < hi, warm-starting the sweeper at the window's first
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
		if err := e.emit(sink, pool, w[0], w[1]); err != nil {
			return err
		}
	}
	return nil
}

// emit streams every slab whose left edge lies in [lo, hi).
func (e *SlabEvents) emit(sink SlabSink, pool *LabelInterner, lo, hi float64) error {
	events := e.events
	first := sort.Search(len(events), func(i int) bool { return events[i].x >= lo })
	last := sort.Search(len(events), func(i int) bool { return events[i].x >= hi })
	if first >= last {
		return nil
	}
	s := newSweeper(e.circles, events, 1, nil, pool)
	defer s.release()
	s.warm(first)
	act := activeSet{on: make([]bool, len(e.circles)), list: nncircle.StraddlingX(e.circles, events[first].x)}
	for _, ci := range act.list {
		act.on[ci] = true
	}
	for l := first; l < last; l++ {
		ev := &events[l]
		xr := ev.x
		if l+1 < len(events) {
			xr = events[l+1].x
		}
		s.step(l, xr, l == first)
		act.advance(ev.insert, ev.remove)
		if !sink.StartSlab(ev.x, xr, act.list) {
			return ErrSlabsAborted
		}
		if xr <= ev.x || len(act.list) == 0 {
			continue
		}
		if !s.emitSlab(sink) {
			return ErrSlabsAborted
		}
	}
	return nil
}

// emitSlab writes the current slab's edges bottom-up, each with the record
// of its arc, the label of the gap above it: one Edge per arc for L2, and
// one per distinct side height for the rectilinear metrics, whose
// coincident sides are coalesced. Since it reads every arc anyway, it first
// checks every adjacent pair, so the L2 order it writes is a full sort's
// even where rounding reorders arcs that no event names; a pair out of
// order is swapped into place and the records it staled are rewritten.
func (s *sweeper) emitSlab(sink SlabSink) bool {
	st := &s.st
	for {
		buf := s.slab[:0]
		s.checks, s.stale = s.checks[:0], s.stale[:0]
		for n := st.head; n != 0; n = st.next[n] {
			e := slabEdge{y: st.y(n), arc: st.arc[n], node: n}
			if k := len(buf) - 1; k >= 0 && (e.y < buf[k].y || e.y == buf[k].y && e.arc < buf[k].arc) {
				s.checks = append(s.checks, e.arc)
			}
			buf = append(buf, e)
		}
		s.slab = buf
		if len(s.checks) == 0 {
			break
		}
		s.checkOrder()
		s.ranges = s.ranges[:0]
		s.addStale()
		for _, r := range s.ranges {
			s.processInterval(r, 0, 0)
		}
	}
	buf := s.slab
	for k := 0; k < len(buf); k++ {
		e := buf[k]
		if !s.l2 {
			for k+1 < len(buf) && buf[k+1].y == e.y {
				k++
			}
			if !sink.Edge(e.y, -1, false, st.rec[buf[k].node]) {
				return false
			}
			continue
		}
		if !sink.Edge(e.y, int(e.arc>>1), e.arc&1 == 1, st.rec[e.node]) {
			return false
		}
	}
	return true
}

// slabEdge is one arc of the slab emitSlab writes.
type slabEdge struct {
	y    float64
	arc  int32
	node int32
}

// activeSet is the ascending list of the circles active in the current slab,
// which StartSlab reports.
type activeSet struct {
	on   []bool
	list []int
}

// advance applies one event's insertions and removals.
func (a *activeSet) advance(insert, remove []int) {
	for _, ci := range insert {
		a.on[ci] = true
	}
	for _, ci := range remove {
		a.on[ci] = false
	}
	if len(remove) > 0 {
		a.list = slices.DeleteFunc(a.list, func(ci int) bool { return !a.on[ci] })
	}
	n := len(a.list)
	for _, ci := range insert {
		if a.on[ci] {
			a.list = append(a.list, ci)
		}
	}
	if len(a.list) > n {
		slices.Sort(a.list)
	}
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
