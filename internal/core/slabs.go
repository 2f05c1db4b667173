package core

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// Slab emission: the optional second product of the sweep.
//
// The CREST Sink receives only the Θ(k) labels of regions that *change* at an
// event; a point-location structure needs the complete picture instead — for
// every slab between consecutive events, the full y-ordered list of edges
// cutting it and the RNN set of every gap. A sweep that carries a SlabSink
// writes exactly that, slab by slab, from the strips that write the labels:
// a CREST build (CRESTWithSlabs) and a commit's resweep (Resweep) emit both
// products in one pass, and the labels-off pass (SlabEvents.Emit) the slabs
// alone. Such a sweep keeps a base-set record on every arc, and each slab is
// written by one walk up the status that reads every gap's label from the
// record of the arc below it. Writing a slab changes neither the status nor
// a record, so the labels of a pass do not depend on its slabs.

// ErrUnsupportedSlabMetric is returned when NewSlabEvents receives L1
// circles: the rectilinear slab sweep operates in the rotated (L-infinity)
// coordinate system, so callers must rotate L1 inputs with
// nncircle.RotateL1ToLInf first and transform queries the same way.
var ErrUnsupportedSlabMetric = errors.New("core: slab emission requires LInf or L2 circles (rotate L1 inputs first)")

// SlabSink consumes the slab decomposition of an arrangement: it is the
// point-location counterpart of Sink. A sweep that carries one calls Begin
// once, then Slab once for every slab of the ranges Begin named, from the
// pass's concurrent strips (distinct slabs concurrently).
type SlabSink interface {
	// Begin opens the emission over the event list ev: the slabs to come
	// open at the events of ranges (ascending and disjoint), and their gap
	// labels are records of pool. Returning false declines the slabs: the
	// sweep then runs without them.
	Begin(ev *SlabEvents, ranges []SlabRange, pool *LabelInterner) bool
	// Slab writes slab k, opening at event k and spanning [x0, x1] in sweep
	// space (the final slab is zero-width): actives holds the indexes
	// (ascending) of every circle whose closed x-extent covers the slab,
	// edges its at most two edges per active circle, bottom-up, above a gap
	// that is always the empty set. Both slices are reused after the call.
	Slab(k int, x0, x1 float64, actives []int, edges []SlabEdge)
}

// SlabEdge is one edge of a slab: a distinct height of the rectilinear sides
// cutting it (coincident sides are coalesced into one edge), or one L2 arc.
type SlabEdge struct {
	// Y is the side's height, or the arc's at the slab's midpoint (the
	// emission's ordering key; pointloc keeps no L2 height).
	Y float64
	// Arc is the slot of the edge's arc (for a coalesced rectilinear edge,
	// of the last of its sides): 2·circle + 1 for an upper half.
	Arc int32
	// Above is the label of the gap above the edge, a record of the
	// emission's pool, immutable and safe to retain.
	Above *Interned
}

// SlabRange is the run of slabs opening at events Lo through Hi, both
// included.
type SlabRange struct{ Lo, Hi int }

// ErrSlabsAborted is returned by Emit when the sink declines the slabs.
var ErrSlabsAborted = errors.New("core: slab emission declined by sink")

// SlabEvents is the sweep-space event list of one arrangement, constructed
// once per change and shared by everything a slab index needs from it: the
// cell bound a build is gated on, the slab abscissae a patch aligns with,
// and the sweeps that write its slabs. It is immutable and safe for
// concurrent sweeps.
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
// one per slab.
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

// Dirty returns the slabs a change covering the sweep-space x-spans
// (PerturbedSpans of its perturbed circles) re-emits, by the resweep's one
// dirty-window rule (see eventRanges).
func (e *SlabEvents) Dirty(spans [][2]float64) []SlabRange {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{lo: s[0], hi: s[1]}
	}
	return slabRanges(eventRanges(len(e.events), e.x, mergeIntervals(ivs)))
}

func (e *SlabEvents) x(i int) float64 { return e.events[i].x }

// Emit is the labels-off pass: it sweeps the slabs of ranges (every slab
// when ranges is nil) into sink, strip-parallel on one worker per CPU,
// interning every gap label into pool (nil means a fresh size-measure pool;
// a CREST run's Result.LabelPool shares the sets it already interned). It
// returns ErrSlabsAborted when the sink declines the slabs.
func (e *SlabEvents) Emit(sink SlabSink, pool *LabelInterner, ranges []SlabRange) error {
	if pool == nil {
		pool = NewLabelInterner(nil)
	}
	col := newCollector(Options{Measure: pool.Measure()}, pool)
	if ranges == nil {
		ranges = []SlabRange{{Lo: 0, Hi: len(e.events) - 1}}
	}
	if !sink.Begin(e, ranges, col.intern) {
		return ErrSlabsAborted
	}
	p := &pass{circles: e.circles, events: e.events, slabs: sink}
	p.sweepRanges(col, ranges)
	return nil
}

// stepped counts the events the sweepers of this process have stepped.
var stepped atomic.Int64

// StepCount returns how many events the sweeps of this process have stepped
// so far, a machine-independent count by which tests show that a change
// steps each of its events once, whatever products its pass carries.
func StepCount() int64 { return stepped.Load() }

// emitSlab writes the slab opening at event l and ending at xr, its edges
// read bottom-up off the status when it has width and actives.
func (s *sweeper) emitSlab(l int, xr float64) {
	ev := &s.events[l]
	s.act.advance(ev.insert, ev.remove)
	edges := s.edges[:0]
	if xr > ev.x && len(s.act.list) > 0 {
		edges = s.slabEdges(edges)
	}
	s.slabs.Slab(l, ev.x, xr, s.act.list, edges)
	s.edges = edges
}

// slabEdges appends the current slab's edges — one per arc for L2, one per
// distinct side height otherwise — each with the record of its arc, the
// label of the gap above it. Since it reads every arc anyway, it checks
// every adjacent pair, so the L2 order it writes is a full sort's even where
// rounding left arcs out of order that no event names (resort). It repairs
// nothing: the status and its records stay as the labels left them.
func (s *sweeper) slabEdges(edges []SlabEdge) []SlabEdge {
	st := &s.st
	ordered := true
	for n := st.head; n != 0; n = st.next[n] {
		e := SlabEdge{Y: st.y(n), Arc: st.arc[n], Above: st.rec[n]}
		if k := len(edges) - 1; k >= 0 && compareEdges(e, edges[k]) < 0 {
			ordered = false
		}
		edges = append(edges, e)
	}
	if !ordered {
		s.resort(edges)
	}
	if s.l2 {
		return edges
	}
	out := edges[:0]
	for k := range edges {
		if k+1 == len(edges) || edges[k+1].Y != edges[k].Y {
			out = append(out, edges[k])
		}
	}
	return out
}

// resort puts a slab's edges, read in status order with a pair or more out
// of order, into the full sort's order and labels each gap from the running
// set below it: the gaps outside a disordered run get the records the
// status holds for them, and only those inside one change.
func (s *sweeper) resort(edges []SlabEdge) {
	slices.SortFunc(edges, compareEdges)
	s.base.start(nil, oset.ContentKey{})
	for k := range edges {
		s.base.apply(edges[k].Arc)
		edges[k].Above = s.base.label(s.intern)
	}
}

// compareEdges orders edges by height, then by arc slot: the status order.
func compareEdges(a, b SlabEdge) int {
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.Arc, b.Arc)
}

// activeSet is the ascending list of the circles active in the current slab,
// which Slab reports.
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
// so a deferred slab index patch (pointloc.Index.Patch) re-emits exactly
// the slabs a resweep over them would.
func PerturbedSpans(perturbed []geom.Circle, metric geom.Metric) [][2]float64 {
	spans := perturbedSpans(perturbed, metric)
	out := make([][2]float64, len(spans))
	for i, s := range spans {
		out[i] = [2]float64{s.lo, s.hi}
	}
	return out
}
