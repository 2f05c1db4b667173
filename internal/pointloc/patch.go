package pointloc

import (
	"errors"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/nncircle"
)

// ErrPatchDeclined reports that the update cannot be answered by splicing
// this index: the caller should drop its materialized index and rebuild
// lazily (heatmap.Map does exactly that — the next query pays the build,
// not the mutation that triggered it). Raised for spans inconsistent with
// the update and for span-less updates that renumber circles.
var ErrPatchDeclined = errors.New("pointloc: patch declined; rebuild the index lazily")

// Patch derives the index for an updated circle set from this one in the
// labels-off pass, re-emitting only the dirty slabs and sharing every other
// slab's storage with the receiver — heap memory, or the file sections of
// an index Open returned. It serves a commit whose patch was deferred; an
// eager commit writes the same slabs in its resweep's own pass (PatchSink).
// The receiver is immutable and keeps serving concurrent readers, and
// concurrent patches from one receiver are safe: the dirty slabs' sets are
// interned into the lineage's one append-only id table (Pool).
//
// events is the event list of the new arrangement — the one core.Resweep
// swept and returned with its outcome — so a commit constructs it once. The
// dirty slabs are core.SlabEvents.Dirty of the dirty sweep-space x-spans
// (core.PerturbedSpans of the perturbed circles of every commit since the
// receiver): the slabs opening inside a span, and the one before each span,
// whose right edge and, under L2, arc order can move.
//
// The splice is sound for the same reason the incremental resweep is
// (internal/core/resweep.go): every event a perturbed circle contributes
// lies inside its span, so no slab whose closed extent stays clear of the
// spans changes its boundaries, its active set or its gap labels.
// Deletions renumbered by swap-remove are handled upstream by delta, which
// reports both the moved circle's old and new geometry as perturbed. So the
// result is structurally identical to a fresh Build over newCircles, for
// every metric and every share of dirty slabs. Patch returns
// ErrPatchDeclined, doing no emission work, for spans inconsistent with the
// receiver and for span-less updates that change the arrangement, and
// ErrTooLarge past the cell cap; the caller then drops the index and lets
// the next query build it.
func (ix *Index) Patch(newCircles []nncircle.NNCircle, spans [][2]float64, events *core.SlabEvents, opts Options) (*Index, error) {
	if len(spans) == 0 {
		if len(newCircles) > 0 && newCircles[0].Circle.Metric != ix.metric {
			return nil, errors.New("pointloc: Patch with mixed or changed metrics")
		}
		// No perturbed geometry. When the arrangement is truly unchanged
		// (e.g. a facility opened where it captures no client) the receiver
		// answers the new state verbatim — only the circle bookkeeping is
		// refreshed. Anything else without spans (pure zero-radius shuffles
		// that renumber clients) cannot be spliced.
		if sameArrangement(ix.all, newCircles) {
			next := *ix
			next.all = newCircles
			return &next, nil
		}
		return nil, ErrPatchDeclined
	}
	s := newSink(ix, newCircles, opts)
	if s.err != nil {
		return nil, s.err
	}
	if len(s.usable) == 0 {
		s.adopt(ix.Pool())
		return s.Index()
	}
	if events == nil {
		return nil, errors.New("pointloc: Patch needs the event list of the new arrangement")
	}
	events.Emit(s, ix.Pool(), events.Dirty(spans))
	return s.Index()
}

// Pool returns the label interner the index's lineage draws its gap ids
// from: the pool it was built with, or, for an index opened from a
// snapshot, an interner seeded with the file's sets under their file ids on
// first call. A resweep that interns into it gives every set one record
// and one id across the sweep, the index and every later patch.
func (ix *Index) Pool() *core.LabelInterner { return ix.lin.interner(ix.measure) }

// sameArrangement reports whether two circle slices describe the same
// arrangement under the same client numbering. Facility assignments are
// ignored: the index never reads them, and a facility removal can renumber
// assignments without touching any geometry.
func sameArrangement(a, b []nncircle.NNCircle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Client != b[i].Client || a[i].Circle != b[i].Circle {
			return false
		}
	}
	return true
}

// shareClean fills every slab outside ranges, the slabs the sweep will
// write, with the base's slab of the same boundaries. A clean slab is
// bounded by unperturbed events and therefore an old slab; not finding it
// means the change was inconsistent with the spans — decline rather than
// guess.
func (s *Sink) shareClean(ranges []core.SlabRange) error {
	xs, old := s.ix.xs, s.base
	oi, r := 0, 0
	for k := 0; k < len(xs); k++ {
		if r < len(ranges) && k >= ranges[r].Lo {
			k = ranges[r].Hi
			r++
			continue
		}
		for oi < len(old.xs) && old.xs[oi] < xs[k] {
			oi++
		}
		if oi == len(old.xs) || old.xs[oi] != xs[k] || rightEdge(old.xs, oi) != rightEdge(xs, k) {
			return ErrPatchDeclined
		}
		s.ix.slabs[k] = old.slabs[oi]
	}
	return nil
}

// rightEdge returns the right edge of slab i (the last slab is zero-width).
func rightEdge(xs []float64, i int) float64 {
	if i+1 < len(xs) {
		return xs[i+1]
	}
	return xs[i]
}
