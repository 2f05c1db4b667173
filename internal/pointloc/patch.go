package pointloc

import (
	"errors"
	"math"
	"sort"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// ErrPatchDeclined reports that the update cannot be answered by splicing
// this index: the caller should drop its materialized index and rebuild
// lazily (heatmap.Map does exactly that — the next query pays the build,
// not the mutation that triggered it). Raised for spans inconsistent with
// the update and for span-less updates that renumber circles.
var ErrPatchDeclined = errors.New("pointloc: patch declined; rebuild the index lazily")

// Patch derives the index for an updated circle set from this one, rebuilding
// only the dirty slabs and sharing every other slab's storage with the
// receiver — heap memory, or the file sections of an index Open returned.
// The receiver is immutable and keeps serving concurrent readers, and
// concurrent patches from one receiver are safe: the dirty slabs' sets are
// interned into the lineage's one append-only id table (Pool).
//
// events is the event list of the new arrangement — the one core.Resweep
// swept and returned with its outcome (positive-radius circles of
// newCircles in input order, L1 rotated into the LInf system) — so a commit
// constructs it once. Its abscissae are the new slab boundaries, and the
// dirty slabs are re-emitted from it.
//
// A slab of the new arrangement is dirty when its left edge lies in one of
// the dirty sweep-space x-spans (core.PerturbedSpans of the update's
// perturbed circles). For L2 the slab just before each span's first dirty
// slab is dirty too — or, when a span holds no left edge at all, the slab
// containing it: an L2 slab stores its arc heights at its midpoint, and its
// right edge, with that midpoint, can move.
//
// The splice is sound for the same reason the incremental resweep is
// (internal/core/resweep.go): every event a perturbed circle contributes —
// its extremes and, for L2, its center and boundary intersections — lies
// inside its span (L2 spans carry the event-clustering epsilon), so no slab
// whose closed extent stays clear of the spans changes its boundaries, its
// active set or its gap labels. Deletions renumbered by swap-remove are
// handled upstream by delta, which reports both the moved circle's old and
// new geometry as perturbed. So the result is structurally identical to a
// fresh Build over newCircles: same boundaries, actives, edges, arcs and gap
// labels.
//
// Patching covers every metric: LInf natively, L1 via the rotation the spans
// already carry, and L2, and every share of dirty slabs: with all of them
// dirty it is a Build that reuses the lineage's pool. Patch returns
// ErrPatchDeclined, doing no emission work, for spans inconsistent with the
// receiver and for span-less updates that change the arrangement, and
// ErrTooLarge past the cell cap; the caller then drops the index and lets
// the next query build it.
func (ix *Index) Patch(newCircles []nncircle.NNCircle, spans [][2]float64, events *core.SlabEvents, opts Options) (*Index, error) {
	if len(newCircles) > 0 && newCircles[0].Circle.Metric != ix.metric {
		return nil, errors.New("pointloc: Patch with mixed or changed metrics")
	}
	if len(spans) == 0 {
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
	next := &Index{measure: ix.measure, emptyHeat: ix.emptyHeat, lin: ix.lin}
	usable, origIdx, err := next.initCircles(newCircles)
	if err != nil {
		return nil, err
	}
	if next.metric != ix.metric {
		return nil, errors.New("pointloc: Patch with mixed or changed metrics")
	}
	if len(usable) == 0 {
		next.sets = ix.sets
		return next, nil
	}
	if events == nil {
		return nil, errors.New("pointloc: Patch needs the event list of the new arrangement")
	}

	newXs := events.Xs()
	isL2 := ix.metric == geom.L2
	dirty := dirtySlabs(newXs, mergedSpans(spans), isL2)

	next.xs = newXs
	next.slabs = make([]slab, len(newXs))
	cells := len(newXs)
	for k, x := range newXs {
		if dirty[k] {
			continue
		}
		oi := sort.SearchFloat64s(ix.xs, x)
		if oi >= len(ix.xs) || ix.xs[oi] != x || isL2 && rightEdge(ix.xs, oi) != rightEdge(newXs, k) {
			// A clean slab is bounded by unperturbed events and therefore
			// an old slab; not finding it means the spans were
			// inconsistent with the update — decline rather than guess.
			return nil, ErrPatchDeclined
		}
		next.slabs[k] = ix.slabs[oi]
		cells += 2 * len(ix.slabs[oi].edges)
	}
	// Rebuild the dirty slabs run by run; each emitted slab lands in its
	// position of next.slabs.
	pool := ix.Pool()
	pb := &patchSink{ix: next, origIdx: origIdx, maxCells: opts.maxCells(), cells: cells, isL2: isL2, pool: pool}
	if err := events.EmitRanges(pb, pool, dirtyWindows(newXs, dirty)); err != nil {
		if errors.Is(err, core.ErrSlabsAborted) {
			return nil, ErrTooLarge
		}
		return nil, err
	}
	next.cells = pb.cells
	next.sets = tableOf(pool)
	return next, nil
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

// patchSink routes SlabEvents.EmitRanges output into the right positions of
// an existing slab slice instead of appending.
type patchSink struct {
	ix       *Index
	origIdx  []int32
	maxCells int
	cells    int
	isL2     bool
	pool     *core.LabelInterner
	pos      int
}

func (b *patchSink) StartSlab(x0, x1 float64, actives []int) bool {
	// The slab cell itself is pre-counted for every boundary (clean and
	// dirty) before the emission runs; only a cap check is needed here.
	if b.cells > b.maxCells {
		return false
	}
	b.pos = sort.SearchFloat64s(b.ix.xs, x0)
	b.ix.slabs[b.pos] = newSlab(actives, b.origIdx, b.isL2, b.pool.ID(b.pool.Empty()))
	return true
}

func (b *patchSink) Edge(y float64, circle int, upper bool, above *core.Interned) bool {
	if b.cells += 2; b.cells > b.maxCells {
		return false
	}
	b.ix.slabs[b.pos].addEdge(y, circle, upper, b.pool.ID(above), b.origIdx)
	return true
}

// dirtySlabs marks the slabs a patch must rebuild (see Patch): those whose
// left edge lies in a closed span [lo, hi] and, for L2, the slab before each
// span's first one. A slab whose left edge is exactly hi is dirty too: a
// perturbed circle's right extreme can lie at hi, and an added circle then
// puts a new slab boundary there that no old slab starts at.
func dirtySlabs(xs []float64, spans [][2]float64, l2 bool) []bool {
	dirty := make([]bool, len(xs))
	for _, s := range spans {
		first := sort.SearchFloat64s(xs, s[0])
		if l2 && first > 0 {
			dirty[first-1] = true
		}
		for k := first; k < len(xs) && xs[k] <= s[1]; k++ {
			dirty[k] = true
		}
	}
	return dirty
}

// dirtyWindows returns the [lo, hi) emission window of each run of dirty
// slabs: from the run's first left edge to the next clean slab's (unbounded
// when the run reaches the last slab).
func dirtyWindows(xs []float64, dirty []bool) [][2]float64 {
	var out [][2]float64
	for k := 0; k < len(xs); k++ {
		if !dirty[k] {
			continue
		}
		j := k
		for j < len(xs) && dirty[j] {
			j++
		}
		hi := math.Inf(1)
		if j < len(xs) {
			hi = xs[j]
		}
		out = append(out, [2]float64{xs[k], hi})
		k = j
	}
	return out
}

// rightEdge returns the right edge of slab i (the last slab is zero-width).
func rightEdge(xs []float64, i int) float64 {
	if i+1 < len(xs) {
		return xs[i+1]
	}
	return xs[i]
}

// mergedSpans sorts and merges overlapping spans.
func mergedSpans(spans [][2]float64) [][2]float64 {
	out := make([][2]float64, len(spans))
	copy(out, spans)
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	m := out[:1]
	for _, s := range out[1:] {
		last := &m[len(m)-1]
		if s[0] <= last[1] {
			last[1] = math.Max(last[1], s[1])
			continue
		}
		m = append(m, s)
	}
	return m
}
