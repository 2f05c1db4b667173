package pointloc

import (
	"errors"
	"math"
	"sort"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// DefaultMaxPatchFraction mirrors core.DefaultMaxResweepFraction: when more
// than this fraction of the new slabs is dirty, Patch declines to splice
// (past that point the splice costs about as much as a clean build, which
// the caller should then schedule off its write path).
const DefaultMaxPatchFraction = core.DefaultMaxResweepFraction

// ErrPatchDeclined reports that the update cannot be answered by splicing
// this index: the caller should drop its materialized index and rebuild
// lazily (heatmap.Map does exactly that — the next query pays the build,
// not the mutation that triggered it). Raised for L2 arrangements (their
// dirty event lists are dominated by intersection recomputation), for
// updates dirtying more than the splice threshold, and for inputs the
// receiver cannot splice against.
var ErrPatchDeclined = errors.New("pointloc: patch declined; rebuild the index lazily")

// Patch derives the index for an updated circle set from this one, rebuilding
// only the slabs inside the dirty sweep-space x-spans (core.PerturbedSpans of
// the update's perturbed circles) and sharing every other slab's storage with
// the receiver. The receiver is immutable and keeps serving concurrent
// readers.
//
// The splice is sound for the same reason the incremental resweep is
// (internal/core/resweep.go): a perturbation confined to the spans cannot
// change the boundaries, the active sets or the gap labels of any slab whose
// left edge lies outside them — deletions renumbered by swap-remove are
// handled upstream by delta, which reports both the moved circle's old and
// new geometry as perturbed. The result answers every query identically to a
// fresh Build over newCircles.
//
// Patching is implemented for the rectilinear sweeps (LInf natively, L1 via
// the rotation the spans already carry). When splicing is not worthwhile or
// not possible — L2 arrangements, updates past the dirty threshold, spans
// inconsistent with the receiver — Patch returns ErrPatchDeclined and does
// no work, so callers on a write path never pay a full rebuild; they drop
// the index and let the next query rebuild it. maxFraction non-positive
// means DefaultMaxPatchFraction.
func (ix *Index) Patch(newCircles []nncircle.NNCircle, spans [][2]float64, maxFraction float64, opts Options) (*Index, error) {
	if maxFraction <= 0 {
		maxFraction = DefaultMaxPatchFraction
	}
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
	if ix.metric == geom.L2 || len(ix.slabs) == 0 {
		return nil, ErrPatchDeclined
	}
	next := &Index{axis: axis{measure: ix.measure, empty: ix.empty}, pool: ix.pool}
	usable, origIdx, err := next.initCircles(newCircles)
	if err != nil {
		return nil, err
	}
	if next.metric != ix.metric {
		return nil, errors.New("pointloc: Patch with mixed or changed metrics")
	}
	if len(usable) == 0 {
		return next, nil
	}

	// The new slab boundaries are the distinct side abscissae of the new
	// sweep-space circles — the same definition core's event builder uses.
	newXs := sideXs(usable)
	spans = mergedSpans(spans)
	dirty := make([]bool, len(newXs))
	nDirty := 0
	for k, x := range newXs {
		if inSpan(spans, x) {
			dirty[k] = true
			nDirty++
		}
	}
	if float64(nDirty) > maxFraction*float64(len(newXs)) {
		return nil, ErrPatchDeclined
	}

	next.xs = newXs
	next.slabs = make([]slab, len(newXs))
	cells := len(newXs)
	for k, x := range newXs {
		if dirty[k] {
			continue
		}
		oi := sort.SearchFloat64s(ix.xs, x)
		if oi >= len(ix.xs) || ix.xs[oi] != x {
			// A kept boundary must be an unperturbed circle side and
			// therefore an old event; not finding it means the spans were
			// inconsistent with the update — decline rather than guess.
			return nil, ErrPatchDeclined
		}
		next.slabs[k] = ix.slabs[oi]
		cells += 2 * len(ix.slabs[oi].edges)
	}
	// Rebuild the dirty slabs span by span; each emission run writes into
	// the dirty positions of next.slabs it covers.
	pb := &patchSink{ix: next, origIdx: origIdx, maxCells: opts.maxCells(), cells: cells}
	if err := core.EmitSlabsRanges(usable, pb, next.pool, spans); err != nil {
		if errors.Is(err, core.ErrSlabsAborted) {
			return nil, ErrTooLarge
		}
		return nil, err
	}
	next.cells = pb.cells
	return next, nil
}

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

// patchSink routes core.EmitSlabsRange output into the right positions of an
// existing slab slice instead of appending.
type patchSink struct {
	ix       *Index
	origIdx  []int32
	maxCells int
	cells    int
	pos      int
}

func (b *patchSink) StartSlab(x0, x1 float64, actives []int) bool {
	// The slab cell itself is pre-counted for every boundary (clean and
	// dirty) before the emission runs; only a cap check is needed here.
	if b.cells > b.maxCells {
		return false
	}
	b.pos = sort.SearchFloat64s(b.ix.xs, x0)
	acts := make([]int32, len(actives))
	for i, a := range actives {
		acts[i] = b.origIdx[a]
	}
	b.ix.slabs[b.pos] = slab{actives: acts, gaps: []*label{b.ix.empty}}
	return true
}

func (b *patchSink) Edge(y float64, circle int, upper bool, above *label) bool {
	if b.cells += 2; b.cells > b.maxCells {
		return false
	}
	sl := &b.ix.slabs[b.pos]
	sl.edges = append(sl.edges, y)
	sl.gaps = append(sl.gaps, above)
	return true
}

// sideXs returns the sorted distinct side x-coordinates of the circles — the
// sweep event abscissae.
func sideXs(circles []nncircle.NNCircle) []float64 {
	xs := make([]float64, 0, 2*len(circles))
	for _, nc := range circles {
		xs = append(xs, nc.Circle.LeftX(), nc.Circle.RightX())
	}
	sort.Float64s(xs)
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || out[len(out)-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// inSpan reports whether x lies in any half-open span [lo, hi). Slabs whose
// left edge is exactly hi are clean: a perturbed circle's extent is
// contained in a span, so it cannot be active in a slab starting at hi.
func inSpan(spans [][2]float64, x float64) bool {
	for _, s := range spans {
		if x >= s[0] && x < s[1] {
			return true
		}
	}
	return false
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
