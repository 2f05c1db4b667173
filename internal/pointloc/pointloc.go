// Package pointloc answers point-location queries over the NN-circle
// arrangement in O(log n): given a query point, return the heat and RNN set
// of the arrangement face containing it — without constructing the set.
//
// The structure is the classic slab decomposition (Sarnak & Tarjan's
// persistent-slab idea in its explicit form) built directly from the CREST
// sweep's event intervals (core.SlabEvents): one slab per x-interval between
// consecutive sweep events, each holding its y-ordered edge list with every
// gap's precomputed label (heat plus sorted RNN set). A query binary-searches
// the slab by x, then the gap by y, and returns the stored label. L-infinity
// circles are swept natively, L1 circles via the π/4 rotation into the
// L-infinity system (queries are rotated the same way), and L2 circles with
// arc edges whose y-order is invariant inside a slab (every boundary
// intersection is a sweep event), so the gap search evaluates arc heights at
// the query's x.
//
// # Boundary semantics
//
// Circles are closed: a point exactly on a circle boundary belongs to the
// circle, matching internal/enclosure's Index.Enclosing convention (see that
// package's documentation). Stored gap labels describe open faces, so a
// query within a relative epsilon (see eps) of a slab edge, a gap edge, or a
// degenerate zero-radius circle is answered by an exact closed-containment
// evaluation over the nearby slabs' active circles instead of the label
// lookup. The epsilon band is wide enough to absorb every floating-point
// discrepancy between the label construction and the direct containment
// test (including the L1 rotation), and narrow enough that non-adversarial
// queries virtually never take the exact path. The result is byte-identical
// to the enclosure-index path for every query point, boundary cases
// included.
package pointloc

import (
	"errors"
	"math"
	"sort"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// DefaultMaxCells caps the total number of stored slab cells (edges plus
// gaps). The explicit slab decomposition trades memory for query speed —
// worst case Θ(n²) cells — and past this cap the index declines to build
// (Build returns ErrTooLarge) so callers fall back to the enclosure path
// instead of exhausting memory. At roughly 40 bytes per cell the default
// bounds the index near 1 GiB.
const DefaultMaxCells = 24 << 20

// ErrTooLarge reports that building (or patching) the index would exceed the
// configured cell cap; the caller should serve queries from its
// point-enclosure index instead.
var ErrTooLarge = errors.New("pointloc: slab decomposition exceeds the cell cap")

// Options configures Build.
type Options struct {
	// MaxCells overrides DefaultMaxCells; non-positive means the default.
	MaxCells int
	// Pool is the interned-label pool gap labels are drawn from. Passing
	// the CREST run's pool (core.Result.LabelPool) shares the sets and
	// heats the sweep already interned, so the build re-sorts and
	// re-evaluates nothing; nil (or a pool of a different measure) means a
	// fresh pool over the build's measure.
	Pool *core.LabelInterner
}

func (o Options) maxCells() int {
	if o.MaxCells > 0 {
		return o.MaxCells
	}
	return DefaultMaxCells
}

// label is the precomputed answer for one face: its heat and its RNN set in
// ascending order (never nil). Labels are interned in a core.LabelInterner —
// faces with equal RNN sets share one label — which keeps the index
// near-linear in practice even though the face count is quadratic in the
// worst case.
type label = core.Interned

// arcEdge identifies one L2 arc edge: the lower or upper half of a circle's
// boundary.
type arcEdge struct {
	circle int32
	upper  bool
}

// slab is one x-interval between consecutive sweep events.
type slab struct {
	// actives holds the indexes (into the index's all/sweepAll slices,
	// ascending) of the circles whose closed x-extent covers the slab. It
	// serves the exact fallback path.
	actives []int32
	// edges holds the edge y-coordinates in ascending order: horizontal side
	// coordinates for rectilinear sweeps, arc heights at the slab midpoint
	// for L2 (the build-time ordering key).
	edges []float64
	// arcs parallels edges for L2 slabs (nil for rectilinear ones).
	arcs []arcEdge
	// gaps[k] labels the face between edges[k-1] and edges[k] (gaps[0] the
	// face below the first edge, gaps[len(edges)] the face above the last);
	// len(gaps) == len(edges)+1. For an empty slab gaps holds the single
	// empty-set label.
	gaps []*label
}

// axis is the state Index and Mapped share: the metric and measure, the
// empty face, and the sweep-space abscissae a query resolves its slab from.
// Both embed it, so slab location, the epsilon bands and the exact path are
// written once.
type axis struct {
	metric  geom.Metric // the original metric of the circles
	measure influence.Measure
	empty   *label

	// xs holds the slab left edges (the sweep event abscissae) ascending;
	// slab i spans [xs[i], xs[i+1]] (the final slab is zero-width).
	xs []float64
	// zeroXs holds the sweep-space center x of every zero-radius circle
	// (clients co-located with their facility), ascending. They contribute
	// no slabs — only a point query exactly at the center can hit one — so
	// queries near a zero x take the exact path.
	zeroXs []float64
}

// Index is a built slab point-location structure. It is immutable and safe
// for concurrent use.
type Index struct {
	axis

	// all holds the input circles (original space) and sweepAll the same
	// circles in the sweep coordinate system (identical except for L1,
	// where sweepAll is the rotated copy). Slab actives and arcs reference
	// circles by their position in these slices — positions delta keeps
	// stable for every unperturbed circle, which is what lets Patch copy
	// clean slabs verbatim even when another circle flips between zero and
	// positive radius (and would shift any filtered numbering).
	all      []nncircle.NNCircle
	sweepAll []nncircle.NNCircle

	// zeros holds the zero-radius circles in the original space, in axis
	// zeroXs order.
	zeros []nncircle.NNCircle

	// slabs[i] is the slab opening at xs[i].
	slabs []slab

	// pool is the interned-label pool the gap labels point into. Patch
	// reuses it so spliced generations keep sharing one label corpus.
	pool *core.LabelInterner

	cells int
}

// Metric returns the original metric of the indexed circles.
func (ix *Index) Metric() geom.Metric { return ix.metric }

// NumSlabs returns the number of slabs and Cells the total number of stored
// edge and gap cells; servers expose both in stats.
func (ix *Index) NumSlabs() int { return len(ix.slabs) }

// Cells returns the stored cell count (see DefaultMaxCells).
func (ix *Index) Cells() int { return ix.cells }

// Relative epsilon of the exact-path band around slab and gap edges.
//
// For the rectilinear sweeps every boundary coordinate is an exact circle
// side, so the band only needs to dominate the ~1 ulp disagreements between
// the coordinate comparisons and the rounded distance test (plus the L1
// rotation's rounding): 1e-12 is ~4 orders of magnitude above those and ~4
// below anything a non-degenerate instance produces.
//
// The L2 sweep additionally clusters near-coincident event abscissae within
// a 1e-9 relative tolerance (see buildL2Events), which can place a slab
// boundary up to that far from the true circle extreme or intersection it
// represents — and lets arc order changes hide strictly inside a slab within
// the same distance of its left edge. The L2 band is therefore twice the
// clustering tolerance, which also comfortably covers the cancellation error
// of evaluating near-vertical arcs.
const (
	epsRelRect = 1e-12
	epsRelL2   = 2e-9
)

// eps returns the epsilon around coordinate v within which a query is routed
// to the exact evaluation path.
func (a *axis) eps(v float64) float64 {
	rel := epsRelRect
	if a.metric == geom.L2 {
		rel = epsRelL2
	}
	return rel * (1 + math.Abs(v))
}

// toSweep maps an original-space point into the sweep coordinate system.
func (a *axis) toSweep(p geom.Point) geom.Point {
	if a.metric == geom.L1 {
		return geom.RotateL1ToLInf(p)
	}
	return p
}

// Build constructs the slab index over the circles (all sharing one metric)
// for the given influence measure (nil means influence.Size()). Gap heats
// are computed from RNN sets assembled in ascending client order — the same
// canonical order the enclosure query path uses — so stored heats are
// bit-identical to a direct evaluation. An input with no positive-radius
// circles yields an index with no slabs (every query then takes the trivial
// or exact path).
func Build(circles []nncircle.NNCircle, measure influence.Measure, opts Options) (*Index, error) {
	if measure == nil {
		measure = influence.Size()
	}
	pool := opts.Pool
	if pool == nil || pool.Measure() != measure {
		pool = core.NewLabelInterner(measure)
	}
	ix := &Index{axis: axis{measure: measure, empty: pool.Empty()}, pool: pool}
	usable, origIdx, err := ix.initCircles(circles)
	if err != nil {
		return nil, err
	}
	if len(usable) == 0 {
		return ix, nil
	}
	events, err := core.NewSlabEvents(usable)
	if err != nil {
		return nil, err
	}
	// Decline oversized arrangements before doing any emission work; the
	// in-emission cap check remains as the exact backstop (the estimate is
	// an upper bound — coincident edges make the real count smaller).
	if events.CellBound() > opts.maxCells() {
		return nil, ErrTooLarge
	}
	b := newBuilder(ix, origIdx, opts.maxCells())
	if err := events.Emit(b, pool); err != nil {
		if errors.Is(err, core.ErrSlabsAborted) {
			return nil, ErrTooLarge
		}
		return nil, err
	}
	ix.xs = b.xs
	ix.slabs = b.slabs
	ix.cells = b.cells
	return ix, nil
}

// initCircles populates the index's circle slices from the input and returns
// the positive-radius circles in sweep space (the emission input) together
// with the mapping from their positions back to positions in the input
// slice.
func (ix *Index) initCircles(circles []nncircle.NNCircle) (usable []nncircle.NNCircle, origIdx []int32, err error) {
	if len(circles) > 0 {
		ix.metric = circles[0].Circle.Metric
	}
	for _, nc := range circles {
		if nc.Circle.Metric != ix.metric {
			return nil, nil, errors.New("pointloc: circles use mixed metrics")
		}
	}
	ix.all = circles
	switch ix.metric {
	case geom.L1:
		ix.sweepAll = nncircle.RotateL1ToLInf(circles)
	default:
		ix.sweepAll = circles
	}
	for i, nc := range ix.sweepAll {
		if nc.Circle.Radius <= 0 {
			ix.zeros = append(ix.zeros, ix.all[i])
			continue
		}
		usable = append(usable, nc)
		origIdx = append(origIdx, int32(i))
	}
	sort.SliceStable(ix.zeros, func(i, j int) bool {
		return ix.toSweep(ix.zeros[i].Circle.Center).X < ix.toSweep(ix.zeros[j].Circle.Center).X
	})
	ix.zeroXs = make([]float64, len(ix.zeros))
	for i, nc := range ix.zeros {
		ix.zeroXs[i] = ix.toSweep(nc.Circle.Center).X
	}
	return usable, origIdx, nil
}

// builder is the core.SlabSink that materializes the index arrays. The
// emission references circles by position in its filtered input slice;
// origIdx translates those to stable positions in the index's full circle
// slices. Gap labels arrive already interned (the emission pools them), so
// the builder just stores the pointers.
type builder struct {
	ix       *Index
	origIdx  []int32
	maxCells int
	cells    int
	isL2     bool

	xs    []float64
	slabs []slab
}

func newBuilder(ix *Index, origIdx []int32, maxCells int) *builder {
	return &builder{
		ix:       ix,
		origIdx:  origIdx,
		maxCells: maxCells,
		isL2:     ix.metric == geom.L2,
	}
}

func (b *builder) StartSlab(x0, x1 float64, actives []int) bool {
	b.cells++
	if b.cells > b.maxCells {
		return false
	}
	b.xs = append(b.xs, x0)
	b.slabs = append(b.slabs, newSlab(actives, b.origIdx, b.isL2, b.ix.empty))
	return true
}

func (b *builder) Edge(y float64, circle int, upper bool, above *label) bool {
	b.cells += 2 // one edge, one gap
	if b.cells > b.maxCells {
		return false
	}
	b.slabs[len(b.slabs)-1].addEdge(y, circle, upper, above, b.origIdx, b.isL2)
	return true
}

// newSlab opens a slab over the emitted actives (translated through
// origIdx), with its edge storage sized for the at most two edges per active
// circle the emission can report.
func newSlab(actives []int, origIdx []int32, isL2 bool, empty *label) slab {
	acts := make([]int32, len(actives))
	for i, a := range actives {
		acts[i] = origIdx[a]
	}
	n := 2 * len(actives)
	sl := slab{actives: acts, gaps: make([]*label, 1, n+1)}
	sl.gaps[0] = empty
	if n > 0 {
		sl.edges = make([]float64, 0, n)
		if isL2 {
			sl.arcs = make([]arcEdge, 0, n)
		}
	}
	return sl
}

// addEdge appends one emitted edge and the label of the gap above it.
func (sl *slab) addEdge(y float64, circle int, upper bool, above *label, origIdx []int32, isL2 bool) {
	sl.edges = append(sl.edges, y)
	if isL2 {
		sl.arcs = append(sl.arcs, arcEdge{circle: origIdx[circle], upper: upper})
	}
	sl.gaps = append(sl.gaps, above)
}
