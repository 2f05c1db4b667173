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
// # One layout
//
// An Index is stored the same way whether Build made it in memory or Open
// opened it from a format-v2 snapshot: each slab holds the file's element
// types — active circle positions (int32), edge heights (float64), L2 arcs
// (uint32, circle<<1 | upper) and gap set ids (uint32). A built index
// allocates these lists; an opened one slices them out of the file's
// sections, copying no cell data. Gap ids resolve to heats and RNN sets
// through one id table per lineage (the label interner's, or the file's
// pool), so Patch works alike from either: the dirty slabs are re-emitted
// and every clean slab aliases its predecessor, heap or file. The first
// Pool call on an opened index (a commit makes it before its resweep)
// seeds an interner with the file's sets under their file ids, so a set
// keeps one id through every later resweep and patch.
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
	"runtime"
	"sort"
	"sync"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/snapshot"
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

// slab is one x-interval between consecutive sweep events. Its lists are
// stored as a format-v2 snapshot stores them (see snapshot.SlabLists), so
// an index opened from a file slices them out of the file's sections, a
// built index allocates them, and a save writes them as they are.
type slab struct {
	// actives holds the positions (into the index's all/sweepAll slices,
	// ascending) of the circles whose closed x-extent covers the slab. It
	// serves the exact fallback path.
	actives []int32
	// edges holds the edge y-coordinates in ascending order: horizontal side
	// coordinates for rectilinear sweeps, arc heights at the slab midpoint
	// for L2 (the build-time ordering key).
	edges []float64
	// arcs parallels edges for L2 slabs (nil for rectilinear ones): circle
	// position <<1 | 1 for the upper half of its boundary.
	arcs []uint32
	// gaps[k] is the set id of the face between edges[k-1] and edges[k]
	// (gaps[0] the face below the first edge, gaps[len(edges)] the face
	// above the last); len(gaps) == len(edges)+1, and gaps[0] is always the
	// empty set.
	gaps []uint32
}

// Index is a slab point-location structure, built in memory (Build),
// opened from a snapshot (Open) or patched from another index (Patch). It
// is immutable and safe for concurrent use.
type Index struct {
	metric    geom.Metric // the original metric of the circles
	measure   influence.Measure
	emptyHeat float64 // the heat of the empty set: every face outside the slabs

	// xs holds the slab left edges (the sweep event abscissae) ascending;
	// slab i spans [xs[i], xs[i+1]] (the final slab is zero-width).
	xs []float64
	// slabs[i] is the slab opening at xs[i].
	slabs []slab
	cells int

	// all holds the input circles (original space) and sweepAll the same
	// circles in the sweep coordinate system (identical except for L1,
	// where sweepAll is the rotated copy). Slab actives and arcs reference
	// circles by their position in these slices — positions delta keeps
	// stable for every unperturbed circle, which is what lets Patch copy
	// clean slabs verbatim even when another circle flips between zero and
	// positive radius (and would shift any filtered numbering).
	all      []nncircle.NNCircle
	sweepAll []nncircle.NNCircle
	// zeroIdx holds the positions of the zero-radius circles (clients
	// co-located with their facility) ordered by sweep-space center x, and
	// zeroXs those abscissae. They contribute no slabs — only a point query
	// exactly at the center can hit one — so queries near a zero x take the
	// exact path.
	zeroIdx []int32
	zeroXs  []float64

	// sets resolves the gap set ids; lin is what the index shares with
	// every index patched from it.
	sets labelTable
	lin  *lineage
}

// labelTable resolves set ids to heats and RNN sets. Every index of a
// lineage draws its ids from one table, which only grows by appending, so
// an id means the same set in all of them.
type labelTable struct {
	// heats[id] is the heat of set id.
	heats []float64
	// sets[id] is the record of set id; nil for an index opened from a
	// snapshot, whose ids are the file's pool ids (view).
	sets []*core.Interned
	view *snapshot.View
}

// tableOf returns pool's id table as it stands.
func tableOf(pool *core.LabelInterner) labelTable {
	heats, sets := pool.Table()
	return labelTable{heats: heats, sets: sets}
}

// size returns the number of clients in set id.
func (t *labelTable) size(id uint32) int {
	if t.sets != nil {
		return len(t.sets[id].RNN)
	}
	return len(t.view.PoolMembers(id))
}

// appendSet appends the members of set id, ascending, to dst.
func (t *labelTable) appendSet(dst []int, id uint32) []int {
	if t.sets != nil {
		return append(dst, t.sets[id].RNN...)
	}
	for _, c := range t.view.PoolMembers(id) {
		dst = append(dst, int(c))
	}
	runtime.KeepAlive(t.view) // the members are file bytes
	return dst
}

// answer returns the heat and members of set id for one query: the
// interned record's, or the file's heat with a copy of just this record of
// its pool — a cold map answering one query never decodes the rest. The
// members must not be modified.
func (t *labelTable) answer(id uint32) (float64, []int) {
	if t.sets != nil {
		l := t.sets[id]
		return l.Heat, l.RNN
	}
	return t.heats[id], t.appendSet(make([]int, 0, t.size(id)), id)
}

// set returns the members of set id without copying them where the table
// holds them as ints: the interned record's slice, or the view's pool-wide
// member lists (which the first call builds for every record — bulk
// readers only). Callers must not modify it.
func (t *labelTable) set(id uint32) []int {
	if t.sets != nil {
		return t.sets[id].RNN
	}
	return t.view.PoolRNN(id)
}

// lineage is shared by an index and every index patched from it: the label
// interner their gap ids are drawn from, which the resweeps that produce
// their arrangements intern into too (Index.Pool). A lineage opened from a
// snapshot starts with the file's pool instead; the first Pool call seeds
// an interner with the file's sets under their file ids, so a set keeps
// one id from the file through every later patch, and concurrent patches
// share that one interner.
//
// The lineage also keeps the file mapped: an opened index slices its xs,
// zero-circle arrays, slab lists and heats out of view, and a patched one
// shares the clean slabs, so every index that may hold a file slab holds
// its lineage, and the view is unmapped only once no index of the lineage
// is reachable (see snapshot.View). A mutable map's every later version
// therefore keeps its origin file mapped.
type lineage struct {
	pool *core.LabelInterner
	view *snapshot.View
	seed sync.Once
}

// interner returns the lineage's label interner, seeding it from the file
// on first use.
func (l *lineage) interner(measure influence.Measure) *core.LabelInterner {
	if l.view != nil {
		l.seed.Do(func() {
			sets := make([][]int, l.view.Meta().NumPool)
			for id := range sets {
				sets[id] = l.view.PoolRNN(uint32(id))
			}
			l.pool = core.NewLabelInternerFrom(measure, sets, l.view.PoolHeats())
		})
	}
	return l.pool
}

// Metric returns the original metric of the indexed circles.
func (ix *Index) Metric() geom.Metric { return ix.metric }

// MappedBytes returns the size of the snapshot file the index's lineage
// was opened from, which the index keeps mapped; 0 for a lineage built on
// the heap.
func (ix *Index) MappedBytes() int64 {
	if ix.lin.view == nil {
		return 0
	}
	return ix.lin.view.MappedBytes()
}

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
func (ix *Index) eps(v float64) float64 {
	rel := epsRelRect
	if ix.metric == geom.L2 {
		rel = epsRelL2
	}
	return rel * (1 + math.Abs(v))
}

// toSweep maps an original-space point into the sweep coordinate system.
func (ix *Index) toSweep(p geom.Point) geom.Point {
	if ix.metric == geom.L1 {
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
	ix := &Index{measure: measure, emptyHeat: pool.Empty().Heat, lin: &lineage{pool: pool}}
	usable, origIdx, err := ix.initCircles(circles)
	if err != nil {
		return nil, err
	}
	if len(usable) > 0 {
		events, err := core.NewSlabEvents(usable)
		if err != nil {
			return nil, err
		}
		// Decline oversized arrangements before doing any emission work;
		// the in-emission cap check remains as the exact backstop (the
		// estimate is an upper bound — coincident edges make the real count
		// smaller).
		if events.CellBound() > opts.maxCells() {
			return nil, ErrTooLarge
		}
		b := &builder{ix: ix, origIdx: origIdx, maxCells: opts.maxCells(), pool: pool}
		if err := events.Emit(b, pool); err != nil {
			if errors.Is(err, core.ErrSlabsAborted) {
				return nil, ErrTooLarge
			}
			return nil, err
		}
		ix.cells = b.cells
	}
	ix.sets = tableOf(pool)
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
	ix.setCircles(circles)
	for i, nc := range ix.sweepAll {
		if nc.Circle.Radius <= 0 {
			ix.zeroIdx = append(ix.zeroIdx, int32(i))
			continue
		}
		usable = append(usable, nc)
		origIdx = append(origIdx, int32(i))
	}
	sort.SliceStable(ix.zeroIdx, func(i, j int) bool {
		return ix.zeroX(ix.zeroIdx[i]) < ix.zeroX(ix.zeroIdx[j])
	})
	ix.zeroXs = make([]float64, len(ix.zeroIdx))
	for i, ci := range ix.zeroIdx {
		ix.zeroXs[i] = ix.zeroX(ci)
	}
	return usable, origIdx, nil
}

// setCircles sets the original-space circles and their sweep-space copy.
func (ix *Index) setCircles(circles []nncircle.NNCircle) {
	ix.all, ix.sweepAll = circles, circles
	if ix.metric == geom.L1 {
		ix.sweepAll = nncircle.RotateL1ToLInf(circles)
	}
}

// zeroX returns the sweep-space center x of the circle at position ci.
func (ix *Index) zeroX(ci int32) float64 { return ix.toSweep(ix.all[ci].Circle.Center).X }

// builder is the core.SlabSink that materializes the slabs of a Build. The
// emission references circles by position in its filtered input slice;
// origIdx translates those to stable positions in the index's full circle
// slices. Gap labels arrive already interned (the emission pools them), so
// the builder stores their ids in the pool.
type builder struct {
	ix       *Index
	origIdx  []int32
	maxCells int
	cells    int
	pool     *core.LabelInterner
}

func (b *builder) StartSlab(x0, x1 float64, actives []int) bool {
	b.cells++
	if b.cells > b.maxCells {
		return false
	}
	b.ix.xs = append(b.ix.xs, x0)
	b.ix.slabs = append(b.ix.slabs, newSlab(actives, b.origIdx, b.ix.metric == geom.L2, b.pool.ID(b.pool.Empty())))
	return true
}

func (b *builder) Edge(y float64, circle int, upper bool, above *core.Interned) bool {
	b.cells += 2 // one edge, one gap
	if b.cells > b.maxCells {
		return false
	}
	b.ix.slabs[len(b.ix.slabs)-1].addEdge(y, circle, upper, b.pool.ID(above), b.origIdx)
	return true
}

// newSlab opens a slab over the emitted actives (translated through
// origIdx), with its edge storage sized for the at most two edges per active
// circle the emission can report.
func newSlab(actives []int, origIdx []int32, isL2 bool, empty uint32) slab {
	acts := make([]int32, len(actives))
	for i, a := range actives {
		acts[i] = origIdx[a]
	}
	n := 2 * len(actives)
	sl := slab{actives: acts, gaps: make([]uint32, 1, n+1)}
	sl.gaps[0] = empty
	if n > 0 {
		sl.edges = make([]float64, 0, n)
		if isL2 {
			sl.arcs = make([]uint32, 0, n)
		}
	}
	return sl
}

// addEdge appends one emitted edge and the set id of the gap above it.
func (sl *slab) addEdge(y float64, circle int, upper bool, above uint32, origIdx []int32) {
	sl.edges = append(sl.edges, y)
	if sl.arcs != nil {
		a := uint32(origIdx[circle]) << 1
		if upper {
			a |= 1
		}
		sl.arcs = append(sl.arcs, a)
	}
	sl.gaps = append(sl.gaps, above)
}
