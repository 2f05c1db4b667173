// Package pointloc answers point-location queries over the NN-circle
// arrangement in O(log n): given a query point, return the heat and RNN set
// of the arrangement face containing it — without constructing the set.
//
// The structure is the classic slab decomposition (Sarnak & Tarjan's
// persistent-slab idea in its explicit form), written by the CREST sweep
// through a Sink (core.SlabSink), in the pass that writes the labels or a
// labels-off one: one slab per x-interval between consecutive sweep events,
// each holding its y-ordered edge list with every gap's precomputed label
// (heat plus sorted RNN set). A query binary-searches
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
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/snapshot"
)

// DefaultMaxCells caps the total number of stored slab cells (one per slab,
// plus one per edge and one per gap above it). The explicit slab
// decomposition trades memory for query speed — worst case Θ(n²) cells —
// and an arrangement whose cell bound passes this cap gets no index
// (ErrTooLarge), so callers fall back to the enclosure path instead of
// exhausting memory. On heatmapd's default map (NYC L2 2000/600) a cell
// costs 5.0 bytes of slab lists: the snapshot's slab sections are
// 51,164,288 bytes for 10,156,938 cells — a 4-byte arc per edge, a 4-byte
// set id per gap, and the actives. At that rate the cap bounds the lists
// near 121 MiB; a rectilinear edge stores an 8-byte height instead of an
// arc, so its cells cost more.
const DefaultMaxCells = 24 << 20

// ErrTooLarge reports that building (or patching) the index would exceed the
// configured cell cap; the caller should serve queries from its
// point-enclosure index instead.
var ErrTooLarge = errors.New("pointloc: slab decomposition exceeds the cell cap")

// Options configures Build and Patch.
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
	// edges holds a rectilinear slab's edges, the horizontal side
	// coordinates in ascending order; nil for L2.
	edges []float64
	// arcs holds an L2 slab's edges in ascending order, each as its circle's
	// position <<1 | 1 for the upper half of its boundary; nil for
	// rectilinear slabs. An arc is evaluated at the query's own x (the arc
	// order cannot change inside a slab), so no height is stored.
	arcs []uint32
	// gaps[k] is the set id of the face between edges k-1 and k (gaps[0] the
	// face below the first edge, the last gap the face above the last); a
	// slab has len(gaps)-1 edges, and gaps[0] is always the empty set.
	gaps []uint32
}

// numEdges returns the slab's edge count: its heights for a rectilinear
// slab, its arcs for L2.
func (sl *slab) numEdges() int { return len(sl.gaps) - 1 }

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

// holds reports whether set id has the members rnn (ascending), at once
// when rnn is the interned record's own slice.
func (t *labelTable) holds(id uint32, rnn []int) bool {
	if t.sets != nil {
		s := t.sets[id].RNN
		return len(s) == len(rnn) && (len(s) == 0 || &s[0] == &rnn[0] || slices.Equal(s, rnn))
	}
	defer runtime.KeepAlive(t.view) // the members are file bytes
	members := t.view.PoolMembers(id)
	if len(members) != len(rnn) {
		return false
	}
	for i, c := range members {
		if int(c) != rnn[i] {
			return false
		}
	}
	return true
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
	// exactPoints and exactColumns count the point queries and raster
	// columns the lineage's indexes resolved on the exact path.
	exactPoints, exactColumns atomic.Int64
}

// interner returns the lineage's label interner, seeding it from the file
// on first use.
func (l *lineage) interner(measure influence.Measure) *core.LabelInterner {
	if l.view != nil {
		l.seed.Do(func() { l.pool = l.view.Interner(measure) })
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

// ExactCounts returns the point queries (Query, and each point of
// QueryBatch) and the raster columns (HeatGrid's pixel columns with a pixel
// on it) that the exact path resolved, over every index of the lineage: the
// index a Build or Open returned and every index patched from it.
func (ix *Index) ExactCounts() (points, columns int64) {
	return ix.lin.exactPoints.Load(), ix.lin.exactColumns.Load()
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
// for the given influence measure (nil means influence.Size()) in the
// labels-off pass, for a map whose own sweep wrote no index. Gap heats are
// computed from RNN sets assembled in ascending client order — the same
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
	s := newSink(nil, circles, opts)
	if s.err != nil {
		return nil, s.err
	}
	if len(s.usable) == 0 {
		s.adopt(pool)
		return s.Index()
	}
	events, err := core.NewSlabEvents(s.usable)
	if err != nil {
		return nil, err
	}
	events.Emit(s, pool, nil) // a decline leaves its reason in s
	return s.Index()
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

// Sink is the core.SlabSink an index is written through, by the sweep that
// carries its slabs: a CREST build's (NewSink), a commit's resweep
// (PatchSink) or the labels-off pass (Build, Patch). Begin lays the index
// out, a patch's clean slabs shared with its base, and each Slab call writes
// one slab at its position, so the strips of a pass write disjoint slabs
// and their runs join in order without a copy. origIdx translates the
// sweep's circle positions, among the positive-radius circles, to stable
// positions in the index's circle slices.
type Sink struct {
	ix       *Index
	base     *Index // the index a patch derives from; nil for a build
	usable   []nncircle.NNCircle
	origIdx  []int32
	maxCells int
	pool     *core.LabelInterner
	empty    uint32
	err      error // why the sink has no index
}

// NewSink returns the sink of a one-pass build over circles, for
// core.CRESTWithSlabs over the same circles.
func NewSink(circles []nncircle.NNCircle) *Sink { return newSink(nil, circles, Options{}) }

// PatchSink returns the sink of a commit deriving the index of newCircles
// from ix, for core.Resweep over the same circles into ix's Pool.
func (ix *Index) PatchSink(newCircles []nncircle.NNCircle) *Sink {
	return newSink(ix, newCircles, Options{})
}

func newSink(base *Index, circles []nncircle.NNCircle, opts Options) *Sink {
	s := &Sink{base: base, maxCells: opts.maxCells(), ix: &Index{}}
	s.usable, s.origIdx, s.err = s.ix.initCircles(circles)
	if s.err == nil && base != nil && len(circles) > 0 && s.ix.metric != base.metric {
		s.err = errors.New("pointloc: Patch with mixed or changed metrics")
	}
	return s
}

// adopt takes pool for the sink's gap ids: a build's lineage starts with
// it, and a patch must be handed its base's.
func (s *Sink) adopt(pool *core.LabelInterner) error {
	if s.base == nil {
		s.ix.measure, s.ix.emptyHeat, s.ix.lin = pool.Measure(), pool.Empty().Heat, &lineage{pool: pool}
	} else if pool != s.base.Pool() {
		return ErrPatchDeclined
	} else {
		s.ix.measure, s.ix.emptyHeat, s.ix.lin = s.base.measure, s.base.emptyHeat, s.base.lin
	}
	s.pool, s.empty = pool, pool.ID(pool.Empty())
	return nil
}

// Begin lays the index out over the new event list, declining an
// arrangement whose cell bound passes the cap (ErrTooLarge) and, for a
// patch, a pool other than its lineage's or a clean slab it cannot share
// (ErrPatchDeclined).
func (s *Sink) Begin(ev *core.SlabEvents, ranges []core.SlabRange, pool *core.LabelInterner) bool {
	if s.err == nil {
		s.err = s.begin(ev, ranges, pool)
	}
	return s.err == nil
}

func (s *Sink) begin(ev *core.SlabEvents, ranges []core.SlabRange, pool *core.LabelInterner) error {
	if err := s.adopt(pool); err != nil {
		return err
	}
	if ev.CellBound() > s.maxCells {
		return ErrTooLarge
	}
	s.ix.xs = ev.Xs()
	s.ix.slabs = make([]slab, len(s.ix.xs))
	if s.base != nil {
		return s.shareClean(ranges)
	}
	return nil
}

// Slab writes slab k at its position: the actives translated through
// origIdx, and each edge as its arc for L2, or its height otherwise.
func (s *Sink) Slab(k int, x0, x1 float64, actives []int, edges []core.SlabEdge) {
	sl := slab{actives: make([]int32, len(actives)), gaps: make([]uint32, len(edges)+1)}
	for i, a := range actives {
		sl.actives[i] = s.origIdx[a]
	}
	sl.gaps[0] = s.empty
	if len(edges) > 0 {
		if s.ix.metric == geom.L2 {
			sl.arcs = make([]uint32, len(edges))
		} else {
			sl.edges = make([]float64, len(edges))
		}
	}
	for i, e := range edges {
		if sl.arcs != nil {
			sl.arcs[i] = uint32(s.origIdx[e.Arc>>1])<<1 | uint32(e.Arc&1)
		} else {
			sl.edges[i] = e.Y
		}
		sl.gaps[i+1] = s.pool.ID(e.Above)
	}
	s.ix.slabs[k] = sl
}

// Index returns the index the sweep wrote, or why there is none:
// ErrTooLarge past the cell cap, ErrPatchDeclined for a patch the change
// cannot splice, the error of circles the sink could not index, or, when
// no sweep wrote it (a nil sink included), an error saying so.
func (s *Sink) Index() (*Index, error) {
	if s == nil || s.pool == nil && s.err == nil {
		return nil, errors.New("pointloc: no sweep wrote the index")
	}
	if s.err != nil {
		return nil, s.err
	}
	ix := s.ix
	ix.cells = 0
	for i := range ix.slabs {
		ix.cells += 1 + 2*ix.slabs[i].numEdges()
	}
	ix.sets = tableOf(s.pool)
	return ix, nil
}
