// Package optimal implements exact optimal-location analytics over a labeled
// RNN arrangement: the MaxBRNN argmax (the single max-influence region the
// Wong et al. optimal-location line of work computes), constrained top-k
// region selection, and the geometry that backs both.
//
// The paper's arrangement already labels every region, so the argmax the
// optimal-location literature works hard for is a scan away; what this
// package adds is exactness guarantees and geometry. Both cost in proportion
// to the answer, not to the map:
//
//   - Ranking selects from a binary heap of label indexes ordered by heat,
//     then emission order, and keys only the labels it pops, stopping once k
//     regions are admitted: O(n + p log n) for n labels and p pops, where p
//     is k plus the duplicate and rejected labels popped on the way. Its
//     tie-breaking is the sweep's own max tracking (first label in emission
//     order strictly exceeding the running maximum wins), so the
//     unconstrained argmax is byte-identical to a brute-force max over the
//     label list.
//   - Geometry — exact face area, cell count, bounding box per distinct RNN
//     set — is recovered from the slab decomposition's cells grouped by set
//     id (pointloc.Index.GroupCells), only for the sets an answer returns:
//     one walk reads every gap id and integrates only the wanted cells, and
//     each resolved set is memoized. A minimum-area constraint has to know
//     every candidate's area before it can rank, so it resolves every set
//     once per Geometry.
//
// The constrained variants filter the ranked sets: minimum region area,
// minimum distance from existing facilities, and a bounding-box filter.
//
// A distinct RNN set is identified by its id in its lineage's table, which
// every label of a map carries (core.Label.Set) and every slab gap of its
// index stores: ranking tells sets apart by id (core.Distinct), and the
// geometry takes a label's id as its gap id (pointloc.Index.LabelID). Labels
// that carry no ids in the index's table are identified by content
// (oset.ContentKey, the key the sweep's interner decides every set with),
// so both work for labels and slab gaps from any pools.
package optimal

import (
	"cmp"
	"errors"
	"sync"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/pointloc"
)

// Region is one candidate optimal region: a distinct RNN set with its heat,
// a representative interior point, and — when slab geometry is available —
// the exact total area, cell count and bounding box of its faces.
type Region struct {
	// Heat is the influence value of the region's RNN set.
	Heat float64
	// RNN holds the client identifiers in ascending order.
	RNN []int
	// Point is a representative interior point in the original coordinate
	// system (the first emitted label's representative).
	Point geom.Point
	// HasGeometry reports whether Area, Cells and Bounds were recovered from
	// the slab decomposition; false when the index declined to build and the
	// ranking fell back to the label scan.
	HasGeometry bool
	// Area is the exact total area of the set's faces, in original-space
	// units (the L1 sweep rotation is orthonormal, so no scaling applies).
	Area float64
	// Cells is the number of slab cells the faces decompose into.
	Cells int
	// Bounds is an original-space bounding box of the faces (for L1 the
	// rotated-back sweep box, a conservative cover).
	Bounds geom.Rect
}

// Constraints filters candidate regions. The zero value accepts everything.
type Constraints struct {
	// MinArea drops regions whose exact face area is below the bound.
	// Requires slab geometry: TopK returns ErrNeedGeometry when the slab
	// index was unavailable and MinArea is positive.
	MinArea float64
	// MinDist drops regions whose representative point lies closer than this
	// to any of Facilities under Metric — "don't open next to an existing
	// store".
	MinDist    float64
	Facilities []geom.Point
	Metric     geom.Metric
	// Bounds, when non-nil, keeps only regions whose representative point
	// lies inside it (closed).
	Bounds *geom.Rect
}

// ErrNeedGeometry reports that a constraint requiring exact face geometry
// (MinArea) was given but the slab decomposition is unavailable.
var ErrNeedGeometry = errors.New("optimal: min-area constraint requires the slab-cell geometry, which is unavailable for this map")

// Group is the aggregated slab-cell geometry of one distinct RNN set.
type Group struct {
	Area   float64
	Cells  int
	Bounds geom.Rect
}

// Geometry is the per-RNN-set face geometry of one slab index, resolved on
// demand and memoized. A label's set resolves to its gap id by the label's
// own id, or by content where the index's table does not hold the set
// under it (pointloc.Index.LabelID), so labels from any pool join a built,
// patched or snapshot-opened index alike. A Geometry is
// safe for concurrent use; an index is immutable, so one Geometry per index
// serves every query on it.
type Geometry struct {
	ix *pointloc.Index

	mu sync.Mutex
	// groups holds every set id resolved so far; a set without a bounded
	// cell in the index holds the zero Group.
	groups map[uint32]Group
	// all is set once a walk has resolved every set: an id groups lacks has
	// no bounded cell.
	all bool
	// integrated counts the cells the walks have integrated, the geometry's
	// machine-independent cost.
	integrated int
}

// FromIndex returns the geometry of a slab index. It binds the index and
// walks nothing: each set's cells are grouped the first time an answer
// returns the set (or a minimum-area filter needs every set). Bounding boxes
// are mapped back to the original coordinate system (exact except for L1,
// where the rotated box is covered conservatively). Returns nil when ix is
// nil, so callers can thread an absent index straight through to the
// label-scan fallback.
func FromIndex(ix *pointloc.Index) *Geometry {
	if ix == nil {
		return nil
	}
	return &Geometry{ix: ix, groups: make(map[uint32]Group)}
}

// lookup returns the geometry of the set of label l; false when the set has
// no bounded cell in the index.
func (g *Geometry) lookup(l *core.Label) (Group, bool) {
	if g == nil {
		return Group{}, false
	}
	grp := g.groupsOf([]*core.Label{l})[0]
	return grp, grp.Cells > 0
}

// attach joins each region to the geometry of the set of the label it
// came from (from[i] for regs[i]), resolving the sets the memo lacks in one
// walk.
func (g *Geometry) attach(regs []Region, from []*core.Label) {
	for i, grp := range g.groupsOf(from) {
		regs[i].setGeometry(grp)
	}
}

// groupsOf returns the geometry of each label's set, the zero Group for a
// set without a bounded cell. The sets the memo lacks are resolved in one
// walk over the index's cells.
func (g *Geometry) groupsOf(labels []*core.Label) []Group {
	g.mu.Lock()
	defer g.mu.Unlock()
	const none = ^uint32(0)
	ids := make([]uint32, len(labels))
	var want []uint32
	for i, l := range labels {
		id, ok := g.ix.LabelID(l)
		if !ok {
			ids[i] = none
			continue
		}
		ids[i] = id
		if _, done := g.groups[id]; !done && !g.all {
			want = append(want, id)
		}
	}
	if len(want) > 0 {
		g.walk(want)
	}
	out := make([]Group, len(labels))
	for i, id := range ids {
		if id != none {
			out[i] = g.groups[id]
		}
	}
	return out
}

// resolveAll resolves every set of the index, once.
func (g *Geometry) resolveAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.all {
		g.walk(nil)
		g.all = true
	}
}

// walk groups the cells of the sets with the given ids (every set when ids
// is nil) and memoizes each. The caller holds g.mu.
func (g *Geometry) walk(ids []uint32) {
	for _, id := range ids {
		g.groups[id] = Group{}
	}
	for _, grp := range g.ix.GroupCells(ids) {
		bounds := grp.Bounds
		if g.ix.Metric() == geom.L1 && !bounds.IsEmpty() {
			r := geom.EmptyRect()
			for _, c := range bounds.Corners() {
				r = r.UnionPoint(geom.RotateLInfToL1(c))
			}
			bounds = r
		}
		g.groups[grp.ID] = Group{Area: grp.Area, Cells: grp.Cells, Bounds: bounds}
		g.integrated += grp.Cells
	}
}

// setGeometry attaches grp to the region when the set has faces.
func (r *Region) setGeometry(grp Group) {
	if grp.Cells > 0 {
		r.HasGeometry, r.Area, r.Cells, r.Bounds = true, grp.Area, grp.Cells, grp.Bounds
	}
}

// TopK returns the k best regions satisfying cons, best first. Each
// distinct RNN set is one region, represented by its first emitted label,
// and regions are ordered by heat descending with ties broken by first
// emission order. With no constraints and k=1 the answer is therefore
// exactly the label a brute-force scan over labels keeps (first label
// strictly exceeding the running maximum) — the same tie-breaking the
// sweep's own Result.MaxLabel uses. Geometry is attached from geo when
// non-nil. Fewer than k regions may be returned; zero regions is not an
// error.
//
// TopK pops labels from a heap ordered by heat descending, then emission
// order, and tells apart only the sets of the labels it pops, by id when
// every label carries one (core.Distinct). The first label of a set it pops
// is the set's first emitted label under one precondition: all labels of one
// set carry one heat. Every label list the program builds meets it — the
// sweep's interner evaluates each set once, and heats are bit-identical
// across pools, since every pool evaluates a set in ascending member order
// — so a set with labels of different heats can only come from a caller.
// Only the returned sets' geometry is resolved, except under MinArea, which
// resolves every set once per geo.
func TopK(labels []core.Label, geo *Geometry, k int, cons Constraints) ([]Region, error) {
	if k <= 0 {
		return nil, nil
	}
	if cons.MinArea > 0 {
		if geo == nil {
			return nil, ErrNeedGeometry
		}
		geo.resolveAll()
	}
	h := newRankHeap(labels)
	seen := core.NewDistinct(labels)
	out := make([]Region, 0, min(k, len(labels)))
	from := make([]*core.Label, 0, cap(out))
	for len(out) < k {
		i, ok := h.pop()
		if !ok {
			break
		}
		l := &labels[i]
		if !seen.First(l) {
			continue
		}
		r := Region{Heat: l.Heat, RNN: l.RNN, Point: l.Point}
		if cons.MinArea > 0 {
			grp, _ := geo.lookup(l)
			r.setGeometry(grp)
		}
		if !cons.admit(r) {
			continue
		}
		out = append(out, r)
		from = append(from, l)
	}
	if geo != nil && cons.MinArea <= 0 {
		geo.attach(out, from)
	}
	return out, nil
}

// rankHeap is a binary heap of label indexes, the best label on top: the
// higher heat, then the earlier emission. Each entry carries its label's
// heat, so sifting reads only the heap's own array.
type rankHeap []rankEntry

type rankEntry struct {
	heat float64
	i    int32
}

// newRankHeap heapifies every label index in O(n).
func newRankHeap(labels []core.Label) rankHeap {
	h := make(rankHeap, len(labels))
	for i := range labels {
		h[i] = rankEntry{heat: labels[i].Heat, i: int32(i)}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// before reports whether entry a ranks before entry b.
func (a rankEntry) before(b rankEntry) bool {
	if c := cmp.Compare(a.heat, b.heat); c != 0 {
		return c > 0
	}
	return a.i < b.i
}

// pop removes and returns the best label index; false when the heap is empty.
func (h *rankHeap) pop() (int, bool) {
	n := len(*h)
	if n == 0 {
		return 0, false
	}
	top := (*h)[0].i
	(*h)[0] = (*h)[n-1]
	*h = (*h)[:n-1]
	h.down(0)
	return int(top), true
}

// down sifts the entry at i down to its place.
func (h rankHeap) down(i int) {
	for {
		best := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// admit reports whether the region satisfies every constraint.
func (c Constraints) admit(r Region) bool {
	if c.Bounds != nil && !c.Bounds.Contains(r.Point) {
		return false
	}
	if c.MinArea > 0 && r.Area < c.MinArea {
		return false
	}
	if c.MinDist > 0 {
		for _, f := range c.Facilities {
			if c.Metric.Distance(r.Point, f) < c.MinDist {
				return false
			}
		}
	}
	return true
}
