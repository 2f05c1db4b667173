package pointloc

import (
	"errors"
	"math"
	"slices"
	"sort"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/snapshot"
)

// Mapped answers point-location queries straight off a format-v2 snapshot
// view: the slab boundaries, edge lists and gap pool ids are the mmap'd file
// bytes, so a cold map serves its first query with no decode step. It shares
// Index's sweep transform, epsilon bands, slab location (axis), exact
// fallback and raster kernel (grid.go), and mirrors its gap lookup operation
// for operation, so answers are byte-identical to the heap index and the
// enclosure oracle; the differential tests in mapped_test.go enforce that.
//
// RNN sets are the one thing not stored ready-to-return (the file holds i32
// member lists); a query that needs one materializes a caller-owned copy of
// just that record — a cold replica answering a single point query never
// decodes the rest of the pool. Tile rendering (HeatGrid) touches only the
// heat section and allocates nothing per hit.
type Mapped struct {
	axis
	view *snapshot.View
	slab *snapshot.SlabView
}

// NewMapped builds a mapped locator over v, which must carry a slab index
// (snapshot.Meta.HasSlabIndex). measure must be the snapshot's own measure —
// it is only invoked on the exact fallback path, and a different measure
// would disagree with the heats stored in the file.
func NewMapped(v *snapshot.View, measure influence.Measure) (*Mapped, error) {
	if !v.HasSlabIndex() {
		return nil, errors.New("pointloc: snapshot carries no slab index")
	}
	if measure == nil {
		measure = influence.Size()
	}
	s := v.Slab()
	return &Mapped{
		axis: axis{
			metric:  v.Meta().Metric,
			measure: measure,
			empty:   &label{Heat: measure.Influence(oset.New()), RNN: []int{}},
			xs:      s.Xs,
			zeroXs:  s.ZeroXs,
		},
		view: v,
		slab: s,
	}, nil
}

// Metric returns the original metric of the indexed circles.
func (m *Mapped) Metric() geom.Metric { return m.metric }

// NumSlabs returns the number of slabs.
func (m *Mapped) NumSlabs() int { return len(m.slab.Xs) }

// Cells returns the stored cell count, computed the way the heap builder
// counts: one per slab plus two per edge.
func (m *Mapped) Cells() int { return len(m.slab.Xs) + 2*len(m.slab.Edges) }

// Query returns the heat and RNN set of the face containing p; see
// Index.Query for the contract. The returned slice is a caller-owned copy
// of the mapped record.
func (m *Mapped) Query(p geom.Point) (float64, []int) {
	q := m.toSweep(p)
	i, direct := m.locateSlab(q.X)
	if !direct {
		return exact(m, p, q.X)
	}
	if i < 0 {
		return m.empty.Heat, m.empty.RNN
	}
	gid, ok := m.lookup(i, q)
	if !ok {
		return exact(m, p, q.X)
	}
	return m.view.PoolHeat(gid), m.poolRNN(gid)
}

// poolRNN materializes one pool record's member list as a caller-owned
// copy, leaving View.PoolRNN's pool-wide cache to bulk consumers.
func (m *Mapped) poolRNN(id uint32) []int {
	ms := m.view.PoolMembers(id)
	out := make([]int, len(ms))
	for i, v := range ms {
		out[i] = int(v)
	}
	return out
}

// rnnRef carries a query hit's RNN set without materializing it: exactly
// one of members (raw mapped i32 list, pool hits) and exact (heap ints,
// exact-path and empty-face hits) is non-nil.
type rnnRef struct {
	members []int32
	exact   []int
}

// QueryBatch answers one Query per point in input order with caller-owned
// RNN copies; same monotone slab walk as Index.QueryBatch.
func (m *Mapped) QueryBatch(ps []geom.Point) ([]float64, [][]int) {
	heats := make([]float64, len(ps))
	rnns := make([][]int, len(ps))
	arena := make([]int, 0, 4096)
	m.queryMany(ps, func(k int, heat float64, r rnnRef) {
		heats[k] = heat
		n := len(r.members) + len(r.exact)
		if n > cap(arena)-len(arena) {
			arena = make([]int, 0, max(4096, n))
		}
		start := len(arena)
		for _, v := range r.members {
			arena = append(arena, int(v))
		}
		arena = append(arena, r.exact...)
		rnns[k] = arena[start:len(arena):len(arena)]
	})
	return heats, rnns
}

// HeatGrid fills out with the heat Query returns at each pixel center of
// bounds; see Index.HeatGrid. This is the tile rasterization hot path and
// touches only the mapped arrays and the pool heat section — no RNN
// materialization, no decode.
func (m *Mapped) HeatGrid(bounds geom.Rect, width, height int, out []float64) {
	heatGrid(m, bounds, width, height, out)
}

// queryMany is the batch driver; it mirrors Index.queryMany exactly (NaN
// handling, sort, gallop walk) with gap hits resolved through the pool.
func (m *Mapped) queryMany(ps []geom.Point, emit func(k int, heat float64, rnn rnnRef)) {
	keys := make([]batchKey, 0, len(ps))
	for k, p := range ps {
		q := m.toSweep(p)
		if math.IsNaN(q.X) {
			emit(k, m.empty.Heat, rnnRef{exact: m.empty.RNN})
			continue
		}
		keys = append(keys, batchKey{x: q.X, y: q.Y, k: int32(k)})
	}
	slices.SortFunc(keys, func(a, b batchKey) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		default:
			return 0
		}
	})
	i := 0
	for _, key := range keys {
		k := int(key.k)
		q := geom.Pt(key.x, key.y)
		i = gallopGE(m.slab.Xs, i, q.X)
		si, direct := m.slabAt(q.X, i)
		if !direct {
			h, rnn := exact(m, ps[k], q.X)
			emit(k, h, rnnRef{exact: rnn})
			continue
		}
		if si < 0 {
			emit(k, m.empty.Heat, rnnRef{exact: m.empty.RNN})
			continue
		}
		if gid, ok := m.lookup(si, q); ok {
			emit(k, m.view.PoolHeat(gid), rnnRef{members: m.view.PoolMembers(gid)})
		} else {
			h, rnn := exact(m, ps[k], q.X)
			emit(k, h, rnnRef{exact: rnn})
		}
	}
}

// lookup resolves the gap containing q inside slab si, returning its pool id
// (ok=false within eps of a gap edge, exact path required). Mirrors
// slab.lookup: a slab's gap pool-ids start at EdgeOff[si]+si — every slab
// owns one more gap than edges.
func (m *Mapped) lookup(si int, q geom.Point) (uint32, bool) {
	s := m.slab
	lo, hi := int(s.EdgeOff[si]), int(s.EdgeOff[si+1])
	edges := s.Edges[lo:hi]
	gapBase := lo + si
	ey := m.eps(q.Y)
	if m.metric != geom.L2 {
		if j, ok := gapIn(edges, q.Y, ey); ok {
			return s.Gaps[gapBase+j], true
		}
		return 0, false
	}
	arcs := s.Arcs[lo:hi]
	j := sort.Search(len(arcs), func(k int) bool {
		return m.arcYAt(arcs[k], q.X) >= q.Y
	})
	below, above := math.NaN(), math.NaN()
	if j > 0 {
		below = m.arcYAt(arcs[j-1], q.X)
	}
	if j < len(arcs) {
		above = m.arcYAt(arcs[j], q.X)
	}
	if nearEdge(below, above, q.Y, ey) {
		return 0, false
	}
	return s.Gaps[gapBase+j], true
}

// arcYAt evaluates an encoded arc's boundary height at sweep-space x
// (bit-identical to Index.arcYAt; arcs exist only for L2, where sweep space
// is the original space, so the circle-geometry section is directly usable).
func (m *Mapped) arcYAt(a uint32, x float64) float64 {
	geo := m.view.CircleGeo()
	ci := int(a >> 1)
	cx, cy, r := geo[3*ci], geo[3*ci+1], geo[3*ci+2]
	dx := x - cx
	h := math.Sqrt(math.Max(0, r*r-dx*dx))
	if a&1 != 0 {
		return cy + h
	}
	return cy - h
}

// The slabTable accessors (see grid.go) over the mapped sections: slab si's
// edges and arcs start at EdgeOff[si], its gaps at EdgeOff[si]+si.

func (m *Mapped) edges(si int) []float64 {
	return m.slab.Edges[m.slab.EdgeOff[si]:m.slab.EdgeOff[si+1]]
}

func (m *Mapped) arcHeights(si int, x float64, dst []float64) {
	for k, a := range m.slab.Arcs[m.slab.EdgeOff[si]:m.slab.EdgeOff[si+1]] {
		dst[k] = m.arcYAt(a, x)
	}
}

func (m *Mapped) gapHeat(si, j int) float64 {
	return m.view.PoolHeat(m.slab.Gaps[int(m.slab.EdgeOff[si])+si+j])
}

func (m *Mapped) actives(si int) []int32 {
	return m.slab.Actives[m.slab.ActOff[si]:m.slab.ActOff[si+1]]
}

func (m *Mapped) circle(ci int32) nncircle.NNCircle { return m.view.CircleAt(int(ci)) }

func (m *Mapped) zeroCircle(j int) nncircle.NNCircle {
	return m.view.CircleAt(int(m.slab.ZeroIdx[j]))
}
