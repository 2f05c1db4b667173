package pointloc

import (
	"math"
	"slices"
	"sort"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// Query returns the heat and RNN set of the face containing p. The returned
// slice is shared with the index for label-lookup answers — callers must not
// mutate it (heatmap.Map copies it before handing it out).
//
// The generic path is two binary searches (slab by x, gap by y) and zero set
// construction; queries within eps of a slab edge, gap edge or zero-radius
// circle center take the exact closed-containment path instead, so answers
// are byte-identical to the enclosure index for every input point.
func (ix *Index) Query(p geom.Point) (float64, []int) {
	q := ix.toSweep(p)
	i, direct := ix.locateSlab(q.X)
	if !direct {
		return exact(ix, p, q.X)
	}
	if i < 0 {
		return ix.empty.Heat, ix.empty.RNN
	}
	l, ok := ix.slabs[i].lookup(ix, q)
	if !ok {
		return exact(ix, p, q.X)
	}
	return l.Heat, l.RNN
}

// QueryBatch answers one Query per point, in input order. Points are sorted
// by sweep-space x once and the slab list is walked monotonically, so a
// batch of B points over E slabs costs O(B log B + E + B log λ) instead of B
// independent slab searches. Answers are identical to per-point Query calls.
//
// Unlike Query, the returned RNN slices are caller-owned copies (packed into
// chunked arenas while each label is still cache-hot), never views into the
// index, so callers may retain and mutate them freely.
func (ix *Index) QueryBatch(ps []geom.Point) ([]float64, [][]int) {
	heats := make([]float64, len(ps))
	rnns := make([][]int, len(ps))
	arena := make([]int, 0, 4096)
	ix.queryMany(ps, func(k int, heat float64, rnn []int) {
		heats[k] = heat
		if len(rnn) > cap(arena)-len(arena) {
			arena = make([]int, 0, max(4096, len(rnn)))
		}
		start := len(arena)
		arena = append(arena, rnn...)
		rnns[k] = arena[start:len(arena):len(arena)]
	})
	return heats, rnns
}

// HeatGrid fills out (row-major, row 0 at the top, len(out) ==
// width*height) with the heat Query returns at each pixel center of bounds
// (geom.Rect.PixelCenters), bit for bit; see grid.go for the kernel.
func (ix *Index) HeatGrid(bounds geom.Rect, width, height int, out []float64) {
	heatGrid(ix, bounds, width, height, out)
}

// batchKey carries one batch point through the sort: its sweep-space
// coordinates plus its input position.
type batchKey struct {
	x, y float64
	k    int32
}

// queryMany is the shared batch driver: transform, sort by sweep x, walk.
func (ix *Index) queryMany(ps []geom.Point, emit func(k int, heat float64, rnn []int)) {
	keys := make([]batchKey, 0, len(ps))
	for k, p := range ps {
		q := ix.toSweep(p)
		if math.IsNaN(q.X) {
			// A NaN breaks the sort's strict weak order and would corrupt
			// the monotone walk for every other point. No circle contains a
			// NaN coordinate (all comparisons are false), which is also
			// exactly what a standalone Query resolves: the empty face.
			emit(k, ix.empty.Heat, ix.empty.RNN)
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
	// i is maintained as the result sort.SearchFloat64s(ix.xs, qx) would
	// produce, so every point resolves exactly as a standalone Query. The
	// advance gallops (exponential search from the previous position):
	// neighboring points cost O(1), while a batch much sparser than the
	// slab list — a far-off tile row, a zoomed-out viewport — costs
	// O(log jump) per point instead of walking every boundary in between.
	i := 0
	for _, key := range keys {
		k := int(key.k)
		q := geom.Pt(key.x, key.y)
		i = gallopGE(ix.xs, i, q.X)
		si, direct := ix.slabAt(q.X, i)
		if !direct {
			h, rnn := exact(ix, ps[k], q.X)
			emit(k, h, rnn)
			continue
		}
		if si < 0 {
			emit(k, ix.empty.Heat, ix.empty.RNN)
			continue
		}
		if l, ok := ix.slabs[si].lookup(ix, q); ok {
			emit(k, l.Heat, l.RNN)
		} else {
			h, rnn := exact(ix, ps[k], q.X)
			emit(k, h, rnn)
		}
	}
}

// gallopGE returns the first index >= from with xs[idx] >= x (len(xs) when
// none), equal to sort.SearchFloat64s(xs, x) whenever that result is >=
// from: exponential steps from the previous position bracket the target,
// then a binary search inside the bracket pins it.
func gallopGE(xs []float64, from int, x float64) int {
	if from >= len(xs) || xs[from] >= x {
		return from
	}
	lo, step := from, 1
	for lo+step < len(xs) && xs[lo+step] < x {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(xs) {
		hi = len(xs)
	}
	return lo + 1 + sort.SearchFloat64s(xs[lo+1:hi], x)
}

// locateSlab finds the slab containing sweep-space x. It returns
// direct=false when x lies within eps of a slab boundary or zero-radius
// center (the exact path must answer), and i=-1 with direct=true when x is
// strictly outside every slab (the answer is the empty label).
func (a *axis) locateSlab(x float64) (i int, direct bool) {
	return a.slabAt(x, sort.SearchFloat64s(a.xs, x))
}

// slabAt resolves the slab for x given pos = sort.SearchFloat64s(a.xs, x)
// (the first slab edge >= x).
func (a *axis) slabAt(x float64, pos int) (i int, direct bool) {
	ex := a.eps(x)
	if a.nearZeroX(x, ex) {
		return 0, false
	}
	if len(a.xs) == 0 {
		return -1, true
	}
	if pos < len(a.xs) && a.xs[pos]-x <= ex {
		return 0, false
	}
	if pos > 0 && x-a.xs[pos-1] <= ex {
		return 0, false
	}
	if pos == 0 || pos == len(a.xs) {
		// Strictly outside every slab by more than eps: empty face.
		return -1, true
	}
	return pos - 1, true
}

// nearZeroX reports whether x lies within ex of the sweep-space center of a
// zero-radius circle.
func (a *axis) nearZeroX(x float64, ex float64) bool {
	if len(a.zeroXs) == 0 {
		return false
	}
	j := sort.SearchFloat64s(a.zeroXs, x)
	if j < len(a.zeroXs) && a.zeroXs[j]-x <= ex {
		return true
	}
	return j > 0 && x-a.zeroXs[j-1] <= ex
}

// lookup resolves the gap containing the sweep-space point q, returning
// ok=false when q lies within eps of a gap edge (exact path required). For
// rectilinear slabs the edges are constants; for L2 slabs the arc heights
// are evaluated at q.X — the arc order is invariant across the slab, so the
// binary search remains valid at any interior x.
func (sl *slab) lookup(ix *Index, q geom.Point) (*label, bool) {
	ey := ix.eps(q.Y)
	if sl.arcs == nil {
		if j, ok := gapIn(sl.edges, q.Y, ey); ok {
			return sl.gaps[j], true
		}
		return nil, false
	}
	j := sort.Search(len(sl.arcs), func(k int) bool {
		return ix.arcYAt(sl.arcs[k], q.X) >= q.Y
	})
	below, above := math.NaN(), math.NaN()
	if j > 0 {
		below = ix.arcYAt(sl.arcs[j-1], q.X)
	}
	if j < len(sl.arcs) {
		above = ix.arcYAt(sl.arcs[j], q.X)
	}
	if nearEdge(below, above, q.Y, ey) {
		return nil, false
	}
	return sl.gaps[j], true
}

// gapIn is lookup over a slab's edge heights h at the query's x, ascending:
// it returns the gap holding y — the smallest j with h[j] >= y — and
// ok=false when y lies within ey of either edge of that gap, where only the
// exact path can answer.
func gapIn(h []float64, y, ey float64) (j int, ok bool) {
	j = sort.SearchFloat64s(h, y)
	below, above := math.NaN(), math.NaN()
	if j > 0 {
		below = h[j-1]
	}
	if j < len(h) {
		above = h[j]
	}
	return j, !nearEdge(below, above, y, ey)
}

// nearEdge is the gap-edge epsilon decision of every lookup: whether y lies
// within ey of the edge below its gap, at height below, or of the edge above
// it, at height above. A gap without an edge on one side passes NaN there,
// which no comparison finds near.
func nearEdge(below, above, y, ey float64) bool {
	return above-y <= ey || y-below <= ey
}

// arcYAt evaluates an arc's boundary height at sweep-space x. Inside a
// slab's interior |x - cx| < r is guaranteed (the circle's extreme is an
// event bounding the slab); the radicand is clamped defensively anyway.
func (ix *Index) arcYAt(a arcEdge, x float64) float64 {
	c := ix.sweepAll[a.circle].Circle
	dx := x - c.Center.X
	h := math.Sqrt(math.Max(0, c.Radius*c.Radius-dx*dx))
	if a.upper {
		return c.Center.Y + h
	}
	return c.Center.Y - h
}

// The slabTable accessors (see grid.go) over the heap slabs.

func (ix *Index) edges(si int) []float64 { return ix.slabs[si].edges }

func (ix *Index) arcHeights(si int, x float64, dst []float64) {
	for k, a := range ix.slabs[si].arcs {
		dst[k] = ix.arcYAt(a, x)
	}
}

func (ix *Index) gapHeat(si, j int) float64 { return ix.slabs[si].gaps[j].Heat }

func (ix *Index) actives(si int) []int32 { return ix.slabs[si].actives }

func (ix *Index) circle(ci int32) nncircle.NNCircle { return ix.all[ci] }

func (ix *Index) zeroCircle(j int) nncircle.NNCircle { return ix.zeros[j] }
