package pointloc

import (
	"math"
	"slices"
	"sort"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/oset"
)

// noClients is the RNN set of every face outside the slabs.
var noClients = []int{}

// Query returns the heat and RNN set of the face containing p. The returned
// slice may be shared with the index — callers must not mutate it
// (heatmap.Map copies it before handing it out).
//
// The generic path is two binary searches (slab by x, gap by y) and zero set
// construction; queries within eps of a slab edge, gap edge or zero-radius
// circle center take the exact closed-containment path instead, so answers
// are byte-identical to the enclosure index for every input point.
func (ix *Index) Query(p geom.Point) (float64, []int) {
	q := ix.toSweep(p)
	i, direct := ix.locateSlab(q.X)
	if direct && i < 0 {
		return ix.emptyHeat, noClients
	}
	if direct {
		if id, ok := ix.lookup(i, q); ok {
			return ix.sets.answer(id)
		}
	}
	ix.lin.exactPoints.Add(1)
	rnn := ix.matchPoint([]int{}, p, q.X)
	return ix.heatOf(rnn), rnn
}

// QueryBatch answers one Query per point, in input order. Points are sorted
// by sweep-space x once and the slab list is walked monotonically, so a
// batch of B points over E slabs costs O(B log B + E + B log λ) instead of B
// independent slab searches. Answers are identical to per-point Query calls.
//
// Unlike Query, the returned RNN slices are caller-owned copies (packed into
// chunked arenas while each set is still cache-hot), never views into the
// index, so callers may retain and mutate them freely.
func (ix *Index) QueryBatch(ps []geom.Point) ([]float64, [][]int) {
	heats := make([]float64, len(ps))
	rnns := make([][]int, len(ps))
	arena := make([]int, 0, 4096)
	// answer stores point k's heat and copies its set into the arena: set
	// id's members when hit, else rnn.
	answer := func(k int, heat float64, rnn []int, id uint32, hit bool) {
		n := len(rnn)
		if hit {
			n = ix.sets.size(id)
		}
		if n > cap(arena)-len(arena) {
			arena = make([]int, 0, max(4096, n))
		}
		start := len(arena)
		if hit {
			arena = ix.sets.appendSet(arena, id)
		} else {
			arena = append(arena, rnn...)
		}
		heats[k] = heat
		rnns[k] = arena[start:len(arena):len(arena)]
	}
	// exact answers point k on the exact path; matched is its scratch.
	var matched []int
	exacts := 0
	exact := func(k int, p geom.Point, sx float64) {
		matched = ix.matchPoint(matched[:0], p, sx)
		answer(k, ix.heatOf(matched), matched, 0, false)
		exacts++
	}
	keys := make([]batchKey, 0, len(ps))
	for k, p := range ps {
		q := ix.toSweep(p)
		if math.IsNaN(q.X) {
			// A NaN breaks the sort's strict weak order and would corrupt
			// the monotone walk for every other point. No circle contains a
			// NaN coordinate (all comparisons are false), which is also
			// exactly what a standalone Query resolves: the empty face.
			answer(k, ix.emptyHeat, nil, 0, false)
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
			exact(k, ps[k], q.X)
			continue
		}
		if si < 0 {
			answer(k, ix.emptyHeat, nil, 0, false)
			continue
		}
		if id, ok := ix.lookup(si, q); ok {
			answer(k, ix.sets.heats[id], nil, id, true)
		} else {
			exact(k, ps[k], q.X)
		}
	}
	if exacts > 0 {
		ix.lin.exactPoints.Add(int64(exacts))
	}
	return heats, rnns
}

// batchKey carries one batch point through the sort: its sweep-space
// coordinates plus its input position.
type batchKey struct {
	x, y float64
	k    int32
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
// strictly outside every slab (the answer is the empty set).
func (ix *Index) locateSlab(x float64) (i int, direct bool) {
	return ix.slabAt(x, sort.SearchFloat64s(ix.xs, x))
}

// slabAt resolves the slab for x given pos = sort.SearchFloat64s(ix.xs, x)
// (the first slab edge >= x).
func (ix *Index) slabAt(x float64, pos int) (i int, direct bool) {
	ex := ix.eps(x)
	if ix.nearZeroX(x, ex) {
		return 0, false
	}
	if len(ix.xs) == 0 {
		return -1, true
	}
	if pos < len(ix.xs) && ix.xs[pos]-x <= ex {
		return 0, false
	}
	if pos > 0 && x-ix.xs[pos-1] <= ex {
		return 0, false
	}
	if pos == 0 || pos == len(ix.xs) {
		// Strictly outside every slab by more than eps: empty face.
		return -1, true
	}
	return pos - 1, true
}

// nearZeroX reports whether x lies within ex of the sweep-space center of a
// zero-radius circle.
func (ix *Index) nearZeroX(x float64, ex float64) bool {
	if len(ix.zeroXs) == 0 {
		return false
	}
	j := sort.SearchFloat64s(ix.zeroXs, x)
	if j < len(ix.zeroXs) && ix.zeroXs[j]-x <= ex {
		return true
	}
	return j > 0 && x-ix.zeroXs[j-1] <= ex
}

// lookup resolves the gap of slab si containing the sweep-space point q,
// returning its set id, and ok=false when q lies within eps of a gap edge
// (exact path required). For rectilinear slabs the edges are constants; for
// L2 slabs the arc heights are evaluated at q.X — the arc order is
// invariant across the slab, so the binary search remains valid at any
// interior x.
func (ix *Index) lookup(si int, q geom.Point) (uint32, bool) {
	sl := &ix.slabs[si]
	ey := ix.eps(q.Y)
	if ix.metric != geom.L2 {
		if j, ok := gapIn(sl.edges, q.Y, ey); ok {
			return sl.gaps[j], true
		}
		return 0, false
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
		return 0, false
	}
	return sl.gaps[j], true
}

// gapIn is lookup over a slab's edge heights h at the query's x, ascending:
// it returns the gap holding y — the smallest j with h[j] >= y — and
// ok=false when y lies within ey of either edge of that gap, where only the
// exact path can answer.
func gapIn(h []float64, y, ey float64) (j int, ok bool) {
	j = sort.SearchFloat64s(h, y)
	return j, clearOf(h, j, y, ey)
}

// clearOf reports whether y, in gap j of the edge heights h, lies farther
// than ey from both of the gap's edges.
func clearOf(h []float64, j int, y, ey float64) bool {
	below, above := math.NaN(), math.NaN()
	if j > 0 {
		below = h[j-1]
	}
	if j < len(h) {
		above = h[j]
	}
	return !nearEdge(below, above, y, ey)
}

// nearEdge is the gap-edge epsilon decision of every lookup: whether y lies
// within ey of the edge below its gap, at height below, or of the edge above
// it, at height above. A gap without an edge on one side passes NaN there,
// which no comparison finds near.
func nearEdge(below, above, y, ey float64) bool {
	return above-y <= ey || y-below <= ey
}

// arcYAt evaluates an encoded arc's boundary height at sweep-space x.
// Inside a slab's interior |x - cx| < r is guaranteed (the circle's extreme
// is an event bounding the slab); the radicand is clamped defensively
// anyway.
func (ix *Index) arcYAt(a uint32, x float64) float64 {
	c := ix.sweepAll[a>>1].Circle
	dx := x - c.Center.X
	h := math.Sqrt(math.Max(0, c.Radius*c.Radius-dx*dx))
	if a&1 != 0 {
		return c.Center.Y + h
	}
	return c.Center.Y - h
}

// matchPoint appends to dst, in ascending order, the clients of the circles
// that contain the original-space point p, whose sweep-space x is sx: the
// exact path of a point query. Its candidates are the circles active in a
// slab within eps of sx and the zero-radius circles within eps; each passes
// the y-gap reject (contains) or is dropped at the cost of one comparison,
// and only the matches are sorted. A circle active in several of the slabs
// matches in each, so the matches are de-duplicated too (a client has one
// circle).
func (ix *Index) matchPoint(dst []int, p geom.Point, sx float64) []int {
	start := len(dst)
	lo, hi := ix.band(sx)
	for i := ix.firstSlab(lo); i < len(ix.xs) && ix.xs[i] <= hi; i++ {
		for _, ci := range ix.slabs[i].actives {
			if nc := &ix.all[ci]; contains(nc.Circle, p) {
				dst = append(dst, nc.Client)
			}
		}
	}
	for j := sort.SearchFloat64s(ix.zeroXs, lo); j < len(ix.zeroXs) && ix.zeroXs[j] <= hi; j++ {
		if nc := &ix.all[ix.zeroIdx[j]]; contains(nc.Circle, p) {
			dst = append(dst, nc.Client)
		}
	}
	m := dst[start:]
	slices.Sort(m)
	return dst[:start+len(slices.Compact(m))]
}

// band returns the sweep-space x-window [lo, hi] whose slabs and
// zero-radius circles hold the exact path's candidates at x.
func (ix *Index) band(x float64) (lo, hi float64) {
	ex := ix.eps(x)
	return x - ex, x + ex
}

// firstSlab returns the first slab that may reach into a band starting at
// lo: the slab opening before lo spans into it.
func (ix *Index) firstSlab(lo float64) int {
	return max(0, sort.SearchFloat64s(ix.xs, lo)-1)
}

// contains reports whether c contains p, skipping the distance test when
// the center is farther than the radius from p in y. The skip is exact:
// every metric's distance is at least the y-gap (L∞ takes the max, L1 adds
// |Δx|, and L2's math.Hypot scales the larger gap by sqrt(1+q²) ≥ 1, so it
// holds in floating point too), and a NaN fails the comparison and falls
// through to Contains.
func contains(c geom.Circle, p geom.Point) bool {
	return !(math.Abs(c.Center.Y-p.Y) > c.Radius) && c.Contains(p)
}

// heatOf evaluates the measure over an ascending client set, through the
// measure's slice fast path when it has one.
func (ix *Index) heatOf(rnn []int) float64 {
	if sm, ok := ix.measure.(influence.SortedMeasure); ok {
		return sm.InfluenceSorted(rnn)
	}
	return ix.measure.Influence(oset.FromSorted(rnn))
}
