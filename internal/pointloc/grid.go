package pointloc

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// Raster kernel: HeatGrid fills a pixel grid with exactly the heats per-pixel
// Query returns, doing once per pixel column what Query does once per pixel.
//
// Under L∞ and L2 the sweep space is the original space, so every pixel of a
// column has the same sweep x and therefore, in Query, the same slab
// resolution (including the slab-edge and zero-radius-center epsilon
// decision), the same arc heights inside the slab, and the same exact-path
// candidate circles. The kernel resolves the slab once per column, evaluates
// each of its arcs once at the column's x (arcYAt, the function lookup
// probes), and gathers the exact candidates at most once per column.
//
// A column's pixels then find their gaps by one downward walk over those
// heights (column.walk), since their ys descend: on a non-decreasing h the
// smallest j with h[j] >= y, which the walk stops at, is exactly what
// lookup's binary search returns, whatever heights it probes. Evaluated arc
// heights can descend where two arcs of a slab nearly touch, and there only
// the binary search's own probe order reproduces its gap, so such a column
// — like one whose pixel ys do not descend — runs gapIn, lookup's binary
// search, per pixel. Either way the pixel then takes lookup's gap-edge
// epsilon decision on the same floats. A pixel on the exact path folds the
// same ascending client set through influence.SortedMeasure, whose
// contract pins it bit-identical to Influence(oset.FromSorted(set)).
//
// L1 pixel columns are diagonals in the rotated sweep space, so L1 rasters
// walk each row through the slabs monotonically, one slab resolution and
// one binary search per pixel, as a sorted QueryBatch would.

// HeatGrid fills out (row-major, row 0 at the top, len(out) ==
// width*height) with the heat Query returns at each pixel center of bounds
// (geom.Rect.PixelCenters), bit for bit. Its scratch — the pixel centers and
// the per-column buffers — is pooled, so a warm call allocates nothing.
func (ix *Index) HeatGrid(bounds geom.Rect, width, height int, out []float64) {
	c := columns.Get().(*column)
	defer func() {
		c.ix, c.h = nil, nil // hold no index alive from the pool
		columns.Put(c)
	}()
	c.ix = ix
	c.xs = slices.Grow(c.xs[:0], width)[:width]
	c.ys = slices.Grow(c.ys[:0], height)[:height]
	bounds.PixelCenters(c.xs, c.ys)
	if ix.metric == geom.L1 {
		for py, y := range c.ys {
			row := out[py*width : (py+1)*width]
			// pos tracks sort.SearchFloat64s(ix.xs, q.X) along the row: the
			// pixel centers ascend in x, and so in rotated x.
			pos := 0
			for px, x := range c.xs {
				p := geom.Pt(x, y)
				q := ix.toSweep(p)
				if q.X != q.X {
					// NaN resolves to the empty face, as in Query; it must
					// not move the monotone position.
					row[px] = ix.emptyHeat
					continue
				}
				pos = gallopGE(ix.xs, pos, q.X)
				c.at(q.X, pos)
				row[px] = c.heat(p, q.Y)
			}
		}
		return
	}
	walkable := descends(c.ys)
	for px, x := range c.xs {
		c.at(x, sort.SearchFloat64s(ix.xs, x))
		if walkable && c.direct && c.si >= 0 && nonDecreasing(c.h) {
			c.walk(out[px:], width)
			continue
		}
		for py, y := range c.ys {
			out[py*width+px] = c.heat(geom.Pt(x, y), y)
		}
	}
}

// walk fills the column's pixels, out[0], out[stride], ..., with their
// heats, finding each pixel's gap by one downward walk over c.h. It needs a
// direct, in-slab column whose heights do not decrease and finite pixel ys
// that do not increase: j then stays the smallest index with c.h[j] >= y,
// the gap gapIn's binary search finds.
func (c *column) walk(out []float64, stride int) {
	ix, h := c.ix, c.h
	heats, gaps := ix.sets.heats, ix.slabs[c.si].gaps
	j := len(h)
	for py, y := range c.ys {
		for j > 0 && h[j-1] >= y {
			j--
		}
		if clearOf(h, j, y, ix.eps(y)) {
			out[py*stride] = heats[gaps[j]]
		} else {
			out[py*stride] = c.exactHeat(geom.Pt(c.x, y))
		}
	}
}

// nonDecreasing reports whether h[k] >= h[k-1] for every k; a NaN fails.
func nonDecreasing(h []float64) bool {
	for k := 1; k < len(h); k++ {
		if !(h[k] >= h[k-1]) {
			return false
		}
	}
	return true
}

// descends reports whether every y is finite and ys[k] <= ys[k-1] for every
// k; a NaN fails.
func descends(ys []float64) bool {
	prev := math.MaxFloat64
	for _, y := range ys {
		if !(y <= prev && y >= -math.MaxFloat64) {
			return false
		}
		prev = y
	}
	return true
}

// columns pools the raster kernel's scratch across HeatGrid calls.
var columns = sync.Pool{New: func() any { return new(column) }}

// heatOf evaluates the measure over an ascending client set, through the
// measure's slice fast path when it has one.
func (ix *Index) heatOf(rnn []int) float64 {
	if sm, ok := ix.measure.(influence.SortedMeasure); ok {
		return sm.InfluenceSorted(rnn)
	}
	return ix.measure.Influence(oset.FromSorted(rnn))
}

// exact answers a query on the slow path: collect every circle that could
// contain p (the actives of the slabs within eps of sweep x, plus nearby
// zero-radius circles), test closed containment against the original-space
// geometry — exactly the enclosure index's test — and evaluate the measure
// over the matches in ascending client order, the canonical evaluation order
// of the enclosure path. sx is p's sweep-space x-coordinate.
func (ix *Index) exact(p geom.Point, sx float64) (float64, []int) {
	c := column{ix: ix, x: sx}
	matched := c.match([]int{}, p)
	return ix.heatOf(matched), matched
}

// column holds everything a pixel's resolution reads that depends only on
// its sweep-space x: the slab decision, the slab's edge heights at x and the
// exact-path candidates. HeatGrid reuses one column, buffers included, for
// the whole raster (xs and ys are its pixel centers).
type column struct {
	ix     *Index
	xs, ys []float64

	x      float64
	si     int // the slab; -1 with direct for the empty face
	direct bool
	// h holds the slab's edge heights at x: its edges for the rectilinear
	// sweeps, its arc heights (in buf) for L2.
	h   []float64
	buf []float64

	// cands holds the exact-path candidate circles for x in ascending
	// client order, gathered on first use (gathered); ids is their scratch.
	cands    []nncircle.NNCircle
	ids      []int32
	gathered bool
	matched  []int
}

// at moves the column to sweep-space x, given pos = sort.SearchFloat64s of x
// over the slab edges.
func (c *column) at(x float64, pos int) {
	c.x = x
	c.si, c.direct = c.ix.slabAt(x, pos)
	c.gathered = false
	if !c.direct || c.si < 0 {
		return
	}
	sl := &c.ix.slabs[c.si]
	c.h = sl.edges
	if c.ix.metric == geom.L2 {
		c.buf = slices.Grow(c.buf[:0], len(sl.arcs))[:len(sl.arcs)]
		for k, a := range sl.arcs {
			c.buf[k] = c.ix.arcYAt(a, x)
		}
		c.h = c.buf
	}
}

// heat resolves the pixel at original-space p whose sweep-space y is y.
func (c *column) heat(p geom.Point, y float64) float64 {
	if !c.direct {
		return c.exactHeat(p)
	}
	if c.si < 0 {
		return c.ix.emptyHeat
	}
	if j, ok := gapIn(c.h, y, c.ix.eps(y)); ok {
		return c.ix.sets.heats[c.ix.slabs[c.si].gaps[j]]
	}
	return c.exactHeat(p)
}

func (c *column) exactHeat(p geom.Point) float64 {
	c.matched = c.match(c.matched[:0], p)
	return c.ix.heatOf(c.matched)
}

// match appends to dst, in ascending order, the clients of the candidate
// circles that contain p.
//
// A candidate whose center is farther than its radius from p in y is
// skipped before the distance test. The skip is exact: every metric's
// distance is at least the y-gap (L∞ takes the max, L1 adds |Δx|, and
// L2's math.Hypot scales the larger gap by sqrt(1+q²) ≥ 1, so it holds in
// floating point too), and a NaN fails the comparison and falls through to
// Contains.
func (c *column) match(dst []int, p geom.Point) []int {
	if !c.gathered {
		c.gather()
	}
	for _, nc := range c.cands {
		if math.Abs(nc.Circle.Center.Y-p.Y) > nc.Circle.Radius {
			continue
		}
		if nc.Circle.Contains(p) {
			dst = append(dst, nc.Client)
		}
	}
	return dst
}

// gather collects the exact-path candidates for the column's x: the actives
// of every slab within eps of x, de-duplicated, plus the zero-radius circles
// within eps, ordered by client so matches come out ascending.
func (c *column) gather() {
	ix := c.ix
	ex := ix.eps(c.x)
	lo, hi := c.x-ex, c.x+ex
	ids := c.ids[:0]
	i := sort.SearchFloat64s(ix.xs, lo)
	if i > 0 {
		i-- // the slab opening before lo may span into the window
	}
	for ; i < len(ix.xs) && ix.xs[i] <= hi; i++ {
		ids = append(ids, ix.slabs[i].actives...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for j := sort.SearchFloat64s(ix.zeroXs, lo); j < len(ix.zeroXs) && ix.zeroXs[j] <= hi; j++ {
		ids = append(ids, ix.zeroIdx[j])
	}
	cands := c.cands[:0]
	for _, ci := range ids {
		cands = append(cands, ix.all[ci])
	}
	slices.SortFunc(cands, func(p, q nncircle.NNCircle) int { return cmp.Compare(p.Client, q.Client) })
	c.ids, c.cands, c.gathered = ids, cands, true
}
