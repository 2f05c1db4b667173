package pointloc

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"rnnheatmap/internal/geom"
)

// Raster kernel: HeatGrid fills a pixel grid with exactly the heats per-pixel
// Query returns, doing once per pixel column what Query does once per pixel.
//
// Under L∞ and L2 the sweep space is the original space, so every pixel of a
// column has the same sweep x and therefore, in Query, the same slab
// resolution (including the slab-edge and zero-radius-center epsilon
// decision), the same arc heights inside the slab, and the same exact-path
// candidate circles. The kernel resolves the slab once per column and
// evaluates each of its arcs once at the column's x (arcYAt, the function
// lookup probes).
//
// A column's pixels then find their gaps by one downward walk over those
// heights (column.walk), since their ys descend: on a non-decreasing h the
// smallest j with h[j] >= y, which the walk stops at, is exactly what
// lookup's binary search returns, whatever heights it probes. Evaluated arc
// heights can descend where two arcs of a slab nearly touch, and there only
// the binary search's own probe order reproduces its gap, so such a column
// — like one whose pixel ys do not descend — runs gapIn, lookup's binary
// search, per pixel. Either way the pixel then takes lookup's gap-edge
// epsilon decision on the same floats, and a pixel within the band of a gap
// edge runs Query's exact path (matchPoint).
//
// A column within the band of a slab boundary or zero-radius center answers
// every pixel on the exact path, and there the kernel gathers the
// candidates once for the whole column (column.bucket): each candidate
// passes the y-gap reject on one contiguous run of pixels, found by binary
// search, and is filed under just those pixels, so a pixel tests Contains
// on its own few candidates, in client order. Every exact pixel folds the
// same ascending client set through influence.SortedMeasure, whose
// contract pins it bit-identical to Influence(oset.FromSorted(set)).
//
// L1 pixel columns are diagonals in the rotated sweep space, so L1 rasters
// walk each row through the slabs monotonically, one slab resolution and
// one binary search per pixel, as a sorted QueryBatch would.

// HeatGrid fills out (row-major, row 0 at the top, len(out) ==
// width*height) with the heat Query returns at each pixel center of bounds
// (geom.Rect.PixelCenters), bit for bit. Its scratch — the pixel centers and
// the per-column buffers — is pooled, so a warm call allocates nothing. The
// columns with a pixel on the exact path count into ExactCounts, once per
// call.
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
	exactColumns := 0
	if ix.metric == geom.L1 {
		// marked[px] records that column px has an exact pixel.
		marked := slices.Grow(c.marked[:0], width)[:width]
		clear(marked)
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
				exacts := c.exacts
				row[px] = c.heat(p, q.Y)
				if c.exacts > exacts && !marked[px] {
					marked[px] = true
					exactColumns++
				}
			}
		}
		c.marked = marked
	} else {
		walkable := descends(c.ys)
		for px, x := range c.xs {
			c.at(x, sort.SearchFloat64s(ix.xs, x))
			exacts := c.exacts
			switch {
			case walkable && !c.direct:
				c.exactColumn(out[px:], width)
			case walkable && c.si >= 0 && nonDecreasing(c.h):
				c.walk(out[px:], width)
			default:
				for py, y := range c.ys {
					out[py*width+px] = c.heat(geom.Pt(x, y), y)
				}
			}
			if !c.direct || c.exacts > exacts {
				exactColumns++
			}
		}
	}
	if exactColumns > 0 {
		ix.lin.exactColumns.Add(int64(exactColumns))
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

// column holds everything a pixel's resolution reads that depends only on
// its sweep-space x: the slab decision, the slab's edge heights at x and,
// on an exact column, the candidates bucketed per pixel. HeatGrid reuses
// one column, buffers included, for the whole raster (xs and ys are its
// pixel centers).
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

	// matched holds a pixel's matches; exacts counts the pixels resolved
	// by the point routine, and marked the L1 columns holding one.
	matched []int
	exacts  int
	marked  []bool

	// An exact column's scratch (bucket): ids holds its candidates'
	// positions, cands the candidates in client order, and bucket py's
	// candidates are entries[off[py]:off[py+1]].
	ids     []int32
	cands   []candidate
	off     []int32
	entries []int32
}

// candidate is an exact column's candidate circle and the pixels [lo, hi)
// that pass its y-gap reject.
type candidate struct {
	circle geom.Circle
	client int
	lo, hi int32
}

// at moves the column to sweep-space x, given pos = sort.SearchFloat64s of x
// over the slab edges.
func (c *column) at(x float64, pos int) {
	c.x = x
	c.si, c.direct = c.ix.slabAt(x, pos)
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
	if c.direct {
		if c.si < 0 {
			return c.ix.emptyHeat
		}
		if j, ok := gapIn(c.h, y, c.ix.eps(y)); ok {
			return c.ix.sets.heats[c.ix.slabs[c.si].gaps[j]]
		}
	}
	return c.exactHeat(p)
}

// exactHeat resolves the pixel at original-space p as Query's exact path
// does.
func (c *column) exactHeat(p geom.Point) float64 {
	c.exacts++
	c.matched = c.ix.matchPoint(c.matched[:0], p, c.x)
	return c.ix.heatOf(c.matched)
}

// exactColumn fills the pixels of a column within the band of a slab
// boundary or zero-radius center, out[0], out[stride], ..., whose ys are
// finite and do not increase: it buckets the column's candidates once and
// resolves each pixel on its own bucket.
func (c *column) exactColumn(out []float64, stride int) {
	c.bucket()
	for py := range c.ys {
		c.matched = c.matchPixel(c.matched[:0], py)
		out[py*stride] = c.ix.heatOf(c.matched)
	}
}

// bucket gathers the column's candidates once — the actives of every slab
// within eps of x, de-duplicated, plus the zero-radius circles within eps:
// matchPoint's candidates — keeps those that pass the y-gap reject at some
// pixel, in client order, and files each under the run of pixels it passes
// at (passing), so every bucket lists its candidates in client order.
func (c *column) bucket() {
	ix, ys := c.ix, c.ys
	lo, hi := ix.band(c.x)
	ids := c.ids[:0]
	for i := ix.firstSlab(lo); i < len(ix.xs) && ix.xs[i] <= hi; i++ {
		ids = append(ids, ix.slabs[i].actives...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for j := sort.SearchFloat64s(ix.zeroXs, lo); j < len(ix.zeroXs) && ix.zeroXs[j] <= hi; j++ {
		ids = append(ids, ix.zeroIdx[j])
	}
	cands := c.cands[:0]
	for _, ci := range ids {
		nc := &ix.all[ci]
		if first, end := passing(nc.Circle, ys); first < end {
			cands = append(cands, candidate{circle: nc.Circle, client: nc.Client, lo: first, hi: end})
		}
	}
	slices.SortFunc(cands, func(a, b candidate) int { return cmp.Compare(a.client, b.client) })
	// off first counts the runs starting minus those ending at each pixel,
	// then holds each bucket's end; filling the candidates last to first
	// moves every end down to its bucket's start, and off[n] stays the
	// total.
	n := len(ys)
	off := slices.Grow(c.off[:0], n+1)[:n+1]
	clear(off)
	for _, cd := range cands {
		off[cd.lo]++
		off[cd.hi]--
	}
	var covering, total int32
	for py := range n {
		covering += off[py]
		total += covering
		off[py] = total
	}
	off[n] = total
	entries := slices.Grow(c.entries[:0], int(total))[:total]
	for k := len(cands) - 1; k >= 0; k-- {
		for py := cands[k].lo; py < cands[k].hi; py++ {
			off[py]--
			entries[off[py]] = int32(k)
		}
	}
	c.ids, c.cands, c.off, c.entries = ids, cands, off, entries
}

// passing returns the pixels [lo, hi), of a column whose ys are finite and
// do not increase, that pass circle c's y-gap reject (contains): the
// pixels where neither cy-y > r nor cy-y < -r, which is !(|cy-y| > r).
// cy-y does not decrease down the column, in floating point too (rounding
// is monotone), so the pixels with cy-y < -r form a prefix and those with
// cy-y > r a suffix; two binary searches on those same expressions find
// the run between. A NaN center or radius fails both comparisons and spans
// the whole column.
func passing(c geom.Circle, ys []float64) (lo, hi int32) {
	cy, r := c.Center.Y, c.Radius
	first := sort.Search(len(ys), func(i int) bool { return !(cy-ys[i] < -r) })
	end := first + sort.Search(len(ys)-first, func(i int) bool { return cy-ys[first+i] > r })
	return int32(first), int32(end)
}

// matchPixel appends to dst, in ascending order, the clients of pixel py's
// bucketed candidates that contain its center.
func (c *column) matchPixel(dst []int, py int) []int {
	p := geom.Pt(c.x, c.ys[py])
	for _, k := range c.entries[c.off[py]:c.off[py+1]] {
		if cd := &c.cands[k]; cd.circle.Contains(p) {
			dst = append(dst, cd.client)
		}
	}
	return dst
}
