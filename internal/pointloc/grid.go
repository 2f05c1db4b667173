package pointloc

import (
	"cmp"
	"math"
	"slices"
	"sort"

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
// probes), and gathers the exact candidates at most once per column. Each
// pixel then runs gapIn, lookup's binary search and gap-edge epsilon
// decision, over those same floats, so it probes the same heights and
// finds the same gap. A pixel on the exact path folds the same ascending
// client set through influence.SortedMeasure, whose contract pins it
// bit-identical to Influence(oset.FromSorted(set)).
//
// L1 pixel columns are diagonals in the rotated sweep space, so L1 rasters
// walk each row through the slabs monotonically, one slab resolution and
// one binary search per pixel, as a sorted QueryBatch would.

// slabTable is what each locator representation supplies to the code written
// once for both — the raster kernel and the exact path: the shared axis and
// per-slab reads of edges, arc heights, gap heats, active circles and
// circles by position. Slab si, edge k and gap j index the same things in
// both representations.
type slabTable interface {
	base() *axis
	// edges returns slab si's edge keys: the edge y-coordinates for the
	// rectilinear sweeps, the build-time ordering keys of its arcs for L2.
	edges(si int) []float64
	// arcHeights sets dst[k] to the height of arc k of L2 slab si at
	// sweep-space x, for every arc of the slab.
	arcHeights(si int, x float64, dst []float64)
	// gapHeat returns the heat of gap j of slab si.
	gapHeat(si, j int) float64
	// actives returns the circle positions whose x-extent covers slab si.
	actives(si int) []int32
	// circle returns the original-space circle at position ci.
	circle(ci int32) nncircle.NNCircle
	// zeroCircle returns the original-space circle behind zeroXs[j].
	zeroCircle(j int) nncircle.NNCircle
}

func (a *axis) base() *axis { return a }

// heatOf evaluates the measure over an ascending client set, through the
// measure's slice fast path when it has one.
func (a *axis) heatOf(rnn []int) float64 {
	if sm, ok := a.measure.(influence.SortedMeasure); ok {
		return sm.InfluenceSorted(rnn)
	}
	return a.measure.Influence(oset.FromSorted(rnn))
}

// exact answers a query on the slow path: collect every circle that could
// contain p (the actives of the slabs within eps of sweep x, plus nearby
// zero-radius circles), test closed containment against the original-space
// geometry — exactly the enclosure index's test — and evaluate the measure
// over the matches in ascending client order, the canonical evaluation order
// of the enclosure path. sx is p's sweep-space x-coordinate.
func exact(t slabTable, p geom.Point, sx float64) (float64, []int) {
	c := column{t: t, a: t.base(), x: sx}
	matched := c.match([]int{}, p)
	return c.a.heatOf(matched), matched
}

// heatGrid is the HeatGrid body of both locators.
func heatGrid(t slabTable, bounds geom.Rect, width, height int, out []float64) {
	a := t.base()
	xs, ys := bounds.PixelCenters(width, height)
	c := column{t: t, a: a}
	if a.metric == geom.L1 {
		for py, y := range ys {
			row := out[py*width : (py+1)*width]
			// pos tracks sort.SearchFloat64s(a.xs, q.X) along the row: the
			// pixel centers ascend in x, and so in rotated x.
			pos := 0
			for px, x := range xs {
				p := geom.Pt(x, y)
				q := a.toSweep(p)
				if q.X != q.X {
					// NaN resolves to the empty face, as in Query; it must
					// not move the monotone position.
					row[px] = a.empty.Heat
					continue
				}
				pos = gallopGE(a.xs, pos, q.X)
				c.at(q.X, pos)
				row[px] = c.heat(p, q.Y)
			}
		}
		return
	}
	for px, x := range xs {
		c.at(x, sort.SearchFloat64s(a.xs, x))
		for py, y := range ys {
			out[py*width+px] = c.heat(geom.Pt(x, y), y)
		}
	}
}

// column holds everything a pixel's resolution reads that depends only on
// its sweep-space x: the slab decision, the slab's edge heights at x and the
// exact-path candidates.
type column struct {
	t slabTable
	a *axis

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
	c.si, c.direct = c.a.slabAt(x, pos)
	c.gathered = false
	if !c.direct || c.si < 0 {
		return
	}
	c.h = c.t.edges(c.si)
	if c.a.metric == geom.L2 {
		if cap(c.buf) < len(c.h) {
			c.buf = make([]float64, len(c.h))
		}
		c.buf = c.buf[:len(c.h)]
		c.t.arcHeights(c.si, x, c.buf)
		c.h = c.buf
	}
}

// heat resolves the pixel at original-space p whose sweep-space y is y.
func (c *column) heat(p geom.Point, y float64) float64 {
	if !c.direct {
		return c.exactHeat(p)
	}
	if c.si < 0 {
		return c.a.empty.Heat
	}
	if j, ok := gapIn(c.h, y, c.a.eps(y)); ok {
		return c.t.gapHeat(c.si, j)
	}
	return c.exactHeat(p)
}

func (c *column) exactHeat(p geom.Point) float64 {
	c.matched = c.match(c.matched[:0], p)
	return c.a.heatOf(c.matched)
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
	a := c.a
	ex := a.eps(c.x)
	lo, hi := c.x-ex, c.x+ex
	ids := c.ids[:0]
	i := sort.SearchFloat64s(a.xs, lo)
	if i > 0 {
		i-- // the slab opening before lo may span into the window
	}
	for ; i < len(a.xs) && a.xs[i] <= hi; i++ {
		ids = append(ids, c.t.actives(i)...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	cands := c.cands[:0]
	for _, ci := range ids {
		cands = append(cands, c.t.circle(ci))
	}
	for j := sort.SearchFloat64s(a.zeroXs, lo); j < len(a.zeroXs) && a.zeroXs[j] <= hi; j++ {
		cands = append(cands, c.t.zeroCircle(j))
	}
	slices.SortFunc(cands, func(p, q nncircle.NNCircle) int { return cmp.Compare(p.Client, q.Client) })
	c.ids, c.cands, c.gathered = ids, cands, true
}
