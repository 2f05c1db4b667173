package core

import (
	"math"

	"rnnheatmap/internal/geom"
)

// Slab-cell geometry: the measurement counterpart of the slab emission.
//
// A slab decomposition cuts every face of the arrangement into cells — one
// per (slab, gap) pair — so any per-face quantity that is additive over
// cells (area, bounding box, cell count) can be recovered exactly by
// grouping the cells by their interned label and summing. The optimal-
// location engine (internal/optimal) uses this to attach exact face
// geometry to the argmax region the sweep already labeled: the MaxBRNN
// literature computes only where the best region is, while the labeled
// arrangement plus these helpers also says how big it is and where its mass
// sits.

// CellEdge describes one bounding edge of a slab cell in sweep space: a
// horizontal line for the rectilinear sweeps, or one arc (the lower or upper
// half of a circle's boundary) for L2.
type CellEdge struct {
	// Y is the horizontal side coordinate of a rectilinear edge; an arc edge
	// leaves it zero, and nothing reads it.
	Y float64
	// Arc marks an L2 arc edge; Circle and Upper then identify it, and its
	// geometry is evaluated from them.
	Arc    bool
	Circle geom.Circle
	Upper  bool
}

// integral returns ∫ y(x) dx over [x0, x1] along the edge: the exact signed
// area below it. For a horizontal edge that is y·(x1-x0); for an arc it is
// the closed-form circle-segment integral
//
//	∫ (cy ± sqrt(r² - (x-cx)²)) dx
//	  = cy·(x1-x0) ± [G(x1-cx) - G(x0-cx)],  G(u) = (u·sqrt(r²-u²) + r²·asin(u/r)) / 2
//
// with the offsets clamped to [-r, r] (slab boundaries touch circle extremes
// exactly, so the clamp only absorbs last-ulp rounding).
func (e CellEdge) integral(x0, x1 float64) float64 {
	if !e.Arc {
		return e.Y * (x1 - x0)
	}
	c := e.Circle
	base := c.Center.Y * (x1 - x0)
	seg := arcG(c.Radius, x1-c.Center.X) - arcG(c.Radius, x0-c.Center.X)
	if e.Upper {
		return base + seg
	}
	return base - seg
}

// arcG is the antiderivative of sqrt(r² - u²).
func arcG(r, u float64) float64 {
	u = math.Max(-r, math.Min(r, u))
	return (u*math.Sqrt(math.Max(0, r*r-u*u)) + r*r*math.Asin(u/r)) / 2
}

// SlabCellArea returns the exact area of the slab cell spanning [x0, x1]
// horizontally and bounded below and above by the given edges. For
// rectilinear cells this is a rectangle area; for L2 cells the bounding arcs
// are integrated in closed form. The result is an area in sweep space —
// which equals original-space area for every metric, because the L1→L∞
// change of coordinates is a pure rotation.
func SlabCellArea(x0, x1 float64, bottom, top CellEdge) float64 {
	if x1 <= x0 {
		return 0
	}
	a := top.integral(x0, x1) - bottom.integral(x0, x1)
	if a < 0 {
		return 0
	}
	return a
}

// CellGroup aggregates the cells of one interned label: their total area,
// count and sweep-space bounding box.
type CellGroup struct {
	// ID is the label's id in its interner (Interned.ID).
	ID    uint32
	Area  float64
	Cells int
	// Bounds is the sweep-space bounding box of the group's cells. For L2
	// cells the box of the bounding arcs' extremes is used, which bounds the
	// cell exactly in x and conservatively in y.
	Bounds geom.Rect
}

// CellGrouper accumulates slab cells into per-label groups. Labels are
// compared by id — cells emitted from one slab index draw their labels from
// one id table, where each set has one id, so id identity is set identity.
type CellGrouper struct {
	// at maps id -> 1 + position in groups; 0 before the id's first cell,
	// -1 for an id the grouper does not want.
	at     []int32
	groups []CellGroup
}

// NewCellGrouper returns an empty grouper for labels with ids below n that
// wants the cells of the given ids, or of every id when ids is nil.
func NewCellGrouper(n int, ids []uint32) *CellGrouper {
	g := &CellGrouper{at: make([]int32, n)}
	if ids != nil {
		for i := range g.at {
			g.at[i] = -1
		}
		for _, id := range ids {
			g.at[id] = 0
		}
	}
	return g
}

// Wants reports whether the grouper aggregates the cells of id. A walk asks
// before it builds a cell's edges, so an unwanted cell costs one load.
func (g *CellGrouper) Wants(id uint32) bool { return g.at[id] >= 0 }

// Add accumulates one cell into its label's group, which the grouper must
// want. Zero-width cells (the final zero-width slab) are counted but
// contribute no area.
func (g *CellGrouper) Add(id uint32, x0, x1 float64, bottom, top CellEdge) {
	if g.at[id] == 0 {
		g.groups = append(g.groups, CellGroup{ID: id, Bounds: geom.EmptyRect()})
		g.at[id] = int32(len(g.groups))
	}
	grp := &g.groups[g.at[id]-1]
	grp.Cells++
	grp.Area += SlabCellArea(x0, x1, bottom, top)
	grp.Bounds = grp.Bounds.Union(cellBounds(x0, x1, bottom, top))
}

// cellBounds returns the sweep-space bounding box of a cell: exact for
// rectilinear cells, and for L2 cells computed from the bounding arcs'
// endpoint heights plus the circle extreme when it lies inside the slab.
func cellBounds(x0, x1 float64, bottom, top CellEdge) geom.Rect {
	lo, _ := edgeRangeY(bottom, x0, x1)
	_, hi := edgeRangeY(top, x0, x1)
	return geom.Rect{MinX: x0, MaxX: x1, MinY: lo, MaxY: hi}
}

// edgeRangeY returns the exact [min, max] height an edge attains over
// [x0, x1]. An arc is monotone away from its circle's center x, so the range
// is spanned by the endpoint heights plus the circle extreme when the center
// lies inside the interval.
func edgeRangeY(e CellEdge, x0, x1 float64) (lo, hi float64) {
	if !e.Arc {
		return e.Y, e.Y
	}
	y0 := arcYAt(e.Circle, e.Upper, x0)
	y1 := arcYAt(e.Circle, e.Upper, x1)
	lo, hi = math.Min(y0, y1), math.Max(y0, y1)
	if cx := e.Circle.Center.X; x0 <= cx && cx <= x1 {
		if e.Upper {
			hi = e.Circle.TopY()
		} else {
			lo = e.Circle.BottomY()
		}
	}
	return lo, hi
}

// arcYAt evaluates an arc's boundary height at x, clamping the radicand
// against last-ulp rounding at the circle extremes.
func arcYAt(c geom.Circle, upper bool, x float64) float64 {
	dx := x - c.Center.X
	h := math.Sqrt(math.Max(0, c.Radius*c.Radius-dx*dx))
	if upper {
		return c.Center.Y + h
	}
	return c.Center.Y - h
}

// Groups returns the accumulated per-label groups in the order of their
// first cells.
func (g *CellGrouper) Groups() []CellGroup { return g.groups }
