package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle. A Rect with MinX > MaxX or MinY > MaxY
// is empty; a Rect with equal bounds on one axis is degenerate (a segment or
// a point) but still usable.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// RectFromCenter returns the axis-aligned square centered at c with the given
// half-width (radius under the L-infinity metric).
func RectFromCenter(c Point, half float64) Rect {
	return Rect{MinX: c.X - half, MinY: c.Y - half, MaxX: c.X + half, MaxY: c.Y + half}
}

// EmptyRect returns a rectangle that contains nothing and acts as the
// identity for Union.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the horizontal extent of r (zero for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the vertical extent of r (zero for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r (zero for empty rectangles).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// PixelCenters sets xs and ys to the center coordinates of a len(xs) x
// len(ys) pixel grid over r: xs[px] ascending from MinX, ys[py] descending
// from MaxY (row 0 is the top). Every rasterizer samples these points, so
// rasters of one grid agree pixel for pixel whichever index resolves them;
// the caller owns the buffers, so a rasterizer can reuse them.
func (r Rect) PixelCenters(xs, ys []float64) {
	dx := r.Width() / float64(len(xs))
	dy := r.Height() / float64(len(ys))
	for px := range xs {
		xs[px] = r.MinX + (float64(px)+0.5)*dx
	}
	for py := range ys {
		ys[py] = r.MaxY - (float64(py)+0.5)*dy
	}
}

// Perimeter returns the perimeter of r (zero for empty rectangles).
func (r Rect) Perimeter() float64 { return 2 * (r.Width() + r.Height()) }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsStrict reports whether p lies strictly inside r (not on the
// boundary). Region-coloring subregions are open rectangles, so interior
// membership is the relevant test for representative points.
func (r Rect) ContainsStrict(p Point) bool {
	return p.X > r.MinX && p.X < r.MaxX && p.Y > r.MinY && p.Y < r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point (boundaries
// included).
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the intersection of r and s, which may be empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	return out
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// UnionPoint returns the smallest rectangle containing r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return r.Union(Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
}

// Expand returns r grown by d on every side. A negative d shrinks r and may
// produce an empty rectangle.
func (r Rect) Expand(d float64) Rect {
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// Enlargement returns how much r's area would grow if it were extended to
// also cover s. It is the R-tree insertion heuristic.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Corners returns the four corner points of r in counter-clockwise order
// starting from the lower-left corner.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}
