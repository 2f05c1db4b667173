package core

import (
	"math"
	"testing"

	"rnnheatmap/internal/geom"
)

func horiz(y float64) CellEdge { return CellEdge{Y: y} }

func arc(c geom.Circle, upper bool) CellEdge {
	return CellEdge{Arc: true, Circle: c, Upper: upper}
}

func TestSlabCellAreaRectilinear(t *testing.T) {
	if a := SlabCellArea(1, 4, horiz(2), horiz(7)); math.Abs(a-15) > 1e-12 {
		t.Errorf("3x5 rectangle area = %g", a)
	}
	if a := SlabCellArea(4, 4, horiz(0), horiz(1)); a != 0 {
		t.Errorf("zero-width cell area = %g", a)
	}
	if a := SlabCellArea(5, 4, horiz(0), horiz(1)); a != 0 {
		t.Errorf("inverted x-span area = %g, want 0", a)
	}
	// An inverted edge pair (top below bottom) clamps to zero rather than
	// going negative — group sums must be monotone in the cells added.
	if a := SlabCellArea(0, 1, horiz(3), horiz(1)); a != 0 {
		t.Errorf("inverted edges area = %g, want 0", a)
	}
}

func TestSlabCellAreaArcs(t *testing.T) {
	c := geom.Circle{Center: geom.Pt(2, 5), Radius: 3}
	// Lower and upper halves of one circle over its full x-extent: the disc.
	full := SlabCellArea(c.Center.X-c.Radius, c.Center.X+c.Radius, arc(c, false), arc(c, true))
	if want := math.Pi * c.Radius * c.Radius; math.Abs(full-want) > 1e-9 {
		t.Errorf("disc area = %g, want %g", full, want)
	}
	// Split at the center: each half-slab holds half the disc, exactly.
	left := SlabCellArea(c.Center.X-c.Radius, c.Center.X, arc(c, false), arc(c, true))
	right := SlabCellArea(c.Center.X, c.Center.X+c.Radius, arc(c, false), arc(c, true))
	if math.Abs(left-full/2) > 1e-9 || math.Abs(right-full/2) > 1e-9 {
		t.Errorf("half-slab areas = %g, %g, want %g each", left, right, full/2)
	}
	// Region between a chord and the upper arc: half disc above the
	// center-height chord.
	upper := SlabCellArea(c.Center.X-c.Radius, c.Center.X+c.Radius, horiz(c.Center.Y), arc(c, true))
	if math.Abs(upper-full/2) > 1e-9 {
		t.Errorf("upper half area = %g, want %g", upper, full/2)
	}
}

func TestArcGClampsBeyondRadius(t *testing.T) {
	// Offsets past ±r (last-ulp slab rounding) clamp to the extreme value.
	if g, want := arcG(1, 5), math.Pi/4; math.Abs(g-want) > 1e-12 {
		t.Errorf("arcG(1, 5) = %g, want %g", g, want)
	}
	if g, want := arcG(1, -5), -math.Pi/4; math.Abs(g-want) > 1e-12 {
		t.Errorf("arcG(1, -5) = %g, want %g", g, want)
	}
}

func TestEdgeRangeY(t *testing.T) {
	if lo, hi := edgeRangeY(horiz(4), 0, 1); lo != 4 || hi != 4 {
		t.Errorf("horizontal range = [%g, %g]", lo, hi)
	}
	c := geom.Circle{Center: geom.Pt(0, 0), Radius: 2}
	// Center inside the interval: the upper arc attains the circle top, the
	// lower arc the circle bottom — endpoint heights alone would miss both.
	if lo, hi := edgeRangeY(arc(c, true), -2, 2); lo != 0 || hi != 2 {
		t.Errorf("upper arc over extreme = [%g, %g], want [0, 2]", lo, hi)
	}
	if lo, hi := edgeRangeY(arc(c, false), -2, 2); lo != -2 || hi != 0 {
		t.Errorf("lower arc over extreme = [%g, %g], want [-2, 0]", lo, hi)
	}
	// Center outside the interval: monotone, so endpoint heights span it.
	y1 := arcYAt(c, true, 1)
	if lo, hi := edgeRangeY(arc(c, true), 1, 2); math.Abs(lo-0) > 1e-12 || math.Abs(hi-y1) > 1e-12 {
		t.Errorf("monotone arc range = [%g, %g], want [0, %g]", lo, hi, y1)
	}
}

func TestCellGrouper(t *testing.T) {
	const la, lb = 3, 1
	g := NewCellGrouper(4, nil)
	g.Add(la, 0, 2, horiz(0), horiz(1)) // area 2
	g.Add(la, 2, 5, horiz(0), horiz(2)) // area 6
	g.Add(la, 5, 5, horiz(0), horiz(9)) // zero-width: counted, no area
	g.Add(lb, 10, 11, horiz(10), horiz(12))

	groups := g.Groups()
	if len(groups) != 2 || groups[0].ID != la || groups[1].ID != lb {
		t.Fatalf("got groups %+v, want ids %d then %d", groups, la, lb)
	}
	byLabel := map[uint32]*CellGroup{}
	for i := range groups {
		byLabel[groups[i].ID] = &groups[i]
	}
	a := byLabel[la]
	if a == nil || a.Cells != 3 || math.Abs(a.Area-8) > 1e-12 {
		t.Fatalf("group a = %+v, want 3 cells, area 8", a)
	}
	want := geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 9}
	if a.Bounds != want {
		t.Errorf("group a bounds = %+v, want %+v", a.Bounds, want)
	}
	b := byLabel[lb]
	if b == nil || b.Cells != 1 || math.Abs(b.Area-2) > 1e-12 {
		t.Fatalf("group b = %+v, want 1 cell, area 2", b)
	}

	// A filtered grouper wants only its ids.
	f := NewCellGrouper(4, []uint32{lb})
	if f.Wants(la) || !f.Wants(lb) {
		t.Fatalf("filter on id %d: Wants(%d)=%v Wants(%d)=%v", lb, la, f.Wants(la), lb, f.Wants(lb))
	}
	f.Add(lb, 10, 11, horiz(10), horiz(12))
	if groups := f.Groups(); len(groups) != 1 || groups[0] != *b {
		t.Fatalf("filtered groups %+v, want only %+v", groups, *b)
	}
}
