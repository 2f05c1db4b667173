package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -4)
	if got := p.Add(q); !got.Equal(Pt(4, -2)) {
		t.Errorf("Add = %v, want (4, -2)", got)
	}
	if got := p.Sub(q); !got.Equal(Pt(-2, 6)) {
		t.Errorf("Sub = %v, want (-2, 6)", got)
	}
	if got := p.Scale(2); !got.Equal(Pt(2, 4)) {
		t.Errorf("Scale = %v, want (2, 4)", got)
	}
	if got := p.Midpoint(q); !got.Equal(Pt(2, -1)) {
		t.Errorf("Midpoint = %v, want (2, -1)", got)
	}
	if !p.AlmostEqual(Pt(1+1e-12, 2-1e-12), 1e-9) {
		t.Errorf("AlmostEqual should tolerate 1e-12 perturbation")
	}
	if p.AlmostEqual(q, 1e-9) {
		t.Errorf("AlmostEqual should reject distant points")
	}
	if !p.IsFinite() {
		t.Errorf("(1,2) should be finite")
	}
	if Pt(math.NaN(), 0).IsFinite() || Pt(0, math.Inf(1)).IsFinite() {
		t.Errorf("NaN/Inf points should not be finite")
	}
	if s := p.String(); s != "(1, 2)" {
		t.Errorf("String = %q, want (1, 2)", s)
	}
}

func TestPointRotate(t *testing.T) {
	p := Pt(1, 0)
	got := p.Rotate(math.Pi / 2)
	if !got.AlmostEqual(Pt(0, 1), 1e-12) {
		t.Errorf("Rotate(π/2) = %v, want (0, 1)", got)
	}
	// Rotation preserves L2 norm.
	for i := 0; i < 100; i++ {
		q := Pt(rand.Float64()*10-5, rand.Float64()*10-5)
		theta := rand.Float64() * 2 * math.Pi
		r := q.Rotate(theta)
		if math.Abs(Distance(Pt(0, 0), q)-Distance(Pt(0, 0), r)) > 1e-9 {
			t.Fatalf("rotation changed norm: %v -> %v", q, r)
		}
	}
}

func TestMetricString(t *testing.T) {
	cases := map[Metric]string{LInf: "Linf", L1: "L1", L2: "L2", Metric(9): "Metric(9)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Metric(%d).String() = %q, want %q", int(m), got, want)
		}
	}
	if !LInf.Valid() || !L1.Valid() || !L2.Valid() {
		t.Errorf("standard metrics should be valid")
	}
	if Metric(9).Valid() {
		t.Errorf("Metric(9) should not be valid")
	}
}

func TestMetricDistance(t *testing.T) {
	p := Pt(0, 0)
	q := Pt(3, 4)
	if got := L2.Distance(p, q); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2 = %g, want 5", got)
	}
	if got := L1.Distance(p, q); got != 7 {
		t.Errorf("L1 = %g, want 7", got)
	}
	if got := LInf.Distance(p, q); got != 4 {
		t.Errorf("Linf = %g, want 4", got)
	}
	if got := DistanceSquared(p, q); got != 25 {
		t.Errorf("DistanceSquared = %g, want 25", got)
	}
}

func TestMetricDistanceProperties(t *testing.T) {
	// Symmetry, identity and the metric ordering Linf ≤ L2 ≤ L1.
	f := func(ax, ay, bx, by float64) bool {
		p := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		q := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		for _, m := range []Metric{LInf, L1, L2} {
			if m.Distance(p, q) != m.Distance(q, p) {
				return false
			}
			if m.Distance(p, p) != 0 {
				return false
			}
			if m.Distance(p, q) < 0 {
				return false
			}
		}
		dinf, d1, d2 := LInf.Distance(p, q), L1.Distance(p, q), L2.Distance(p, q)
		return dinf <= d2+1e-9 && d2 <= d1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMetricTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		c := Pt(rng.Float64()*100, rng.Float64()*100)
		for _, m := range []Metric{LInf, L1, L2} {
			if m.Distance(a, c) > m.Distance(a, b)+m.Distance(b, c)+1e-9 {
				t.Fatalf("%s violates triangle inequality at %v %v %v", m, a, b, c)
			}
		}
	}
}

func TestMinDistToRect(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	inside := Pt(1, 1)
	for _, m := range []Metric{LInf, L1, L2} {
		if d := m.MinDistToRect(inside, r); d != 0 {
			t.Errorf("%s: MinDistToRect(inside) = %g, want 0", m, d)
		}
	}
	p := Pt(5, 2)
	if d := L2.MinDistToRect(p, r); d != 3 {
		t.Errorf("L2 MinDist = %g, want 3", d)
	}
	q := Pt(5, 6)
	if d := L1.MinDistToRect(q, r); d != 7 {
		t.Errorf("L1 MinDist = %g, want 7", d)
	}
	if d := LInf.MinDistToRect(q, r); d != 4 {
		t.Errorf("Linf MinDist = %g, want 4", d)
	}
}

// MinDistToRect must lower-bound the distance to every point inside the rect.
func TestMinDistToRectLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		r := NewRect(Pt(rng.Float64()*10, rng.Float64()*10), Pt(rng.Float64()*10, rng.Float64()*10))
		p := Pt(rng.Float64()*20-5, rng.Float64()*20-5)
		// Sample points inside r.
		for j := 0; j < 10; j++ {
			q := Pt(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
			for _, m := range []Metric{LInf, L1, L2} {
				if m.MinDistToRect(p, r) > m.Distance(p, q)+1e-9 {
					t.Fatalf("%s: MinDistToRect(%v, %v)=%g exceeds dist to interior point %v (%g)",
						m, p, r, m.MinDistToRect(p, r), q, m.Distance(p, q))
				}
			}
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(3, 4), Pt(1, 2))
	if r.MinX != 1 || r.MinY != 2 || r.MaxX != 3 || r.MaxY != 4 {
		t.Fatalf("NewRect normalized incorrectly: %v", r)
	}
	if r.Width() != 2 || r.Height() != 2 || r.Area() != 4 || r.Perimeter() != 8 {
		t.Errorf("dimensions wrong: w=%g h=%g a=%g p=%g", r.Width(), r.Height(), r.Area(), r.Perimeter())
	}
	if !r.Center().Equal(Pt(2, 3)) {
		t.Errorf("Center = %v, want (2,3)", r.Center())
	}
	if r.IsEmpty() {
		t.Errorf("non-empty rect reported empty")
	}
	if !EmptyRect().IsEmpty() {
		t.Errorf("EmptyRect not empty")
	}
	if EmptyRect().Area() != 0 || EmptyRect().Width() != 0 {
		t.Errorf("empty rect should have zero area and width")
	}
	if s := r.String(); s != "[1,3]x[2,4]" {
		t.Errorf("String = %q", s)
	}
}

// TestRectPixelCenters pins the one pixel grid both render paths sample:
// xs ascend from MinX + dx/2, ys descend from MaxY - dy/2 so row 0 is the
// top, and a 1x1 grid samples the rectangle's center.
func TestRectPixelCenters(t *testing.T) {
	cases := []struct {
		name          string
		r             Rect
		width, height int
		xs, ys        []float64
	}{
		{"1x1 unit", Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 1, 1, []float64{0.5}, []float64{0.5}},
		{"1x1 offset", Rect{MinX: -3, MinY: 2, MaxX: 5, MaxY: 6}, 1, 1, []float64{1}, []float64{4}},
		{"4x2", Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 4}, 4, 2, []float64{1, 3, 5, 7}, []float64{3, 1}},
		{"2x3 offset", Rect{MinX: -2, MinY: 10, MaxX: 2, MaxY: 16}, 2, 3, []float64{-1, 1}, []float64{15, 13, 11}},
	}
	for _, tc := range cases {
		xs, ys := make([]float64, tc.width), make([]float64, tc.height)
		tc.r.PixelCenters(xs, ys)
		if !slices.Equal(xs, tc.xs) || !slices.Equal(ys, tc.ys) {
			t.Errorf("%s: PixelCenters(%d, %d) = %v, %v; want %v, %v",
				tc.name, tc.width, tc.height, xs, ys, tc.xs, tc.ys)
		}
		if tc.width == 1 && tc.height == 1 && !Pt(xs[0], ys[0]).Equal(tc.r.Center()) {
			t.Errorf("%s: 1x1 grid samples %v, want the center %v", tc.name, Pt(xs[0], ys[0]), tc.r.Center())
		}
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(2, 2)) || !r.Contains(Pt(1, 1)) {
		t.Errorf("Contains should include boundary and interior")
	}
	if r.Contains(Pt(3, 1)) || r.Contains(Pt(1, -0.1)) {
		t.Errorf("Contains should exclude exterior")
	}
	if r.ContainsStrict(Pt(0, 1)) {
		t.Errorf("ContainsStrict should exclude boundary")
	}
	if !r.ContainsStrict(Pt(1, 1)) {
		t.Errorf("ContainsStrict should include interior")
	}
	if !r.ContainsRect(Rect{MinX: 0.5, MinY: 0.5, MaxX: 1, MaxY: 1}) {
		t.Errorf("ContainsRect failed for nested rect")
	}
	if r.ContainsRect(Rect{MinX: 0.5, MinY: 0.5, MaxX: 3, MaxY: 1}) {
		t.Errorf("ContainsRect should fail for overflowing rect")
	}
	if !r.ContainsRect(EmptyRect()) {
		t.Errorf("every rect contains the empty rect")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	b := Rect{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}
	c := Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}
	if !a.Intersects(b) || b.Intersects(c) || a.Intersects(c) {
		t.Errorf("Intersects wrong")
	}
	got := a.Intersect(b)
	if got != (Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Intersect(c).IsEmpty() {
		t.Errorf("disjoint intersection should be empty")
	}
	u := a.Union(b)
	if u != (Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}) {
		t.Errorf("Union = %v", u)
	}
	if a.Union(EmptyRect()) != a || EmptyRect().Union(a) != a {
		t.Errorf("Union with empty should be identity")
	}
	if a.Intersects(EmptyRect()) {
		t.Errorf("nothing intersects the empty rect")
	}
	up := a.UnionPoint(Pt(-1, 5))
	if up != (Rect{MinX: -1, MinY: 0, MaxX: 2, MaxY: 5}) {
		t.Errorf("UnionPoint = %v", up)
	}
	if e := a.Enlargement(c); math.Abs(e-(36-4)) > 1e-12 {
		t.Errorf("Enlargement = %g, want 32", e)
	}
	ex := a.Expand(1)
	if ex != (Rect{MinX: -1, MinY: -1, MaxX: 3, MaxY: 3}) {
		t.Errorf("Expand = %v", ex)
	}
	corners := a.Corners()
	if corners[0] != Pt(0, 0) || corners[2] != Pt(2, 2) {
		t.Errorf("Corners = %v", corners)
	}
}

func TestRectUnionIntersectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randRect := func() Rect {
		return NewRect(Pt(rng.Float64()*10, rng.Float64()*10), Pt(rng.Float64()*10, rng.Float64()*10))
	}
	for i := 0; i < 500; i++ {
		a, b := randRect(), randRect()
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v does not contain operands %v %v", u, a, b)
		}
		in := a.Intersect(b)
		if !in.IsEmpty() && (!a.ContainsRect(in) || !b.ContainsRect(in)) {
			t.Fatalf("intersection %v not contained in operands %v %v", in, a, b)
		}
		if a.Intersects(b) != !a.Intersect(b).IsEmpty() {
			t.Fatalf("Intersects disagrees with Intersect emptiness for %v %v", a, b)
		}
	}
}

func TestCircleContains(t *testing.T) {
	cases := []struct {
		metric Metric
		in     []Point
		out    []Point
	}{
		{LInf, []Point{{0, 0}, {1, 1}, {1, -1}, {0.5, 0.9}}, []Point{{1.1, 0}, {0, -1.2}}},
		{L1, []Point{{0, 0}, {1, 0}, {0, 1}, {0.5, 0.5}}, []Point{{1, 1}, {0.8, 0.5}}},
		{L2, []Point{{0, 0}, {1, 0}, {0.6, 0.6}}, []Point{{1, 1}, {0.8, 0.7}}},
	}
	for _, tc := range cases {
		c := NewCircle(Pt(0, 0), 1, tc.metric)
		for _, p := range tc.in {
			if !c.Contains(p) {
				t.Errorf("%s should contain %v", c, p)
			}
		}
		for _, p := range tc.out {
			if c.Contains(p) {
				t.Errorf("%s should not contain %v", c, p)
			}
		}
	}
	c := NewCircle(Pt(0, 0), 1, L2)
	if c.ContainsStrict(Pt(1, 0)) {
		t.Errorf("boundary point should not be strictly contained")
	}
	if !c.ContainsStrict(Pt(0.5, 0)) {
		t.Errorf("interior point should be strictly contained")
	}
}

func TestCircleExtremesAndBounding(t *testing.T) {
	c := NewCircle(Pt(3, 4), 2, LInf)
	if c.LeftX() != 1 || c.RightX() != 5 || c.BottomY() != 2 || c.TopY() != 6 {
		t.Errorf("extremes wrong: %g %g %g %g", c.LeftX(), c.RightX(), c.BottomY(), c.TopY())
	}
	br := c.BoundingRect()
	if br != (Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 6}) {
		t.Errorf("BoundingRect = %v", br)
	}
	if !c.IntersectsRect(Rect{MinX: 4, MinY: 5, MaxX: 10, MaxY: 10}) {
		t.Errorf("should intersect overlapping rect")
	}
	if c.IntersectsRect(Rect{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}) {
		t.Errorf("should not intersect distant rect")
	}
	if c.IntersectsRect(EmptyRect()) {
		t.Errorf("should not intersect empty rect")
	}
	if s := NewCircle(Pt(1, -2), 2.5, L2).String(); s != "L2-circle(center=(1, -2), r=2.5)" {
		t.Errorf("String = %q", s)
	}
}

func TestCircleYAtX(t *testing.T) {
	square := NewCircle(Pt(0, 0), 2, LInf)
	lo, hi, ok := square.YAtX(1)
	if !ok || lo != -2 || hi != 2 {
		t.Errorf("square YAtX(1) = %g,%g,%v", lo, hi, ok)
	}
	if _, _, ok := square.YAtX(3); ok {
		t.Errorf("YAtX outside square should fail")
	}
	diamond := NewCircle(Pt(0, 0), 2, L1)
	lo, hi, ok = diamond.YAtX(1)
	if !ok || lo != -1 || hi != 1 {
		t.Errorf("diamond YAtX(1) = %g,%g,%v", lo, hi, ok)
	}
	disk := NewCircle(Pt(0, 0), 5, L2)
	lo, hi, ok = disk.YAtX(3)
	if !ok || math.Abs(lo+4) > 1e-12 || math.Abs(hi-4) > 1e-12 {
		t.Errorf("disk YAtX(3) = %g,%g,%v", lo, hi, ok)
	}
}

// YAtX boundaries must themselves be inside the circle (within tolerance) and
// points just beyond them must be outside.
func TestCircleYAtXConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		m := []Metric{LInf, L1, L2}[rng.Intn(3)]
		c := NewCircle(Pt(rng.Float64()*10-5, rng.Float64()*10-5), rng.Float64()*3+0.1, m)
		x := c.Center.X + (rng.Float64()*2-1)*c.Radius*0.99
		lo, hi, ok := c.YAtX(x)
		if !ok {
			t.Fatalf("YAtX(%g) unexpectedly failed for %v", x, c)
		}
		if m.Distance(c.Center, Pt(x, lo)) > c.Radius+1e-9 || m.Distance(c.Center, Pt(x, hi)) > c.Radius+1e-9 {
			t.Fatalf("YAtX bounds not on circle: %v at x=%g -> %g,%g", c, x, lo, hi)
		}
		if c.ContainsStrict(Pt(x, hi+1e-6)) || c.ContainsStrict(Pt(x, lo-1e-6)) {
			t.Fatalf("points beyond YAtX bounds should be outside: %v", c)
		}
	}
}

func TestCircleIntersectsCircle(t *testing.T) {
	a := NewCircle(Pt(0, 0), 1, L2)
	b := NewCircle(Pt(1.5, 0), 1, L2)
	c := NewCircle(Pt(5, 0), 1, L2)
	if !a.Intersects(b) {
		t.Errorf("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Errorf("a and c should not intersect")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("mixing metrics should panic")
		}
	}()
	a.Intersects(NewCircle(Pt(0, 0), 1, L1))
}

func TestCircleIntersections(t *testing.T) {
	a := NewCircle(Pt(0, 0), 1, L2)
	b := NewCircle(Pt(1, 0), 1, L2)
	pts := CircleIntersections(a, b)
	if len(pts) != 2 {
		t.Fatalf("expected 2 intersections, got %d", len(pts))
	}
	for _, p := range pts {
		if math.Abs(Distance(p, a.Center)-1) > 1e-9 || math.Abs(Distance(p, b.Center)-1) > 1e-9 {
			t.Errorf("intersection %v not on both circles", p)
		}
	}
	// Tangent circles: one intersection.
	c := NewCircle(Pt(2, 0), 1, L2)
	pts = CircleIntersections(a, c)
	if len(pts) != 1 || !pts[0].AlmostEqual(Pt(1, 0), 1e-9) {
		t.Errorf("tangent intersection = %v", pts)
	}
	// Disjoint and contained circles: none.
	if len(CircleIntersections(a, NewCircle(Pt(5, 0), 1, L2))) != 0 {
		t.Errorf("disjoint circles should not intersect")
	}
	if len(CircleIntersections(NewCircle(Pt(0, 0), 3, L2), NewCircle(Pt(0.5, 0), 1, L2))) != 0 {
		t.Errorf("contained circle should not intersect boundary")
	}
	if len(CircleIntersections(a, a)) != 0 {
		t.Errorf("identical circles return no discrete intersections")
	}
}

func TestCircleIntersectionsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		a := NewCircle(Pt(rng.Float64()*10, rng.Float64()*10), rng.Float64()*3+0.05, L2)
		b := NewCircle(Pt(rng.Float64()*10, rng.Float64()*10), rng.Float64()*3+0.05, L2)
		for _, p := range CircleIntersections(a, b) {
			if math.Abs(Distance(p, a.Center)-a.Radius) > 1e-7 {
				t.Fatalf("point %v not on circle a %v", p, a)
			}
			if math.Abs(Distance(p, b.Center)-b.Radius) > 1e-7 {
				t.Fatalf("point %v not on circle b %v", p, b)
			}
		}
	}
}

func TestL1Rotation(t *testing.T) {
	// Distances under L1 must equal Linf distances of rotated points.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1000; i++ {
		p := Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		q := Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		d1 := L1.Distance(p, q)
		dinf := LInf.Distance(RotateL1ToLInf(p), RotateL1ToLInf(q))
		if math.Abs(L1RadiusToLInf(d1)-dinf) > 1e-9 {
			t.Fatalf("rotation does not preserve metric: L1=%g mapped=%g rotated-Linf=%g", d1, L1RadiusToLInf(d1), dinf)
		}
		// Round trip.
		back := RotateLInfToL1(RotateL1ToLInf(p))
		if !back.AlmostEqual(p, 1e-9) {
			t.Fatalf("rotation round trip failed: %v -> %v", p, back)
		}
		if math.Abs(LInfRadiusToL1(L1RadiusToLInf(3.7))-3.7) > 1e-12 {
			t.Fatalf("radius round trip failed")
		}
	}
}

func TestRotateCircleL1ToLInf(t *testing.T) {
	c := NewCircle(Pt(2, 3), 1.5, L1)
	r := RotateCircleL1ToLInf(c)
	if r.Metric != LInf {
		t.Fatalf("rotated circle metric = %v", r.Metric)
	}
	// Membership must be preserved.
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 500; i++ {
		p := Pt(rng.Float64()*6, rng.Float64()*6)
		if c.ContainsStrict(p) != r.ContainsStrict(RotateL1ToLInf(p)) {
			t.Fatalf("membership not preserved for %v", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("rotating a non-L1 circle should panic")
		}
	}()
	RotateCircleL1ToLInf(NewCircle(Pt(0, 0), 1, L2))
}

func TestInvalidMetricPanics(t *testing.T) {
	bad := Metric(42)
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic on invalid metric", name)
			}
		}()
		f()
	}
	assertPanics("Distance", func() { bad.Distance(Pt(0, 0), Pt(1, 1)) })
	assertPanics("MinDistToRect", func() { bad.MinDistToRect(Pt(0, 0), Rect{}) })
	assertPanics("YAtX", func() { Circle{Metric: bad, Radius: 1}.YAtX(0) })
	assertPanics("CircleIntersections", func() {
		CircleIntersections(NewCircle(Pt(0, 0), 1, LInf), NewCircle(Pt(0, 0), 1, LInf))
	})
}

func TestCircleStraddlesX(t *testing.T) {
	c := NewCircle(Pt(5, 0), 2, LInf) // x-extent [3, 7]
	// StraddlesX is half-open on the left: a sweep strip starting at the
	// circle's LeftX inserts the circle itself, a strip starting at RightX
	// must still see it (its removal event lies in that strip).
	for x, want := range map[float64]bool{2: false, 3: false, 3.5: true, 7: true, 7.5: false} {
		if got := c.StraddlesX(x); got != want {
			t.Errorf("StraddlesX(%v) = %v, want %v", x, got, want)
		}
	}
}
