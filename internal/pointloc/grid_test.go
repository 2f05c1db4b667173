package pointloc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// The HeatGrid differential suite: the raster kernel must return, bit for
// bit, the heat per-pixel Query returns at every pixel center — and Query is
// held to the enclosure oracle by the suites in pointloc_test.go and
// file_test.go, so HeatGrid is too.

// serializableMeasures returns one instance of every measure a snapshot can
// carry (influence.SpecOf), with contexts drawn over the instance's clients
// and facilities.
func serializableMeasures(circles []nncircle.NNCircle, rng *rand.Rand) []influence.Measure {
	n := len(circles)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = rng.Float64() * 3
	}
	var edges [][2]int
	for k := 0; k < 2*n; k++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	assignment := make([]int, n)
	nFacilities := 0
	for _, nc := range circles {
		assignment[nc.Client] = nc.Facility
		nFacilities = max(nFacilities, nc.Facility+1)
	}
	caps := make([]float64, nFacilities)
	for i := range caps {
		caps[i] = float64(1 + rng.Intn(4))
	}
	return []influence.Measure{
		influence.Size(),
		influence.Weighted(weights),
		influence.Connectivity(edges),
		influence.Capacity(influence.CapacityContext{Assignment: assignment, Capacities: caps, NewFacilityCapacity: 2.5}),
		influence.Gain(1.5),
	}
}

// pixelCenters returns the pixel centers of a width x height grid over b.
func pixelCenters(b geom.Rect, width, height int) (xs, ys []float64) {
	xs, ys = make([]float64, width), make([]float64, height)
	b.PixelCenters(xs, ys)
	return xs, ys
}

// assertGridMatchesQuery holds ix.HeatGrid over bounds at width x height to
// per-pixel ix.Query at the same pixel centers, bit for bit.
func assertGridMatchesQuery(t *testing.T, ix *Index, bounds geom.Rect, width, height int, ctx string) {
	t.Helper()
	out := make([]float64, width*height)
	ix.HeatGrid(bounds, width, height, out)
	xs, ys := pixelCenters(bounds, width, height)
	for py, y := range ys {
		for px, x := range xs {
			want, _ := ix.Query(geom.Pt(x, y))
			if got := out[py*width+px]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %dx%d raster over %v: pixel (%d,%d) at (%v,%v) = %v, Query = %v",
					ctx, width, height, bounds, px, py, x, y, got, want)
			}
		}
	}
}

// randomSubRect draws raster bounds overlapping the [0,64]² instance domain,
// sometimes reaching past it into the empty far field.
func randomSubRect(rng *rand.Rand) geom.Rect {
	w, h := 0.5+rng.Float64()*40, 0.5+rng.Float64()*40
	x0, y0 := rng.Float64()*70-6, rng.Float64()*70-6
	return geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + w, MaxY: y0 + h}
}

// gridIndexes returns the built index and the index opened from its
// snapshot for one instance and measure.
func gridIndexes(t *testing.T, circles []nncircle.NNCircle, m influence.Measure) []*Index {
	t.Helper()
	ix, err := Build(circles, m, Options{})
	if err != nil {
		t.Fatalf("Build(%s): %v", m.Name(), err)
	}
	return []*Index{ix, openedFromIndex(t, ix, m)}
}

// TestHeatGridMatchesQuery covers all three metrics, built and file-opened
// indexes, snapped and unsnapped instances and every serializable measure,
// on random sub-rectangles at 1xN, Nx1, 37x91 and 256x256.
func TestHeatGridMatchesQuery(t *testing.T) {
	t.Parallel()
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for _, snapped := range []bool{false, true} {
			metric, snapped := metric, snapped
			t.Run(fmt.Sprintf("%v/snapped=%v", metric, snapped), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(13 + 2*int(metric))))
				circles, _ := testInstance(t, rng.Int63(), 50, 12, metric, snapped)
				for mi, m := range serializableMeasures(circles, rng) {
					for li, ix := range gridIndexes(t, circles, m) {
						ctx := fmt.Sprintf("measure=%s index=%d", m.Name(), li)
						n := 1 + rng.Intn(300)
						sizes := [][2]int{{1, n}, {n, 1}, {37, 91}}
						if mi == 0 {
							sizes = append(sizes, [2]int{256, 256})
						}
						for _, sz := range sizes {
							assertGridMatchesQuery(t, ix, randomSubRect(rng), sz[0], sz[1], ctx)
						}
					}
				}
			})
		}
	}
}

// TestHeatGridCustomMeasure covers the exact path's fold for a measure
// without the sorted-slice fast path (heap index only: custom measures do
// not serialize).
func TestHeatGridCustomMeasure(t *testing.T) {
	t.Parallel()
	custom := influence.Func("sum-of-squares", func(rnn *oset.Set) float64 {
		total := 0.0
		rnn.Range(func(o int) bool {
			total += float64(o*o) + 0.1
			return true
		})
		return total
	})
	rng := rand.New(rand.NewSource(21))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		circles, _ := testInstance(t, rng.Int63(), 40, 9, metric, true)
		ix, err := Build(circles, custom, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range adversarialTargets(ix, rng, 12) {
			b, ok := alignedBounds(tgt, 9, 7, 4, 3)
			if ok {
				assertGridMatchesQuery(t, ix, b, 9, 7, fmt.Sprintf("%v custom", metric))
			}
		}
	}
}

// gridTarget is a pixel center an adversarial raster must hit exactly, with
// the pixel pitch around it.
type gridTarget struct {
	x, y, pitch float64
}

// adversarialTargets pairs degenerate columns with degenerate rows. Columns
// sit on slab boundaries and zero-radius centers (for L1, whose slabs are
// diagonals in the original space, on the circles' left and right vertices
// and the zero-radius centers); rows sit on circle tops and bottoms, on a
// zero-radius center's own y, or for L1 on a vertex's own y. For L2 a column
// on a circle's center x with a row on its top or bottom hits the extreme
// boundary point itself, and a slab's mid-x with a row on one of its arcs
// hits the arc there. Pitches range from coarse to well inside the epsilon
// bands, so whole neighborhoods of the target resolve on the exact path.
func adversarialTargets(ix *Index, rng *rand.Rand, n int) []gridTarget {
	pitches := []float64{0.37, 1.0 / 64, 1e-6, 1e-10}
	var out []gridTarget
	for k := 0; k < n; k++ {
		nc := ix.all[rng.Intn(len(ix.all))].Circle
		y := nc.Center.Y + nc.Radius
		if rng.Intn(2) == 0 {
			y = nc.Center.Y - nc.Radius
		}
		var x float64
		switch {
		case len(ix.zeroIdx) > 0 && rng.Intn(4) == 0:
			z := ix.all[ix.zeroIdx[rng.Intn(len(ix.zeroIdx))]].Circle.Center
			x = z.X
			if rng.Intn(2) == 0 {
				y = z.Y
			}
		case ix.metric == geom.L1:
			x = nc.Center.X + nc.Radius
			if rng.Intn(2) == 0 {
				x = nc.Center.X - nc.Radius
			}
			if rng.Intn(2) == 0 {
				y = nc.Center.Y // the left or right vertex itself
			}
		case ix.metric == geom.L2 && rng.Intn(3) == 0:
			x = nc.Center.X
		case ix.metric == geom.L2 && len(ix.slabs) > 1 && rng.Intn(2) == 0:
			// A point on an arc strictly inside a slab: the gap search's
			// own epsilon decision, away from every slab boundary.
			i := rng.Intn(len(ix.slabs) - 1)
			if arcs := ix.slabs[i].arcs; len(arcs) > 0 {
				x = (ix.xs[i] + ix.xs[i+1]) / 2
				y = ix.arcYAt(arcs[rng.Intn(len(arcs))], x)
			}
		case len(ix.xs) > 0:
			x = ix.xs[rng.Intn(len(ix.xs))]
		default:
			x = nc.Center.X
		}
		out = append(out, gridTarget{x: x, y: y, pitch: pitches[rng.Intn(len(pitches))]})
	}
	return out
}

// alignedBounds returns the bounds of a width x height raster at the
// target's pitch whose pixel (px, py) is centered exactly on the target,
// nudging the rectangle until rounding lands the center; ok is false when it
// never does.
func alignedBounds(tgt gridTarget, width, height, px, py int) (geom.Rect, bool) {
	pitch := tgt.pitch
	b := geom.Rect{MinX: tgt.x - (float64(px)+0.5)*pitch, MaxY: tgt.y + (float64(py)+0.5)*pitch}
	b.MaxX = b.MinX + float64(width)*pitch
	b.MinY = b.MaxY - float64(height)*pitch
	for try := 0; try < 8; try++ {
		xs, ys := pixelCenters(b, width, height)
		dx, dy := tgt.x-xs[px], tgt.y-ys[py]
		if dx == 0 && dy == 0 {
			return b, true
		}
		b.MinX, b.MaxX = b.MinX+dx, b.MaxX+dx
		b.MinY, b.MaxY = b.MinY+dy, b.MaxY+dy
	}
	return b, false
}

// TestHeatGridAdversarial aims raster pixel centers exactly at the
// coordinates where the kernel's column-wide decisions are hardest: slab
// boundaries, zero-radius centers and circle tops and bottoms, at pitches
// both coarse and inside the epsilon bands. It also requires most targets to
// be hit exactly, so the suite cannot silently degrade into random rasters.
func TestHeatGridAdversarial(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(31))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for _, snapped := range []bool{false, true} {
			circles, _ := testInstance(t, rng.Int63(), 45, 10, metric, snapped)
			var ixs []*Index
			for _, m := range serializableMeasures(circles, rng) {
				ixs = append(ixs, gridIndexes(t, circles, m)...)
			}
			targets := adversarialTargets(ixs[0], rng, 40)
			hit := 0
			for _, tgt := range targets {
				w, h := 3+rng.Intn(15), 3+rng.Intn(15)
				px, py := rng.Intn(w), rng.Intn(h)
				b, ok := alignedBounds(tgt, w, h, px, py)
				if !ok {
					continue
				}
				hit++
				for li, ix := range ixs {
					ctx := fmt.Sprintf("%v snapped=%v index %d target=%+v", metric, snapped, li, tgt)
					assertGridMatchesQuery(t, ix, b, w, h, ctx)
					// The target's column and row alone, as 1-pixel strips.
					if col, ok := alignedBounds(tgt, 1, h, 0, py); ok {
						assertGridMatchesQuery(t, ix, col, 1, h, ctx)
					}
					if row, ok := alignedBounds(tgt, w, 1, px, 0); ok {
						assertGridMatchesQuery(t, ix, row, w, 1, ctx)
					}
				}
			}
			t.Logf("%v snapped=%v: %d of %d targets aligned", metric, snapped, hit, len(targets))
			if hit < len(targets)/2 {
				t.Fatalf("%v snapped=%v: only %d of %d adversarial targets aligned exactly", metric, snapped, hit, len(targets))
			}
		}
	}
}

// TestMatchRejectIsExact pins the exact path's y-gap reject to the plain
// containment loop it short-cuts, in both routines that apply it: the point
// routine (matchPoint) and the exact column's buckets (bucket, passing and
// matchPixel). On candidates and points built at the reject's edges —
// |Δy| exactly the radius and one ulp either side, centers offset by 1e6 to
// 1e9, zero radii, NaN and infinite coordinates and radii — each returns
// exactly the clients whose circle Contains the point, for every metric: the
// point routine at every point, and the column routine at every pixel of a
// column through each finite x, over every finite y in descending order.
func TestMatchRejectIsExact(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	nan, inf := math.NaN(), math.Inf(1)
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		var cands []nncircle.NNCircle
		var pts []geom.Point
		add := func(cx, cy, r float64) {
			cands = append(cands, nncircle.NNCircle{Client: len(cands), Circle: geom.NewCircle(geom.Pt(cx, cy), r, metric)})
		}
		for _, off := range []float64{0, 1e6, 3.3e7, 1e8, 7.7e8, 1e9} {
			for _, r := range []float64{0, 0.5, 1, 2.75, 1.0 / 3, 1e-9} {
				cx := off + float64(rng.Intn(64))/8
				cy := off + float64(rng.Intn(64))/8
				if rng.Intn(2) == 0 {
					cx, cy = -cx, -cy
				}
				add(cx, cy, r)
				for _, py := range []float64{cy + r, cy - r} {
					for _, y := range []float64{py, math.Nextafter(py, inf), math.Nextafter(py, -inf)} {
						// dx = 0 makes every metric's distance the y-gap;
						// a small dx makes L2 and L1 exceed it.
						pts = append(pts, geom.Pt(cx, y), geom.Pt(cx+r/4, y), geom.Pt(math.Nextafter(cx, inf), y))
					}
				}
				pts = append(pts, geom.Pt(cx, cy), geom.Pt(cx+r, cy))
			}
		}
		add(nan, 0, 1)
		add(0, nan, 1)
		add(0, 0, nan)
		add(0, 0, inf)
		add(inf, 0, 1)
		add(0, -inf, 1)
		pts = append(pts, geom.Pt(nan, 0), geom.Pt(0, nan), geom.Pt(nan, nan), geom.Pt(0, 0),
			geom.Pt(0, 1), geom.Pt(inf, 0), geom.Pt(0, -inf), geom.Pt(nan, 1e9))

		// One slab, opening left of the band around x = 0, holds every
		// candidate.
		actives := make([]int32, len(cands))
		for i := range actives {
			actives[i] = int32(i)
		}
		ix := &Index{metric: metric, all: cands, sweepAll: cands, xs: []float64{-inf}, slabs: []slab{{actives: actives}}}
		want := func(p geom.Point) string {
			var in []int
			for _, nc := range cands {
				if nc.Circle.Contains(p) {
					in = append(in, nc.Client)
				}
			}
			return fmt.Sprint(in)
		}
		matches := 0
		var xs, ys []float64
		for _, p := range pts {
			got := ix.matchPoint(nil, p, 0)
			if w := want(p); fmt.Sprint(got) != w {
				t.Fatalf("%v: matchPoint(%v) = %v, a plain Contains loop gives %v", metric, p, got, w)
			}
			matches += len(got)
			if !math.IsNaN(p.X) && !math.IsInf(p.X, 0) {
				xs = append(xs, p.X)
			}
			if !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0) {
				ys = append(ys, p.Y)
			}
		}
		if matches < len(pts)/4 {
			t.Fatalf("%v: only %d matches over %d points; the cases miss the boundary", metric, matches, len(pts))
		}
		slices.Sort(xs)
		slices.Sort(ys)
		slices.Reverse(ys)
		c := column{ix: ix, ys: ys}
		for _, x := range slices.Compact(xs) {
			c.x = x
			c.bucket()
			for py, y := range ys {
				got := c.matchPixel(nil, py)
				if w := want(geom.Pt(x, y)); fmt.Sprint(got) != w {
					t.Fatalf("%v: the exact column at x=%v matches %v at y=%v, a plain Contains loop gives %v", metric, x, got, y, w)
				}
			}
		}
	}
}

// TestHeatGridUnsortedColumn holds HeatGrid to Query where its column walk
// must step aside: on columns whose evaluated arc heights descend somewhere,
// and on rasters whose pixel ys are not finite. The columns come from
// near-coincident circles, whose arcs cross one another in rounding inside
// a slab; from a built index with one adjacent arc pair swapped in every
// slab, where the heights descend by far more than the gap-edge epsilon, so
// only the binary search's probe order decides a pixel's gap; and, outside
// -short, from heatmapd's default map, whose descending columns all lie in
// slabs narrower than the epsilon band.
func TestHeatGridUnsortedColumn(t *testing.T) {
	t.Parallel()
	t.Run("near-coincident", func(t *testing.T) {
		t.Parallel()
		circles := nearCoincidentCircles(rand.New(rand.NewSource(41)), 4, 4)
		ixs := gridIndexes(t, circles, influence.Size())
		cols, sampled := unsortedColumns(ixs[0], 8)
		direct := countDirect(cols)
		t.Logf("%d of %d sampled columns descend, %d of them direct", len(cols), sampled, direct)
		if direct == 0 {
			t.Fatal("no direct column with descending arc heights: the walk's fallback goes untested")
		}
		assertStrips(t, ixs, cols, "near-coincident")
	})
	t.Run("swapped-arcs", func(t *testing.T) {
		t.Parallel()
		circles, _ := testInstance(t, 43, 50, 12, geom.L2, false)
		ix, err := Build(circles, influence.Size(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		// In every slab of two or more arcs, swap one adjacent pair, at a
		// position that varies from slab to slab: the binary search probes
		// the pair's upper arc first at some positions and its lower one at
		// others, and only the former finds another gap than a walk would.
		swapped := 0
		for i := 0; i+1 < len(ix.xs); i++ {
			sl := &ix.slabs[i]
			if n := len(sl.arcs); n >= 2 {
				k := 1 + i%(n-1)
				sl.arcs = slices.Clone(sl.arcs)
				sl.arcs[k-1], sl.arcs[k] = sl.arcs[k], sl.arcs[k-1]
				swapped++
			}
		}
		cols, _ := unsortedColumns(ix, 4)
		if countDirect(cols) == 0 {
			t.Fatalf("swapping arcs in %d slabs left no direct descending column", swapped)
		}
		assertStrips(t, []*Index{ix}, cols, "swapped-arcs")
	})
	t.Run("default-map", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds heatmapd's default map")
		}
		t.Parallel()
		pool, err := dataset.ByName("NYC", (2000+600)*2, 1)
		if err != nil {
			t.Fatal(err)
		}
		clients, facilities := pool.SampleClientsFacilities(2000, 600, 2)
		circles, err := nncircle.Compute(clients, facilities, geom.L2)
		if err != nil {
			t.Fatal(err)
		}
		ixs := gridIndexes(t, circles, influence.Size())
		cols, sampled := unsortedColumns(ixs[0], 8)
		t.Logf("%d of %d sampled columns descend, %d of them direct", len(cols), sampled, countDirect(cols))
		if len(cols) == 0 {
			t.Fatal("no column of the default map has descending arc heights")
		}
		assertStrips(t, ixs, cols, "default map")
	})
	t.Run("non-finite-ys", func(t *testing.T) {
		t.Parallel()
		inf, nan := math.Inf(1), math.NaN()
		for _, metric := range []geom.Metric{geom.LInf, geom.L2} {
			circles, _ := testInstance(t, 47, 40, 10, metric, false)
			for _, ix := range gridIndexes(t, circles, influence.Size()) {
				for _, b := range []geom.Rect{
					{MinX: 10, MaxX: 40, MinY: -inf, MaxY: 30},
					{MinX: 10, MaxX: 40, MinY: 20, MaxY: inf},
					{MinX: 10, MaxX: 40, MinY: 20, MaxY: nan},
				} {
					if _, ys := pixelCenters(b, 7, 41); descends(ys) {
						t.Fatalf("%v: the walk accepts pixel ys %v", b, ys)
					}
					assertGridMatchesQuery(t, ix, b, 7, 41, fmt.Sprintf("%v non-finite ys", metric))
				}
			}
		}
	})
}

// assertStrips renders 1xH strips through each column on every index and
// holds them to Query. Each strip is centered on the descending pair: at a
// sixteenth of the pair's spread, so pixels land between the two heights;
// at a third of the epsilon band, so they cross its edges; and at a pitch
// spanning the column's whole height range.
func assertStrips(t *testing.T, ixs []*Index, cols []unsortedColumn, ctx string) {
	t.Helper()
	const height = 64
	aligned := 0
	for _, col := range cols {
		for _, pitch := range []float64{col.spread / 16, ixs[0].eps(col.y) / 3, col.span / height} {
			if !(pitch > 0) {
				continue
			}
			b, ok := alignedBounds(gridTarget{x: col.x, y: col.y, pitch: pitch}, 1, height, 0, height/2)
			if !ok {
				continue
			}
			aligned++
			for li, ix := range ixs {
				assertGridMatchesQuery(t, ix, b, 1, height, fmt.Sprintf("%s index %d column %+v", ctx, li, col))
			}
		}
	}
	if aligned < len(cols) {
		t.Fatalf("%s: only %d strips aligned over %d columns", ctx, aligned, len(cols))
	}
}

// countDirect counts the columns HeatGrid resolves on their slab, where the
// walk would run but for the descending heights.
func countDirect(cols []unsortedColumn) int {
	n := 0
	for _, col := range cols {
		if col.direct {
			n++
		}
	}
	return n
}

// unsortedColumn is a pixel column whose evaluated arc heights descend from
// one arc to the next: y is the midpoint of that pair, spread the drop, span
// the column's whole height range, and direct whether HeatGrid resolves the
// column on its slab rather than on the exact path.
type unsortedColumn struct {
	x, y, spread, span float64
	direct             bool
}

// unsortedColumns evaluates perSlab evenly spaced columns inside every slab
// of ix, with the function HeatGrid evaluates arcs by, and returns those
// whose heights have a descending adjacent pair, and how many it sampled.
func unsortedColumns(ix *Index, perSlab int) (found []unsortedColumn, sampled int) {
	var h []float64
	for i := 0; i+1 < len(ix.xs); i++ {
		for s := 0; s < perSlab; s++ {
			x := ix.xs[i] + (float64(s)+0.5)/float64(perSlab)*(ix.xs[i+1]-ix.xs[i])
			sampled++
			h = h[:0]
			for _, a := range ix.slabs[i].arcs {
				h = append(h, ix.arcYAt(a, x))
			}
			for k := 1; k < len(h); k++ {
				if h[k] < h[k-1] {
					si, direct := ix.locateSlab(x)
					found = append(found, unsortedColumn{x: x, y: (h[k-1] + h[k]) / 2, spread: h[k-1] - h[k],
						span: slices.Max(h) - slices.Min(h), direct: direct && si == i})
					break
				}
			}
		}
	}
	return found, sampled
}

// nearCoincidentCircles returns clusters of L2 circles that nearly touch
// along their whole boundary: each cluster is copies of one circle with
// center and radius nudged by up to four ulps, so inside a slab the
// evaluated heights of their arcs cross one another in rounding.
func nearCoincidentCircles(rng *rand.Rand, clusters, copies int) []nncircle.NNCircle {
	nudge := func(v float64) float64 {
		k, dir := rng.Intn(9)-4, math.Inf(1)
		if k < 0 {
			k, dir = -k, math.Inf(-1)
		}
		for ; k > 0; k-- {
			v = math.Nextafter(v, dir)
		}
		return v
	}
	var out []nncircle.NNCircle
	for c := 0; c < clusters; c++ {
		cx, cy, r := rng.Float64()*64, rng.Float64()*64, 1+rng.Float64()*8
		for k := 0; k < copies; k++ {
			out = append(out, nncircle.NNCircle{Client: len(out), Facility: c,
				Circle: geom.NewCircle(geom.Pt(nudge(cx), nudge(cy)), nudge(r), geom.L2)})
		}
	}
	return out
}

// TestExactCounts checks ExactCounts against per-point Query calls: a
// QueryBatch adds the number of its points a lone Query resolves on the
// exact path, and a HeatGrid the number of pixel columns holding such a
// pixel, on snapped instances whose integer grid puts many pixel centers on
// slab boundaries and circle sides.
func TestExactCounts(t *testing.T) {
	t.Parallel()
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		circles, _ := testInstance(t, 23, 40, 8, metric, true)
		ix, err := Build(circles, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// exact reports whether a lone Query at p takes the exact path.
		exact := func(p geom.Point) bool {
			before, _ := ix.ExactCounts()
			ix.Query(p)
			after, _ := ix.ExactCounts()
			return after > before
		}
		probes := probePoints(rand.New(rand.NewSource(29)), circles, 40)
		want := int64(0)
		for _, p := range probes {
			if exact(p) {
				want++
			}
		}
		before, _ := ix.ExactCounts()
		ix.QueryBatch(probes)
		if got, _ := ix.ExactCounts(); got-before != want || want == 0 {
			t.Fatalf("%v: QueryBatch of %d probes counted %d exact points, lone Queries %d", metric, len(probes), got-before, want)
		}
		const width, height = 64, 48
		b := geom.Rect{MinX: -0.25, MinY: 20 - 0.25, MaxX: 32 - 0.25, MaxY: 44 - 0.25}
		xs, ys := pixelCenters(b, width, height)
		wantCols := int64(0)
		for _, x := range xs {
			for _, y := range ys {
				if exact(geom.Pt(x, y)) {
					wantCols++
					break
				}
			}
		}
		_, before = ix.ExactCounts()
		ix.HeatGrid(b, width, height, make([]float64, width*height))
		if _, got := ix.ExactCounts(); got-before != wantCols || wantCols == 0 {
			t.Fatalf("%v: HeatGrid counted %d exact columns of %d, lone Queries find %d", metric, got-before, width, wantCols)
		}
	}
}
