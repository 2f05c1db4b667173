package pointloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// TestMatchRejectIsExact pins column.match's y-gap reject to the plain
// containment loop it short-cuts: on candidates and points built at the
// reject's edges — |Δy| exactly the radius and one ulp either side,
// centers offset by 1e6 to 1e9, zero radii, NaN and infinite coordinates
// and radii — match returns exactly the clients whose circle Contains the
// point, for every metric.
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

		c := column{cands: cands, gathered: true}
		matches := 0
		for _, p := range pts {
			var want []int
			for _, nc := range cands {
				if nc.Circle.Contains(p) {
					want = append(want, nc.Client)
				}
			}
			got := c.match(nil, p)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v: match(%v) = %v, a plain Contains loop gives %v", metric, p, got, want)
			}
			matches += len(want)
		}
		if matches < len(pts)/4 {
			t.Fatalf("%v: only %d matches over %d points; the cases miss the boundary", metric, matches, len(pts))
		}
	}
}
