package enclosure

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rnnheatmap/internal/geom"
)

func randomCircles(rng *rand.Rand, n int, m geom.Metric, span float64) []geom.Circle {
	out := make([]geom.Circle, n)
	for i := range out {
		out[i] = geom.NewCircle(
			geom.Pt(rng.Float64()*span, rng.Float64()*span),
			rng.Float64()*span/10+0.01,
			m,
		)
	}
	return out
}

func TestIndexesAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		circles := randomCircles(rng, 800, metric, 100)
		brute := NewBruteIndex(circles)
		rt := NewRTreeIndex(circles)
		if rt.Len() != 800 || brute.Len() != 800 {
			t.Fatalf("Len mismatch")
		}
		for q := 0; q < 400; q++ {
			p := geom.Pt(rng.Float64()*110-5, rng.Float64()*110-5)
			want := brute.Enclosing(p)
			if got := rt.Enclosing(p); !sameIDs(got, want) {
				t.Fatalf("metric %v: rtree Enclosing(%v) = %v, want %v", metric, p, got, want)
			}
			wantStrict := brute.EnclosingStrict(p)
			if got := rt.EnclosingStrict(p); !sameIDs(got, wantStrict) {
				t.Fatalf("metric %v: rtree EnclosingStrict(%v) = %v, want %v", metric, p, got, wantStrict)
			}
		}
	}
}

func sameIDs(a, b []int) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestQueryOnCircleCenters(t *testing.T) {
	// Each circle must report itself when queried at its own center.
	rng := rand.New(rand.NewSource(22))
	circles := randomCircles(rng, 300, geom.L2, 50)
	for _, ix := range []Index{NewRTreeIndex(circles), NewBruteIndex(circles)} {
		for i, c := range circles {
			found := false
			for _, id := range ix.Enclosing(c.Center) {
				if id == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("circle %d not reported at its own center", i)
			}
		}
	}
}

func TestEmptyIndexes(t *testing.T) {
	for _, ix := range []Index{NewRTreeIndex(nil), NewBruteIndex(nil)} {
		if ix.Len() != 0 {
			t.Errorf("empty index Len = %d", ix.Len())
		}
		if got := ix.Enclosing(geom.Pt(0, 0)); len(got) != 0 {
			t.Errorf("empty index Enclosing = %v", got)
		}
		if got := ix.EnclosingStrict(geom.Pt(0, 0)); len(got) != 0 {
			t.Errorf("empty index EnclosingStrict = %v", got)
		}
	}
}

func TestBoundaryInclusion(t *testing.T) {
	circles := []geom.Circle{geom.NewCircle(geom.Pt(0, 0), 1, geom.LInf)}
	for _, ix := range []Index{NewRTreeIndex(circles), NewBruteIndex(circles)} {
		if got := ix.Enclosing(geom.Pt(1, 1)); len(got) != 1 {
			t.Errorf("boundary point should be enclosed (closed): %v", got)
		}
		if got := ix.EnclosingStrict(geom.Pt(1, 1)); len(got) != 0 {
			t.Errorf("boundary point should not be strictly enclosed: %v", got)
		}
		if got := ix.Enclosing(geom.Pt(1.001, 0)); len(got) != 0 {
			t.Errorf("exterior point should not be enclosed: %v", got)
		}
	}
}

func TestHeavyOverlap(t *testing.T) {
	// All circles share the same center: a query at the center hits all of
	// them, a query far away hits none.
	n := 200
	circles := make([]geom.Circle, n)
	for i := range circles {
		circles[i] = geom.NewCircle(geom.Pt(10, 10), float64(i+1)/10, geom.L2)
	}
	for _, ix := range []Index{NewRTreeIndex(circles), NewBruteIndex(circles)} {
		if got := ix.Enclosing(geom.Pt(10, 10)); len(got) != n {
			t.Errorf("center query = %d circles, want %d", len(got), n)
		}
		if got := ix.Enclosing(geom.Pt(100, 100)); len(got) != 0 {
			t.Errorf("distant query = %v", got)
		}
	}
}

func BenchmarkRTreeEnclosing(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	ix := NewRTreeIndex(randomCircles(rng, 10000, geom.LInf, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Enclosing(geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
	}
}

func TestEnclosingBatchAgreesWithSingleQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	circles := randomCircles(rng, 400, geom.L2, 100)
	queries := make([]geom.Point, 300)
	for i := range queries {
		queries[i] = geom.Pt(rng.Float64()*110-5, rng.Float64()*110-5)
	}
	for _, ix := range []Index{NewBruteIndex(circles), NewRTreeIndex(circles)} {
		got := ix.EnclosingBatch(queries)
		if len(got) != len(queries) {
			t.Fatalf("batch returned %d results, want %d", len(got), len(queries))
		}
		for i, p := range queries {
			if want := ix.Enclosing(p); !sameIDs(got[i], want) {
				t.Fatalf("batch[%d] = %v, want %v", i, got[i], want)
			}
		}
	}
}

// TestBoundaryConventionTable pins the package's boundary semantics (see the
// package comment): containment is the closed metric ball, decided by
// geom.Circle.Contains alone, and every index implementation must agree on
// points lying exactly on circle boundaries, corners, and shared sides —
// including coordinates whose rounded extents disagree with the rounded
// distance test by an ulp.
func TestBoundaryConventionTable(t *testing.T) {
	cases := []struct {
		name    string
		circles []geom.Circle
		p       geom.Point
		want    []int
	}{
		{
			name:    "linf-side",
			circles: []geom.Circle{geom.NewCircle(geom.Pt(0, 0), 2, geom.LInf)},
			p:       geom.Pt(2, 0.5),
			want:    []int{0},
		},
		{
			name:    "linf-corner",
			circles: []geom.Circle{geom.NewCircle(geom.Pt(0, 0), 2, geom.LInf)},
			p:       geom.Pt(-2, 2),
			want:    []int{0},
		},
		{
			name: "linf-shared-side-belongs-to-both",
			circles: []geom.Circle{
				geom.NewCircle(geom.Pt(0, 0), 2, geom.LInf),
				geom.NewCircle(geom.Pt(4, 0), 2, geom.LInf),
			},
			p:    geom.Pt(2, 1),
			want: []int{0, 1},
		},
		{
			name: "l1-diamond-edge",
			circles: []geom.Circle{
				geom.NewCircle(geom.Pt(0, 0), 4, geom.L1),
			},
			p:    geom.Pt(1, 3), // |1| + |3| == 4
			want: []int{0},
		},
		{
			name: "l2-tangent-point-belongs-to-both",
			circles: []geom.Circle{
				geom.NewCircle(geom.Pt(0, 0), 3, geom.L2),
				geom.NewCircle(geom.Pt(6, 0), 3, geom.L2),
			},
			p:    geom.Pt(3, 0),
			want: []int{0, 1},
		},
		{
			name: "l2-pythagorean-boundary",
			circles: []geom.Circle{
				geom.NewCircle(geom.Pt(0, 0), 5, geom.L2),
			},
			p:    geom.Pt(3, 4), // 3-4-5: exactly on the boundary
			want: []int{0},
		},
		{
			name: "zero-radius-center-only",
			circles: []geom.Circle{
				geom.NewCircle(geom.Pt(7, 7), 0, geom.L2),
			},
			p:    geom.Pt(7, 7),
			want: []int{0},
		},
		{
			name: "just-outside",
			circles: []geom.Circle{
				geom.NewCircle(geom.Pt(0, 0), 2, geom.LInf),
			},
			p:    geom.Pt(math.Nextafter(2, 3), 0),
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			impls := map[string]Index{
				"brute": NewBruteIndex(tc.circles),
				"rtree": NewRTreeIndex(tc.circles),
			}
			for name, ix := range impls {
				if got := ix.Enclosing(tc.p); !sameIDs(got, tc.want) {
					t.Errorf("%s.Enclosing(%v) = %v, want %v", name, tc.p, got, tc.want)
				}
				if got := ix.EnclosingBatch([]geom.Point{tc.p})[0]; !sameIDs(got, tc.want) {
					t.Errorf("%s.EnclosingBatch(%v) = %v, want %v", name, tc.p, got, tc.want)
				}
			}
			// The convention's single source of truth.
			for i, c := range tc.circles {
				want := false
				for _, id := range tc.want {
					if id == i {
						want = true
					}
				}
				if got := c.Contains(tc.p); got != want {
					t.Errorf("Circle %d Contains(%v) = %v, disagrees with convention %v", i, tc.p, got, want)
				}
			}
		})
	}
}

// TestIndexesAgreeOnExactBoundaries stresses the padded candidate filters:
// for every circle, probe its four extreme points and corner-ish boundary
// points exactly; every index must return precisely the brute-force (pure
// Contains) answer. Before the extent padding, the R-tree filter could drop
// a circle whose rounded extent excluded such a point by one ulp.
func TestIndexesAgreeOnExactBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		circles := randomCircles(rng, 300, metric, 100)
		brute := NewBruteIndex(circles)
		rt := NewRTreeIndex(circles)
		var probes []geom.Point
		for _, c := range circles {
			cx, cy, r := c.Center.X, c.Center.Y, c.Radius
			probes = append(probes,
				geom.Pt(cx-r, cy), geom.Pt(cx+r, cy),
				geom.Pt(cx, cy-r), geom.Pt(cx, cy+r),
			)
			if metric == geom.LInf {
				probes = append(probes, geom.Pt(cx-r, cy-r), geom.Pt(cx+r, cy+r))
			}
		}
		for _, p := range probes {
			want := brute.Enclosing(p)
			if got := rt.Enclosing(p); !sameIDs(got, want) {
				t.Fatalf("metric %v: rtree Enclosing(%v) = %v, want %v", metric, p, got, want)
			}
		}
		// And through the sweep-batch path in one go.
		want := brute.EnclosingBatch(probes)
		got := rt.EnclosingBatch(probes)
		for i := range probes {
			if !sameIDs(got[i], want[i]) {
				t.Fatalf("metric %v: batch[%d] (%v) = %v, want %v", metric, i, probes[i], got[i], want[i])
			}
		}
	}
}

// TestEnclosingBatchSmallAndLargePaths pins that both sides of the
// sweepBatchMin threshold produce identical answers.
func TestEnclosingBatchSmallAndLargePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	circles := randomCircles(rng, 200, geom.LInf, 100)
	ix := NewRTreeIndex(circles)
	queries := make([]geom.Point, sweepBatchMin*2)
	for i := range queries {
		queries[i] = geom.Pt(rng.Float64()*110-5, rng.Float64()*110-5)
	}
	large := ix.EnclosingBatch(queries) // sweep path
	for i := 0; i < len(queries); i += 4 {
		hi := i + 4
		small := ix.EnclosingBatch(queries[i:hi]) // per-point path
		for k := range small {
			if !sameIDs(small[k], large[i+k]) {
				t.Fatalf("query %d: small-batch %v != large-batch %v", i+k, small[k], large[i+k])
			}
		}
	}
}

// TestSweepBatchAcrossDensities forces the sweep strategy on workloads both
// below and above the adaptive density threshold and requires agreement with
// the per-point loop on each (the adaptive choice affects speed only, never
// answers).
func TestSweepBatchAcrossDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, div := range []float64{8, 200} {
		circles := make([]geom.Circle, 600)
		for i := range circles {
			circles[i] = geom.NewCircle(
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
				rng.Float64()*100/div+0.01, geom.L2)
		}
		ix := NewRTreeIndex(circles).(*rtreeIndex)
		queries := make([]geom.Point, 200)
		for i := range queries {
			queries[i] = geom.Pt(rng.Float64()*110-5, rng.Float64()*110-5)
		}
		swept := ix.sweep.batch(queries)
		looped := batch(ix, queries)
		for i := range queries {
			if !sameIDs(swept[i], looped[i]) {
				t.Fatalf("div=%v query %d: sweep %v != loop %v", div, i, swept[i], looped[i])
			}
		}
	}
}

// BenchmarkEnclosingBatch compares the shared plane sweep against the
// per-point loop across the densities the adaptive threshold separates: on
// sparse arrangements (few circles per x-stripe) the sweep wins, on dense
// ones the R-tree's two-axis pruning does — which is exactly what
// EnclosingBatch picks automatically.
func BenchmarkEnclosingBatch(b *testing.B) {
	for _, cfg := range []struct {
		name string
		div  float64
	}{{"sparse", 5000}, {"dense", 10}} {
		rng := rand.New(rand.NewSource(36))
		circles := make([]geom.Circle, 20000)
		for i := range circles {
			circles[i] = geom.NewCircle(
				geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
				rng.Float64()*1000/cfg.div+0.01, geom.LInf)
		}
		ix := NewRTreeIndex(circles).(*rtreeIndex)
		queries := make([]geom.Point, 1024)
		for i := range queries {
			queries[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		b.Run(cfg.name+"/auto", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.EnclosingBatch(queries)
			}
		})
		b.Run(cfg.name+"/sweep", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.sweep.batch(queries)
			}
		})
		b.Run(cfg.name+"/loop", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch(ix, queries)
			}
		})
	}
}
