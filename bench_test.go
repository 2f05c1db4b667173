// Package rnnheatmap holds the repository-level benchmark harness: one
// benchmark per table and figure of the paper's evaluation (Section VIII).
// The workloads are scaled down so `go test -bench=.` finishes in minutes;
// cmd/experiments runs the same sweeps at larger scale and EXPERIMENTS.md
// records a full run against the paper's numbers.
package rnnheatmap

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/experiment"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/pointloc"
	"rnnheatmap/internal/render"
	"rnnheatmap/internal/server"
	"rnnheatmap/internal/snapshot"
)

// benchWorkload builds a reproducible workload of nO clients and nF
// facilities from a named data set.
func benchWorkload(b *testing.B, ds string, nO, nF int, metric geom.Metric) []nncircle.NNCircle {
	b.Helper()
	pool, err := dataset.ByName(ds, (nO+nF)*2, 1)
	if err != nil {
		b.Fatal(err)
	}
	clients, facilities := pool.SampleClientsFacilities(nO, nF, 17)
	ncs, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		b.Fatal(err)
	}
	return ncs
}

var benchSink *core.Result

// BenchmarkTable2Datasets measures generation of the four experiment data
// sets (Table II inventory; the city generators stand in for the real POI
// files).
func BenchmarkTable2Datasets(b *testing.B) {
	for _, name := range dataset.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dataset.ByName(name, 20000, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1HeatMapRender measures the end-to-end Fig. 1 pipeline at
// reduced scale: NN-circles for a sampled NYC workload plus rasterization.
func BenchmarkFig1HeatMapRender(b *testing.B) {
	ncs := benchWorkload(b, "NYC", 5000, 1500, geom.L2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := render.HeatMap(ncs, render.Options{Width: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2DensityVsInfluence measures the Fig. 2 demonstration.
func BenchmarkFig2DensityVsInfluence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig2(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3GenericMeasure measures the connectivity-measure heat map of
// the taxi-sharing example (Fig. 3(c)) against the plain size measure.
func BenchmarkFig3GenericMeasure(b *testing.B) {
	ncs := benchWorkload(b, "Uniform", 2000, 100, geom.LInf)
	edges := make([][2]int, 0, 2000)
	for i := 0; i+1 < 2000; i += 2 {
		edges = append(edges, [2]int{i, i + 1})
	}
	for _, m := range []influence.Measure{influence.Size(), influence.Connectivity(edges)} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.CREST(ncs, core.Options{Measure: m, DiscardLabels: true})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
}

// BenchmarkFig16 reproduces the shape of Fig. 16 (effect of |O|/|F| with the
// L1 metric): BA vs CREST-A vs CREST at a reduced |O| so the baseline
// remains feasible inside a benchmark run.
func BenchmarkFig16(b *testing.B) {
	const nO = 1 << 9
	for _, ratioExp := range []int{1, 4, 7} {
		ncs := benchWorkload(b, "Uniform", nO, max(1, nO>>ratioExp), geom.L1)
		for _, alg := range []string{"BA", "CREST-A", "CREST"} {
			b.Run(fmt.Sprintf("ratio=2^%d/%s", ratioExp, alg), func(b *testing.B) {
				opts := core.Options{Measure: influence.Size(), DiscardLabels: true}
				for i := 0; i < b.N; i++ {
					var err error
					switch alg {
					case "BA":
						benchSink, err = core.Baseline(ncs, opts)
					case "CREST-A":
						benchSink, err = core.CRESTA(ncs, opts)
					case "CREST":
						benchSink, err = core.CREST(ncs, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(benchSink.Stats.Labelings), "labelings")
			})
		}
	}
}

// BenchmarkFig17 reproduces the shape of Fig. 17 (effect of data set size
// with L1): CREST and CREST-A across growing |O| at ratio 2^7; the baseline
// is included only at the smallest size (the paper cuts it off at 24 hours).
func BenchmarkFig17(b *testing.B) {
	for _, sizeExp := range []int{9, 11, 13} {
		nO := 1 << sizeExp
		ncs := benchWorkload(b, "Zipfian", nO, max(1, nO>>7), geom.L1)
		algs := []string{"CREST-A", "CREST"}
		if sizeExp == 9 {
			algs = append([]string{"BA"}, algs...)
		}
		for _, alg := range algs {
			b.Run(fmt.Sprintf("O=2^%d/%s", sizeExp, alg), func(b *testing.B) {
				opts := core.Options{Measure: influence.Size(), DiscardLabels: true}
				for i := 0; i < b.N; i++ {
					var err error
					switch alg {
					case "BA":
						benchSink, err = core.Baseline(ncs, opts)
					case "CREST-A":
						benchSink, err = core.CRESTA(ncs, opts)
					case "CREST":
						benchSink, err = core.CREST(ncs, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig18 reproduces the shape of Fig. 18 (effect of |O|/|F| with the
// L2 metric) on the maximum-influence task: the Pruning comparator versus
// CREST-L2 with the capacity-constrained candidate gain.
func BenchmarkFig18(b *testing.B) {
	const nO = 1 << 9
	for _, ratioExp := range []int{1, 3, 5} {
		ncs := benchWorkload(b, "Uniform", nO, max(1, nO>>ratioExp), geom.L2)
		for _, alg := range []string{"Pruning", "CREST-L2"} {
			b.Run(fmt.Sprintf("ratio=2^%d/%s", ratioExp, alg), func(b *testing.B) {
				opts := core.Options{Measure: influence.Gain(8), DiscardLabels: true}
				for i := 0; i < b.N; i++ {
					var err error
					if alg == "Pruning" {
						benchSink, err = core.PruningMax(ncs, opts, 50000)
					} else {
						benchSink, err = core.CRESTL2(ncs, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig19 reproduces the shape of Fig. 19 (effect of data set size
// with L2) at ratio 2^5.
func BenchmarkFig19(b *testing.B) {
	for _, sizeExp := range []int{8, 10} {
		nO := 1 << sizeExp
		ncs := benchWorkload(b, "NYC", nO, max(1, nO>>5), geom.L2)
		for _, alg := range []string{"Pruning", "CREST-L2"} {
			b.Run(fmt.Sprintf("O=2^%d/%s", sizeExp, alg), func(b *testing.B) {
				opts := core.Options{Measure: influence.Gain(8), DiscardLabels: true}
				for i := 0; i < b.N; i++ {
					var err error
					if alg == "Pruning" {
						benchSink, err = core.PruningMax(ncs, opts, 50000)
					} else {
						benchSink, err = core.CRESTL2(ncs, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCRESTParallel measures the strip-parallel partition layer against
// the sequential sweep on a 100k-circle uniform workload: workers=1 is
// exactly the pre-partition CREST, workers=GOMAXPROCS is the full machine.
// The intermediate counts expose the scaling curve (and, on a single-core
// machine, the partition overhead).
func BenchmarkCRESTParallel(b *testing.B) {
	ncs := benchWorkload(b, "Uniform", 100000, 3000, geom.LInf)
	counts := []int{1, 2, 4}
	if maxW := runtime.GOMAXPROCS(0); maxW > 4 {
		counts = append(counts, maxW)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := core.Options{Measure: influence.Size(), DiscardLabels: true, Workers: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.CREST(ncs, opts)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
			b.ReportMetric(float64(benchSink.Stats.Labelings), "labelings")
		})
	}
}

// BenchmarkCRESTScaling is the scaling gate of the interned, pooled,
// weight-partitioned sweep: a fixed worker ladder (1, 2, 4, 8 — strip counts,
// not CPUs, so the ladder is identical on every runner) over a 50k-circle
// uniform workload, with allocation metrics on. The bench-regress gate
// watches both ns/op and allocs/op of every rung; the committed baseline
// (BENCH_PR6.json) records the post-interning numbers, so any change that
// reintroduces per-label allocation fails CI even if wall time stays flat
// on the 1-core runner.
func BenchmarkCRESTScaling(b *testing.B) {
	ncs := benchWorkload(b, "Uniform", 50000, 1500, geom.LInf)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := core.Options{Measure: influence.Size(), DiscardLabels: true, Workers: w}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.CREST(ncs, opts)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
}

// BenchmarkAblationLabeling quantifies the changed-interval optimization
// (Section V-C): the number of region-labeling operations of CREST versus
// CREST-A and versus the baseline's grid cells, reported as custom metrics.
func BenchmarkAblationLabeling(b *testing.B) {
	ncs := benchWorkload(b, "Zipfian", 1<<10, 1<<3, geom.L1)
	opts := core.Options{Measure: influence.Size(), DiscardLabels: true}
	b.Run("CREST-vs-CREST-A", func(b *testing.B) {
		var crest, cresta *core.Result
		for i := 0; i < b.N; i++ {
			var err error
			crest, err = core.CREST(ncs, opts)
			if err != nil {
				b.Fatal(err)
			}
			cresta, err = core.CRESTA(ncs, opts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(crest.Stats.Labelings), "crest-labelings")
		b.ReportMetric(float64(cresta.Stats.Labelings), "cresta-labelings")
		b.ReportMetric(float64(cresta.Stats.Labelings)/float64(crest.Stats.Labelings), "reduction-factor")
	})
}

// BenchmarkAblationEnclosureIndex times the baseline, which issues one
// point-enclosure query per grid cell over the R-tree index (the paper uses
// an S-tree but notes other spatial indexes work, Section IV), against
// CREST on the same input, exposing the enclosure-query cost the paper's
// Section IV analysis attributes to the baseline.
func BenchmarkAblationEnclosureIndex(b *testing.B) {
	ncs := benchWorkload(b, "Uniform", 1<<11, 1<<5, geom.LInf)
	opts := core.Options{Measure: influence.Size(), DiscardLabels: true}
	b.Run("baseline-rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			benchSink, err = core.Baseline(ncs, opts)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("crest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			benchSink, err = core.CREST(ncs, opts)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchMap builds a heatmap.Map over a sampled uniform workload for the
// delta and serving benchmarks.
func benchMap(b *testing.B, nO, nF int, metric geom.Metric) *heatmap.Map {
	return benchMapCfg(b, nO, nF, metric, false)
}

func benchMapCfg(b *testing.B, nO, nF int, metric geom.Metric, noSlab bool) *heatmap.Map {
	b.Helper()
	pool, err := dataset.ByName("Uniform", (nO+nF)*2, 1)
	if err != nil {
		b.Fatal(err)
	}
	clients, facilities := pool.SampleClientsFacilities(nO, nF, 17)
	m, err := heatmap.Build(heatmap.Config{
		Clients: clients, Facilities: facilities, Metric: metric, NoSlabIndex: noSlab,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkApplyDelta measures the incremental maintenance path against the
// from-scratch rebuild it replaces: one localized client insertion and one
// facility closure per map size, plus the full Build for reference. ApplyDelta
// is copy-on-write, so every iteration applies to the same pristine base map.
// The maps are never queried, so they are built without a slab index: the
// commits resweep labels only, and the rebuild writes no index.
func BenchmarkApplyDelta(b *testing.B) {
	for _, nO := range []int{5000, 20000} {
		m := benchMapCfg(b, nO, nO/20, geom.LInf, true)
		bounds := m.Bounds()
		rng := rand.New(rand.NewSource(5))
		pt := func() heatmap.Point {
			return heatmap.Pt(bounds.MinX+rng.Float64()*bounds.Width(), bounds.MinY+rng.Float64()*bounds.Height())
		}
		b.Run(fmt.Sprintf("n=%d/add-client", nO), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.ApplyDelta(heatmap.Delta{AddClients: []heatmap.Point{pt()}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/close-facility", nO), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := heatmap.Delta{RemoveFacilities: []int{rng.Intn(m.NumFacilities())}}
				if _, _, err := m.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/full-rebuild", nO), func(b *testing.B) {
			b.ReportAllocs()
			// Exactly benchMap's workload, so the rebuild number is an
			// apples-to-apples baseline for the incremental sub-benchmarks.
			pool, err := dataset.ByName("Uniform", (nO+nO/20)*2, 1)
			if err != nil {
				b.Fatal(err)
			}
			clients, facilities := pool.SampleClientsFacilities(nO, nO/20, 17)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: geom.LInf, NoSlabIndex: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// queryBenchMap builds the workload shared by the point-query benchmarks,
// with the slab point-location index enabled or disabled, pre-materialized
// (one throwaway query) so the timed region measures queries only.
func queryBenchMap(b *testing.B, noSlab bool) (*heatmap.Map, []heatmap.Point) {
	b.Helper()
	pool, err := dataset.ByName("Uniform", 10500, 1)
	if err != nil {
		b.Fatal(err)
	}
	// 100 clients per facility: RNN sets average in the dozens, the regime
	// where per-query set construction hurts most and precomputed face
	// labels pay off hardest.
	clients, facilities := pool.SampleClientsFacilities(5000, 50, 17)
	m, err := heatmap.Build(heatmap.Config{
		Clients: clients, Facilities: facilities,
		Metric: geom.LInf, NoSlabIndex: noSlab,
	})
	if err != nil {
		b.Fatal(err)
	}
	bounds := m.Bounds()
	rng := rand.New(rand.NewSource(29))
	points := make([]heatmap.Point, 4096)
	for i := range points {
		points[i] = heatmap.Pt(
			bounds.MinX+rng.Float64()*bounds.Width(),
			bounds.MinY+rng.Float64()*bounds.Height(),
		)
	}
	m.HeatAt(points[0])
	return m, points
}

// BenchmarkHeatAt measures the single-point query path: the O(log n) slab
// point-location lookup against the enclosure stabbing query it replaces
// (still the serving path with Config.NoSlabIndex or past the index's cell
// cap). Both paths return byte-identical answers; see heatmap's differential
// suite.
func BenchmarkHeatAt(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		noSlab bool
	}{{"slab", false}, {"enclosure", true}} {
		m, points := queryBenchMap(b, cfg.noSlab)
		b.Run(cfg.name, func(b *testing.B) {
			// Touch the index before the timer: the gate runs -benchtime 3x,
			// and three cache-cold iterations right after the setup's
			// multi-second build would measure page faults, not queries.
			for i := 0; i < 256; i++ {
				heat, _ := m.HeatAt(points[i])
				benchHeatSink += heat
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				heat, _ := m.HeatAt(points[i%len(points)])
				benchHeatSink += heat
			}
		})
	}
}

// BenchmarkHeatAtBatch measures the batched query path behind POST
// /heat/batch: the slab index's monotone slab walk against one enclosure
// batch. The acceptance bar for the slab path is >=5x on ns/op.
func BenchmarkHeatAtBatch(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		noSlab bool
	}{{"slab", false}, {"enclosure", true}} {
		m, points := queryBenchMap(b, cfg.noSlab)
		batch := points[:1024]
		b.Run(cfg.name, func(b *testing.B) {
			// One untimed batch warms the index pages (see BenchmarkHeatAt).
			heats, _ := m.HeatAtBatch(batch)
			benchHeatSink += heats[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				heats, _ := m.HeatAtBatch(batch)
				benchHeatSink += heats[0]
			}
		})
	}
}

var benchHeatSink float64

// BenchmarkTileServe measures the tile path of the HTTP layer: warm requests
// (cache hits, the steady state a CDN origin sees) and cold requests (data
// tiles at the center of the pyramid, each rendered). The linf variant
// rasterizes from the slab point-location index and linf-enclosure is the
// same map forced onto the per-pixel enclosure path — the pair demonstrates
// the rasterization win. The l2 variant's dense arc arrangement exceeds the
// slab cell cap, so it tracks the enclosure fallback the tile path always
// used for such maps; l2-slab is heatmapd's default map, whose L2 slab index
// does build, so it tracks the arc path of the raster kernel.
func BenchmarkTileServe(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		build func(*testing.B) *heatmap.Map
	}{
		{"linf", func(b *testing.B) *heatmap.Map { return benchMapCfg(b, 5000, 250, geom.LInf, false) }},
		{"linf-enclosure", func(b *testing.B) *heatmap.Map { return benchMapCfg(b, 5000, 250, geom.LInf, true) }},
		{"l2", func(b *testing.B) *heatmap.Map { return benchMapCfg(b, 5000, 250, geom.L2, false) }},
		{"l2-slab", heatmapdDefaultMap},
	} {
		m := cfg.build(b)
		newServer := func(b *testing.B) *server.Server {
			s, err := server.New(server.Config{Map: m, TileSize: 128, TileCacheSize: 1 << 14})
			if err != nil {
				b.Fatal(err)
			}
			return s
		}
		get := func(s *server.Server, path string) (code, size int) {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			return rec.Code, rec.Body.Len()
		}
		s := newServer(b)
		warm := make([]string, 0, 16)
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				path := fmt.Sprintf("/v1/tiles/2/%d/%d.png", x, y)
				if code, _ := get(s, path); code != http.StatusOK {
					b.Fatalf("GET %s = %d", path, code)
				}
				warm = append(warm, path)
			}
		}
		b.Run(cfg.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if code, _ := get(s, warm[i%len(warm)]); code != http.StatusOK {
					b.Fatal("warm tile failed")
				}
			}
		})
		b.Run(cfg.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			// Walk the central 32x32 block of the zoom-6 pyramid: tiles that
			// actually cover data, so the benchmark times rasterization
			// rather than the PNG encoding of empty corner tiles. Each pass
			// over the block starts on a fresh server, built untimed, so no
			// request — in any invocation or -count repeat — is a cache hit.
			// png-B/tile is the mean encoded tile size.
			const z, span, off = 6, 32, 16
			var cold *server.Server
			total := 0
			for i := 0; i < b.N; i++ {
				k := i % (span * span)
				if k == 0 {
					b.StopTimer()
					cold = newServer(b)
					b.StartTimer()
				}
				path := fmt.Sprintf("/v1/tiles/%d/%d/%d.png", z, off+k%span, off+k/span)
				code, size := get(cold, path)
				if code != http.StatusOK {
					b.Fatal("cold tile failed")
				}
				total += size
			}
			b.ReportMetric(float64(total)/float64(b.N), "png-B/tile")
		})
	}
}

// heatmapdDefaultPoints samples the clients and facilities cmd/heatmapd
// serves by default: NYC, 2000 clients and 600 facilities, as with -seed 1.
func heatmapdDefaultPoints(b *testing.B) (clients, facilities []geom.Point) {
	b.Helper()
	pool, err := dataset.ByName("NYC", (2000+600)*2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return pool.SampleClientsFacilities(2000, 600, 2)
}

// heatmapdDefaultMap builds the map cmd/heatmapd serves by default: the
// default points under L2.
func heatmapdDefaultMap(b *testing.B) *heatmap.Map {
	b.Helper()
	clients, facilities := heatmapdDefaultPoints(b)
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: geom.L2})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkSlabIndexBuild measures one full slab point-location build
// (pointloc.Build into a fresh label pool) on heatmapd's default map and on
// the three inputs of the end-to-end plan workload. Run it with -benchmem:
// allocs/op and B/op track the slab storage as closely as ns/op tracks the
// emission. It is deliberately outside GATE_BENCH.
func BenchmarkSlabIndexBuild(b *testing.B) {
	for _, w := range []struct {
		name    string
		circles func(*testing.B) []nncircle.NNCircle
	}{
		{"l2-served", func(b *testing.B) []nncircle.NNCircle {
			clients, facilities := heatmapdDefaultPoints(b)
			ncs, err := nncircle.Compute(clients, facilities, geom.L2)
			if err != nil {
				b.Fatal(err)
			}
			return ncs
		}},
		{"l2-nyc-600", func(b *testing.B) []nncircle.NNCircle { return benchWorkload(b, "NYC", 600, 180, geom.L2) }},
		{"linf-uniform-1000", func(b *testing.B) []nncircle.NNCircle { return benchWorkload(b, "Uniform", 1000, 100, geom.LInf) }},
		{"l1-zipfian-1000", func(b *testing.B) []nncircle.NNCircle { return benchWorkload(b, "Zipfian", 1000, 100, geom.L1) }},
	} {
		b.Run(w.name, func(b *testing.B) {
			ncs := w.circles(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := pointloc.Build(ncs, nil, pointloc.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ix.Cells()), "cells")
			}
		})
	}
}

// BenchmarkSnapshotSave measures SaveSnapshot — the streamed encode, the
// write, the fsync and the rename — of the three maps the end-to-end plan
// workload creates and of heatmapd's default map after one commit. Each map
// is saved once before the timer starts, which builds its slab index as a
// server's first render would. SetBytes is the file size, so MB/s is the
// save rate and B/op what a save allocates. It is deliberately outside
// GATE_BENCH.
func BenchmarkSnapshotSave(b *testing.B) {
	planMap := func(ds string, nO, nF int, metric geom.Metric) func(*testing.B) *heatmap.Map {
		return func(b *testing.B) *heatmap.Map {
			pool, err := dataset.ByName(ds, 2*(nO+nF), 1)
			if err != nil {
				b.Fatal(err)
			}
			clients, facilities := pool.SampleClientsFacilities(nO, nF, 1)
			m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: metric})
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
	}
	for _, w := range []struct {
		name string
		m    func(*testing.B) *heatmap.Map
	}{
		{"linf-uniform-1000", planMap("Uniform", 1000, 100, geom.LInf)},
		{"l1-zipfian-1000", planMap("Zipfian", 1000, 100, geom.L1)},
		{"l2-nyc-600", planMap("NYC", 600, 180, geom.L2)},
		{"l2-served-committed", func(b *testing.B) *heatmap.Map {
			m := heatmapdDefaultMap(b)
			m.HeatAt(m.Bounds().Center())
			clients, _ := heatmapdDefaultPoints(b)
			next, _, err := m.ApplyDelta(heatmap.Delta{AddClients: []heatmap.Point{clients[0]}, RemoveClients: []int{3}})
			if err != nil {
				b.Fatal(err)
			}
			return next
		}},
	} {
		b.Run(w.name, func(b *testing.B) {
			m := w.m(b)
			path := filepath.Join(b.TempDir(), "m.snap")
			if err := m.SaveSnapshot(path, 2); err != nil {
				b.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(st.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.SaveSnapshot(path, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTileMiss measures the tile miss of the explore workload: 256 px
// tiles of heatmapd's default map opened mapped from its snapshot, as
// heatmapd serves it with -snapshot-dir. It walks the central tiles of
// zooms 3-6 (the middle half of each zoom's columns and quarter of its
// rows: 680 tiles over the dense middle of the map); each pass starts on a
// fresh server, built untimed, so every request is a miss. png-B/tile is
// the mean encoded tile size. It is deliberately outside GATE_BENCH.
func BenchmarkTileMiss(b *testing.B) {
	path := filepath.Join(b.TempDir(), "default.snap")
	if err := heatmapdDefaultMap(b).SaveSnapshot(path, 2); err != nil {
		b.Fatal(err)
	}
	m, _, err := heatmap.OpenSnapshot(path)
	if err != nil {
		b.Fatal(err)
	}
	var tiles []string
	for z := 3; z <= 6; z++ {
		n := 1 << z
		for x := n / 4; x < 3*n/4; x++ {
			for y := 3 * n / 8; y < 5*n/8; y++ {
				tiles = append(tiles, fmt.Sprintf("/v1/tiles/%d/%d/%d.png", z, x, y))
			}
		}
	}
	var s *server.Server
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(tiles)
		if k == 0 {
			b.StopTimer()
			if s, err = server.New(server.Config{Map: m, TileSize: 256, TileCacheSize: len(tiles)}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tiles[k], nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s = %d", tiles[k], rec.Code)
		}
		total += rec.Body.Len()
	}
	b.ReportMetric(float64(total)/float64(b.N), "png-B/tile")
}

// BenchmarkHeatBatchServe measures the batch read of the explore workload:
// POST /v1/heat/batch of 256 points drawn from the clients of heatmapd's
// default map, opened mapped from its snapshot, through ServeHTTP — the
// body read, the batched query and the answer's encoding. It is
// deliberately outside GATE_BENCH.
func BenchmarkHeatBatchServe(b *testing.B) {
	path := filepath.Join(b.TempDir(), "default.snap")
	if err := heatmapdDefaultMap(b).SaveSnapshot(path, 2); err != nil {
		b.Fatal(err)
	}
	m, _, err := heatmap.OpenSnapshot(path)
	if err != nil {
		b.Fatal(err)
	}
	s, err := server.New(server.Config{Map: m})
	if err != nil {
		b.Fatal(err)
	}
	clients, _ := heatmapdDefaultPoints(b)
	rng := rand.New(rand.NewSource(5))
	bodies := make([][]byte, 64)
	for i := range bodies {
		var body strings.Builder
		body.WriteString(`{"points":[`)
		for k := 0; k < 256; k++ {
			if k > 0 {
				body.WriteByte(',')
			}
			c := clients[rng.Intn(len(clients))]
			fmt.Fprintf(&body, `{"x":%v,"y":%v}`, c.X, c.Y)
		}
		body.WriteString(`]}`)
		bodies[i] = []byte(body.String())
	}
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/heat/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /v1/heat/batch = %d: %s", rec.Code, rec.Body)
		}
	}
	for _, body := range bodies {
		serve(body) // warm the index pages and the pools
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}

// BenchmarkOptimal measures the optimal-location query behind GET /optimal:
// a constrained top-10 over the distinct RNN sets of a 5k-client map. The
// slab variant resolves face geometry from the point-location index (the
// geometry is memoized on the map, so iterations measure the steady-state
// ranking + filtering cost a server sees); the labels variant is the same
// map with the slab index disabled, i.e. the label-scan fallback without
// area/bounds recovery.
func BenchmarkOptimal(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		noSlab bool
	}{{"slab", false}, {"labels", true}} {
		m := benchMapCfg(b, 5000, 250, geom.LInf, cfg.noSlab)
		cons := heatmap.OptimalConstraints{MinDist: 0.5}
		if !cfg.noSlab {
			cons.MinArea = 1e-6
		}
		// One untimed query materializes the memoized geometry (and, for the
		// slab variant, the point-location index) outside the timed region.
		if _, err := m.OptimalTopK(10, cons); err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				regs, err := m.OptimalTopK(10, cons)
				if err != nil {
					b.Fatal(err)
				}
				benchHeatSink += regs[0].Heat
			}
		})
	}
}

// BenchmarkGreedyPlace measures the k-facility placement loop behind POST
// /optimize: three greedy rounds, each an argmax over the current arrangement
// plus one incremental ApplyDelta resweep. The map is copy-on-write, so every
// iteration starts from the same pristine base.
func BenchmarkGreedyPlace(b *testing.B) {
	m := benchMap(b, 5000, 250, geom.LInf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps, _, err := m.GreedyPlace(context.Background(), 3, heatmap.OptimalConstraints{})
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) != 3 {
			b.Fatalf("placed %d facilities, want 3", len(steps))
		}
		benchHeatSink += steps[0].Heat
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ingestBenchServer builds the mutable server the ingestion benchmarks
// drive: a mid-size map persisting to a WAL under b.TempDir(), so every
// committed mutation pays the same group-commit fsync heatmapd pays in
// production — the durability both modes of BenchmarkIngestBatch share.
func ingestBenchServer(b *testing.B, window time.Duration) (*server.Server, geom.Rect) {
	b.Helper()
	pool, err := dataset.ByName("Uniform", 1700, 1)
	if err != nil {
		b.Fatal(err)
	}
	clients, facilities := pool.SampleClientsFacilities(800, 40, 17)
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: geom.LInf})
	if err != nil {
		b.Fatal(err)
	}
	s, err := server.New(server.Config{
		Map: m, Mutable: true, MaxBatch: 512,
		SnapshotDir: b.TempDir(), CoalesceWindow: window,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s, m.Bounds()
}

// ingestBenchOps builds n balanced client-churn ops (uniform add paired with
// a swap-remove of index 0), so the map's set sizes are identical at the
// start of every iteration and the resweep cost stays comparable.
func ingestBenchOps(rng *rand.Rand, bounds geom.Rect, n int) []string {
	ops := make([]string, 0, n)
	for len(ops) < n {
		x := bounds.MinX + rng.Float64()*bounds.Width()
		y := bounds.MinY + rng.Float64()*bounds.Height()
		ops = append(ops,
			fmt.Sprintf(`{"add_clients":[{"x":%g,"y":%g}]}`, x, y),
			`{"remove_clients":[0]}`)
	}
	return ops
}

func ingestBenchPost(b *testing.B, s *server.Server, body string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/mutations", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("POST /v1/mutations = %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkIngestBatch measures the streaming write path at equal
// durability: one iteration pushes 64 balanced ops through POST /mutations,
// either one op per request (perop — 64 WAL fsyncs, 64 resweeps and 64
// publishes, the cost of clients that send every op as it happens) or as one
// batched request (batch — one group-commit fsync, one merged resweep, one
// publish).
// The acceptance bar for the batched path is >=5x on mutations/sec.
func BenchmarkIngestBatch(b *testing.B) {
	const opsPerIter = 64
	for _, mode := range []string{"perop", "batch"} {
		b.Run(mode, func(b *testing.B) {
			// Window -1 disables the coalescing wait: requests here are
			// serial, so a window would only add idle latency to perop.
			s, bounds := ingestBenchServer(b, -1)
			rng := rand.New(rand.NewSource(41))
			// Pre-build a few iterations' worth of request bodies and cycle
			// them, keeping JSON assembly out of the timed region. The ops
			// are balanced, so any body is valid against any map state.
			bodies := make([][]string, 4)
			for i := range bodies {
				ops := ingestBenchOps(rng, bounds, opsPerIter)
				if mode == "batch" {
					bodies[i] = []string{`{"ops":[` + strings.Join(ops, ",") + `]}`}
				} else {
					for _, op := range ops {
						bodies[i] = append(bodies[i], `{"ops":[`+op+`]}`)
					}
				}
			}
			ingestBenchPost(b, s, `{"ops":[{"add_clients":[{"x":1,"y":1}]},{"remove_clients":[0]}]}`)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, body := range bodies[i%len(bodies)] {
					ingestBenchPost(b, s, body)
				}
			}
			b.ReportMetric(float64(b.N*opsPerIter)/b.Elapsed().Seconds(), "mutations/sec")
		})
	}
}

// BenchmarkReadUnderWriteLoad measures read latency while the ingestion
// path is busy: a background writer streams 64-op batches through POST
// /mutations as fast as commits allow, and the timed region issues point
// queries (one iteration = 256 reads). ns/op tracks the mean read and the
// p99-ms metric the tail — the number a dashboard user actually feels while
// the feed is live.
func BenchmarkReadUnderWriteLoad(b *testing.B) {
	const readsPerIter = 256
	s, bounds := ingestBenchServer(b, 2*time.Millisecond)
	rng := rand.New(rand.NewSource(43))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(47))
		for {
			select {
			case <-stop:
				return
			default:
			}
			ops := ingestBenchOps(wrng, bounds, 64)
			body := `{"ops":[` + strings.Join(ops, ",") + `]}`
			req := httptest.NewRequest(http.MethodPost, "/v1/mutations", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code == http.StatusTooManyRequests {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	queries := make([]string, 1024)
	for i := range queries {
		x := bounds.MinX + rng.Float64()*bounds.Width()
		y := bounds.MinY + rng.Float64()*bounds.Height()
		queries[i] = fmt.Sprintf("/v1/heat?x=%g&y=%g", x, y)
	}
	read := func(q string) time.Duration {
		t0 := time.Now()
		req := httptest.NewRequest(http.MethodGet, q, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s = %d: %s", q, rec.Code, rec.Body)
		}
		return time.Since(t0)
	}
	// Warm the query path before the timer (see BenchmarkHeatAt).
	for i := 0; i < 64; i++ {
		read(queries[i])
	}
	lat := make([]time.Duration, 0, b.N*readsPerIter)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < readsPerIter; j++ {
			lat = append(lat, read(queries[(i*readsPerIter+j)%len(queries)]))
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[int(0.99*float64(len(lat)-1))]
	b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99-ms")
}

// BenchmarkWALShip measures the cluster replication hot path: one iteration
// serves a full WAL fetch the way the owner's /cluster/maps/{map}/wal
// endpoint does — Tail.RecordsSince over the on-disk log, then the CRC-framed
// wire encoding — and replays the decode the replica performs before
// ApplyDeltaBatch. The records/sec metric is the per-map ship ceiling; the
// gate watches ns/op and allocs/op so pooling regressions on the tailing
// path (the PR 10 surface) fail CI.
func BenchmarkWALShip(b *testing.B) {
	const (
		nRecords = 256
		opsPer   = 4
	)
	dir := b.TempDir()
	path := filepath.Join(dir, "ship.wal")
	w, _, err := snapshot.OpenWAL(path)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	pt := func() geom.Point { return geom.Pt(rng.Float64(), rng.Float64()) }
	for v := uint64(1); v <= nRecords; v++ {
		rec := snapshot.Record{Version: v, AddClients: []geom.Point{pt(), pt()}}
		for i := 1; i < opsPer; i++ {
			rec.Extra = append(rec.Extra, snapshot.Op{
				AddClients:    []geom.Point{pt()},
				RemoveClients: []int{int(v) % 7},
			})
		}
		if err := w.AppendBatch([]snapshot.Record{rec}); err != nil {
			b.Fatal(err)
		}
	}
	tail, err := snapshot.OpenTail(path)
	if err != nil {
		b.Fatal(err)
	}
	defer tail.Close()
	defer w.Close()

	b.ReportAllocs()
	b.ResetTimer()
	var bytesShipped int64
	for i := 0; i < b.N; i++ {
		recs, err := tail.RecordsSince(0, nRecords, nRecords)
		if err != nil {
			b.Fatal(err)
		}
		wire := snapshot.EncodeRecords(recs)
		got, err := snapshot.ReadRecords(bytes.NewReader(wire))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != nRecords || got[nRecords-1].Version != nRecords {
			b.Fatalf("shipped %d records, want %d", len(got), nRecords)
		}
		bytesShipped += int64(len(wire))
	}
	b.StopTimer()
	b.SetBytes(bytesShipped / int64(b.N))
	b.ReportMetric(float64(b.N*nRecords)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkSnapshotLoad measures cold-start restore of a dense L2 map (10
// clients per facility — the densest L2 regime whose slab decomposition
// fits the cell cap, so the file embeds the point-location index) through
// the one load path, OpenSnapshot's mmap open. Every iteration re-opens the
// file and answers one point query, so the number includes section
// validation and the first slab lookup but no decode and no index rebuild.
// The sub-benchmark keeps its v2-mmap name so its baseline line carries
// over.
func BenchmarkSnapshotLoad(b *testing.B) {
	m := benchMap(b, 1000, 100, geom.L2)
	path := filepath.Join(b.TempDir(), "snap.bin")
	if err := m.SaveSnapshot(path, 1); err != nil {
		b.Fatal(err)
	}
	bounds := m.Bounds()
	probe := heatmap.Pt(bounds.MinX+bounds.Width()/3, bounds.MinY+bounds.Height()/3)
	want, _ := m.HeatAt(probe)
	b.Run("v2-mmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lm, _, err := heatmap.OpenSnapshot(path)
			if err != nil {
				b.Fatal(err)
			}
			heat, _ := lm.HeatAt(probe)
			if heat != want {
				b.Fatalf("heat %v != %v", heat, want)
			}
			benchHeatSink += heat
		}
	})
}
