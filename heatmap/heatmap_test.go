package heatmap

import (
	"math/rand"
	"sort"
	"testing"
)

func smallConfig(metric Metric) Config {
	return Config{
		Clients: []Point{
			Pt(3, 0), Pt(4, 4), Pt(2, -1), Pt(6, 1),
		},
		Facilities: []Point{Pt(0, 0), Pt(10, 0)},
		Metric:     metric,
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Errorf("empty config should error")
	}
	if _, err := Build(Config{Clients: []Point{Pt(0, 0)}, Metric: Metric(9)}); err == nil {
		t.Errorf("invalid metric should error")
	}
	if _, err := Build(Config{Clients: []Point{Pt(0, 0)}}); err == nil {
		t.Errorf("missing facilities should error")
	}
	if _, err := Build(Config{Clients: []Point{Pt(0, 0)}, Facilities: []Point{Pt(1, 1)}, Algorithm: "nope"}); err == nil {
		t.Errorf("unknown algorithm should error")
	}
}

func TestBuildAndQuery(t *testing.T) {
	for _, metric := range []Metric{LInf, L1, L2} {
		m, err := Build(smallConfig(metric))
		if err != nil {
			t.Fatalf("metric %v: %v", metric, err)
		}
		if m.NumRegions() == 0 {
			t.Fatalf("metric %v: no regions", metric)
		}
		maxHeat, best := m.MaxHeat()
		if maxHeat < 1 || len(best.RNN) == 0 {
			t.Errorf("metric %v: MaxHeat = %g, best = %+v", metric, maxHeat, best)
		}
		// The heat at the best region's representative point must equal the
		// region's heat.
		h, rnn := m.HeatAt(best.Point)
		if h != best.Heat {
			t.Errorf("metric %v: HeatAt(best) = %g, want %g (rnn %v vs %v)", metric, h, best.Heat, rnn, best.RNN)
		}
		// A far away point has no influence.
		if h, rnn := m.HeatAt(Pt(1e6, 1e6)); h != 0 || len(rnn) != 0 {
			t.Errorf("metric %v: distant point should have zero heat", metric)
		}
		if m.Stats().Labelings == 0 || m.Stats().Circles == 0 {
			t.Errorf("metric %v: stats not populated", metric)
		}
	}
}

func TestTopKAndThreshold(t *testing.T) {
	m, err := Build(smallConfig(LInf))
	if err != nil {
		t.Fatal(err)
	}
	top := m.TopK(3)
	if len(top) == 0 || len(top) > 3 {
		t.Fatalf("TopK returned %d regions", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Heat > top[i-1].Heat {
			t.Errorf("TopK not sorted")
		}
	}
	maxHeat, _ := m.MaxHeat()
	if top[0].Heat != maxHeat {
		t.Errorf("TopK[0] = %g, MaxHeat = %g", top[0].Heat, maxHeat)
	}
	above := m.AboveThreshold(maxHeat)
	for _, r := range above {
		if r.Heat < maxHeat {
			t.Errorf("AboveThreshold returned region below threshold")
		}
	}
	if len(above) == 0 {
		t.Errorf("AboveThreshold(max) should return at least the max region")
	}
	if len(m.Regions()) != m.NumRegions() {
		t.Errorf("Regions length mismatch")
	}
}

func TestAlgorithmsProduceSameMax(t *testing.T) {
	cfg := smallConfig(L1)
	var maxes []float64
	for _, alg := range []Algorithm{AlgCREST, AlgCRESTA, AlgBaseline} {
		cfg.Algorithm = alg
		m, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		h, _ := m.MaxHeat()
		maxes = append(maxes, h)
	}
	if maxes[0] != maxes[1] || maxes[0] != maxes[2] {
		t.Errorf("algorithms disagree on max heat: %v", maxes)
	}
}

func TestMeasures(t *testing.T) {
	cfg := smallConfig(LInf)
	cfg.Measure = Connectivity([][2]int{{0, 1}, {0, 3}, {1, 3}})
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := m.MaxHeat(); h != 3 {
		t.Errorf("connectivity max = %g, want 3", h)
	}

	cfg.Measure = Weighted([]float64{10, 1, 1, 1})
	m, err = Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := m.MaxHeat(); h != 13 {
		t.Errorf("weighted max = %g, want 13", h)
	}

	cfg.Measure = Capacity([]int{0, 0, 0, 1}, []float64{2, 2}, 2)
	if _, err := Build(cfg); err != nil {
		t.Fatalf("capacity measure: %v", err)
	}

	cfg.Measure = CustomMeasure("even-clients", func(clients []int) float64 {
		n := 0.0
		for _, c := range clients {
			if c%2 == 0 {
				n++
			}
		}
		return n
	})
	m, err = Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, top := m.MaxHeat()
	if h != 2 {
		t.Errorf("custom measure max = %g, want 2 (clients 0 and 2)", h)
	}
	// The slab index and a commit reuse the map's label pool only after
	// comparing its measure with the map's, which a func-valued measure
	// must survive.
	if got, _ := m.HeatAt(top.Point); got != 2 {
		t.Errorf("custom measure HeatAt(%v) = %g, want 2", top.Point, got)
	}
	next, _, err := m.ApplyDelta(Delta{AddClients: []Point{top.Point}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := next.HeatAt(top.Point); got < 2 {
		t.Errorf("custom measure HeatAt(%v) after a commit = %g, want at least 2", top.Point, got)
	}
}

func TestMonochromatic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*20, rng.Float64()*20)
	}
	m, err := Build(Config{Clients: pts, Monochromatic: true, Metric: L2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRegions() == 0 {
		t.Fatalf("no regions")
	}
	// Monochromatic RNN sets have at most 6 members under L2.
	if m.Stats().MaxRNNSetSize > 6 {
		t.Errorf("monochromatic λ = %d", m.Stats().MaxRNNSetSize)
	}
}

func TestHeatAtAgreesWithRegions(t *testing.T) {
	m, err := Build(smallConfig(L2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Regions() {
		h, rnn := m.HeatAt(r.Point)
		if h != r.Heat {
			// Representative points of one-ulp sliver regions may resolve to
			// a neighboring region; only flag solid disagreements.
			if !sort.IntsAreSorted(rnn) || absFloat(h-r.Heat) > 1+1e-9 {
				t.Errorf("HeatAt(%v) = %g, region heat %g", r.Point, h, r.Heat)
			}
		}
	}
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestRenderOutputs(t *testing.T) {
	m, err := Build(smallConfig(L2))
	if err != nil {
		t.Fatal(err)
	}
	raster, err := m.Rasterize(64)
	if err != nil {
		t.Fatal(err)
	}
	if raster.Width != 64 {
		t.Errorf("raster width = %d", raster.Width)
	}
	art, err := m.ASCII(40)
	if err != nil || len(art) == 0 {
		t.Errorf("ASCII failed: %v", err)
	}
	if err := m.SavePNG(t.TempDir()+"/map.png", 64); err != nil {
		t.Errorf("SavePNG: %v", err)
	}
}

func TestDatasetHelpers(t *testing.T) {
	if NewYorkLike(100, 1).Len() != 100 || LosAngelesLike(100, 1).Len() != 100 {
		t.Errorf("city helpers wrong size")
	}
	if UniformDataset(50, 10, 1).Len() != 50 || ZipfianDataset(50, 10, 0.2, 1).Len() != 50 {
		t.Errorf("synthetic helpers wrong size")
	}
	// End-to-end: sample a small workload from a city and build a map.
	ds := NewYorkLike(2000, 3)
	clients, facilities := ds.SampleClientsFacilities(200, 20, 7)
	m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2})
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := m.MaxHeat(); h < 1 {
		t.Errorf("city heat map max = %g", h)
	}
}

func TestBoundsCoverEveryRegion(t *testing.T) {
	m, err := Build(smallConfig(L2))
	if err != nil {
		t.Fatal(err)
	}
	b := m.Bounds()
	if b.IsEmpty() || b.Width() <= 0 || b.Height() <= 0 {
		t.Fatalf("Bounds = %v, want a non-degenerate rectangle", b)
	}
	for _, r := range m.Regions() {
		if !b.Contains(r.Point) {
			t.Errorf("region point %v outside Bounds %v", r.Point, b)
		}
	}
	// Outside the bounds the heat is the empty-set heat.
	heat, rnn := m.HeatAt(Pt(b.MaxX+1, b.MaxY+1))
	if heat != 0 || len(rnn) != 0 {
		t.Errorf("heat outside bounds = %v %v, want 0 and empty", heat, rnn)
	}
}

func TestHeatAtBatchAgreesWithHeatAt(t *testing.T) {
	m, err := Build(smallConfig(L2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b := m.Bounds()
	ps := make([]Point, 100)
	for i := range ps {
		ps[i] = Pt(
			b.MinX-1+rng.Float64()*(b.Width()+2),
			b.MinY-1+rng.Float64()*(b.Height()+2),
		)
	}
	heats, rnns := m.HeatAtBatch(ps)
	if len(heats) != len(ps) || len(rnns) != len(ps) {
		t.Fatalf("batch sizes = %d, %d; want %d", len(heats), len(rnns), len(ps))
	}
	for i, p := range ps {
		wantHeat, wantRNN := m.HeatAt(p)
		if heats[i] != wantHeat {
			t.Errorf("point %v: batch heat %v, HeatAt %v", p, heats[i], wantHeat)
		}
		if !sort.IntsAreSorted(rnns[i]) {
			t.Errorf("point %v: batch RNN %v not sorted", p, rnns[i])
		}
		if len(rnns[i]) != len(wantRNN) {
			t.Errorf("point %v: batch RNN %v, HeatAt RNN %v", p, rnns[i], wantRNN)
			continue
		}
		for j := range wantRNN {
			if rnns[i][j] != wantRNN[j] {
				t.Errorf("point %v: batch RNN %v, HeatAt RNN %v", p, rnns[i], wantRNN)
				break
			}
		}
	}
}

func TestRasterizeRectMatchesFullRasterize(t *testing.T) {
	m, err := Build(smallConfig(LInf))
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.Rasterize(32)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.RasterizeRect(full.Bounds, full.Width, full.Height)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Values {
		if full.Values[i] != sub.Values[i] {
			t.Fatalf("pixel %d: RasterizeRect %g, Rasterize %g", i, sub.Values[i], full.Values[i])
		}
	}
}

func TestRendererIsSharedAndCounted(t *testing.T) {
	m, err := Build(smallConfig(L2))
	if err != nil {
		t.Fatal(err)
	}
	rd1, err := m.Renderer()
	if err != nil {
		t.Fatal(err)
	}
	rd2, err := m.Renderer()
	if err != nil {
		t.Fatal(err)
	}
	if rd1 != rd2 {
		t.Fatal("Renderer must return the same shared instance")
	}
	before := rd1.Calls()
	if _, err := m.RasterizeRect(m.Bounds(), 8, 8); err != nil {
		t.Fatal(err)
	}
	if rd1.Calls() != before+1 {
		t.Fatalf("RasterizeRect did not go through the shared renderer")
	}
}

func TestMeasureName(t *testing.T) {
	m, err := Build(smallConfig(L2))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MeasureName(); got != "size" {
		t.Errorf("MeasureName = %q, want size", got)
	}
	cfg := smallConfig(L2)
	cfg.Measure = Weighted([]float64{1, 2, 3, 4})
	m, err = Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MeasureName(); got != "weighted" {
		t.Errorf("MeasureName = %q, want weighted", got)
	}
}

func TestSummaryAndHistogram(t *testing.T) {
	m, err := Build(smallConfig(L2))
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	if s.Count != m.NumRegions() {
		t.Errorf("Summary.Count = %d, want %d regions", s.Count, m.NumRegions())
	}
	// The summary is computed once per map: a later call keys no label.
	if allocs := testing.AllocsPerRun(5, func() { m.Summary() }); allocs != 0 {
		t.Errorf("a repeated Summary allocates %v times, want 0", allocs)
	}
	maxHeat, _ := m.MaxHeat()
	if s.MaxHeat != maxHeat {
		t.Errorf("Summary.MaxHeat = %v, want %v", s.MaxHeat, maxHeat)
	}
	edges, counts := m.HeatHistogram(4)
	if len(edges) != 5 || len(counts) != 4 {
		t.Fatalf("histogram shape = %d edges, %d counts; want 5 and 4", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != m.NumRegions() {
		t.Errorf("histogram counts sum to %d, want %d", total, m.NumRegions())
	}
}

func TestNearestAssignment(t *testing.T) {
	cfg := smallConfig(L2)
	got, err := NearestAssignment(cfg.Clients, cfg.Facilities, L2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfg.Clients) {
		t.Fatalf("assignment length = %d, want %d", len(got), len(cfg.Clients))
	}
	for i, c := range cfg.Clients {
		best, bestD := 0, L2.Distance(c, cfg.Facilities[0])
		for j, f := range cfg.Facilities[1:] {
			if d := L2.Distance(c, f); d < bestD {
				bestD, best = d, j+1
			}
		}
		if L2.Distance(c, cfg.Facilities[got[i]]) != bestD {
			t.Errorf("client %d assigned facility %d (dist %v), nearest is %d (dist %v)",
				i, got[i], L2.Distance(c, cfg.Facilities[got[i]]), best, bestD)
		}
	}
	if _, err := NearestAssignment(cfg.Clients, nil, L2); err == nil {
		t.Error("empty facility set should error")
	}
}
