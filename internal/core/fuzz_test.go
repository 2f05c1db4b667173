package core

import (
	"math"
	"math/rand"
	"testing"

	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// Differential fuzzing of the Region Coloring algorithms. The paper supplies
// its own ground truth: the Θ(n²) grid baseline of Section IV resolves every
// cell of the full arrangement with point-enclosure queries, so for the
// rectilinear metrics CREST must reproduce it region for region. The L2
// metric (where the baseline is undefined) is checked differentially against
// the sequential sweep and against brute-force oracle probes instead.

// fuzzInstance derives a deterministic, deliberately degenerate instance from
// a seed: a quarter of the coordinates are snapped to the integer grid (so
// circle sides coincide exactly), and clients occasionally sit on a facility
// (zero-radius circles).
func fuzzInstance(t testing.TB, seed int64, nClients, nFacilities int, metric geom.Metric) []nncircle.NNCircle {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pt := func() geom.Point {
		p := geom.Pt(rng.Float64()*64, rng.Float64()*64)
		if rng.Intn(4) == 0 {
			p = geom.Pt(math.Round(p.X), math.Round(p.Y))
		}
		return p
	}
	facilities := make([]geom.Point, nFacilities)
	for i := range facilities {
		facilities[i] = pt()
	}
	clients := make([]geom.Point, nClients)
	for i := range clients {
		if rng.Intn(12) == 0 {
			clients[i] = facilities[rng.Intn(len(facilities))]
		} else {
			clients[i] = pt()
		}
	}
	ncs, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		t.Fatalf("nncircle.Compute: %v", err)
	}
	return ncs
}

// nearDegenerateInstance returns the NN-circles of dataset.NearDegenerate's
// instance for seed.
func nearDegenerateInstance(t testing.TB, seed int64, nClients, nFacilities int, metric geom.Metric) []nncircle.NNCircle {
	t.Helper()
	clients, facilities := dataset.NearDegenerate(seed, nClients, nFacilities, metric)
	ncs, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		t.Fatalf("nncircle.Compute: %v", err)
	}
	return ncs
}

// checkDifferential runs CREST on one instance and cross-validates it: for
// L-infinity and L1 against the grid baseline (region for region on solid
// labels, maximum bracketed), for L2 against the sequential sweep; for every
// metric the labels are checked against the brute-force oracle and random
// probes against completeness.
//
// With degenerate set the instance comes from nearDegenerateInstance. The
// rectilinear metrics keep every check. L2 keeps the sequential-versus-
// parallel identity and compares with the retained sweep
// (crestl2_oracle_test.go): the label check holds wherever it holds for the
// retained sweep, and every RNN set it labels must be labeled too. The
// probes are left out, since CREST-L2 misses faces born at a shared point
// in a slab too thin to separate their arcs (see ROADMAP item 7).
func checkDifferential(t *testing.T, seed int64, nClients, nFacilities int, metric geom.Metric, workers int, degenerate bool) {
	t.Helper()
	instance := fuzzInstance
	if degenerate {
		instance = nearDegenerateInstance
	}
	ncs := instance(t, seed, nClients, nFacilities, metric)
	res, err := CREST(ncs, Options{Workers: workers})
	if err != nil {
		if err == ErrNoCircles {
			return // every client sat on a facility: nothing to color
		}
		t.Fatalf("CREST: %v", err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	if metric != geom.L2 || !degenerate {
		checkLabelsAgainstOracle(t, "crest", ncs, res.Labels)
		checkCompleteness(t, "crest", ncs, res.Labels, rng, 300)
	}

	if metric == geom.L2 {
		seq, err := CREST(ncs, Options{Workers: 1})
		if err != nil {
			t.Fatalf("sequential CREST: %v", err)
		}
		assertSameResult(t, "fuzz-l2", seq, res)
		if degenerate {
			// The labels pass the label check wherever the retained sweep's
			// do: at an offset of 1e6 its clustering epsilon reaches 1e-3,
			// and an event can drop a circle that far left of its right
			// extreme (ROADMAP item 7). Every RNN set the retained sweep
			// labels, the sweep labels too.
			_, usable, _ := validateInput(ncs)
			oracle, _ := oracleCRESTL2(usable, Options{})
			if mislabeled(ncs, oracle.Labels) < 0 {
				checkLabelsAgainstOracle(t, "crest", ncs, res.Labels)
			}
			keys := labelKeys(res.Labels)
			for key := range labelKeys(oracle.Labels) {
				if !keys[key] {
					t.Fatalf("RNN set %q labeled by the retained sweep but not by CREST", key)
				}
			}
		}
		return
	}

	base, err := Baseline(ncs, Options{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	const eps = 1e-9
	crestKeys, baseKeys := labelKeys(res.Labels), labelKeys(base.Labels)
	for key := range labelKeys(solidLabels(base.Labels, eps)) {
		if key == "" {
			continue // exterior cells of the baseline grid
		}
		if !crestKeys[key] {
			t.Fatalf("baseline region %q missing from CREST", key)
		}
	}
	for key := range labelKeys(solidLabels(res.Labels, eps)) {
		if !baseKeys[key] {
			t.Fatalf("CREST region %q missing from baseline", key)
		}
	}
	// Maxima are compared on the baseline's solid cells only. A degenerate
	// one-ulp cell's centroid sits numerically on several circle boundaries
	// at once, and the strict enclosure query there can assemble a chimera
	// set that belongs to no real region (mixing circles from both sides of
	// a boundary), overshooting the true maximum. A solid cell's centroid is
	// well clear of every boundary, so its set — and heat — is exact.
	tol := 1e-9 * (1 + res.MaxHeat)
	baseSolidMax := 0.0
	for _, l := range solidLabels(base.Labels, eps) {
		if l.Heat > baseSolidMax {
			baseSolidMax = l.Heat
		}
	}
	if baseSolidMax > res.MaxHeat+tol {
		t.Fatalf("baseline solid max %g exceeds CREST max %g", baseSolidMax, res.MaxHeat)
	}
	if res.Stats.Labelings > base.Stats.GridCells {
		t.Fatalf("CREST labeled %d regions, more than the baseline's %d grid cells",
			res.Stats.Labelings, base.Stats.GridCells)
	}
}

// fuzzParams folds raw fuzz inputs into a valid instance description. Bit 0
// of workerSel picks the worker count and bit 1 the near-degenerate
// generator; every committed corpus entry has bit 1 clear, so it keeps the
// instance it was recorded with.
func fuzzParams(nc, nf, metricSel, workerSel int64) (nClients, nFacilities int, metric geom.Metric, workers int, degenerate bool) {
	nClients = 2 + int(abs64(nc)%28)
	nFacilities = 1 + int(abs64(nf)%8)
	metric = []geom.Metric{geom.LInf, geom.L1, geom.L2}[abs64(metricSel)%3]
	workers = 1
	if abs64(workerSel)%2 == 1 {
		workers = 3
	}
	return nClients, nFacilities, metric, workers, abs64(workerSel)&2 != 0
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == math.MinInt64 {
			return 0
		}
		return -v
	}
	return v
}

// FuzzRegionColoring is the differential fuzz harness: random small
// client/facility sets across all three metrics and worker counts 1 and 3,
// asserting CREST agrees with the paper's baseline oracle (seed corpus in
// testdata/fuzz/FuzzRegionColoring; CI runs a short -fuzz smoke on top of
// the corpus replay).
func FuzzRegionColoring(f *testing.F) {
	f.Add(int64(1), int64(8), int64(3), int64(0), int64(0))
	f.Add(int64(2), int64(20), int64(5), int64(1), int64(1))
	f.Add(int64(3), int64(14), int64(2), int64(2), int64(0))
	f.Add(int64(909), int64(27), int64(7), int64(0), int64(1))
	f.Add(int64(4242), int64(11), int64(1), int64(1), int64(0))
	f.Add(int64(-77), int64(30), int64(4), int64(2), int64(1))
	// Largest rectilinear instance at workers=3: the duplicate-heavy event
	// lists drive the sweep through the interned-label strip path.
	f.Add(int64(20260807), int64(27), int64(6), int64(0), int64(1))
	f.Fuzz(func(t *testing.T, seed, nc, nf, metricSel, workerSel int64) {
		nClients, nFacilities, metric, workers, degenerate := fuzzParams(nc, nf, metricSel, workerSel)
		checkDifferential(t, seed, nClients, nFacilities, metric, workers, degenerate)
	})
}

// TestCRESTVsBaselineRandom is the seeded, always-on slice of the fuzz
// harness: randomized instances across all three metrics, both worker
// counts and both generators, checked through the same differential oracle.
func TestCRESTVsBaselineRandom(t *testing.T) {
	t.Parallel()
	perMetric := 12
	if testing.Short() {
		perMetric = 4
	}
	rng := rand.New(rand.NewSource(20260728))
	for _, degenerate := range []bool{false, true} {
		for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
			for trial := 0; trial < perMetric; trial++ {
				workers := 1 + 2*(trial%2)
				nClients := 4 + rng.Intn(26)
				nFacilities := 1 + rng.Intn(8)
				checkDifferential(t, rng.Int63(), nClients, nFacilities, metric, workers, degenerate)
			}
		}
	}
}
