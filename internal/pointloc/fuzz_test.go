package pointloc

import (
	"math"
	"math/rand"
	"testing"

	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// fuzzParams folds raw fuzz inputs into a valid instance description, in the
// style of core.FuzzRegionColoring. Bit 0 of snapSel snaps testInstance's
// points and bit 1 picks dataset.NearDegenerate instead; every committed
// corpus entry has bit 1 clear, so it keeps the instance it was recorded
// with.
func fuzzParams(nc, nf, metricSel, snapSel int64) (nClients, nFacilities int, metric geom.Metric, snapped, degenerate bool) {
	nClients = 2 + int(abs64(nc)%30)
	nFacilities = 1 + int(abs64(nf)%8)
	metric = []geom.Metric{geom.LInf, geom.L1, geom.L2}[abs64(metricSel)%3]
	snapped = abs64(snapSel)%2 == 1
	return nClients, nFacilities, metric, snapped, abs64(snapSel)&2 != 0
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

// FuzzPointLocation is the point-location differential fuzz harness: random
// (and snapped-integer degenerate) instances across all three metrics, and
// dataset.NearDegenerate's tangent, equal-radius and offset instances; the
// slab index — built, and opened from the instance's own snapshot — held
// byte-identical to the enclosure oracle on the adversarial probe set —
// boundary points included — plus one fully fuzzer-chosen query point, and
// one fuzzer-chosen raster (top-left corner at the query point, rw x rh
// pixels of the given pitch) held to per-pixel Query by HeatGrid (seed
// corpus in testdata/fuzz/FuzzPointLocation). On a near-degenerate instance
// HeatGrid also renders a 16x16 window centered on each probe, at pitches
// down to 1e-9, where the L2 epsilon band (2e-3 wide at an offset of 1e6)
// puts whole windows on the exact path.
func FuzzPointLocation(f *testing.F) {
	f.Add(int64(1), int64(8), int64(3), int64(0), int64(0), 10.0, 10.0, int64(7), int64(5), 0.5)
	f.Add(int64(2), int64(20), int64(5), int64(1), int64(1), 32.0, 0.0, int64(1), int64(40), 1.0)
	f.Add(int64(3), int64(14), int64(2), int64(2), int64(0), 63.5, 63.5, int64(48), int64(48), 1.5)
	f.Add(int64(909), int64(27), int64(7), int64(0), int64(1), -1.0, 12.0, int64(30), int64(1), 0.25)
	f.Add(int64(-77), int64(30), int64(4), int64(2), int64(1), 7.25, 41.0, int64(16), int64(9), 1e-9)
	f.Add(int64(5), int64(16), int64(3), int64(0), int64(2), 20.0, 20.0, int64(8), int64(8), 1e-6)
	f.Add(int64(6), int64(16), int64(4), int64(1), int64(2), 20.0, 20.0, int64(8), int64(8), 1e-6)
	f.Add(int64(7), int64(16), int64(5), int64(2), int64(2), 20.0, 20.0, int64(8), int64(8), 1e-6)
	f.Fuzz(func(t *testing.T, seed, nc, nf, metricSel, snapSel int64, qx, qy float64, rw, rh int64, pitch float64) {
		nClients, nFacilities, metric, snapped, degenerate := fuzzParams(nc, nf, metricSel, snapSel)
		var circles []nncircle.NNCircle
		if degenerate {
			clients, facilities := dataset.NearDegenerate(seed, nClients, nFacilities, metric)
			var err error
			if circles, err = nncircle.Compute(clients, facilities, metric); err != nil {
				t.Fatalf("nncircle.Compute: %v", err)
			}
		} else {
			circles, _ = testInstance(t, seed, nClients, nFacilities, metric, snapped)
		}
		ix, err := Build(circles, nil, Options{})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		o := newOracle(circles, influence.Size())
		rng := rand.New(rand.NewSource(seed ^ 0xf0cacc1a))
		probes := probePoints(rng, circles, 40)
		if !math.IsNaN(qx) && !math.IsInf(qx, 0) && !math.IsNaN(qy) && !math.IsInf(qy, 0) {
			probes = append(probes, geom.Pt(qx, qy))
		}
		opened := openedFromIndex(t, ix, influence.Size())
		for _, p := range probes {
			assertSameAnswer(t, ix, o, p, "fuzz")
			assertSameAnswer(t, opened, o, p, "fuzz opened")
		}
		if b, w, h, ok := fuzzRaster(qx, qy, rw, rh, pitch); ok {
			assertGridMatchesQuery(t, ix, b, w, h, "fuzz raster")
			assertGridMatchesQuery(t, opened, b, w, h, "fuzz opened raster")
		}
		if !degenerate {
			return
		}
		pitches := []float64{1e-2, 1e-4, 1e-6, 1e-9}
		for _, p := range probes {
			tgt := gridTarget{x: p.X, y: p.Y, pitch: pitches[rng.Intn(len(pitches))]}
			if b, ok := alignedBounds(tgt, 16, 16, 8, 8); ok {
				assertGridMatchesQuery(t, ix, b, 16, 16, "near-degenerate window")
				assertGridMatchesQuery(t, opened, b, 16, 16, "near-degenerate opened window")
			}
		}
	})
}

// fuzzRaster folds raw fuzz inputs into a raster of at most 48x48 pixels
// whose top-left corner is (qx, qy); ok is false for non-finite inputs.
func fuzzRaster(qx, qy float64, rw, rh int64, pitch float64) (b geom.Rect, w, h int, ok bool) {
	w, h = 1+int(abs64(rw)%48), 1+int(abs64(rh)%48)
	pitch = math.Abs(pitch)
	b = geom.Rect{MinX: qx, MaxX: qx + float64(w)*pitch, MinY: qy - float64(h)*pitch, MaxY: qy}
	for _, v := range []float64{b.MinX, b.MaxX, b.MinY, b.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, w, h, false
		}
	}
	return b, w, h, true
}
