package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// assertResweepEqual asserts a Resweep outcome equals a full CREST run over
// the same circles: identical label slice (order included), maximum and the
// map-describing statistics.
func assertResweepEqual(t *testing.T, name string, full *Result, out *ResweepOutcome) {
	t.Helper()
	got := out.Result
	if len(got.Labels) != len(full.Labels) {
		t.Fatalf("%s: %d labels, full run has %d", name, len(got.Labels), len(full.Labels))
	}
	for i := range full.Labels {
		f, g := full.Labels[i], got.Labels[i]
		if f.Region != g.Region || f.Point != g.Point || f.Heat != g.Heat || setKey(f.RNN) != setKey(g.RNN) {
			t.Fatalf("%s: label %d differs:\nfull    %+v\nresweep %+v", name, i, f, g)
		}
	}
	if got.MaxHeat != full.MaxHeat {
		t.Fatalf("%s: MaxHeat %v, full %v", name, got.MaxHeat, full.MaxHeat)
	}
	if got.MaxLabel.Region != full.MaxLabel.Region || setKey(got.MaxLabel.RNN) != setKey(full.MaxLabel.RNN) {
		t.Fatalf("%s: MaxLabel differs: %+v vs %+v", name, got.MaxLabel, full.MaxLabel)
	}
	if got.Stats.Labelings != full.Stats.Labelings || got.Stats.InfluenceCalls != full.Stats.InfluenceCalls {
		t.Fatalf("%s: labelings %d/%d, full %d/%d", name,
			got.Stats.Labelings, got.Stats.InfluenceCalls, full.Stats.Labelings, full.Stats.InfluenceCalls)
	}
	if got.Stats.MaxRNNSetSize != full.Stats.MaxRNNSetSize {
		t.Fatalf("%s: MaxRNNSetSize %d, full %d", name, got.Stats.MaxRNNSetSize, full.Stats.MaxRNNSetSize)
	}
	if got.Stats.Events != full.Stats.Events || got.Stats.Circles != full.Stats.Circles {
		t.Fatalf("%s: events/circles %d/%d, full %d/%d", name,
			got.Stats.Events, got.Stats.Circles, full.Stats.Events, full.Stats.Circles)
	}
	if !out.Rebuilt && out.EventsReswept > out.EventsTotal {
		t.Fatalf("%s: reswept %d of %d events", name, out.EventsReswept, out.EventsTotal)
	}
	if out.Events == nil || len(out.Events.events) != out.EventsTotal || out.EventsTotal != full.Stats.Events {
		t.Fatalf("%s: the outcome does not carry the %d events it swept", name, full.Stats.Events)
	}
}

// assertPoolRecords requires every label of res to hold the member slice of
// pool's own record of its set, and res to carry pool.
func assertPoolRecords(t *testing.T, name string, pool *LabelInterner, res *Result) {
	t.Helper()
	if res.LabelPool() != pool {
		t.Fatalf("%s: the result carries another label pool than the one passed", name)
	}
	for i, l := range res.Labels {
		rec := pool.lookup(oset.KeyOf(l.RNN))
		if rec == nil || len(l.RNN) > 0 && &rec.RNN[0] != &l.RNN[0] {
			t.Fatalf("%s: label %d's members %v are not the pool's record", name, i, l.RNN)
		}
	}
}

// perturbCircles applies a random small perturbation: removes up to two
// circles, shrinks or grows one, and appends up to two fresh ones. It returns
// the new slice and the perturbed geometries (old and new versions).
func perturbCircles(rng *rand.Rand, ncs []nncircle.NNCircle, metric geom.Metric, span float64) (out []nncircle.NNCircle, perturbed []geom.Circle) {
	out = append(out, ncs...)
	for k := 0; k < 1+rng.Intn(2) && len(out) > 2; k++ {
		i := rng.Intn(len(out))
		perturbed = append(perturbed, out[i].Circle)
		// Swap-remove, the delta layer's deletion order. The moved circle is
		// geometrically unchanged, so it need not be reported as perturbed;
		// reporting it anyway (as the delta layer does when it renumbers the
		// moved client) only widens the dirty interval.
		last := len(out) - 1
		if i != last {
			perturbed = append(perturbed, out[last].Circle)
			out[i] = out[last]
		}
		out = out[:last]
	}
	if len(out) > 0 {
		i := rng.Intn(len(out))
		perturbed = append(perturbed, out[i].Circle)
		c := out[i]
		c.Circle.Radius *= 0.3 + rng.Float64()
		out[i] = c
		perturbed = append(perturbed, c.Circle)
	}
	nextClient := 0
	for _, nc := range out {
		if nc.Client >= nextClient {
			nextClient = nc.Client + 1
		}
	}
	for k := 0; k < 1+rng.Intn(2); k++ {
		c := geom.NewCircle(geom.Pt(rng.Float64()*span, rng.Float64()*span), 0.5+rng.Float64()*span/8, metric)
		out = append(out, nncircle.NNCircle{Client: nextClient, Circle: c})
		nextClient++
		perturbed = append(perturbed, c)
	}
	return out, perturbed
}

// TestResweepMatchesFullRun is the core contract of the incremental layer:
// for random instances and random perturbations, Resweep over the prior
// labels is label-for-label identical to a from-scratch CREST run.
func TestResweepMatchesFullRun(t *testing.T) {
	t.Parallel()
	trials := 10
	if testing.Short() {
		trials = 4
	}
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		metric := metric
		t.Run(metric.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(4101 + int64(metric)))
			n := 120
			if metric == geom.L2 {
				n = 70
			}
			for trial := 0; trial < trials; trial++ {
				ncs, _, _ := randomInstance(t, rng, n, 6, metric, 100)
				for _, workers := range []int{1, 3} {
					opts := Options{Workers: workers}
					priorRes, err := CREST(ncs, opts)
					if err != nil {
						t.Fatal(err)
					}
					cur, perturbed := perturbCircles(rng, ncs, metric, 100)
					full, err := CREST(cur, opts)
					if err != nil {
						t.Fatal(err)
					}
					pool := priorRes.LabelPool()
					out, err := Resweep(cur, opts, priorRes.Labels, perturbed, pool, nil)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/trial=%d/workers=%d", metric, trial, workers)
					if out.Rebuilt {
						t.Fatalf("%s: a resweep with prior labels must splice", name)
					}
					assertResweepEqual(t, name, full, out)
					assertPoolRecords(t, name, pool, out.Result)
				}
			}
		})
	}
}

// TestResweepFallbacks covers the non-splicing paths — missing prior
// labels, DiscardLabels, and an empty perturbation — and the pool rule: a
// pool of another measure is not interned into.
func TestResweepFallbacks(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4202))
	ncs, _, _ := randomInstance(t, rng, 80, 5, geom.LInf, 100)
	prior, err := CREST(ncs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur, perturbed := perturbCircles(rng, ncs, geom.LInf, 100)
	full, err := CREST(cur, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// No prior labels: rebuilt, into the pool it was given.
	pool := prior.LabelPool()
	out, err := Resweep(cur, Options{}, nil, perturbed, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rebuilt {
		t.Fatal("nil prior should force a rebuild")
	}
	assertResweepEqual(t, "nil-prior", full, out)
	assertPoolRecords(t, "nil-prior", pool, out.Result)

	// DiscardLabels: rebuilt (nothing to splice into).
	out, err = Resweep(cur, Options{DiscardLabels: true}, prior.Labels, perturbed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rebuilt || len(out.Result.Labels) != 0 {
		t.Fatalf("DiscardLabels: rebuilt=%v labels=%d", out.Rebuilt, len(out.Result.Labels))
	}

	// An empty perturbation leaves the labels untouched.
	out, err = Resweep(ncs, Options{}, prior.Labels, nil, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rebuilt || out.EventsReswept != 0 {
		t.Fatalf("empty perturbation: rebuilt=%v reswept=%d", out.Rebuilt, out.EventsReswept)
	}
	assertResweepEqual(t, "no-op", prior, out)
	assertPoolRecords(t, "no-op", pool, out.Result)

	// A pool of another measure is left alone: the sets are interned into
	// a fresh pool of the run's measure.
	weighted := influence.Weighted(make([]float64, len(cur)))
	out, err = Resweep(cur, Options{}, prior.Labels, perturbed, NewLabelInterner(weighted), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Result.LabelPool().Measure(); got != influence.Size() {
		t.Fatalf("resweep interned into a pool of measure %q", got.Name())
	}
	assertResweepEqual(t, "other-measure pool", full, out)

	// Invalid input still errors.
	if _, err := Resweep(nil, Options{}, prior.Labels, perturbed, nil, nil); err != ErrNoCircles {
		t.Fatalf("Resweep(nil) err = %v, want ErrNoCircles", err)
	}
}

// TestEventRanges exercises the span-to-index mapping directly: extension one
// event left, clamping at the ends, window envelopes and merging.
func TestEventRanges(t *testing.T) {
	t.Parallel()
	xs := []float64{0, 10, 20, 30, 40, 50}
	xOf := func(i int) float64 { return xs[i] }
	cases := []struct {
		name  string
		spans []interval
		want  []eventRange
	}{
		{"interior", []interval{{lo: 18, hi: 32}},
			[]eventRange{{lo: 1, hi: 3, winLo: 10, winHi: 32}}},
		{"below-all", []interval{{lo: -9, hi: -5}},
			[]eventRange{{lo: 0, hi: 0, winLo: -9, winHi: 0}}},
		{"above-all", []interval{{lo: 60, hi: 70}},
			[]eventRange{{lo: 5, hi: 5, winLo: 50, winHi: 70}}},
		{"exact-event", []interval{{lo: 20, hi: 20}},
			[]eventRange{{lo: 1, hi: 2, winLo: 10, winHi: 20}}},
		{"merge-touching", []interval{{lo: 8, hi: 12}, {lo: 19, hi: 21}},
			[]eventRange{{lo: 0, hi: 2, winLo: 0, winHi: 21}}},
		{"disjoint", []interval{{lo: 9, hi: 11}, {lo: 39, hi: 41}},
			[]eventRange{{lo: 0, hi: 1, winLo: 0, winHi: 11}, {lo: 3, hi: 4, winLo: 30, winHi: 41}}},
	}
	for _, tc := range cases {
		got := eventRanges(len(xs), xOf, tc.spans)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: range %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
	if got := eventRanges(len(xs), xOf, nil); got != nil {
		t.Errorf("no spans: got %+v, want nil", got)
	}
}
