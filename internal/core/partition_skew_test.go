package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// Adversarially skewed inputs for the weighted partition layer: instances
// whose event distribution defeats a uniform x-split (everything in one
// cluster, Zipfian cluster masses, massive duplicate-x events). Each must
// still produce the byte-identical sequential result for every worker count,
// and the Zipfian case additionally pins the load-balance property the
// weighted splitter exists for.

// skewInstance builds the named adversarial instance. Every shape keeps a
// few hundred clients so the suites stay fast while still spanning many
// strips at 7 workers.
func skewInstance(t testing.TB, name string, metric geom.Metric) []nncircle.NNCircle {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	n := 360
	if metric == geom.L2 {
		// The L2 event count grows with the number of boundary
		// intersections, which the dense duplicate-x grid maximizes.
		n = 130
	}
	if testing.Short() {
		n /= 3
	}
	var clients, facilities []geom.Point
	switch name {
	case "zipf-clusters":
		// Cluster k at x = 100k holds ~n/2^k of the clients: the first strip
		// boundary of a uniform split would put half the events in one strip.
		k, remaining := 0, n
		for remaining > 0 {
			take := remaining/2 + 1
			if take > remaining {
				take = remaining
			}
			cx := float64(100 * k)
			for i := 0; i < take; i++ {
				clients = append(clients, geom.Pt(cx+rng.Float64()*4, rng.Float64()*40))
			}
			facilities = append(facilities, geom.Pt(cx+rng.Float64()*4, rng.Float64()*40))
			remaining -= take
			k++
		}
	case "one-strip":
		// Every circle inside a sliver narrower than any strip can be: the
		// splitter must degrade to (near-)sequential without distorting the
		// merge.
		for i := 0; i < n; i++ {
			clients = append(clients, geom.Pt(rng.Float64()*0.25, rng.Float64()*0.25))
		}
		for i := 0; i < 5; i++ {
			facilities = append(facilities, geom.Pt(rng.Float64()*0.25, rng.Float64()*0.25))
		}
	case "duplicate-x":
		// Clients on a coarse integer grid: circle sides coincide exactly, so
		// few distinct event abscissae each carry huge insert/remove lists —
		// the event-count weighting must split between them, never inside.
		for i := 0; i < n; i++ {
			clients = append(clients, geom.Pt(float64(i%6)*10, float64(i/6)))
		}
		for i := 0; i < 6; i++ {
			facilities = append(facilities, geom.Pt(float64(i)*10+3, 30))
		}
	default:
		t.Fatalf("unknown skew instance %q", name)
	}
	ncs, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		t.Fatalf("nncircle.Compute: %v", err)
	}
	return ncs
}

// TestParallelEquivalenceSkewed is the equivalence contract on the
// adversarial shapes: for every metric and worker count the weighted
// partition produces exactly the sequential result — labels position by
// position, maximum, and every statistic.
func TestParallelEquivalenceSkewed(t *testing.T) {
	t.Parallel()
	for _, shape := range []string{"zipf-clusters", "one-strip", "duplicate-x"} {
		for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
			ncs := skewInstance(t, shape, metric)
			seq, err := CREST(ncs, Options{Measure: influence.Size(), Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s/%s/workers=%d", shape, metric, workers)
				par, err := CREST(ncs, Options{Measure: influence.Size(), Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertSameResult(t, name, seq, par)
			}
		}
	}
}

// TestSplitSpansWeightBalance pins the property the weighted splitter was
// built for: on the Zipfian cluster instance — where an even split of the
// x-range would leave one strip with half the work — every strip's event
// weight stays within a constant factor of the mean. The bound below allows
// the greedy splitter its two legitimate overshoots (finishing the event
// that crosses the target, and topping up to minStripEvents) and nothing
// more.
func TestSplitSpansWeightBalance(t *testing.T) {
	t.Parallel()
	ncs := skewInstance(t, "zipf-clusters", geom.LInf)
	events := buildEvents(ncs)
	maxEvent := 0
	total := 0
	for i := range events {
		w := eventWeight(&events[i])
		total += w
		if w > maxEvent {
			maxEvent = w
		}
	}
	for _, workers := range []int{2, 4, 7} {
		strips := splitSpans(events, 0, len(events), workers*stripsPerWorker, events[len(events)-1].x)
		if len(strips) < 2 {
			t.Fatalf("workers=%d: instance too small to split (%d strips over %d events)", workers, len(strips), len(events))
		}
		mean := total / len(strips)
		// A strip stops growing once it reaches its target (≈ the mean of
		// the remaining weight), so it can exceed the mean only by the one
		// event that crossed the line — or hold minStripEvents tiny events.
		bound := 2*mean + maxEvent + minStripEvents
		for i, st := range strips {
			if st.weight > bound {
				t.Fatalf("workers=%d: strip %d weight %d exceeds balance bound %d (mean %d, heaviest event %d, %d strips)",
					workers, i, st.weight, bound, mean, maxEvent, len(strips))
			}
		}
	}
}
