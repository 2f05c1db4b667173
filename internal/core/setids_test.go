package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// Every label carries its set's id in the pool it was emitted into
// (Label.Set): the snapshot encoder, the summaries and the optimal ranking
// join sets by it.

// checkSetIDs requires every label of res to carry the id under which res's
// pool holds the label's set and heat.
func checkSetIDs(t *testing.T, ctx string, res *Result) {
	t.Helper()
	heats, sets := res.LabelPool().Table()
	for i, l := range res.Labels {
		if l.Set == 0 || int(l.Set) > len(sets) {
			t.Fatalf("%s: label %d carries set id %d of %d", ctx, i, int64(l.Set)-1, len(sets))
		}
		if id := l.Set - 1; !slices.Equal(sets[id].RNN, l.RNN) || heats[id] != l.Heat {
			t.Fatalf("%s: label %d (%v, heat %v) carries the id of %v, heat %v", ctx, i, l.RNN, l.Heat, sets[id].RNN, heats[id])
		}
	}
}

// idSink numbers the set of every gap it is given, as a slab index does,
// so the strips of a one-pass sweep number sets concurrently with their
// collectors.
type idSink struct{ pool *LabelInterner }

func (s *idSink) Begin(_ *SlabEvents, _ []SlabRange, pool *LabelInterner) bool {
	s.pool = pool
	return true
}

func (s *idSink) Slab(_ int, _, _ float64, _ []int, edges []SlabEdge) {
	for _, e := range edges {
		s.pool.ID(e.Above)
	}
}

// TestLabelSetIDs: every label of a CREST run, with and without slabs, of
// CREST-A and of the baseline carries its set's id in the run's pool, under
// every metric and at 1 and 3 workers, whose strips number sets
// concurrently. A resweep into the prior's pool keeps the prior labels' ids
// and numbers its new sets there; a resweep that makes a fresh pool (none
// given) numbers every label, kept ones included, in the fresh pool.
func TestLabelSetIDs(t *testing.T) {
	t.Parallel()
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		rng := rand.New(rand.NewSource(5100 + int64(metric)))
		for trial := 0; trial < trials; trial++ {
			ncs, _, _ := randomInstance(t, rng, 60, 6, metric, 100)
			cur, perturbed := perturbCircles(rng, ncs, metric, 100)
			for _, workers := range []int{1, 3} {
				ctx := fmt.Sprintf("%v trial=%d workers=%d", metric, trial, workers)
				opts := Options{Workers: workers}
				res, err := CREST(ncs, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkSetIDs(t, ctx+" crest", res)
				one, err := CRESTWithSlabs(ncs, opts, &idSink{})
				if err != nil {
					t.Fatal(err)
				}
				checkSetIDs(t, ctx+" crest with slabs", one)
				if metric != geom.L2 {
					for name, run := range map[string]func([]nncircle.NNCircle, Options) (*Result, error){"crest-a": CRESTA, "baseline": Baseline} {
						other, err := run(ncs, opts)
						if err != nil {
							t.Fatal(err)
						}
						checkSetIDs(t, ctx+" "+name, other)
					}
				}
				kept, err := Resweep(cur, opts, one.Labels, perturbed, one.LabelPool(), &idSink{})
				if err != nil {
					t.Fatal(err)
				}
				if kept.Result.LabelPool() != one.LabelPool() {
					t.Fatalf("%s: the resweep left the pool it was given", ctx)
				}
				checkSetIDs(t, ctx+" resweep into the prior's pool", kept.Result)
				fresh, err := Resweep(cur, opts, one.Labels, perturbed, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Result.LabelPool() == one.LabelPool() {
					t.Fatalf("%s: a resweep given no pool interned into the prior's", ctx)
				}
				checkSetIDs(t, ctx+" resweep into a fresh pool", fresh.Result)
			}
		}
	}
}
