package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// The one pass: a sweep that writes its labels and its slabs from the same
// strips must write the labels a labels-only sweep writes, and the slabs the
// labels-off pass writes, for every worker count.

// checkOnePass requires CRESTWithSlabs over ncs, at 1, 2 and 3 workers, to
// write CREST's labels bit for bit and the labels-off pass's slabs digest
// for digest: boundaries, actives, heights, arc order and gap records.
func checkOnePass(t *testing.T, ctx string, ncs []nncircle.NNCircle) {
	t.Helper()
	sweepSpace := ncs
	if len(ncs) > 0 && ncs[0].Circle.Metric == geom.L1 {
		sweepSpace = nncircle.RotateL1ToLInf(ncs)
	}
	ev, err := NewSlabEvents(sweepSpace)
	if err == ErrNoCircles {
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	for _, workers := range []int{1, 2, 3} {
		c := fmt.Sprintf("%s workers=%d", ctx, workers)
		want, err := CREST(ncs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		slabs := &digestSink{}
		got, err := CRESTWithSlabs(ncs, Options{Workers: workers}, slabs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, c, want, got)
		off := &digestSink{}
		if err := ev.Emit(off, got.LabelPool(), nil); err != nil {
			t.Fatalf("%s: Emit: %v", c, err)
		}
		assertSameDigests(t, c, slabs.slabDigests(), off.digests)
	}
}

// TestOnePassMatchesLabelsOnly is the identity suite of the one pass over
// L∞, L1 and L2 fuzz instances, the 300 L2 identity instances,
// near-degenerate instances of every metric and heatmapd's default map;
// -short keeps a fifth of the small instances and leaves the map out.
func TestOnePassMatchesLabelsOnly(t *testing.T) {
	t.Parallel()
	fuzz, degenerate, identity := 20, 30, 300
	if testing.Short() {
		fuzz, degenerate, identity = 4, 6, 60
	}
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for seed := int64(0); seed < int64(fuzz); seed++ {
			checkOnePass(t, fmt.Sprintf("fuzz %v seed=%d", metric, seed), fuzzInstance(t, seed, 10+int(seed)*3, 1+int(seed)%6, metric))
		}
		for seed := int64(0); seed < int64(degenerate); seed++ {
			checkOnePass(t, fmt.Sprintf("near-degenerate %v seed=%d", metric, seed), nearDegenerateInstance(t, seed, 40, 6, metric))
		}
	}
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < identity; trial++ {
		checkOnePass(t, fmt.Sprintf("identity instance %d", trial), identityInstance(rng, trial%2 == 0))
	}
	if testing.Short() {
		return
	}
	checkOnePass(t, "heatmapd default map", sampleInstance(t, "NYC", 2000, 600, 2))
}

// TestOnePassResweep: a resweep that carries a slab sink writes the labels
// a full CREST run writes and, exactly in the ranges Dirty names for its
// spans, the labels-off pass's slabs of the new arrangement.
func TestOnePassResweep(t *testing.T) {
	t.Parallel()
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		rng := rand.New(rand.NewSource(4301 + int64(metric)))
		for trial := 0; trial < 6; trial++ {
			ncs, _, _ := randomInstance(t, rng, 70, 6, metric, 100)
			prior, err := CREST(ncs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cur, perturbed := perturbCircles(rng, ncs, metric, 100)
			full, err := CREST(cur, Options{})
			if err != nil {
				t.Fatal(err)
			}
			workers := 1 + trial%3
			ctx := fmt.Sprintf("%v trial=%d workers=%d", metric, trial, workers)
			slabs := &digestSink{}
			out, err := Resweep(cur, Options{Workers: workers}, prior.Labels, perturbed, prior.LabelPool(), slabs)
			if err != nil {
				t.Fatal(err)
			}
			assertResweepEqual(t, ctx, full, out)
			off := &digestSink{}
			if err := out.Events.Emit(off, out.Result.LabelPool(), nil); err != nil {
				t.Fatal(err)
			}
			dirty := make([]bool, len(off.digests))
			for _, r := range out.Events.Dirty(PerturbedSpans(perturbed, metric)) {
				for k := r.Lo; k <= r.Hi; k++ {
					dirty[k] = true
				}
			}
			for k := range dirty {
				if slabs.written[k] != dirty[k] {
					t.Fatalf("%s: slab %d written=%v, dirty=%v", ctx, k, slabs.written[k], dirty[k])
				}
				if dirty[k] && slabs.digests[k] != off.digests[k] {
					t.Fatalf("%s: slab %d differs from the labels-off pass's", ctx, k)
				}
			}
		}
	}
}

// TestOnePassStepsEachEventOnce counts sweeper steps (StepCount), which
// depend on the input alone: a build that writes its slabs steps each event
// once, as a labels-only build does; a resweep that writes its dirty slabs
// steps each event of its ranges once; and the labels-off pass steps each
// event of the ranges it writes once. It must not run beside another test
// that sweeps.
func TestOnePassStepsEachEventOnce(t *testing.T) {
	steps := func(f func()) int {
		before := StepCount()
		f()
		return int(StepCount() - before)
	}
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		rng := rand.New(rand.NewSource(4401 + int64(metric)))
		ncs, _, _ := randomInstance(t, rng, 120, 6, metric, 100)
		for _, workers := range []int{1, 3} {
			ctx := fmt.Sprintf("%v workers=%d", metric, workers)
			var res *Result
			var err error
			if n := steps(func() { res, err = CRESTWithSlabs(ncs, Options{Workers: workers}, &digestSink{}) }); err != nil || n != res.Stats.Events {
				t.Fatalf("%s: a build with slabs stepped %d times over %d events (%v)", ctx, n, res.Stats.Events, err)
			}
			if n := steps(func() { res, err = CREST(ncs, Options{Workers: workers}) }); err != nil || n != res.Stats.Events {
				t.Fatalf("%s: a labels-only build stepped %d times over %d events (%v)", ctx, n, res.Stats.Events, err)
			}
			cur, perturbed := perturbCircles(rng, ncs, metric, 100)
			var out *ResweepOutcome
			if n := steps(func() {
				out, err = Resweep(cur, Options{Workers: workers}, res.Labels, perturbed, res.LabelPool(), &digestSink{})
			}); err != nil || n != out.EventsReswept {
				t.Fatalf("%s: a resweep with slabs stepped %d times over %d reswept events (%v)", ctx, n, out.EventsReswept, err)
			}
			dirty := out.Events.Dirty(PerturbedSpans(perturbed, metric))
			if n := steps(func() { err = out.Events.Emit(&digestSink{}, nil, dirty) }); err != nil || n != out.EventsReswept {
				t.Fatalf("%s: the labels-off pass over the resweep's ranges stepped %d times, want %d (%v)", ctx, n, out.EventsReswept, err)
			}
			if n := steps(func() { err = out.Events.Emit(&digestSink{}, nil, nil) }); err != nil || n != out.EventsTotal {
				t.Fatalf("%s: the labels-off pass stepped %d times over %d events (%v)", ctx, n, out.EventsTotal, err)
			}
		}
	}
}

// TestSlabEdgesRepairNothing forces the backstop of the slab writer: with
// two adjacent L2 arcs out of order in the status, as rounding can leave
// them, and every record written in that order, slabEdges writes the full
// sort's order with every gap labeled by the set of the arcs below it, and
// leaves the status and its records as they were, so the labels the pass
// writes next do not depend on the slab.
func TestSlabEdgesRepairNothing(t *testing.T) {
	t.Parallel()
	ev, err := NewSlabEvents(identityInstance(rand.New(rand.NewSource(5)), false))
	if err != nil {
		t.Fatal(err)
	}
	s := newSweeper(ev.circles, ev.events, NewLabelInterner(nil))
	defer s.release()
	s.stride = 1
	s.warm(0)
	st := &s.st
	var m int32 // the lower node of an adjacent pair at distinct heights
	for l := 0; l+1 < len(ev.events) && m == 0; l++ {
		s.step(l, ev.events[l+1].x, l == 0)
		for n := st.head; n != 0 && st.next[n] != 0; n = st.next[n] {
			if st.y(n) < st.y(st.next[n]) && st.arc[n]>>1 != st.arc[st.next[n]]>>1 {
				m = n
				break
			}
		}
	}
	if m == 0 {
		t.Fatal("no slab with two arcs of distinct circles at distinct heights")
	}
	st.swap(m, st.next[m])
	s.processInterval(walkRange{lo: st.arc[st.head], hi: -1}, 0, 0)
	var arcs []int32
	var recs []*Interned
	for n := st.head; n != 0; n = st.next[n] {
		arcs, recs = append(arcs, st.arc[n]), append(recs, st.rec[n])
	}

	edges := s.slabEdges(nil)
	set := map[int]bool{}
	for k, e := range edges {
		if k > 0 && compareEdges(edges[k-1], e) >= 0 {
			t.Fatalf("edge %d is out of order", k)
		}
		if client := ev.circles[e.Arc>>1].Client; e.Arc&1 == 0 {
			set[client] = true
		} else {
			delete(set, client)
		}
		var want []int
		for c := range set {
			want = append(want, c)
		}
		slices.Sort(want)
		if !slices.Equal(e.Above.RNN, want) {
			t.Fatalf("gap above edge %d is %v, the arcs below it give %v", k, e.Above.RNN, want)
		}
	}
	k := 0
	for n := st.head; n != 0; n, k = st.next[n], k+1 {
		if st.arc[n] != arcs[k] || st.rec[n] != recs[k] {
			t.Fatalf("writing the slab changed the status at node %d", k)
		}
	}
}
