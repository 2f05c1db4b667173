package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// labelFingerprints returns a canonical sorted multiset representation of
// the labels: one string per label covering region, representative point,
// heat and RNN set.
func labelFingerprints(labels []Label) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = fmt.Sprintf("%v|%v|%v|%v", l.Region, l.Point, l.Heat, l.RNN)
	}
	sort.Strings(out)
	return out
}

// assertSameResult asserts that the strip-parallel result is identical to
// the sequential one: same label multiset (in fact the partition layer
// preserves emission order, checked separately), same maximum and same
// statistics.
func assertSameResult(t *testing.T, name string, seq, par *Result) {
	t.Helper()
	if len(seq.Labels) != len(par.Labels) {
		t.Fatalf("%s: label count %d != sequential %d", name, len(par.Labels), len(seq.Labels))
	}
	// The partition layer concatenates strips in sweep order, so the labels
	// must match position by position, not just as a multiset.
	for i := range seq.Labels {
		s, p := seq.Labels[i], par.Labels[i]
		if s.Region != p.Region || s.Point != p.Point || s.Heat != p.Heat || setKey(s.RNN) != setKey(p.RNN) {
			t.Fatalf("%s: label %d differs:\nsequential %+v\nparallel   %+v", name, i, s, p)
		}
	}
	sf, pf := labelFingerprints(seq.Labels), labelFingerprints(par.Labels)
	for i := range sf {
		if sf[i] != pf[i] {
			t.Fatalf("%s: sorted label multiset differs at %d:\n%s\n%s", name, i, sf[i], pf[i])
		}
	}
	if seq.MaxHeat != par.MaxHeat {
		t.Fatalf("%s: MaxHeat %v != sequential %v", name, par.MaxHeat, seq.MaxHeat)
	}
	if setKey(seq.MaxLabel.RNN) != setKey(par.MaxLabel.RNN) || seq.MaxLabel.Region != par.MaxLabel.Region {
		t.Fatalf("%s: MaxLabel differs: %+v vs %+v", name, par.MaxLabel, seq.MaxLabel)
	}
	if seq.Stats.Labelings != par.Stats.Labelings {
		t.Fatalf("%s: Labelings %d != sequential %d", name, par.Stats.Labelings, seq.Stats.Labelings)
	}
	if seq.Stats.InfluenceCalls != par.Stats.InfluenceCalls {
		t.Fatalf("%s: InfluenceCalls %d != sequential %d", name, par.Stats.InfluenceCalls, seq.Stats.InfluenceCalls)
	}
	if seq.Stats.Events != par.Stats.Events {
		t.Fatalf("%s: Events %d != sequential %d (strip event counts must sum to the total)", name, par.Stats.Events, seq.Stats.Events)
	}
	if seq.Stats.MaxRNNSetSize != par.Stats.MaxRNNSetSize {
		t.Fatalf("%s: MaxRNNSetSize %d != sequential %d", name, par.Stats.MaxRNNSetSize, seq.Stats.MaxRNNSetSize)
	}
	if seq.Stats.Circles != par.Stats.Circles {
		t.Fatalf("%s: Circles %d != sequential %d", name, par.Stats.Circles, seq.Stats.Circles)
	}
}

// TestParallelEquivalence is the concurrency contract of the partition
// layer: for every metric, measure and worker count, the strip-parallel
// sweep produces exactly the sequential result. Run it under -race (the CI
// short suite does) to exercise the per-strip isolation.
func TestParallelEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(909))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		// L2 instances are kept smaller: their event count grows with the
		// number of circle-boundary intersections. Under -short (the -race CI
		// job) everything shrinks further; the coverage grid stays identical.
		n := 300
		if metric == geom.L2 {
			n = 130
		}
		if testing.Short() {
			n /= 3
		}
		ncs, clients, _ := randomInstance(t, rng, n, 7, metric, 120)
		weights := make([]float64, len(clients))
		for i := range weights {
			weights[i] = rng.Float64()*2 + 0.5
		}
		for _, m := range []influence.Measure{influence.Size(), influence.Weighted(weights)} {
			seq, err := CREST(ncs, Options{Measure: m, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s/%s/workers=%d", metric, m.Name(), workers)
				par, err := CREST(ncs, Options{Measure: m, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertSameResult(t, name, seq, par)
			}
		}
	}
}

// TestParallelEquivalenceCRESTA covers the ablation variant, which shares
// the partition layer but labels every status pair.
func TestParallelEquivalenceCRESTA(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(910))
	for _, metric := range []geom.Metric{geom.LInf, geom.L1} {
		n := 200
		if testing.Short() {
			n = 80
		}
		ncs, _, _ := randomInstance(t, rng, n, 6, metric, 100)
		seq, err := CRESTA(ncs, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 7} {
			par, err := CRESTA(ncs, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("crest-a/%s/workers=%d", metric, workers), seq, par)
		}
	}
}

// TestParallelDiscardLabels checks the merge path when labels are
// suppressed: the maximum and statistics must still match the sequential
// run exactly.
func TestParallelDiscardLabels(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(911))
	ncs, _, _ := randomInstance(t, rng, 250, 6, geom.LInf, 100)
	seq, err := CREST(ncs, Options{Workers: 1, DiscardLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CREST(ncs, Options{Workers: 4, DiscardLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Labels) != 0 {
		t.Fatalf("DiscardLabels kept %d labels", len(par.Labels))
	}
	assertSameResult(t, "discard", seq, par)
}

// TestParallelDefaultWorkers checks the Workers zero value resolves to
// GOMAXPROCS and still matches the oracle.
func TestParallelDefaultWorkers(t *testing.T) {
	t.Parallel()
	if got := (Options{}).workerCount(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workerCount() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Workers: -3}).workerCount(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workerCount(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	rng := rand.New(rand.NewSource(912))
	ncs, _, _ := randomInstance(t, rng, 120, 5, geom.LInf, 80)
	res, err := CREST(ncs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLabelsAgainstOracle(t, "default-workers", ncs, res.Labels)
}

// TestSplitSpans exercises the strip splitter directly.
func TestSplitSpans(t *testing.T) {
	t.Parallel()
	events := make([]event, 1000)
	for i := range events {
		events[i] = event{x: float64(i)}
	}
	last := events[len(events)-1].x
	for _, workers := range []int{1, 2, 3, 7, 16, 1000} {
		spans := splitSpans(events, 0, len(events), workers, last)
		if len(spans) == 0 || len(spans) > workers {
			t.Fatalf("workers=%d: got %d spans", workers, len(spans))
		}
		total := 0
		for i, sp := range spans {
			if sp.hi <= sp.lo {
				t.Fatalf("workers=%d: empty span %d", workers, i)
			}
			if sp.hi-sp.lo < minStripEvents && len(spans) > 1 {
				t.Fatalf("workers=%d: span %d has %d events (< %d)", workers, i, sp.hi-sp.lo, minStripEvents)
			}
			// Every inner span's xAfter must be the next span's first event,
			// and the spans must tile the events in order.
			if i+1 < len(spans) {
				if sp.xAfter != events[spans[i+1].lo].x || sp.hi != spans[i+1].lo {
					t.Fatalf("workers=%d: span %d xAfter %v, next first %v", workers, i, sp.xAfter, events[spans[i+1].lo].x)
				}
			} else if sp.xAfter != last {
				t.Fatalf("workers=%d: last span xAfter %v", workers, sp.xAfter)
			}
			total += sp.hi - sp.lo
		}
		if total != len(events) {
			t.Fatalf("workers=%d: spans cover %d of %d events", workers, total, len(events))
		}
	}
}

// TestStraddlingXWarmup pins down the half-open boundary convention: a
// circle whose right side lies exactly on a strip boundary must be warmed
// up (its removal event belongs to the strip), while a circle whose left
// side lies on the boundary must not (its insertion event does).
func TestStraddlingXWarmup(t *testing.T) {
	t.Parallel()
	ncs := []nncircle.NNCircle{
		{Client: 0, Circle: geom.NewCircle(geom.Pt(0, 0), 2, geom.LInf)},  // [-2, 2]
		{Client: 1, Circle: geom.NewCircle(geom.Pt(4, 0), 2, geom.LInf)},  // [2, 6]
		{Client: 2, Circle: geom.NewCircle(geom.Pt(10, 0), 2, geom.LInf)}, // [8, 12]
	}
	got := nncircle.StraddlingX(ncs, 2)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("StraddlingX(2) = %v, want [0]", got)
	}
	if nncircle.StraddlingX(ncs, 7) != nil {
		t.Fatalf("StraddlingX(7) should be empty")
	}
	// A sweeper started at x = 9 holds circle 2's two sides. Only anchor
	// sides keep base records: circle 2's lower side (slot 4) is an anchor
	// at the default stride, its upper side (slot 5) is not.
	if 4%cacheStride != 0 || 5%cacheStride == 0 {
		t.Fatalf("anchor layout changed; update this test's expectations")
	}
	events := buildEvents(ncs)
	l := sort.Search(len(events), func(i int) bool { return events[i].x >= 9 })
	for _, stride := range []int32{cacheStride, 0} {
		s := newSweeper(ncs, events, NewLabelInterner(nil))
		s.stride = stride
		s.warm(l)
		s.recordAll()
		var arcs []int32
		records := map[int32]*Interned{}
		for n := s.st.head; n != 0; n = s.st.next[n] {
			arcs = append(arcs, s.st.arc[n])
			if rec := s.st.rec[n]; rec != nil {
				records[s.st.arc[n]] = rec
			}
		}
		s.release()
		if len(arcs) != 2 || arcs[0] != 4 || arcs[1] != 5 {
			t.Fatalf("stride %d: warm status holds arcs %v, want [4 5]", stride, arcs)
		}
		if stride == 0 {
			// CREST-A never reads the records, so it writes none.
			if len(records) != 0 {
				t.Fatalf("CREST-A warm-up wrote %d records", len(records))
			}
			continue
		}
		if len(records) != 1 {
			t.Fatalf("warm status has %d records, want 1", len(records))
		}
		if rec, ok := records[4]; !ok || len(rec.RNN) != 1 || rec.RNN[0] != 2 {
			t.Fatalf("lower-side record = %v", rec)
		}
	}
}
