package postprocess

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// The identity differential suite: Summarize and TopK(distinct) key RNN sets
// by oset.ContentKey, a hash; these oracles key them by the exact string of
// the sorted members, and every answer must agree.

// oracleKey is the exact string identity of an RNN set.
func oracleKey(rnn []int) string {
	sorted := append([]int(nil), rnn...)
	sort.Ints(sorted)
	return fmt.Sprint(sorted)
}

// summarizeOracle is Summarize with distinct sets counted by oracleKey.
func summarizeOracle(labels []core.Label) Summary {
	s := Summary{MinHeat: math.Inf(1), MaxHeat: math.Inf(-1)}
	seen := map[string]bool{}
	total := 0.0
	for _, l := range labels {
		s.Count++
		seen[oracleKey(l.RNN)] = true
		total += l.Heat
		s.MinHeat = math.Min(s.MinHeat, l.Heat)
		s.MaxHeat = math.Max(s.MaxHeat, l.Heat)
		s.MaxRNNSize = max(s.MaxRNNSize, len(l.RNN))
	}
	s.DistinctSets = len(seen)
	if s.Count > 0 {
		s.MeanHeat = total / float64(s.Count)
	} else {
		s.MinHeat, s.MaxHeat = 0, 0
	}
	return s
}

// topKDistinctOracle is TopK(labels, k, true) with sets compared by
// oracleKey.
func topKDistinctOracle(labels []core.Label, k int) []core.Label {
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		la, lb := labels[idx[a]], labels[idx[b]]
		if la.Heat != lb.Heat {
			return la.Heat > lb.Heat
		}
		return len(la.RNN) < len(lb.RNN)
	})
	seen := map[string]bool{}
	var out []core.Label
	for _, i := range idx {
		key := oracleKey(labels[i].RNN)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, labels[i])
		if len(out) == k {
			break
		}
	}
	return out
}

// randomLabels draws n labels from a pool of up to 12 random sets over
// clients 0..63, so equal sets recur. Every label gets its own backing
// array, including labels of equal sets; empty sets appear both as nil and
// as empty slices; heats come from four values, so ties are common.
func randomLabels(rng *rand.Rand, n int) []core.Label {
	pool := make([][]int, 1+rng.Intn(12))
	for i := range pool {
		pool[i] = rng.Perm(64)[:rng.Intn(6)]
		sort.Ints(pool[i])
	}
	labels := make([]core.Label, n)
	for i := range labels {
		var rnn []int
		if set := pool[rng.Intn(len(pool))]; len(set) > 0 || rng.Intn(2) == 0 {
			rnn = append([]int{}, set...)
		}
		labels[i] = core.Label{
			RNN:   rnn,
			Heat:  float64(rng.Intn(4)),
			Point: geom.Pt(float64(i), 0),
		}
	}
	return labels
}

// defaultMapLabels returns the labels of the map heatmapd serves by default:
// NYC, 2000 clients and 600 facilities as with -seed 1, under L2.
func defaultMapLabels(t *testing.T) []core.Label {
	t.Helper()
	pool, err := dataset.ByName("NYC", (2000+600)*2, 1)
	if err != nil {
		t.Fatal(err)
	}
	clients, facilities := pool.SampleClientsFacilities(2000, 600, 2)
	circles, err := nncircle.Compute(clients, facilities, geom.L2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CREST(circles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Labels
}

func checkIdentity(t *testing.T, name string, labels []core.Label) {
	t.Helper()
	if got, want := Summarize(labels), summarizeOracle(labels); got != want {
		t.Fatalf("%s: Summarize = %+v, oracle %+v", name, got, want)
	}
	for _, k := range []int{1, 3, 10, len(labels) + 1} {
		if got, want := TopK(labels, k, true), topKDistinctOracle(labels, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TopK(k=%d, distinct) = %v, oracle %v", name, k, got, want)
		}
	}
}

func TestIdentityMatchesStringOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		checkIdentity(t, fmt.Sprintf("trial %d", trial), randomLabels(rng, rng.Intn(60)))
	}
	if testing.Short() {
		t.Skip("default map skipped in short mode")
	}
	checkIdentity(t, "default map", defaultMapLabels(t))
}

// TestSummarizeAllocsIndependentOfSetSize is a machine-independent gate:
// keying a label costs no allocation, so Summarize allocates the same count
// whether the sets hold λ or 2λ members.
func TestSummarizeAllocsIndependentOfSetSize(t *testing.T) {
	small, doubled := allocLabels(1), allocLabels(2)
	if got, want := Summarize(doubled).DistinctSets, Summarize(small).DistinctSets; got != want {
		t.Fatalf("doubling changed the distinct sets: %d vs %d", got, want)
	}
	a := testing.AllocsPerRun(20, func() { Summarize(small) })
	b := testing.AllocsPerRun(20, func() { Summarize(doubled) })
	if a != b {
		t.Fatalf("Summarize allocates %v with sets of up to 8 members and %v with twice the members", a, b)
	}
}

// allocLabels is a fixed list of 400 labels over 100 distinct sets of 1 to 8
// members; scale 2 replaces member v with 2v and 2v+1, doubling every set
// and keeping distinct sets distinct.
func allocLabels(scale int) []core.Label {
	rng := rand.New(rand.NewSource(5))
	sets := make([][]int, 100)
	for i := range sets {
		for _, v := range rng.Perm(64)[:1+i%8] {
			for j := 0; j < scale; j++ {
				sets[i] = append(sets[i], scale*v+j)
			}
		}
		sort.Ints(sets[i])
	}
	labels := make([]core.Label, 400)
	for i := range labels {
		rnn := sets[rng.Intn(len(sets))]
		labels[i] = core.Label{RNN: rnn, Heat: float64(len(rnn) / scale)}
	}
	return labels
}
