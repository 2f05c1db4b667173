package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// abLog renders an A/B log with one metric: vals[side][i] is the value of
// the run with seed i+1 (NaN: the run printed no JSON line).
func abLog(metric string, parent, change []float64) string {
	var b strings.Builder
	line := func(side string, seed int, v float64) {
		if math.IsNaN(v) {
			fmt.Fprintf(&b, `{"side":%q,"seed":%d,"steal":10,"run":null}`+"\n", side, seed)
			return
		}
		fmt.Fprintf(&b, `{"side":%q,"seed":%d,"steal":%d,"run":{"correct":true,"attempted":100,"failed":0,"metrics":{%q:{"value":%g,"unit":"u"}}}}`+"\n",
			side, seed, 10*seed, metric, v)
	}
	for i := 0; i < max(len(parent), len(change)); i++ {
		if i < len(parent) {
			line("parent", i+1, parent[i])
		}
		if i < len(change) {
			line("change", i+1, change[i])
		}
	}
	return b.String()
}

func TestSummarizeAB(t *testing.T) {
	t.Parallel()
	spec := benchSpec{
		EndToEnd: []specMetric{
			{Name: "requests_per_s", Better: "higher", Bound: 0.25},
			{Name: "p99_ms", Better: "lower", Bound: 0.25},
		},
		PerLayer: []specMetric{{Name: "core.sweep_ms", Better: "lower"}},
	}
	nan := math.NaN()
	cases := []struct {
		name           string
		metric         string
		parent, change []float64
		want           abMetric
		incorrect      int // change-side runs without a passing JSON line
	}{
		{
			name:   "higher is better, a clear gain",
			metric: "requests_per_s", parent: []float64{100, 110, 120, 130}, change: []float64{200, 230, 210, 260},
			want: abMetric{better: "higher", hasBound: true, bound: 0.25, pairs: 4, wins: 4,
				parent: quartiles{107.5, 115, 122.5}, change: quartiles{207.5, 220, 237.5},
				minRatio: 1.75, maxRatio: 2.090909090909091, beyondIQR: true, withinBound: true},
		},
		{
			name:   "lower is better, worse than the bound",
			metric: "p99_ms", parent: []float64{10, 10, 10}, change: []float64{13, 9, 13},
			want: abMetric{better: "lower", hasBound: true, bound: 0.25, pairs: 3, wins: 1,
				parent: quartiles{10, 10, 10}, change: quartiles{11, 13, 13},
				minRatio: 0.9, maxRatio: 1.3, beyondIQR: true, withinBound: false},
		},
		{
			name:   "within the bound and inside the parent's spread",
			metric: "p99_ms", parent: []float64{8, 12, 10, 14}, change: []float64{12, 11, 10, 12},
			want: abMetric{better: "lower", hasBound: true, bound: 0.25, pairs: 4, wins: 2,
				parent: quartiles{9.5, 11, 12.5}, change: quartiles{10.75, 11.5, 12},
				minRatio: 0.8571428571428571, maxRatio: 1.5, beyondIQR: false, withinBound: true},
		},
		{
			name:   "a run without output pairs nothing",
			metric: "requests_per_s", parent: []float64{100, 100, 100}, change: []float64{150, nan, 150},
			want: abMetric{better: "higher", hasBound: true, bound: 0.25, pairs: 2, wins: 2,
				parent: quartiles{100, 100, 100}, change: quartiles{150, 150, 150},
				minRatio: 1.5, maxRatio: 1.5, beyondIQR: true, withinBound: true},
			incorrect: 1,
		},
		{
			name:   "per-layer metrics have a direction but no bound",
			metric: "core.sweep_ms", parent: []float64{5, 5}, change: []float64{4, 6},
			want: abMetric{better: "lower", pairs: 2, wins: 1,
				parent: quartiles{5, 5, 5}, change: quartiles{4.5, 5, 5.5},
				minRatio: 0.8, maxRatio: 1.2},
		},
		{
			name:   "undeclared metrics have no direction",
			metric: "reads_per_s", parent: []float64{1, 2}, change: []float64{3, 4},
			want: abMetric{pairs: 2, parent: quartiles{1.25, 1.5, 1.75}, change: quartiles{3.25, 3.5, 3.75},
				minRatio: 2, maxRatio: 3, beyondIQR: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs, err := readABLog(strings.NewReader(abLog(tc.metric, tc.parent, tc.change)))
			if err != nil {
				t.Fatal(err)
			}
			sides, metrics := summarizeAB(spec, runs)
			if len(metrics) != 1 {
				t.Fatalf("%d metrics summarized, want 1", len(metrics))
			}
			got, want := metrics[0], tc.want
			want.name, want.unit = tc.metric, "u"
			const eps = 1e-12
			close := func(a, b float64) bool { return math.Abs(a-b) <= eps*math.Max(1, math.Abs(b)) }
			if got.name != want.name || got.unit != want.unit || got.better != want.better || got.hasBound != want.hasBound ||
				got.bound != want.bound || got.pairs != want.pairs || got.wins != want.wins ||
				got.beyondIQR != want.beyondIQR || got.withinBound != want.withinBound ||
				got.parent != want.parent || got.change != want.change ||
				!close(got.minRatio, want.minRatio) || !close(got.maxRatio, want.maxRatio) {
				t.Fatalf("summary\n got %+v\nwant %+v", got, want)
			}
			if sides["change"].incorrect != tc.incorrect || sides["parent"].incorrect != 0 {
				t.Fatalf("incorrect runs: parent %d, change %d; want 0, %d",
					sides["parent"].incorrect, sides["change"].incorrect, tc.incorrect)
			}
			var out bytes.Buffer
			ok := printAB(&out, sides, metrics)
			if wantOK := tc.incorrect == 0 && (!want.hasBound || want.withinBound); ok != wantOK {
				t.Fatalf("printAB ok = %v, want %v:\n%s", ok, wantOK, out.String())
			}
			if !strings.Contains(out.String(), tc.metric) {
				t.Fatalf("table lacks the metric:\n%s", out.String())
			}
		})
	}
}
