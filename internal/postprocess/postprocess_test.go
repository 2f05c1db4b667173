package postprocess

import (
	"math"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
)

func lbl(heat float64, rnn ...int) core.Label {
	return core.Label{Heat: heat, RNN: rnn, Region: geom.Rect{MaxX: 1, MaxY: 1}}
}

func TestTopK(t *testing.T) {
	labels := []core.Label{lbl(1, 1), lbl(5, 1, 2, 3), lbl(3, 2), lbl(5, 1, 2, 3), lbl(4, 9)}
	top := TopK(labels, 3, false)
	if len(top) != 3 || top[0].Heat != 5 || top[1].Heat != 5 || top[2].Heat != 4 {
		t.Errorf("TopK = %v", top)
	}
	distinct := TopK(labels, 3, true)
	if len(distinct) != 3 || distinct[0].Heat != 5 || distinct[1].Heat != 4 || distinct[2].Heat != 3 {
		t.Errorf("TopK distinct = %v", distinct)
	}
	if TopK(labels, 0, false) != nil {
		t.Errorf("k=0 should return nil")
	}
	if got := TopK(labels, 100, false); len(got) != len(labels) {
		t.Errorf("k>len should return all labels, got %d", len(got))
	}
	if got := TopK(nil, 3, true); len(got) != 0 {
		t.Errorf("empty input should return empty")
	}
}

func TestTopKTieBreak(t *testing.T) {
	labels := []core.Label{lbl(2, 1, 2), lbl(2, 3)}
	top := TopK(labels, 1, false)
	if len(top[0].RNN) != 1 {
		t.Errorf("tie should prefer the smaller RNN set, got %v", top[0].RNN)
	}
}

func TestThreshold(t *testing.T) {
	labels := []core.Label{lbl(1, 1), lbl(5, 2), lbl(3, 3)}
	got := Threshold(labels, 3)
	if len(got) != 2 || got[0].Heat != 5 || got[1].Heat != 3 {
		t.Errorf("Threshold = %v", got)
	}
	if len(Threshold(labels, 100)) != 0 {
		t.Errorf("high threshold should return nothing")
	}
	if len(Threshold(labels, -1)) != 3 {
		t.Errorf("low threshold should return everything")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]core.Label{lbl(1, 1), lbl(5, 1, 2, 3), lbl(3, 2)})
	if s.Count != 3 || s.DistinctSets != 3 || s.MinHeat != 1 || s.MaxHeat != 5 || s.MaxRNNSize != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.MeanHeat-3) > 1e-12 {
		t.Errorf("MeanHeat = %g", s.MeanHeat)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.MinHeat != 0 || empty.MaxHeat != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestHistogram(t *testing.T) {
	labels := []core.Label{lbl(0, 1), lbl(1, 1), lbl(2, 1), lbl(10, 1)}
	edges, counts := Histogram(labels, 5)
	if len(edges) != 6 || len(counts) != 5 {
		t.Fatalf("edges=%d counts=%d", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(labels) {
		t.Errorf("histogram total = %d", total)
	}
	if counts[0] != 2 || counts[1] != 1 || counts[4] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if e, c := Histogram(nil, 5); e != nil || c != nil {
		t.Errorf("empty histogram should be nil")
	}
	if e, c := Histogram(labels, 0); e != nil || c != nil {
		t.Errorf("zero bins should be nil")
	}
	// Constant heat does not divide by zero.
	if _, c := Histogram([]core.Label{lbl(2, 1), lbl(2, 2)}, 3); c[0] != 2 {
		t.Errorf("constant-heat histogram wrong: %v", c)
	}
}

// TestHistogramMinEqualsMax pins the degenerate all-equal-heats contract:
// when every region has the same heat the range is widened to [lo, lo+1],
// every label lands in the first bin, and the remaining bins are zero. A
// dashboard drawing the legend from these edges gets a well-formed (if
// flat) histogram rather than NaN edges.
func TestHistogramMinEqualsMax(t *testing.T) {
	labels := []core.Label{lbl(7, 1), lbl(7, 2), lbl(7, 3)}
	for _, bins := range []int{1, 4} {
		edges, counts := Histogram(labels, bins)
		if len(edges) != bins+1 || len(counts) != bins {
			t.Fatalf("bins=%d: edges=%d counts=%d", bins, len(edges), len(counts))
		}
		if edges[0] != 7 || edges[bins] != 8 {
			t.Errorf("bins=%d: edge span [%g, %g], want [7, 8]", bins, edges[0], edges[bins])
		}
		if counts[0] != len(labels) {
			t.Errorf("bins=%d: first bin holds %d, want all %d", bins, counts[0], len(labels))
		}
		for i := 1; i < bins; i++ {
			if counts[i] != 0 {
				t.Errorf("bins=%d: bin %d = %d, want 0", bins, i, counts[i])
			}
		}
		for i := 1; i <= bins; i++ {
			if edges[i] <= edges[i-1] {
				t.Errorf("bins=%d: edges not strictly increasing at %d: %v", bins, i, edges)
			}
		}
	}
}
