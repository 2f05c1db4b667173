// Package postprocess implements the interactive post-processing operations
// the paper motivates for RNN heat maps: selecting the top-k hottest
// regions, filtering regions by a heat threshold, and summarizing the heat
// distribution, counting labels that share an RNN set once. These operations
// work on the labels produced by any of the Region Coloring algorithms,
// which is exactly what a plain superimposition cannot support.
package postprocess

import (
	"iter"
	"math"
	"sort"

	"rnnheatmap/internal/core"
)

// TopK returns the k labels with the highest heat, in descending heat order.
// Ties are broken by smaller RNN set and then by emission order to keep the
// result deterministic. When distinct is true, at most one label per
// distinct RNN set (core.Distinct: by set id, or by content for labels
// without ids) is returned.
func TopK(labels []core.Label, k int, distinct bool) []core.Label {
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
	var seen *core.Distinct
	if distinct {
		seen = core.NewDistinct(labels)
	}
	var out []core.Label
	for _, i := range idx {
		l := labels[i]
		if distinct && !seen.First(&l) {
			continue
		}
		out = append(out, l)
		if len(out) == k {
			break
		}
	}
	return out
}

// Threshold returns the labels whose heat is at least minHeat, preserving
// emission order.
func Threshold(labels []core.Label, minHeat float64) []core.Label {
	var out []core.Label
	for _, l := range labels {
		if l.Heat >= minHeat {
			out = append(out, l)
		}
	}
	return out
}

// Summary describes the heat distribution over a label set.
type Summary struct {
	Count        int
	DistinctSets int
	MinHeat      float64
	MaxHeat      float64
	MeanHeat     float64
	MaxRNNSize   int // λ
}

// Summarize computes distributional statistics over labels. Distinct sets
// are counted by set id when every label carries one, and by content
// otherwise (core.Distinct), so labels from any pools that carry no ids
// compare by content.
func Summarize(labels []core.Label) Summary {
	s := Summary{MinHeat: math.Inf(1), MaxHeat: math.Inf(-1)}
	seen := core.NewDistinct(labels)
	total := 0.0
	for i := range labels {
		l := &labels[i]
		s.Count++
		if seen.First(l) {
			s.DistinctSets++
		}
		total += l.Heat
		if l.Heat < s.MinHeat {
			s.MinHeat = l.Heat
		}
		if l.Heat > s.MaxHeat {
			s.MaxHeat = l.Heat
		}
		if len(l.RNN) > s.MaxRNNSize {
			s.MaxRNNSize = len(l.RNN)
		}
	}
	if s.Count > 0 {
		s.MeanHeat = total / float64(s.Count)
	} else {
		s.MinHeat, s.MaxHeat = 0, 0
	}
	return s
}

// Heats yields the heat of every label, in order.
func Heats(labels []core.Label) iter.Seq[float64] {
	return func(yield func(float64) bool) {
		for i := range labels {
			if !yield(labels[i].Heat) {
				return
			}
		}
	}
}

// Histogram buckets heats — the heats of the labels s summarizes — into
// the given number of equal-width bins between s.MinHeat and s.MaxHeat. It
// returns the bin edges (length bins+1) and counts (length bins), or nil
// for no bins or no labels.
func Histogram(s Summary, heats iter.Seq[float64], bins int) (edges []float64, counts []int) {
	if bins <= 0 || s.Count == 0 {
		return nil, nil
	}
	lo, hi := s.MinHeat, s.MaxHeat
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + float64(i)*(hi-lo)/float64(bins)
	}
	counts = make([]int, bins)
	for heat := range heats {
		b := int((heat - lo) / (hi - lo) * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}
