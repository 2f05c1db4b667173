// Package postprocess implements the interactive post-processing operations
// the paper motivates for RNN heat maps: selecting the top-k hottest
// regions, filtering regions by a heat threshold, and summarizing the heat
// distribution, counting labels that share an RNN set once. These operations
// work on the labels produced by any of the Region Coloring algorithms,
// which is exactly what a plain superimposition cannot support.
package postprocess

import (
	"math"
	"sort"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/oset"
)

// TopK returns the k labels with the highest heat, in descending heat order.
// Ties are broken by smaller RNN set and then by emission order to keep the
// result deterministic. When distinct is true, at most one label per
// distinct RNN set (by oset.ContentKey) is returned.
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
	seen := map[oset.ContentKey]bool{}
	var out []core.Label
	for _, i := range idx {
		l := labels[i]
		if distinct {
			key := oset.KeyOf(l.RNN)
			if seen[key] {
				continue
			}
			seen[key] = true
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
// are counted by oset.ContentKey, so labels from any pools compare by
// content.
func Summarize(labels []core.Label) Summary {
	s := Summary{MinHeat: math.Inf(1), MaxHeat: math.Inf(-1)}
	seen := map[oset.ContentKey]struct{}{}
	total := 0.0
	for _, l := range labels {
		s.Count++
		seen[oset.KeyOf(l.RNN)] = struct{}{}
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
	s.DistinctSets = len(seen)
	if s.Count > 0 {
		s.MeanHeat = total / float64(s.Count)
	} else {
		s.MinHeat, s.MaxHeat = 0, 0
	}
	return s
}

// Histogram buckets the labels' heat values into the given number of equal
// width bins between the minimum and maximum heat. It returns the bin edges
// (length bins+1) and counts (length bins).
func Histogram(labels []core.Label, bins int) (edges []float64, counts []int) {
	if bins <= 0 || len(labels) == 0 {
		return nil, nil
	}
	s := Summarize(labels)
	lo, hi := s.MinHeat, s.MaxHeat
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + float64(i)*(hi-lo)/float64(bins)
	}
	counts = make([]int, bins)
	for _, l := range labels {
		b := int((l.Heat - lo) / (hi - lo) * float64(bins))
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
