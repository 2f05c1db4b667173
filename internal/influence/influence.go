// Package influence implements the influence measures the paper builds heat
// maps from. A measure maps the RNN set of a location to a real number (its
// "heat"); the Region Coloring algorithms are agnostic to the measure, which
// is exactly why the paper argues a simple superimposition of NN-circles is
// not enough (Section I).
//
// The package provides the measures discussed in the paper:
//
//   - Size: |R(p)|, the classic influence of Korn et al.
//   - Weighted: a weighted sum over R(p).
//   - Connectivity: the taxi-sharing measure, the number of "connected"
//     client pairs (edges) inside R(p).
//   - Capacity: the capacity-constrained measure of Sun et al. [22],
//     Σ_{f∈F∪{p}} min{c(f), |R(f)|} after the candidate facility p is added.
package influence

import (
	"fmt"
	"slices"

	"rnnheatmap/internal/oset"
)

// Measure computes the influence value of an RNN set. Implementations must
// be safe for concurrent use and must not retain or mutate the set.
type Measure interface {
	// Name identifies the measure in reports and benchmarks.
	Name() string
	// Influence returns the heat value for the given RNN set (identified by
	// client indexes).
	Influence(rnn *oset.Set) float64
}

// SortedMeasure is an optional fast path implemented by measures that can
// evaluate their influence directly from an ascending, de-duplicated member
// slice, without an oset.Set being materialized. InfluenceSorted(vals) must
// return exactly the value Influence(oset.FromSorted(vals)) would — the
// label interner of the sweep relies on the two being bit-identical. All
// measures in this package implement it; adapters built with Func do not.
type SortedMeasure interface {
	InfluenceSorted(rnn []int) float64
}

// indexContextual is the marker implemented by measures whose context is
// indexed by client or facility position (per-client weights, adjacency,
// the capacity assignment). Such context goes stale when a set update
// renumbers or extends the index space, so the incremental delta path must
// refuse to carry these measures across updates.
type indexContextual interface{ usesIndexContext() }

// UsesIndexContext reports whether m closes over context indexed by client
// or facility position. Measures for which it returns true (Weighted,
// Connectivity, Capacity) cannot survive a client/facility set update and
// must be reconstructed with fresh context instead.
func UsesIndexContext(m Measure) bool {
	_, ok := m.(indexContextual)
	return ok
}

// sizeMeasure counts the members of the RNN set.
type sizeMeasure struct{}

// Size returns the measure |R(p)|.
func Size() Measure { return sizeMeasure{} }

func (sizeMeasure) Name() string { return "size" }

func (sizeMeasure) Influence(rnn *oset.Set) float64 { return float64(rnn.Len()) }

func (sizeMeasure) InfluenceSorted(rnn []int) float64 { return float64(len(rnn)) }

// weightedMeasure sums per-client weights over the RNN set.
type weightedMeasure struct {
	weights []float64
}

// Weighted returns a measure that sums weights[o] over the RNN set members.
// Members without a weight (index out of range) count as weight 1.
func Weighted(weights []float64) Measure { return &weightedMeasure{weights: weights} }

func (*weightedMeasure) usesIndexContext() {}

func (*weightedMeasure) Name() string { return "weighted" }

func (m *weightedMeasure) Influence(rnn *oset.Set) float64 {
	total := 0.0
	rnn.Range(func(o int) bool {
		if o >= 0 && o < len(m.weights) {
			total += m.weights[o]
		} else {
			total++
		}
		return true
	})
	return total
}

// InfluenceSorted accumulates in ascending member order, the same order an
// oset built with FromSorted ranges in, so the float sum is bit-identical.
func (m *weightedMeasure) InfluenceSorted(rnn []int) float64 {
	total := 0.0
	for _, o := range rnn {
		if o >= 0 && o < len(m.weights) {
			total += m.weights[o]
		} else {
			total++
		}
	}
	return total
}

// connectivityMeasure counts edges whose endpoints both lie in the RNN set.
// The original edge list is retained alongside the derived adjacency so the
// measure can be serialized (see SpecOf).
type connectivityMeasure struct {
	edges     [][2]int
	adjacency map[int][]int
}

// Connectivity returns the taxi-sharing measure of the paper's Fig. 3: the
// number of client pairs connected by an edge (for example, passengers with
// nearby destinations) that are both in the RNN set.
func Connectivity(edges [][2]int) Measure {
	adj := make(map[int][]int)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	return &connectivityMeasure{edges: edges, adjacency: adj}
}

func (*connectivityMeasure) usesIndexContext() {}

func (*connectivityMeasure) Name() string { return "connectivity" }

func (m *connectivityMeasure) Influence(rnn *oset.Set) float64 {
	count := 0
	rnn.Range(func(o int) bool {
		for _, nb := range m.adjacency[o] {
			if nb != o && rnn.Contains(nb) {
				count++
			}
		}
		return true
	})
	// Each qualifying edge was counted from both endpoints.
	return float64(count) / 2
}

// InfluenceSorted replaces the set-membership test with a binary search on
// the ascending slice; the edge count is an integer, so order is immaterial.
func (m *connectivityMeasure) InfluenceSorted(rnn []int) float64 {
	count := 0
	for _, o := range rnn {
		for _, nb := range m.adjacency[o] {
			if nb == o {
				continue
			}
			if _, ok := slices.BinarySearch(rnn, nb); ok {
				count++
			}
		}
	}
	return float64(count) / 2
}

// CapacityContext carries the state the capacity-constrained measure needs:
// the current assignment of clients to facilities and the facility
// capacities.
type CapacityContext struct {
	// Assignment maps each client index to the index of its nearest facility
	// (the facility that currently serves it). It is exactly the Facility
	// field that nncircle.Compute fills in.
	Assignment []int
	// Capacities holds per-facility capacities. A facility with index beyond
	// the slice is treated as having unbounded capacity.
	Capacities []float64
	// NewFacilityCapacity is the capacity c(p) of the candidate facility
	// being evaluated.
	NewFacilityCapacity float64
}

// capacityMeasure implements the utility function of Sun et al. [22]:
// Σ_{f ∈ F ∪ {p}} min{c(f), |R(f)|} evaluated after placing the candidate p.
type capacityMeasure struct {
	ctx       CapacityContext
	baseCount []int   // clients currently assigned to each facility
	baseTotal float64 // Σ_f min(c_f, baseCount_f)
}

// Capacity returns the capacity-constrained measure. The context's
// Assignment must cover every client index that can occur in an RNN set.
func Capacity(ctx CapacityContext) Measure {
	m := &capacityMeasure{ctx: ctx}
	maxF := -1
	for _, f := range ctx.Assignment {
		if f > maxF {
			maxF = f
		}
	}
	m.baseCount = make([]int, maxF+1)
	for _, f := range ctx.Assignment {
		if f >= 0 {
			m.baseCount[f]++
		}
	}
	for f, cnt := range m.baseCount {
		m.baseTotal += minFloat(m.capacityOf(f), float64(cnt))
	}
	return m
}

func (*capacityMeasure) usesIndexContext() {}

func (*capacityMeasure) Name() string { return "capacity" }

func (m *capacityMeasure) capacityOf(f int) float64 {
	if f >= 0 && f < len(m.ctx.Capacities) {
		return m.ctx.Capacities[f]
	}
	return 1e18 // effectively unbounded
}

func (m *capacityMeasure) Influence(rnn *oset.Set) float64 {
	// Placing the candidate p steals exactly the clients in R(p) from the
	// facilities currently serving them. Only those facilities' terms change.
	stolen := map[int]int{}
	rnn.Range(func(o int) bool {
		if o >= 0 && o < len(m.ctx.Assignment) {
			stolen[m.ctx.Assignment[o]]++
		}
		return true
	})
	total := m.baseTotal
	for f, s := range stolen {
		if f < 0 || f >= len(m.baseCount) {
			continue
		}
		c := m.capacityOf(f)
		before := minFloat(c, float64(m.baseCount[f]))
		after := minFloat(c, float64(m.baseCount[f]-s))
		total += after - before
	}
	total += minFloat(m.ctx.NewFacilityCapacity, float64(rnn.Len()))
	return total
}

func (m *capacityMeasure) InfluenceSorted(rnn []int) float64 {
	stolen := map[int]int{}
	for _, o := range rnn {
		if o >= 0 && o < len(m.ctx.Assignment) {
			stolen[m.ctx.Assignment[o]]++
		}
	}
	total := m.baseTotal
	for f, s := range stolen {
		if f < 0 || f >= len(m.baseCount) {
			continue
		}
		c := m.capacityOf(f)
		before := minFloat(c, float64(m.baseCount[f]))
		after := minFloat(c, float64(m.baseCount[f]-s))
		total += after - before
	}
	total += minFloat(m.ctx.NewFacilityCapacity, float64(len(rnn)))
	return total
}

// Gain returns a measure that reports only the candidate's own term
// min{c(p), |R(p)|}. It is the "local" variant useful when comparing
// candidate locations whose placement does not interact.
func Gain(newFacilityCapacity float64) Measure {
	return gainMeasure{capacity: newFacilityCapacity}
}

type gainMeasure struct{ capacity float64 }

func (gainMeasure) Name() string { return "capacity-gain" }

func (g gainMeasure) Influence(rnn *oset.Set) float64 {
	return minFloat(g.capacity, float64(rnn.Len()))
}

func (g gainMeasure) InfluenceSorted(rnn []int) float64 {
	return minFloat(g.capacity, float64(len(rnn)))
}

// Func adapts a plain function into a Measure. The measure is a pointer, so
// it compares by identity: a label pool knows its measure by comparing it
// with ==, and a func-valued struct would panic there.
func Func(name string, f func(rnn *oset.Set) float64) Measure {
	return &funcMeasure{name: name, f: f}
}

type funcMeasure struct {
	name string
	f    func(rnn *oset.Set) float64
}

func (m *funcMeasure) Name() string { return m.name }

func (m *funcMeasure) Influence(rnn *oset.Set) float64 { return m.f(rnn) }

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Describe returns a short human-readable description of a measure for
// reports.
func Describe(m Measure) string {
	switch m.Name() {
	case "size":
		return "size of the RNN set |R(p)|"
	case "weighted":
		return "weighted sum over the RNN set"
	case "connectivity":
		return "number of connected client pairs in the RNN set (taxi-sharing)"
	case "capacity":
		return "capacity-constrained utility Σ min{c(f),|R(f)|} (Sun et al.)"
	case "capacity-gain":
		return "candidate-only capacity gain min{c(p),|R(p)|}"
	default:
		return fmt.Sprintf("custom measure %q", m.Name())
	}
}
