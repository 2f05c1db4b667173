// Package optimal implements exact optimal-location analytics over a labeled
// RNN arrangement: the MaxBRNN argmax (the single max-influence region the
// Wong et al. optimal-location line of work computes), constrained top-k
// region selection, and the geometry that backs both.
//
// The paper's arrangement already labels every region, so the argmax the
// optimal-location literature works hard for is a scan away; what this
// package adds is exactness guarantees and geometry. Ranking scans the
// emitted labels with the same tie-breaking as the sweep's own max tracking
// (first label in emission order strictly exceeding the running maximum
// wins), so the unconstrained argmax is byte-identical to a brute-force max
// over the label list. Geometry — exact face area, cell count, bounding box
// per distinct RNN set — is recovered from the slab decomposition's cells
// grouped by set id (see pointloc.Index.VisitCells), and feeds the
// constrained variants: minimum region area, minimum distance from existing
// facilities, and a bounding-box filter.
//
// A distinct RNN set is identified by its oset.ContentKey, the key the
// sweep's label interner decides every label with. Ranking and the geometry
// join compute it from the member slice, so they work for labels and slab
// gaps from any pools.
package optimal

import (
	"cmp"
	"errors"
	"slices"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/pointloc"
)

// Region is one candidate optimal region: a distinct RNN set with its heat,
// a representative interior point, and — when slab geometry is available —
// the exact total area, cell count and bounding box of its faces.
type Region struct {
	// Heat is the influence value of the region's RNN set.
	Heat float64
	// RNN holds the client identifiers in ascending order.
	RNN []int
	// Point is a representative interior point in the original coordinate
	// system (the first emitted label's representative).
	Point geom.Point
	// HasGeometry reports whether Area, Cells and Bounds were recovered from
	// the slab decomposition; false when the index declined to build and the
	// ranking fell back to the label scan.
	HasGeometry bool
	// Area is the exact total area of the set's faces, in original-space
	// units (the L1 sweep rotation is orthonormal, so no scaling applies).
	Area float64
	// Cells is the number of slab cells the faces decompose into.
	Cells int
	// Bounds is an original-space bounding box of the faces (for L1 the
	// rotated-back sweep box, a conservative cover).
	Bounds geom.Rect
}

// Constraints filters candidate regions. The zero value accepts everything.
type Constraints struct {
	// MinArea drops regions whose exact face area is below the bound.
	// Requires slab geometry: TopK returns ErrNeedGeometry when the slab
	// index was unavailable and MinArea is positive.
	MinArea float64
	// MinDist drops regions whose representative point lies closer than this
	// to any of Facilities under Metric — "don't open next to an existing
	// store".
	MinDist    float64
	Facilities []geom.Point
	Metric     geom.Metric
	// Bounds, when non-nil, keeps only regions whose representative point
	// lies inside it (closed).
	Bounds *geom.Rect
}

// ErrNeedGeometry reports that a constraint requiring exact face geometry
// (MinArea) was given but the slab decomposition is unavailable.
var ErrNeedGeometry = errors.New("optimal: min-area constraint requires the slab-cell geometry, which is unavailable for this map")

// Group is the aggregated slab-cell geometry of one distinct RNN set.
type Group struct {
	Area   float64
	Cells  int
	Bounds geom.Rect
}

// Geometry holds per-RNN-set face geometry recovered from a slab index,
// keyed by the set's oset.ContentKey so it can be joined against labels from
// any pool (a snapshot-restored map's labels and slab gaps come from
// different pools, so pointer identity would not survive that).
type Geometry struct {
	byKey map[oset.ContentKey]Group
	// TotalArea is the summed area of every bounded cell, the empty-set
	// holes between circles included; differential tests compare it against
	// independently computed arrangement measures.
	TotalArea float64
}

// FromIndex recovers the per-set geometry from a slab index by grouping its
// bounded cells by set id and keying each group by its set's content key.
// Bounding boxes are mapped back to the original coordinate system (exact
// except for L1, where the rotated box is covered conservatively). Returns
// nil when ix is nil, so callers can thread an absent index straight through
// to the label-scan fallback.
func FromIndex(ix *pointloc.Index) *Geometry {
	if ix == nil {
		return nil
	}
	geo := &Geometry{byKey: make(map[oset.ContentKey]Group)}
	var rnn []int
	for _, grp := range ix.GroupCells() {
		bounds := grp.Bounds
		if ix.Metric() == geom.L1 && !bounds.IsEmpty() {
			r := geom.EmptyRect()
			for _, c := range bounds.Corners() {
				r = r.UnionPoint(geom.RotateLInfToL1(c))
			}
			bounds = r
		}
		geo.TotalArea += grp.Area
		rnn = ix.AppendSet(rnn[:0], grp.ID)
		geo.byKey[oset.KeyOf(rnn)] = Group{Area: grp.Area, Cells: grp.Cells, Bounds: bounds}
	}
	return geo
}

// Lookup returns the geometry of the given RNN set.
func (g *Geometry) Lookup(rnn []int) (Group, bool) {
	if g == nil {
		return Group{}, false
	}
	grp, ok := g.byKey[oset.KeyOf(rnn)]
	return grp, ok
}

// TopK returns the k best regions satisfying cons, best first. Each
// distinct RNN set is one region, represented by its first emitted label,
// and regions are ordered by heat descending with ties broken by first
// emission order. With no constraints and k=1 the answer is therefore
// exactly the label a brute-force scan over labels keeps (first label
// strictly exceeding the running maximum) — the same tie-breaking the
// sweep's own Result.MaxLabel uses. Geometry is attached from geo when
// non-nil. Fewer than k regions may be returned; zero regions is not an
// error.
func TopK(labels []core.Label, geo *Geometry, k int, cons Constraints) ([]Region, error) {
	if k <= 0 {
		return nil, nil
	}
	if cons.MinArea > 0 && geo == nil {
		return nil, ErrNeedGeometry
	}
	// Rank the first label index of each distinct set; a Region is built,
	// joined to its geometry and checked only when the scan reaches it.
	seen := make(map[oset.ContentKey]struct{})
	var first []int
	for i := range labels {
		key := oset.KeyOf(labels[i].RNN)
		if _, ok := seen[key]; !ok {
			seen[key] = struct{}{}
			first = append(first, i)
		}
	}
	slices.SortFunc(first, func(a, b int) int {
		return cmp.Or(cmp.Compare(labels[b].Heat, labels[a].Heat), cmp.Compare(a, b))
	})
	out := make([]Region, 0, k)
	for _, i := range first {
		l := &labels[i]
		r := Region{Heat: l.Heat, RNN: l.RNN, Point: l.Point}
		if grp, ok := geo.Lookup(l.RNN); ok {
			r.HasGeometry, r.Area, r.Cells, r.Bounds = true, grp.Area, grp.Cells, grp.Bounds
		}
		if !cons.admit(r) {
			continue
		}
		out = append(out, r)
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// admit reports whether the region satisfies every constraint.
func (c Constraints) admit(r Region) bool {
	if c.Bounds != nil && !c.Bounds.Contains(r.Point) {
		return false
	}
	if c.MinArea > 0 && r.Area < c.MinArea {
		return false
	}
	if c.MinDist > 0 {
		for _, f := range c.Facilities {
			if c.Metric.Distance(r.Point, f) < c.MinDist {
				return false
			}
		}
	}
	return true
}
