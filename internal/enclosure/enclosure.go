// Package enclosure provides point-enclosure (stabbing) indexes over
// NN-circles: given a query point, report every circle containing it.
//
// The baseline algorithm of the paper (Section IV) issues one such query per
// grid cell; the heat-map rasterizer issues one per pixel. The paper uses an
// S-tree for ease of analysis and notes that "other spatial indexes such as
// the R-tree may be used"; this package offers an R-tree backed index, and a
// brute-force index that is its differential oracle. Its large batches take
// one shared plane sweep over the circle extents, the stripe walk of the
// S-tree analysis (sweepData).
//
// # Boundary semantics
//
// Containment is defined by exactly one predicate: geom.Circle.Contains —
// the closed metric ball, Metric.Distance(center, p) <= radius. A query
// point lying exactly on a circle's boundary belongs to the circle; a point
// on a boundary shared by several circles belongs to all of them. Every
// index implementation must return exactly {i : circles[i].Contains(p)}, in
// ascending order, for every point including such boundary cases.
//
// This is less automatic than it sounds: the candidate filters (R-tree
// bounding rectangles, sweep extents) are computed from the rounded
// coordinates cx±r, which can sit one ulp inside the set accepted by the
// rounded distance comparison, silently dropping a circle whose boundary
// passes exactly through the query point — making the reported set depend on
// which index (and which internal visit path) served the query. The filters
// therefore pad the indexed extents by a relative epsilon that dominates the
// rounding error (indexPad); the exact Contains refinement keeps false
// positives out, so the padding affects candidate counts only, never
// results. The slab point-location index (internal/pointloc) pins its
// boundary handling to this same convention.
package enclosure

import (
	"math"
	"sort"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/rtree"
)

// indexPad returns the relative padding applied around coordinate v when
// indexing circle extents: comfortably above the ~1 ulp disagreement between
// the rounded extent and the rounded distance test, and far below any real
// geometry. Padding widens the candidate filter only — membership is always
// decided by geom.Circle.Contains.
func indexPad(v float64) float64 { return 1e-12 * (1 + math.Abs(v)) }

// paddedRect expands a circle's bounding rectangle by indexPad on every
// side, guaranteeing the rectangle contains every point the closed distance
// test can accept.
func paddedRect(c geom.Circle) geom.Rect {
	r := c.BoundingRect()
	return geom.Rect{
		MinX: r.MinX - indexPad(r.MinX),
		MinY: r.MinY - indexPad(r.MinY),
		MaxX: r.MaxX + indexPad(r.MaxX),
		MaxY: r.MaxY + indexPad(r.MaxY),
	}
}

// Index answers point-enclosure queries over a fixed set of circles.
// Implementations are safe for concurrent queries after construction.
type Index interface {
	// Enclosing returns the indexes (into the original slice) of the circles
	// that contain p, boundary included.
	Enclosing(p geom.Point) []int
	// EnclosingStrict returns the indexes of the circles that contain p
	// strictly in their interior.
	EnclosingStrict(p geom.Point) []int
	// EnclosingBatch answers one Enclosing query per point, returning the
	// results in input order. The R-tree index answers large batches with
	// one shared plane sweep (sort the queries by x, walk the circle extents
	// once — see sweepData) instead of one index descent per point; results
	// are identical to per-point Enclosing calls either way.
	// It is the serving fallback when the slab point-location index
	// (internal/pointloc) is absent.
	EnclosingBatch(ps []geom.Point) [][]int
	// Len returns the number of indexed circles.
	Len() int
}

// batch answers a batch query with repeated single queries. The concrete
// indexes use it when they have no cheaper batch strategy, and for batches
// too small to amortize a sweep.
func batch(ix Index, ps []geom.Point) [][]int {
	out := make([][]int, len(ps))
	for i, p := range ps {
		out[i] = ix.Enclosing(p)
	}
	return out
}

// sweepBatchMin is the batch size from which the shared sweep can beat
// repeated index descents: below it the O(B log B) query sort dominates.
const sweepBatchMin = 32

// sweepDenseMax bounds the expected active-list size up to which the shared
// sweep is used. The sweep prunes candidates in x only, so each query scans
// every circle whose x-extent covers it, while the R-tree descent prunes in
// both axes at once. Measured on 20k-50k circle workloads the crossover sits
// near a dozen active circles per stripe: below it the sweep answers batches
// up to ~1.6x faster than per-point descents, above it the R-tree's y-axis
// pruning wins. NN-circle arrangements land on either side depending on the
// client/facility ratio, so the choice is made per index from the measured
// extent density.
const sweepDenseMax = 12

// sweepData is the precomputed state of the shared batch sweep, built once
// at index construction: the padded circle extents, the circle ids sorted by
// left extent, and the density estimate the adaptive batch choice consults.
type sweepData struct {
	circles []geom.Circle
	rects   []geom.Rect
	byStart []int32
	// avgActive estimates how many circles' x-extents cover a uniformly
	// placed query — the per-query scan cost of the sweep.
	avgActive float64
}

func newSweepData(circles []geom.Circle) *sweepData {
	sd := &sweepData{
		circles: circles,
		rects:   make([]geom.Rect, len(circles)),
		byStart: make([]int32, len(circles)),
	}
	lo, hi, width := math.Inf(1), math.Inf(-1), 0.0
	for i, c := range circles {
		sd.rects[i] = paddedRect(c)
		sd.byStart[i] = int32(i)
		lo = math.Min(lo, sd.rects[i].MinX)
		hi = math.Max(hi, sd.rects[i].MaxX)
		width += sd.rects[i].MaxX - sd.rects[i].MinX
	}
	sort.Slice(sd.byStart, func(a, b int) bool {
		return sd.rects[sd.byStart[a]].MinX < sd.rects[sd.byStart[b]].MinX
	})
	if hi > lo {
		sd.avgActive = width / (hi - lo)
	} else if len(circles) > 0 {
		sd.avgActive = float64(len(circles))
	}
	return sd
}

// useFor reports whether the sweep is the faster strategy for a batch of B
// points.
func (sd *sweepData) useFor(B int) bool {
	return B >= sweepBatchMin && sd.avgActive <= sweepDenseMax
}

// batch answers a batch with one shared left-to-right plane sweep: the
// queries are sorted by x once, the circles enter the active list as the
// sweep passes their (padded) left extent and leave when it passes their
// right extent, and each query tests exactly the active circles — the
// stripe-walk the paper's S-tree analysis describes, shared across the whole
// batch. Each result is {i : circles[i].Contains(p)} in ascending order,
// exactly what per-point Enclosing returns.
func (sd *sweepData) batch(ps []geom.Point) [][]int {
	out := make([][]int, len(ps))
	order := make([]int, 0, len(ps))
	for i := range ps {
		if math.IsNaN(ps[i].X) {
			// NaN breaks the sort's strict weak order and would corrupt the
			// sweep for every other point; no circle contains it anyway, so
			// its answer is nil — exactly what per-point Enclosing returns.
			continue
		}
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool { return ps[order[a]].X < ps[order[b]].X })
	var active []int32
	next := 0
	for _, qi := range order {
		p := ps[qi]
		for next < len(sd.byStart) && sd.rects[sd.byStart[next]].MinX <= p.X {
			active = append(active, sd.byStart[next])
			next++
		}
		var res []int
		for k := 0; k < len(active); {
			id := active[k]
			if sd.rects[id].MaxX < p.X {
				// Expired: the sweep has passed the circle's right extent for
				// good (queries only move right), so drop it.
				active[k] = active[len(active)-1]
				active = active[:len(active)-1]
				continue
			}
			if sd.circles[id].Contains(p) {
				res = append(res, int(id))
			}
			k++
		}
		sort.Ints(res)
		out[qi] = res
	}
	return out
}

// rtreeIndex is the Index implementation: an R-tree over the circle
// bounding rectangles refined by an exact containment test.
type rtreeIndex struct {
	circles []geom.Circle
	tree    *rtree.Tree
	sweep   *sweepData
}

// NewRTreeIndex builds the point-enclosure index over circles.
func NewRTreeIndex(circles []geom.Circle) Index {
	items := make([]rtree.Item, len(circles))
	for i, c := range circles {
		items[i] = rtree.Item{ID: i, Rect: paddedRect(c)}
	}
	return &rtreeIndex{circles: circles, tree: rtree.BulkLoad(items), sweep: newSweepData(circles)}
}

func (ix *rtreeIndex) Len() int { return len(ix.circles) }

func (ix *rtreeIndex) Enclosing(p geom.Point) []int {
	var out []int
	for _, id := range ix.tree.Stab(p) {
		if ix.circles[id].Contains(p) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func (ix *rtreeIndex) EnclosingStrict(p geom.Point) []int {
	var out []int
	for _, id := range ix.tree.Stab(p) {
		if ix.circles[id].ContainsStrict(p) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func (ix *rtreeIndex) EnclosingBatch(ps []geom.Point) [][]int {
	if ix.sweep.useFor(len(ps)) {
		return ix.sweep.batch(ps)
	}
	return batch(ix, ps)
}

// bruteIndex tests every circle. It exists as the correctness oracle for the
// other implementations and for tiny inputs where index construction is not
// worthwhile.
type bruteIndex struct{ circles []geom.Circle }

// NewBruteIndex returns an Index that scans all circles on every query.
func NewBruteIndex(circles []geom.Circle) Index { return &bruteIndex{circles: circles} }

func (ix *bruteIndex) Len() int { return len(ix.circles) }

func (ix *bruteIndex) Enclosing(p geom.Point) []int {
	var out []int
	for i, c := range ix.circles {
		if c.Contains(p) {
			out = append(out, i)
		}
	}
	return out
}

func (ix *bruteIndex) EnclosingStrict(p geom.Point) []int {
	var out []int
	for i, c := range ix.circles {
		if c.ContainsStrict(p) {
			out = append(out, i)
		}
	}
	return out
}

func (ix *bruteIndex) EnclosingBatch(ps []geom.Point) [][]int { return batch(ix, ps) }
