package pointloc

import (
	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
)

// Per-label cell iteration: the slab decomposition already cuts every face
// of the arrangement into cells, so walking the cells and grouping them by
// interned label recovers exact per-face geometry (area, bounding box, cell
// count) without any new sweep. The optimal-location engine
// (internal/optimal) is the consumer.

// VisitCells calls visit once per bounded cell of the decomposition, slab by
// slab in ascending x order and bottom to top inside each slab. A bounded
// cell is the region between two consecutive edges of one slab; the
// unbounded gaps below the first and above the last edge (always the
// empty-set face) are skipped, as is the face outside every slab. id is the
// cell's set id — each set has one id in an index, so grouping by id groups
// by RNN set (AppendSet resolves it). Returning false stops the walk.
//
// Coordinates are in sweep space: the original coordinate system for L∞ and
// L2, the rotated system for L1. The rotation is orthonormal, so areas
// computed from these cells are original-space areas for every metric.
func (ix *Index) VisitCells(visit func(x0, x1 float64, bottom, top core.CellEdge, id uint32) bool) {
	for i := range ix.slabs {
		sl := &ix.slabs[i]
		if len(sl.edges) == 0 {
			continue
		}
		x0 := ix.xs[i]
		x1 := rightEdge(ix.xs, i)
		for j := 1; j < len(sl.edges); j++ {
			if !visit(x0, x1, ix.cellEdge(sl, j-1), ix.cellEdge(sl, j), sl.gaps[j]) {
				return
			}
		}
	}
}

// cellEdge materializes edge k of a slab as a core.CellEdge.
func (ix *Index) cellEdge(sl *slab, k int) core.CellEdge {
	e := core.CellEdge{Y: sl.edges[k]}
	if sl.arcs != nil {
		a := sl.arcs[k]
		e.Arc = true
		e.Circle = ix.sweepAll[a>>1].Circle
		e.Upper = a&1 != 0
	}
	return e
}

// GroupCells walks every bounded cell and aggregates them into per-set
// groups (see core.CellGrouper): total exact area, cell count, and
// sweep-space bounding box per distinct RNN set, in the order of each set's
// first cell.
func (ix *Index) GroupCells() []core.CellGroup {
	g := core.NewCellGrouper(len(ix.sets.heats))
	ix.VisitCells(func(x0, x1 float64, bottom, top core.CellEdge, id uint32) bool {
		g.Add(id, x0, x1, bottom, top)
		return true
	})
	return g.Groups()
}

// AppendSet appends the members of the set with the given id (a gap id
// VisitCells or GroupCells reported), ascending, to dst.
func (ix *Index) AppendSet(dst []int, id uint32) []int { return ix.sets.appendSet(dst, id) }

// ToOriginal maps a sweep-space point back to the index's original
// coordinate system (the inverse of the L1 rotation; identity otherwise).
func (ix *Index) ToOriginal(p geom.Point) geom.Point {
	if ix.metric == geom.L1 {
		return geom.RotateLInfToL1(p)
	}
	return p
}
