package pointloc

import (
	"runtime"

	"rnnheatmap/internal/core"
)

// Per-set cell geometry: the slab decomposition already cuts every face of
// the arrangement into cells, so walking the cells and grouping them by set
// id recovers exact per-face geometry (area, bounding box, cell count)
// without any new sweep. The optimal-location engine (internal/optimal) is
// the consumer; it asks for the few sets an answer returns, so the walk
// reads every gap id but builds and integrates only the wanted cells.

// GroupCells aggregates the bounded cells of the sets with the given ids
// (every set when ids is nil) into per-set groups (see core.CellGrouper):
// total exact area, cell count, and sweep-space bounding box per set, in the
// order of each set's first cell. A set without a bounded cell in the index
// gets no group. Ids are the index's own (SetID resolves a set to its id).
//
// A bounded cell is the region between two consecutive edges of one slab;
// the unbounded gaps below the first and above the last edge (always the
// empty-set face) are skipped, as is the face outside every slab. Cells are
// visited slab by slab in ascending x order and bottom to top inside each
// slab. Coordinates are in sweep space: the original coordinate system for
// L∞ and L2, the rotated system for L1. The rotation is orthonormal, so
// areas computed from these cells are original-space areas for every metric.
func (ix *Index) GroupCells(ids []uint32) []core.CellGroup {
	g := core.NewCellGrouper(len(ix.sets.heats), ids)
	for i := range ix.slabs {
		sl := &ix.slabs[i]
		x0, x1 := ix.xs[i], rightEdge(ix.xs, i)
		for j := 1; j < sl.numEdges(); j++ {
			if id := sl.gaps[j]; g.Wants(id) {
				g.Add(id, x0, x1, ix.cellEdge(sl, j-1), ix.cellEdge(sl, j))
			}
		}
	}
	runtime.KeepAlive(ix) // the slab lists may be file bytes
	return g.Groups()
}

// cellEdge materializes edge k of a slab as a core.CellEdge: its height
// for a rectilinear slab, its arc for L2.
func (ix *Index) cellEdge(sl *slab, k int) core.CellEdge {
	if sl.arcs == nil {
		return core.CellEdge{Y: sl.edges[k]}
	}
	a := sl.arcs[k]
	return core.CellEdge{Arc: true, Circle: ix.sweepAll[a>>1].Circle, Upper: a&1 != 0}
}

// SetID returns the id the index's gaps store for the set with members rnn
// (ascending), found through the lineage's interner, which never assigns an
// id on a lookup. ok is false when no gap of the index can store the set:
// the lineage never numbered it, or numbered it after this index was made.
// The first call on an index opened from a snapshot seeds the lineage's
// interner from the file's pool, as Pool does.
func (ix *Index) SetID(rnn []int) (id uint32, ok bool) {
	id, ok = ix.Pool().LookupID(rnn)
	return id, ok && int(id) < len(ix.sets.heats)
}

// LabelID returns the id the index's gaps store for the set of label l: the
// label's own set id when the index's table holds l's set under it, as it
// does for every label of the map the index serves (one lineage, one
// table), and otherwise the id SetID finds by content.
func (ix *Index) LabelID(l *core.Label) (id uint32, ok bool) {
	if id = l.Set - 1; l.Set != 0 && int(id) < len(ix.sets.heats) && ix.sets.holds(id, l.RNN) {
		return id, true
	}
	return ix.SetID(l.RNN)
}

// AppendSet appends the members of the set with the given id (a gap id
// GroupCells reported), ascending, to dst.
func (ix *Index) AppendSet(dst []int, id uint32) []int { return ix.sets.appendSet(dst, id) }
