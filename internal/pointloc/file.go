package pointloc

import (
	"errors"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/snapshot"
)

// Open returns the slab index a format-v2 snapshot stores, which v must
// carry (snapshot.Meta.HasSlabIndex). Each slab's lists are sliced out of
// the view's sections and its gap ids are the file's pool ids, so opening
// copies no cell data and a cold map serves its first query with no decode
// step; only the circles and the slab headers are built on the heap. An L2
// slab takes its arcs and no heights, as a built one holds, also from a
// file an earlier build wrote with heights (the view validates those and
// exposes none). The index answers exactly as the index the file was saved
// from, patches like any other (see Patch and lineage), and must not
// outlive v.
//
// measure must be the snapshot's own measure: it is invoked on the exact
// fallback path, and a different measure would disagree with the heats
// stored in the file.
func Open(v *snapshot.View, measure influence.Measure) (*Index, error) {
	s := v.Slab()
	if s == nil {
		return nil, errors.New("pointloc: snapshot carries no slab index")
	}
	if measure == nil {
		measure = influence.Size()
	}
	ix := &Index{
		metric:    v.Meta().Metric,
		measure:   measure,
		emptyHeat: measure.Influence(oset.New()),
		xs:        s.Xs,
		slabs:     make([]slab, len(s.Xs)),
		cells:     len(s.Xs) + 2*int(s.EdgeOff[len(s.Xs)]),
		zeroIdx:   s.ZeroIdx,
		zeroXs:    s.ZeroXs,
		sets:      labelTable{heats: v.PoolHeats(), view: v},
		lin:       &lineage{view: v},
	}
	circles := make([]nncircle.NNCircle, v.NumCircles())
	for i := range circles {
		circles[i] = v.CircleAt(i)
	}
	ix.setCircles(circles)
	for i := range ix.slabs {
		a0, a1 := s.ActOff[i], s.ActOff[i+1]
		e0, e1 := s.EdgeOff[i], s.EdgeOff[i+1]
		g0, g1 := e0+uint32(i), e1+uint32(i)+1
		sl := &ix.slabs[i]
		sl.actives = s.Actives[a0:a1:a1]
		sl.gaps = s.Gaps[g0:g1:g1]
		if ix.metric == geom.L2 {
			sl.arcs = s.Arcs[e0:e1:e1]
		} else {
			sl.edges = s.Edges[e0:e1:e1]
		}
	}
	return ix, nil
}

// ExportTables hands the index to the snapshot encoder as it stores it:
// each slab's lists as they are — heap slices, or slices of the file an
// opened index's clean slabs still alias — which the encoder streams into a
// format-v2 file's concatenated sections (and Open slices back out), so a
// save copies no slab. Gap labels are exported as set ids with the table that
// resolves them; the snapshot encoder folds the sets into the file's pool.
func (ix *Index) ExportTables() *snapshot.SlabTables {
	return &snapshot.SlabTables{
		Xs: ix.xs,
		Slab: func(i int) snapshot.SlabLists {
			sl := &ix.slabs[i]
			return snapshot.SlabLists{Actives: sl.actives, Edges: sl.edges, Arcs: sl.arcs, Gaps: sl.gaps}
		},
		NumSets: len(ix.sets.heats),
		Set: func(id uint32) ([]int, float64) {
			return ix.sets.set(id), ix.sets.heats[id]
		},
		ZeroXs:  ix.zeroXs,
		ZeroIdx: ix.zeroIdx,
	}
}
