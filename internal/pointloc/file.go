package pointloc

import (
	"errors"

	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/snapshot"
)

// Open returns the slab index a format-v2 snapshot stores, which v must
// carry (snapshot.Meta.HasSlabIndex). Each slab's lists are sliced out of
// the view's sections and its gap ids are the file's pool ids, so opening
// copies no cell data and a cold map serves its first query with no decode
// step; only the circles and the slab headers are built on the heap. The
// index answers exactly as the index the file was saved from, patches like
// any other (see Patch and lineage), and must not outlive v.
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
		cells:     len(s.Xs) + 2*len(s.Edges),
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
		sl.edges = s.Edges[e0:e1:e1]
		sl.gaps = s.Gaps[g0:g1:g1]
		if len(s.Arcs) > 0 {
			sl.arcs = s.Arcs[e0:e1:e1]
		}
	}
	return ix, nil
}

// ExportTables concatenates the index's slabs into the prefix-offset arrays
// a format-v2 snapshot stores (and Open slices back out). Gap labels are
// exported as set ids with the table that resolves them; the snapshot
// encoder folds the sets into the file's pool. Xs and the zero-circle
// arrays alias the index's own.
func (ix *Index) ExportTables() *snapshot.SlabTables {
	t := &snapshot.SlabTables{
		Xs:      ix.xs,
		ActOff:  make([]uint32, 1, len(ix.slabs)+1),
		EdgeOff: make([]uint32, 1, len(ix.slabs)+1),
		Arcs:    []uint32{},
		NumSets: len(ix.sets.heats),
		Set: func(id uint32) ([]int, float64) {
			return ix.sets.set(id), ix.sets.heats[id]
		},
		ZeroXs:  ix.zeroXs,
		ZeroIdx: ix.zeroIdx,
	}
	for i := range ix.slabs {
		sl := &ix.slabs[i]
		t.Actives = append(t.Actives, sl.actives...)
		t.ActOff = append(t.ActOff, uint32(len(t.Actives)))
		t.Edges = append(t.Edges, sl.edges...)
		t.EdgeOff = append(t.EdgeOff, uint32(len(t.Edges)))
		t.Arcs = append(t.Arcs, sl.arcs...)
		t.Gaps = append(t.Gaps, sl.gaps...)
	}
	return t
}
