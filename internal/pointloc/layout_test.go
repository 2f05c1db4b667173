package pointloc

import (
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/delta"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// TestL2IndexStoresNoHeights: an L2 slab holds its actives, its arcs and
// its gap ids and no heights, whether the index was built, patched once, or
// opened from a snapshot, and each index reports the Cells() of a fresh
// Build of its circles, which its arcs count too, and groups one cell per
// pair of adjacent arcs. It covers the L2 map shape of the end-to-end plan
// workload (NYC 600/180) and, outside -short, heatmapd's default map (NYC
// 2000/600).
func TestL2IndexStoresNoHeights(t *testing.T) {
	t.Parallel()
	for _, in := range []struct {
		name                string
		clients, facilities int
		sampleSeed          int64
	}{
		{"plan-l2-nyc", 600, 180, 1},
		{"heatmapd-default", 2000, 600, 2},
	} {
		t.Run(in.name, func(t *testing.T) {
			if in.clients > 1000 && testing.Short() {
				t.Skip("builds, patches and saves heatmapd's default map")
			}
			pool, err := dataset.ByName("NYC", 2*(in.clients+in.facilities), 1)
			if err != nil {
				t.Fatal(err)
			}
			clients, facilities := pool.SampleClientsFacilities(in.clients, in.facilities, in.sampleSeed)
			circles, err := nncircle.Compute(clients, facilities, geom.L2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.CREST(circles, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			built, err := Build(circles, nil, Options{Pool: res.LabelPool()})
			if err != nil {
				t.Fatal(err)
			}
			assertNoHeights(t, "built", built, circles)

			mid := func(a, b geom.Point) geom.Point { return geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2) }
			st := delta.State{Clients: clients, Facilities: facilities, Circles: circles, Labels: res.Labels}
			out, err := delta.ApplyBatch(st, []delta.Delta{{
				AddClients:    []geom.Point{mid(clients[1], clients[2])},
				RemoveClients: []int{3},
				AddFacilities: []geom.Point{mid(facilities[0], clients[5])},
			}}, delta.Options{Metric: geom.L2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			patched, err := built.Patch(out.State.Circles, out.Stats.DirtySpans, out.Events, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertNoHeights(t, "patched", patched, out.State.Circles)

			assertNoHeights(t, "opened", openedFromIndex(t, built, influence.Size()), circles)
		})
	}
}

// assertNoHeights requires every slab of the L2 index ix to hold no heights
// and one gap more than arcs, ix to report the Cells() of a fresh Build over
// circles, which its slabs and arcs must count too, and GroupCells to find
// one bounded cell between each two adjacent arcs.
func assertNoHeights(t *testing.T, ctx string, ix *Index, circles []nncircle.NNCircle) {
	t.Helper()
	fresh, err := Build(circles, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells, bounded := len(ix.slabs), 0
	for i := range ix.slabs {
		sl := &ix.slabs[i]
		if sl.edges != nil || len(sl.gaps) != len(sl.arcs)+1 {
			t.Fatalf("%s slab %d: %d heights (capacity %d), %d arcs, %d gaps; want no heights and one gap more than arcs",
				ctx, i, len(sl.edges), cap(sl.edges), len(sl.arcs), len(sl.gaps))
		}
		cells += 2 * len(sl.arcs)
		bounded += max(len(sl.arcs)-1, 0)
	}
	if ix.Cells() != fresh.Cells() || cells != fresh.Cells() {
		t.Fatalf("%s: Cells() = %d and the arcs count %d cells, want a fresh build's %d", ctx, ix.Cells(), cells, fresh.Cells())
	}
	grouped := 0
	for _, g := range ix.GroupCells(nil) {
		grouped += g.Cells
	}
	if grouped != bounded {
		t.Fatalf("%s: GroupCells found %d bounded cells, want %d", ctx, grouped, bounded)
	}
}
