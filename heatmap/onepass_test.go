package heatmap

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/pointloc"
)

// The one pass: a CREST Build and an eager commit write the labels and the
// slab index from one sweep. The labels must be the labels-only sweep's and
// the index the labels-off pointloc.Build's, and each event is stepped once.

// assertOnePassMap requires m's labels to equal core.CREST's over m's
// circles, bit for bit, and m's installed slab index to equal the labels-off
// pointloc.Build's: boundaries, actives, heights or arcs, and gap sets.
func assertOnePassMap(t *testing.T, ctx string, m *Map) {
	t.Helper()
	want, err := core.CREST(m.circles, core.Options{Measure: m.measure})
	if err != nil {
		t.Fatal(err)
	}
	got := m.result.Labels
	if len(got) != len(want.Labels) {
		t.Fatalf("%s: %d labels, a labels-only sweep writes %d", ctx, len(got), len(want.Labels))
	}
	bits := func(l core.Label) [7]uint64 {
		r := l.Region
		var out [7]uint64
		for i, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY, l.Point.X, l.Point.Y, l.Heat} {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for i, w := range want.Labels {
		if bits(got[i]) != bits(w) || !slices.Equal(got[i].RNN, w.RNN) {
			t.Fatalf("%s: label %d is %+v, a labels-only sweep writes %+v", ctx, i, got[i], w)
		}
	}
	st := m.pl.Load()
	if st == nil || st.ix == nil {
		t.Fatalf("%s: the map has no slab index installed", ctx)
	}
	fresh, err := pointloc.Build(m.circles, m.measure, pointloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ix.Cells() != fresh.Cells() {
		t.Fatalf("%s: %d cells, the labels-off build has %d", ctx, st.ix.Cells(), fresh.Cells())
	}
	g, w := st.ix.ExportTables(), fresh.ExportTables()
	if !slices.Equal(g.Xs, w.Xs) || !slices.Equal(g.ZeroXs, w.ZeroXs) || !slices.Equal(g.ZeroIdx, w.ZeroIdx) {
		t.Fatalf("%s: slab boundaries or zero circles differ from the labels-off build's", ctx)
	}
	for i := range w.Xs {
		gs, ws := g.Slab(i), w.Slab(i)
		if !slices.Equal(gs.Actives, ws.Actives) || !slices.Equal(gs.Edges, ws.Edges) || !slices.Equal(gs.Arcs, ws.Arcs) || len(gs.Gaps) != len(ws.Gaps) {
			t.Fatalf("%s: slab %d differs from the labels-off build's", ctx, i)
		}
		for k := range ws.Gaps {
			grnn, gh := g.Set(gs.Gaps[k])
			wrnn, wh := w.Set(ws.Gaps[k])
			if gh != wh || !slices.Equal(grnn, wrnn) {
				t.Fatalf("%s: slab %d gap %d is %v, the labels-off build's %v", ctx, i, k, grnn, wrnn)
			}
		}
	}
}

// TestOnePassMapsMatchLabelsOnly: a CREST Build at 1, 2 and 3 workers, and
// every map of a chain of eager commits from it, carries the labels-only
// sweep's labels and the labels-off build's index, for every metric.
func TestOnePassMapsMatchLabelsOnly(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	for _, metric := range []Metric{LInf, L1, L2} {
		for _, workers := range []int{1, 2, 3} {
			ctx := fmt.Sprintf("%v workers=%d", metric, workers)
			m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			assertOnePassMap(t, ctx+" build", m)
			for step := 0; step < 4; step++ {
				n := m.NumClients()
				ds := []Delta{
					{AddClients: []Point{Pt(float64(37*step%500), float64(91*step%500))}, RemoveClients: []int{(13 * step) % n}},
					{AddFacilities: []Point{Pt(float64(53*step%500), float64(17*step%500))}},
				}
				if m, _, err = m.ApplyDeltaBatch(ds); err != nil {
					t.Fatal(err)
				}
				assertOnePassMap(t, fmt.Sprintf("%s commit %d", ctx, step), m)
			}
		}
	}
}

// TestOnePassStepsEachEventOnce counts sweeper steps (core.StepCount),
// which depend on the input alone: a CREST Build with its index steps each
// event once, as a labels-only one does; the labels-off build of a map
// without an index steps each event once; an eager commit steps each event
// of its resweep once; and a deferred map's first query steps each event of
// its windows once. It must not run beside another test that sweeps.
func TestOnePassStepsEachEventOnce(t *testing.T) {
	steps := func(f func()) int {
		before := core.StepCount()
		f()
		return int(core.StepCount() - before)
	}
	clients, facilities := snapshotTestSets(t)
	for _, metric := range []Metric{LInf, L1, L2} {
		cfg := Config{Clients: clients, Facilities: facilities, Metric: metric, Workers: 2}
		var m *Map
		var err error
		if n := steps(func() { m, err = Build(cfg) }); err != nil || n != m.Stats().Events {
			t.Fatalf("%v: a Build with its index stepped %d times over %d events (%v)", metric, n, m.Stats().Events, err)
		}
		if built, _, _ := m.SlabIndexStats(); !built {
			t.Fatalf("%v: Build returned without its index", metric)
		}
		events := m.Stats().Events
		labelsOnly := cfg
		labelsOnly.NoSlabIndex = true
		var lo *Map
		if n := steps(func() { lo, err = Build(labelsOnly) }); err != nil || n != events {
			t.Fatalf("%v: a labels-only Build stepped %d times over %d events (%v)", metric, n, events, err)
		}
		// Its file has no slab sections: the map opened from it builds its
		// index in the labels-off pass on its first query.
		path := filepath.Join(t.TempDir(), "labels.snap")
		if err := lo.SaveSnapshot(path, 1); err != nil {
			t.Fatal(err)
		}
		opened, _, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := steps(func() { opened.HeatAt(clients[0]) }); n != events {
			t.Fatalf("%v: the labels-off build stepped %d times over %d events", metric, n, events)
		}

		var next *Map
		var st DeltaStats
		ds := []Delta{{AddClients: []Point{Pt(120, 340)}, RemoveFacilities: []int{2}}}
		if n := steps(func() { next, st, err = m.ApplyDeltaBatch(ds) }); err != nil || n != st.EventsReswept || st.EventsReswept == st.EventsTotal {
			t.Fatalf("%v: an eager commit stepped %d times over %d of %d events (%v)", metric, n, st.EventsReswept, st.EventsTotal, err)
		}
		if built, _, _ := next.SlabIndexStats(); !built {
			t.Fatalf("%v: the eager commit dropped the index", metric)
		}

		var placed []PlacementStep
		var final *Map
		if n := steps(func() { placed, final, err = next.GreedyPlace(context.Background(), 2, OptimalConstraints{}) }); err != nil || len(placed) != 2 {
			t.Fatalf("%v: GreedyPlace placed %d (%v)", metric, len(placed), err)
		} else if want := placed[0].Stats.EventsReswept + placed[1].Stats.EventsReswept; n != want {
			t.Fatalf("%v: the deferred steps stepped %d times over %d reswept events", metric, n, want)
		}
		p := final.pending
		if p == nil {
			t.Fatalf("%v: the final map has no deferred patch", metric)
		}
		windows := 0
		for _, r := range p.events.Dirty(p.spans) {
			windows += r.Hi - r.Lo + 1
		}
		if n := steps(func() { final.HeatAt(clients[0]) }); n != windows || windows == 0 {
			t.Fatalf("%v: the deferred map's first query stepped %d times over the %d events of its windows", metric, n, windows)
		}
		if built, _, _ := final.SlabIndexStats(); !built {
			t.Fatalf("%v: the deferred patch declined", metric)
		}
	}
}
