package heatmap

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rnnheatmap/internal/delta"
	"rnnheatmap/internal/postprocess"
)

// Every label of a map carries its set's id in its lineage's table: the
// pool its commits intern into, and the table its slab index's gaps index.
// A snapshot save plans the file's pool by those ids, so an id that named
// another set would write a wrong file.

// checkLabelSetIDs requires every label of m to carry the id under which
// m's lineage holds its set and heat: in the pool its commits intern into
// and, once built, in its slab index's table.
func checkLabelSetIDs(t *testing.T, ctx string, m *Map) {
	t.Helper()
	m.materialize()
	ix, _ := m.builtPointLoc()
	pool := m.labelPool()
	if ix != nil {
		pool = ix.Pool()
	}
	heats, sets := pool.Table()
	for i, l := range m.result.Labels {
		if l.Set == 0 || int(l.Set) > len(sets) {
			t.Fatalf("%s: label %d carries set id %d of %d", ctx, i, int64(l.Set)-1, len(sets))
		}
		id := l.Set - 1
		if !slices.Equal(sets[id].RNN, l.RNN) || heats[id] != l.Heat {
			t.Fatalf("%s: label %d (%v, heat %v) carries the id of %v, heat %v", ctx, i, l.RNN, l.Heat, sets[id].RNN, heats[id])
		}
		if ix == nil {
			continue
		}
		tables := ix.ExportTables()
		if int(id) >= tables.NumSets {
			t.Fatalf("%s: label %d carries set id %d, outside its slab index's %d", ctx, i, id, tables.NumSets)
		}
		if rnn, heat := tables.Set(id); !slices.Equal(rnn, l.RNN) || heat != l.Heat {
			t.Fatalf("%s: label %d (%v, heat %v) names %v, heat %v in its slab index", ctx, i, l.RNN, l.Heat, rnn, heat)
		}
	}
}

// randomBatch draws the deltas of one batch the way the delta package's
// random-sequence suite does: client and facility additions (some on
// existing points), removals, and mixed deltas, each valid against the sets
// the deltas before it leave, which clients and facilities track.
func randomBatch(rng *rand.Rand, clients, facilities *[]Point, n int) []Delta {
	pt := func() Point {
		switch rng.Intn(6) {
		case 0:
			return (*facilities)[rng.Intn(len(*facilities))]
		case 1:
			return (*clients)[rng.Intn(len(*clients))]
		default:
			return Pt(rng.Float64()*100, rng.Float64()*100)
		}
	}
	remove := func(s *[]Point, i int) {
		last := len(*s) - 1
		(*s)[i] = (*s)[last]
		*s = (*s)[:last]
	}
	ds := make([]Delta, n)
	for k := range ds {
		d := &ds[k]
		switch rng.Intn(5) {
		case 0:
			d.AddClients = []Point{pt(), pt()}
		case 1:
			if len(*clients) > 2 {
				d.RemoveClients = []int{rng.Intn(len(*clients))}
			}
		case 2:
			d.AddFacilities = []Point{pt()}
		case 3:
			if len(*facilities) > 1 {
				d.RemoveFacilities = []int{rng.Intn(len(*facilities))}
			}
		default:
			d.AddClients, d.AddFacilities = []Point{pt()}, []Point{pt()}
			if len(*clients) > 2 && len(*facilities) > 1 {
				d.RemoveClients = []int{rng.Intn(len(*clients))}
				d.RemoveFacilities = []int{rng.Intn(len(*facilities))}
			}
		}
		for _, i := range d.RemoveClients {
			remove(clients, i)
		}
		*clients = append(*clients, d.AddClients...)
		for _, i := range d.RemoveFacilities {
			remove(facilities, i)
		}
		*facilities = append(*facilities, d.AddFacilities...)
	}
	return ds
}

// TestLabelSetIDsOfMaps: every label of a built map carries its set's id —
// under every metric, at 1 and 3 workers, with a slab index and without —
// and so does every label after every step of a random sequence of
// batches, applied as one batch, delta by delta, and rebuilt.
func TestLabelSetIDsOfMaps(t *testing.T) {
	t.Parallel()
	sequences, steps := 4, 3
	if testing.Short() {
		sequences, steps = 1, 2
	}
	for _, metric := range []Metric{LInf, L1, L2} {
		for _, workers := range []int{1, 3} {
			for _, noSlabs := range []bool{false, true} {
				ctx := fmt.Sprintf("%v workers=%d noSlabs=%v", metric, workers, noSlabs)
				for seq := 0; seq < sequences; seq++ {
					rng := rand.New(rand.NewSource(int64(7300 + 100*int(metric) + 10*workers + seq)))
					clients, facilities := pointlocWorkload(rng.Int63(), 40, 8, seq%2 == 1)
					cfg := Config{Clients: slices.Clone(clients), Facilities: slices.Clone(facilities), Metric: metric, Workers: workers, NoSlabIndex: noSlabs}
					m, err := Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkLabelSetIDs(t, ctx+" built", m)
					for step := 0; step < steps; step++ {
						sctx := fmt.Sprintf("%s seq=%d step=%d", ctx, seq, step)
						ds := randomBatch(rng, &clients, &facilities, 3)
						batched, _, err := m.ApplyDeltaBatch(ds)
						if err != nil {
							t.Fatalf("%s: ApplyDeltaBatch: %v", sctx, err)
						}
						checkLabelSetIDs(t, sctx+" batched", batched)
						chained := m
						for i, d := range ds {
							if chained, _, err = chained.ApplyDelta(d); err != nil {
								t.Fatalf("%s: ApplyDelta %d: %v", sctx, i, err)
							}
							checkLabelSetIDs(t, fmt.Sprintf("%s delta %d", sctx, i), chained)
						}
						cfg.Clients, cfg.Facilities = slices.Clone(clients), slices.Clone(facilities)
						rebuilt, err := Build(cfg)
						if err != nil {
							t.Fatal(err)
						}
						checkLabelSetIDs(t, sctx+" rebuilt", rebuilt)
						m = batched
					}
				}
			}
		}
	}
}

// TestLabelSetIDsSplitTablePaths covers the paths on which a map's labels
// and its slab index could index two tables: a map opened from a file
// without slab sections, whose index is built later, and a commit on such
// a map, before and after that build; and delta.ApplyBatch given no pool.
// The labels keep naming their sets, and a save of each map writes the
// bytes of a fresh build's save of the same sets.
func TestLabelSetIDsSplitTablePaths(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	saved := func(m *Map, name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := m.SaveSnapshot(path, 2); err != nil {
			t.Fatalf("%s: SaveSnapshot: %v", name, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, metric := range []Metric{LInf, L1, L2} {
		clients, facilities := pointlocWorkload(7400+int64(metric), 60, 8, true)
		cfg := Config{Clients: clients, Facilities: facilities, Metric: metric}
		ctx := metric.String()
		noSlabs := cfg
		noSlabs.NoSlabIndex = true
		built, err := Build(noSlabs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, ctx+".snap")
		if err := built.SaveSnapshot(path, 1); err != nil {
			t.Fatal(err)
		}
		open := func() *Map {
			t.Helper()
			m, _, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			if m.view.HasSlabIndex() {
				t.Fatalf("%s: a NoSlabIndex map's file carries slab sections", ctx)
			}
			return m
		}
		fresh, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := saved(fresh, ctx+"-fresh.snap")

		opened := open()
		checkLabelSetIDs(t, ctx+" opened", opened)
		opened.HeatAt(Pt(50, 50)) // builds the index
		checkLabelSetIDs(t, ctx+" opened, index built", opened)
		if got := saved(opened, ctx+"-opened.snap"); !bytes.Equal(got, want) {
			t.Errorf("%s: the opened map, its index built later, saves other bytes than a fresh build", ctx)
		}

		d := Delta{AddFacilities: []Point{Pt(40, 60)}, AddClients: []Point{Pt(55, 45)}}
		wantNext, _, err := fresh.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := saved(wantNext, ctx+"-fresh-next.snap")
		for _, c := range []struct {
			name string
			m    *Map
		}{{"committed before its index was built", open()}, {"committed after its index was built", opened}} {
			next, _, err := c.m.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			checkLabelSetIDs(t, ctx+" "+c.name, next)
			if got := saved(next, ctx+"-next.snap"); !bytes.Equal(got, wantBytes) {
				t.Errorf("%s: the map %s saves other bytes than a fresh build's commit", ctx, c.name)
			}
		}

		out, err := delta.ApplyBatch(delta.State{Clients: clients, Facilities: facilities, Circles: fresh.circles, Labels: fresh.result.Labels},
			[]delta.Delta{{AddFacilities: d.AddFacilities, AddClients: d.AddClients}}, delta.Options{Metric: metric}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.LabelPool() == fresh.result.LabelPool() {
			t.Fatalf("%s: ApplyBatch given no pool interned into the prior map's", ctx)
		}
		heats, sets := out.State.Pool.Table()
		for i, l := range out.Result.Labels {
			if l.Set == 0 || int(l.Set) > len(sets) || !slices.Equal(sets[l.Set-1].RNN, l.RNN) || heats[l.Set-1] != l.Heat {
				t.Fatalf("%s: ApplyBatch given no pool: label %d (%v) carries set id %d, not its set's in the pool", ctx, i, l.RNN, int64(l.Set)-1)
			}
		}
	}
}

// TestHeatHistogramReadsTheFile: a mapped map buckets the heats its file
// stores over the range its header's summary holds, and stays mapped; the
// bins equal those of the materialized map and of the heap map it was
// saved from.
func TestHeatHistogramReadsTheFile(t *testing.T) {
	t.Parallel()
	for _, metric := range []Metric{LInf, L2} {
		clients, facilities := pointlocWorkload(7500+int64(metric), 80, 10, false)
		m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "m.snap")
		if err := m.SaveSnapshot(path, 1); err != nil {
			t.Fatal(err)
		}
		opened, _, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, bins := range []int{1, 7} {
			edges, counts := opened.HeatHistogram(bins)
			if r := opened.Residency(); r != "mapped" {
				t.Fatalf("%v: HeatHistogram left the map %q, want mapped", metric, r)
			}
			wantEdges, wantCounts := m.HeatHistogram(bins)
			if !reflect.DeepEqual(edges, wantEdges) || !reflect.DeepEqual(counts, wantCounts) {
				t.Errorf("%v bins=%d: mapped %v %v, heap %v %v", metric, bins, edges, counts, wantEdges, wantCounts)
			}
		}
		opened.materialize()
		all := opened.result.Labels
		wantEdges, wantCounts := postprocess.Histogram(postprocess.Summarize(all), postprocess.Heats(all), 7)
		if edges, counts := opened.HeatHistogram(7); !reflect.DeepEqual(edges, wantEdges) || !reflect.DeepEqual(counts, wantCounts) {
			t.Errorf("%v: mapped %v %v, materialized %v %v", metric, edges, counts, wantEdges, wantCounts)
		}
	}
}
