package pointloc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/delta"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// TestPatchChainMatchesFreshBuild drives long random delta sequences (client
// and facility insertions and swap-removals, with renumbering and
// zero-radius transitions) through delta.Apply, patching the slab index at
// every step with the reported dirty spans, and requires the patched index
// to be structurally identical — slab boundaries, active lists, edges, L2
// arcs and gap labels — to a from-scratch build over the updated circles.
// Every metric must actually patch on a minimum share of its steps, so a
// patch that declines too eagerly fails here too.
func TestPatchChainMatchesFreshBuild(t *testing.T) {
	t.Parallel()
	outers := int64(12)
	if testing.Short() {
		outers = 3
	}
	metrics := []geom.Metric{geom.LInf, geom.L1, geom.L2}
	patched := map[geom.Metric]int{}
	for outer := int64(0); outer < outers; outer++ {
		rng := rand.New(rand.NewSource(62 + outer))
		for _, metric := range metrics {
			seed := rng.Int63()
			wrng := rand.New(rand.NewSource(seed))
			pt := func() geom.Point {
				p := geom.Pt(wrng.Float64()*100, wrng.Float64()*100)
				if wrng.Intn(3) == 0 {
					p = geom.Pt(math.Round(p.X), math.Round(p.Y))
				}
				return p
			}
			facilities := make([]geom.Point, 8)
			for i := range facilities {
				facilities[i] = pt()
			}
			clients := make([]geom.Point, 60)
			for i := range clients {
				if wrng.Intn(12) == 0 {
					clients[i] = facilities[wrng.Intn(8)]
				} else {
					clients[i] = pt()
				}
			}
			circles, err := nncircle.Compute(clients, facilities, metric)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(circles, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.CREST(circles, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := delta.State{Clients: clients, Facilities: facilities, Circles: circles, Labels: res.Labels}
			for step := 0; step < 12; step++ {
				var d delta.Delta
				switch rng.Intn(4) {
				case 0:
					d.AddClients = []geom.Point{geom.Pt(rng.Float64()*100, rng.Float64()*100)}
				case 1:
					d.RemoveClients = []int{rng.Intn(len(st.Clients))}
				case 2:
					d.AddFacilities = []geom.Point{geom.Pt(rng.Float64()*100, rng.Float64()*100)}
				case 3:
					d.RemoveFacilities = []int{rng.Intn(len(st.Facilities))}
				}
				out, err := delta.Apply(st, d, delta.Options{Metric: metric})
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := Build(out.State.Circles, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				next, err := ix.Patch(out.State.Circles, out.Stats.DirtySpans, 0, Options{})
				if errors.Is(err, ErrPatchDeclined) {
					// Over the splice threshold (or a span-less renumbering):
					// the chain continues from a fresh build, exactly as
					// heatmap's lazy rebuild would.
					st = out.State
					ix = fresh
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Stats.DirtySpans) > 0 {
					patched[metric]++
				}
				assertSameIndex(t, fmt.Sprintf("metric=%v step=%d", metric, step), next, fresh)
				st = out.State
				ix = next
			}
		}
	}
	// A patch over an unchanged arrangement (no spans) reuses the receiver
	// and is not counted. The floors sit about a quarter below what this
	// workload splices of its 144 steps per metric (LInf 22, L1 21, L2 41;
	// in short mode 8, 4 and 7 of 36).
	floor := map[geom.Metric]int{geom.LInf: 16, geom.L1: 16, geom.L2: 30}
	for _, metric := range metrics {
		want := floor[metric]
		if testing.Short() {
			want = 2
		}
		t.Logf("metric=%v: %d steps patched", metric, patched[metric])
		if patched[metric] < want {
			t.Errorf("metric=%v: %d steps patched, want at least %d", metric, patched[metric], want)
		}
	}
}

// assertSameIndex requires two indexes to be structurally identical: slab
// boundaries, active lists, edge heights, L2 arcs, gap labels (by content —
// the two may intern into different pools) and the cell count.
func assertSameIndex(t *testing.T, ctx string, got, want *Index) {
	t.Helper()
	if !reflect.DeepEqual(got.xs, want.xs) {
		t.Fatalf("%s: xs differ (%d vs %d slabs)", ctx, len(got.xs), len(want.xs))
	}
	if len(got.slabs) != len(want.slabs) || got.cells != want.cells {
		t.Fatalf("%s: %d slabs / %d cells, want %d / %d", ctx, len(got.slabs), got.cells, len(want.slabs), want.cells)
	}
	for si := range want.slabs {
		ws, gs := want.slabs[si], got.slabs[si]
		if !reflect.DeepEqual(ws.actives, gs.actives) {
			t.Fatalf("%s slab %d: actives %v, want %v", ctx, si, gs.actives, ws.actives)
		}
		if !slices.Equal(ws.edges, gs.edges) {
			t.Fatalf("%s slab %d: edges differ", ctx, si)
		}
		if !slices.Equal(ws.arcs, gs.arcs) {
			t.Fatalf("%s slab %d: arcs %v, want %v", ctx, si, gs.arcs, ws.arcs)
		}
		if len(ws.gaps) != len(gs.gaps) {
			t.Fatalf("%s slab %d: %d gaps, want %d", ctx, si, len(gs.gaps), len(ws.gaps))
		}
		for g := range ws.gaps {
			if ws.gaps[g].Heat != gs.gaps[g].Heat || !slices.Equal(ws.gaps[g].RNN, gs.gaps[g].RNN) {
				t.Fatalf("%s slab %d gap %d: %v, want %v", ctx, si, g, gs.gaps[g].RNN, ws.gaps[g].RNN)
			}
		}
	}
}
