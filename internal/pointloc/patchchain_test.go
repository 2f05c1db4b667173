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
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// TestPatchChainMatchesFreshBuild drives long random delta sequences (client
// and facility insertions and swap-removals, with renumbering and
// zero-radius transitions) through delta.Apply, patching the slab index at
// every step with the reported dirty spans, and requires the patched index
// to be structurally identical — slab boundaries, active lists, edges, L2
// arcs, gap heats and sets, cells — to a from-scratch build over the
// updated circles. Every chain runs twice: from the built index, and from
// the index opened from the chain's first snapshot, whose patches seed an
// interner with the file's sets and then slice their clean slabs out of the
// file. Both runs must patch on the same steps, and every metric must
// actually patch on a minimum share of its steps, so a patch that declines
// too eagerly fails here too.
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
			circles, steps := patchChain(t, rng, metric)
			built, err := Build(circles, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var counts [2]int
			for run, ix := range []*Index{built, openedFromIndex(t, built, influence.Size())} {
				for step, st := range steps {
					next, err := ix.Patch(st.circles, st.spans, st.events, Options{})
					if errors.Is(err, ErrPatchDeclined) {
						// A span-less renumbering: the chain continues
						// from a fresh build, exactly as heatmap's lazy
						// rebuild would.
						ix = st.fresh
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					if len(st.spans) > 0 {
						counts[run]++
					}
					ctx := fmt.Sprintf("metric=%v run=%d step=%d", metric, run, step)
					assertSameIndex(t, ctx, next, st.fresh)
					assertOneIDPerSet(t, ctx, next)
					ix = next
				}
			}
			if counts[0] != counts[1] {
				t.Errorf("metric=%v: the built chain patched %d steps, the opened chain %d", metric, counts[0], counts[1])
			}
			patched[metric] += counts[0]
		}
	}
	// A patch over an unchanged arrangement (no spans) reuses the receiver
	// and is not counted. Every other step of this workload patches: the
	// floors are its counts of 144 steps per metric (36 of 36 in short
	// mode).
	floor := map[geom.Metric]int{geom.LInf: 142, geom.L1: 143, geom.L2: 143}
	for _, metric := range metrics {
		want := floor[metric]
		if testing.Short() {
			want = 36
		}
		t.Logf("metric=%v: %d steps patched", metric, patched[metric])
		if patched[metric] < want {
			t.Errorf("metric=%v: %d steps patched, want at least %d", metric, patched[metric], want)
		}
	}
}

// TestPatchAddsClients adds clients one at a time to a 40-client instance
// of every metric. Each addition must patch, not decline, and equal a fresh
// build: a rectilinear addition puts a slab boundary exactly at its span's
// right end, where no old slab starts.
func TestPatchAddsClients(t *testing.T) {
	t.Parallel()
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		rng := rand.New(rand.NewSource(81))
		pt := func() geom.Point { return geom.Pt(rng.Float64()*100, rng.Float64()*100) }
		clients, facilities := make([]geom.Point, 40), make([]geom.Point, 6)
		for i := range clients {
			clients[i] = pt()
		}
		for i := range facilities {
			facilities[i] = pt()
		}
		circles, err := nncircle.Compute(clients, facilities, metric)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CREST(circles, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(circles, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := delta.State{Clients: clients, Facilities: facilities, Circles: circles, Labels: res.Labels}
		for step := 0; step < 20; step++ {
			out, err := delta.ApplyBatch(st, []delta.Delta{{AddClients: []geom.Point{pt()}}}, delta.Options{Metric: metric}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("metric=%v step=%d", metric, step)
			next, err := ix.Patch(out.State.Circles, out.Stats.DirtySpans, out.Events, Options{})
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			fresh, err := Build(out.State.Circles, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameIndex(t, ctx, next, fresh)
			ix, st = next, out.State
		}
	}
}

// chainStep is one update of a patch chain: the updated circles, the dirty
// spans delta reported, the event list its resweep swept, and a fresh build
// over the circles.
type chainStep struct {
	circles []nncircle.NNCircle
	spans   [][2]float64
	events  *core.SlabEvents
	fresh   *Index
}

// patchChain draws an instance and a sequence of 12 single-op deltas over it.
func patchChain(t *testing.T, rng *rand.Rand, metric geom.Metric) ([]nncircle.NNCircle, []chainStep) {
	t.Helper()
	wrng := rand.New(rand.NewSource(rng.Int63()))
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
	res, err := core.CREST(circles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := delta.State{Clients: clients, Facilities: facilities, Circles: circles, Labels: res.Labels}
	var steps []chainStep
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
		out, err := delta.ApplyBatch(st, []delta.Delta{d}, delta.Options{Metric: metric}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(out.State.Circles, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, chainStep{circles: out.State.Circles, spans: out.Stats.DirtySpans, events: out.Events, fresh: fresh})
		st = out.State
	}
	return circles, steps
}

// assertSameIndex requires two indexes to be structurally identical: slab
// boundaries, active lists, edge heights, L2 arcs, gap heats and sets (by
// content — the two may draw ids from different tables) and the cell count.
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
		if !slices.Equal(ws.actives, gs.actives) {
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
			wid, gid := ws.gaps[g], gs.gaps[g]
			if want.sets.heats[wid] != got.sets.heats[gid] || !slices.Equal(want.sets.set(wid), got.sets.set(gid)) {
				t.Fatalf("%s slab %d gap %d: %v, want %v", ctx, si, g, got.sets.set(gid), want.sets.set(wid))
			}
		}
	}
}

// assertOneIDPerSet requires every set an index's gaps carry to have one id.
func assertOneIDPerSet(t *testing.T, ctx string, ix *Index) {
	t.Helper()
	ids := map[string]uint32{}
	for si := range ix.slabs {
		for _, id := range ix.slabs[si].gaps {
			key := fmt.Sprint(ix.sets.set(id))
			if prev, ok := ids[key]; ok && prev != id {
				t.Fatalf("%s: set %s has ids %d and %d", ctx, key, prev, id)
			}
			ids[key] = id
		}
	}
}
