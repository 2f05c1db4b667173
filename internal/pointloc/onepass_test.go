package pointloc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/delta"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// The one pass: an index a CREST build or a commit's resweep writes in the
// pass that writes the labels must equal the labels-off Build's, and the
// labels must equal a labels-only CREST run's.

// assertSameLabels requires got to carry exactly want's labels: regions,
// points and heats as bit patterns, and RNN sets, in order.
func assertSameLabels(t *testing.T, ctx string, got, want []core.Label) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", ctx, len(got), len(want))
	}
	bits := func(l core.Label) [7]uint64 {
		r := l.Region
		var out [7]uint64
		for i, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY, l.Point.X, l.Point.Y, l.Heat} {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for i := range want {
		if bits(got[i]) != bits(want[i]) || !slices.Equal(got[i].RNN, want[i].RNN) {
			t.Fatalf("%s: label %d is %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// onePassBuild builds circles' labels and index in one pass.
func onePassBuild(t *testing.T, circles []nncircle.NNCircle, workers int) (*core.Result, *Index) {
	t.Helper()
	sink := NewSink(circles)
	res, err := core.CRESTWithSlabs(circles, core.Options{Workers: workers}, sink)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sink.Index()
	if err != nil {
		t.Fatal(err)
	}
	return res, ix
}

// TestOnePassBuildMatchesBuild: a one-pass build at 1, 2 and 3 workers
// writes CREST's labels and the labels-off Build's index, over snapped and
// unsnapped instances of every metric and, outside -short, heatmapd's
// default map.
func TestOnePassBuildMatchesBuild(t *testing.T) {
	t.Parallel()
	type instance struct {
		name    string
		circles []nncircle.NNCircle
	}
	var instances []instance
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for seed := int64(0); seed < 6; seed++ {
			circles, _ := testInstance(t, 700+seed, 20+int(seed)*8, 2+int(seed), metric, seed%2 == 0)
			instances = append(instances, instance{fmt.Sprintf("%v seed=%d", metric, seed), circles})
		}
	}
	if !testing.Short() {
		pool, err := dataset.ByName("NYC", (2000+600)*2, 1)
		if err != nil {
			t.Fatal(err)
		}
		clients, facilities := pool.SampleClientsFacilities(2000, 600, 2)
		circles, err := nncircle.Compute(clients, facilities, geom.L2)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{"heatmapd default map", circles})
	}
	for _, in := range instances {
		want, err := core.CREST(in.circles, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(in.circles, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			ctx := fmt.Sprintf("%s workers=%d", in.name, workers)
			res, ix := onePassBuild(t, in.circles, workers)
			assertSameLabels(t, ctx, res.Labels, want.Labels)
			assertSameIndex(t, ctx, ix, fresh)
			assertOneIDPerSet(t, ctx, ix)
		}
	}
}

// TestOnePassCommitChain drives chains of eager commits, each writing its
// dirty slabs in its resweep's own pass (PatchSink): after every commit the
// labels equal core.CREST's over the new circles, bit for bit, and the index
// equals the labels-off Build's. Every chain runs from a one-pass build and
// from the index opened from its file, and must patch on the same steps.
func TestOnePassCommitChain(t *testing.T) {
	t.Parallel()
	chains := int64(4)
	if testing.Short() {
		chains = 1
	}
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		for chain := int64(0); chain < chains; chain++ {
			rng := rand.New(rand.NewSource(910 + chain))
			circles, facilities := testInstance(t, 920+chain, 50, 6, metric, true)
			clients := make([]geom.Point, len(circles))
			for i, nc := range circles {
				clients[i] = nc.Circle.Center
			}
			// Each op draws a kind, a point and an index; the index is taken
			// modulo the set's size when the op applies.
			type op struct {
				kind, index int
				p           geom.Point
			}
			ops := make([]op, 10)
			for i := range ops {
				ops[i] = op{rng.Intn(4), rng.Int(), geom.Pt(rng.Float64()*64, rng.Float64()*64)}
			}
			deltaOf := func(o op, st delta.State) delta.Delta {
				switch o.kind {
				case 0:
					return delta.Delta{AddClients: []geom.Point{o.p}}
				case 1:
					return delta.Delta{RemoveClients: []int{o.index % len(st.Clients)}}
				case 2:
					return delta.Delta{AddFacilities: []geom.Point{o.p}}
				}
				return delta.Delta{RemoveFacilities: []int{o.index % len(st.Facilities)}}
			}
			res, built := onePassBuild(t, circles, 2)
			var patched [2]int
			for run, ix := range []*Index{built, openedFromIndex(t, built, influence.Size())} {
				st := delta.State{Clients: clients, Facilities: facilities, Circles: circles, Labels: res.Labels, Pool: ix.Pool()}
				for step, o := range ops {
					ctx := fmt.Sprintf("%v chain=%d run=%d step=%d", metric, chain, run, step)
					var sink *Sink
					out, err := delta.ApplyBatch(st, []delta.Delta{deltaOf(o, st)}, delta.Options{Metric: metric, Workers: 1 + step%3},
						func(c []nncircle.NNCircle) core.SlabSink { sink = ix.PatchSink(c); return sink })
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					want, err := core.CREST(out.State.Circles, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					assertSameLabels(t, ctx, out.Result.Labels, want.Labels)
					fresh, err := Build(out.State.Circles, nil, Options{})
					if err != nil {
						t.Fatal(err)
					}
					next, err := sink.Index()
					if errors.Is(err, ErrPatchDeclined) {
						// As heatmap does: the next index is built from the
						// lineage's pool.
						next, err = Build(out.State.Circles, nil, Options{Pool: out.State.Pool})
					} else {
						patched[run]++
					}
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					assertSameIndex(t, ctx, next, fresh)
					assertOneIDPerSet(t, ctx, next)
					ix, st = next, out.State
				}
			}
			if patched[0] != patched[1] || patched[0] < len(ops)/2 {
				t.Fatalf("%v chain=%d: the built chain patched %d of %d steps, the opened chain %d", metric, chain, patched[0], len(ops), patched[1])
			}
		}
	}
}

// TestOnePassStepsEachEventOnce counts sweeper steps (core.StepCount): a
// one-pass build steps each event once, and so does the labels-off Build;
// an eager commit steps each event of its resweep's ranges once, and a
// deferred patch (Patch) the same events once. It must not run beside
// another test that sweeps.
func TestOnePassStepsEachEventOnce(t *testing.T) {
	steps := func(f func()) int {
		before := core.StepCount()
		f()
		return int(core.StepCount() - before)
	}
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		circles, facilities := testInstance(t, 931, 80, 6, metric, false)
		clients := make([]geom.Point, len(circles))
		for i, nc := range circles {
			clients[i] = nc.Circle.Center
		}
		var res *core.Result
		var ix *Index
		if n := steps(func() { res, ix = onePassBuild(t, circles, 2) }); n != res.Stats.Events {
			t.Fatalf("%v: a one-pass build stepped %d times over %d events", metric, n, res.Stats.Events)
		}
		if n := steps(func() { _, _ = Build(circles, nil, Options{}) }); n != res.Stats.Events {
			t.Fatalf("%v: the labels-off Build stepped %d times over %d events", metric, n, res.Stats.Events)
		}
		st := delta.State{Clients: clients, Facilities: facilities, Circles: circles, Labels: res.Labels, Pool: ix.Pool()}
		d := delta.Delta{AddClients: []geom.Point{geom.Pt(20, 30)}, RemoveClients: []int{3}}
		var out *delta.Outcome
		var sink *Sink
		var err error
		if n := steps(func() {
			out, err = delta.ApplyBatch(st, []delta.Delta{d}, delta.Options{Metric: metric, Workers: 2},
				func(c []nncircle.NNCircle) core.SlabSink { sink = ix.PatchSink(c); return sink })
		}); err != nil || n != out.Stats.EventsReswept || out.Stats.EventsReswept == out.Stats.EventsTotal {
			t.Fatalf("%v: an eager commit stepped %d times over %d of %d events (%v)", metric, n, out.Stats.EventsReswept, out.Stats.EventsTotal, err)
		}
		if _, err := sink.Index(); err != nil {
			t.Fatalf("%v: the eager commit's patch: %v", metric, err)
		}
		if n := steps(func() {
			_, err = ix.Patch(out.State.Circles, out.Stats.DirtySpans, out.Events, Options{})
		}); err != nil || n != out.Stats.EventsReswept {
			t.Fatalf("%v: a deferred patch stepped %d times over %d dirty events (%v)", metric, n, out.Stats.EventsReswept, err)
		}
	}
}
