package delta_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/core"
	"rnnheatmap/internal/delta"
	"rnnheatmap/internal/geom"
)

// TestApplyDeltaBatchMatchesSequentialAndRebuild is the batching layer's
// equivalence contract: applying K random deltas through one ApplyDeltaBatch
// (one merged resweep) is indistinguishable — regions, heat values, rendered
// tile bytes — from both chaining K ApplyDelta calls and a from-scratch
// Build over the final sets. Across the 3 metrics × workers {1, 3} the full
// suite runs well over 100 random op sequences.
func TestApplyDeltaBatchMatchesSequentialAndRebuild(t *testing.T) {
	t.Parallel()
	sequences := 17
	opsPerBatch := 4
	if testing.Short() {
		sequences = 3
	}
	for _, metric := range []heatmap.Metric{heatmap.LInf, heatmap.L1, heatmap.L2} {
		for _, workers := range []int{1, 3} {
			metric, workers := metric, workers
			t.Run(fmt.Sprintf("%s/workers=%d", metric, workers), func(t *testing.T) {
				t.Parallel()
				for seq := 0; seq < sequences; seq++ {
					rng := rand.New(rand.NewSource(int64(9000 + 1000*int(metric) + 100*workers + seq)))
					nC, nF := 40, 8
					if metric == heatmap.L2 {
						nC, nF = 28, 6
					}
					mr := &mirror{}
					for i := 0; i < nC; i++ {
						mr.clients = append(mr.clients, heatmap.Pt(rng.Float64()*100, rng.Float64()*100))
					}
					for i := 0; i < nF; i++ {
						mr.facilities = append(mr.facilities, heatmap.Pt(rng.Float64()*100, rng.Float64()*100))
					}
					m, err := heatmap.Build(heatmap.Config{
						Clients:    append([]heatmap.Point(nil), mr.clients...),
						Facilities: append([]heatmap.Point(nil), mr.facilities...),
						Metric:     metric,
						Workers:    workers,
					})
					if err != nil {
						t.Fatalf("seq %d: Build: %v", seq, err)
					}
					// Draw the batch delta by delta, advancing the mirror so
					// each delta's removal indexes are valid against the sets
					// as the preceding deltas of the same batch left them.
					var ds []heatmap.Delta
					for op := 0; op < opsPerBatch; op++ {
						d := randomDelta(rng, mr, 100)
						ds = append(ds, d)
						mr.apply(t, d)
					}

					batched, stats, err := m.ApplyDeltaBatch(ds)
					if err != nil {
						t.Fatalf("seq %d: ApplyDeltaBatch(%+v): %v", seq, ds, err)
					}
					sequential := m
					for op, d := range ds {
						next, _, err := sequential.ApplyDelta(d)
						if err != nil {
							t.Fatalf("seq %d op %d: sequential ApplyDelta: %v", seq, op, err)
						}
						sequential = next
					}
					rebuilt, err := heatmap.Build(heatmap.Config{
						Clients:    append([]heatmap.Point(nil), mr.clients...),
						Facilities: append([]heatmap.Point(nil), mr.facilities...),
						Metric:     metric,
						Workers:    workers,
					})
					if err != nil {
						t.Fatalf("seq %d: rebuild: %v", seq, err)
					}
					name := fmt.Sprintf("%s/workers=%d/seq=%d", metric, workers, seq)
					assertMapsIdentical(t, name+"/vs-sequential", batched, sequential)
					assertMapsIdentical(t, name+"/vs-rebuild", batched, rebuilt)
					if stats.EventsReswept > stats.EventsTotal {
						t.Fatalf("%s: reswept %d of %d events", name, stats.EventsReswept, stats.EventsTotal)
					}
				}
			})
		}
	}
}

// TestApplyDeltaBatchAtomic: an invalid delta anywhere in the batch fails
// the whole call and leaves the receiver untouched — the server's per-batch
// 400 contract depends on it.
func TestApplyDeltaBatchAtomic(t *testing.T) {
	t.Parallel()
	clients := []heatmap.Point{heatmap.Pt(0, 0), heatmap.Pt(4, 4), heatmap.Pt(9, 2)}
	facilities := []heatmap.Point{heatmap.Pt(2, 2), heatmap.Pt(8, 8)}
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = m.ApplyDeltaBatch([]heatmap.Delta{
		{AddClients: []heatmap.Point{heatmap.Pt(1, 1)}},
		{RemoveClients: []int{99}}, // invalid mid-batch
		{AddFacilities: []heatmap.Point{heatmap.Pt(3, 3)}},
	})
	if !errors.Is(err, heatmap.ErrBadDelta) {
		t.Fatalf("batch with invalid delta: err = %v, want ErrBadDelta", err)
	}
	if m.NumClients() != 3 || m.NumFacilities() != 2 {
		t.Fatalf("receiver mutated by failed batch: %d clients, %d facilities",
			m.NumClients(), m.NumFacilities())
	}
	if _, _, err := m.ApplyDeltaBatch(nil); !errors.Is(err, heatmap.ErrBadDelta) {
		t.Fatalf("empty batch: err = %v, want ErrBadDelta", err)
	}
	// A later delta may legitimately consume what an earlier one added:
	// indexes are interpreted sequentially across the batch.
	next, _, err := m.ApplyDeltaBatch([]heatmap.Delta{
		{AddFacilities: []heatmap.Point{heatmap.Pt(5, 5)}},
		{RemoveFacilities: []int{2}}, // the facility the first delta opened
		{},                           // empty delta mid-batch is a no-op
	})
	if err != nil {
		t.Fatalf("add-then-remove batch: %v", err)
	}
	if next.NumFacilities() != 2 {
		t.Fatalf("add-then-remove batch left %d facilities, want 2", next.NumFacilities())
	}
}

// TestApplyBatchRejectsEmpty covers the package-level empty-batch guard.
func TestApplyBatchRejectsEmpty(t *testing.T) {
	t.Parallel()
	st := delta.State{
		Clients:    []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)},
		Facilities: []geom.Point{geom.Pt(2, 0)},
	}
	if _, err := delta.ApplyBatch(st, nil, delta.Options{Metric: geom.L2}, nil); !errors.Is(err, delta.ErrBadDelta) {
		t.Errorf("ApplyBatch(nil) = %v, want ErrBadDelta", err)
	}
}

// fuzzBaseState returns the fixed small instance every fuzz execution
// mutates: snapped-integer coordinates so coincident sides, duplicate
// points and zero-radius circles are common.
func fuzzBaseState() (clients, facilities []heatmap.Point) {
	for i := 0; i < 12; i++ {
		clients = append(clients, heatmap.Pt(float64((i*7)%13), float64((i*5)%11)))
	}
	facilities = []heatmap.Point{
		heatmap.Pt(3, 3), heatmap.Pt(9, 2), heatmap.Pt(5, 10), heatmap.Pt(12, 7),
	}
	return clients, facilities
}

// decodeFuzzDeltas interprets fuzz bytes as a batch of deltas: a tiny op
// stream with add/remove actions on snapped grid points, delta separators
// and deliberately out-of-range indexes (both paths must then agree on
// rejecting the batch).
func decodeFuzzDeltas(data []byte) []heatmap.Delta {
	var ds []heatmap.Delta
	var cur heatmap.Delta
	flush := func() {
		ds = append(ds, cur)
		cur = heatmap.Delta{}
	}
	for i := 0; i < len(data) && len(ds) < 6; {
		op := data[i]
		i++
		switch op % 6 {
		case 0, 1: // add a client (0) or facility (1) at a snapped point
			if i+1 >= len(data) {
				i = len(data)
				break
			}
			p := heatmap.Pt(float64(data[i]%16), float64(data[i+1]%16))
			i += 2
			if op%6 == 0 {
				cur.AddClients = append(cur.AddClients, p)
			} else {
				cur.AddFacilities = append(cur.AddFacilities, p)
			}
		case 2: // remove a client; %20-2 makes negative and too-large common
			if i >= len(data) {
				break
			}
			cur.RemoveClients = append(cur.RemoveClients, int(data[i]%20)-2)
			i++
		case 3: // remove a facility
			if i >= len(data) {
				break
			}
			cur.RemoveFacilities = append(cur.RemoveFacilities, int(data[i]%8)-2)
			i++
		case 4: // delta separator
			flush()
		case 5: // empty delta
			flush()
			flush()
		}
	}
	flush()
	return ds
}

// FuzzApplyDeltaBatch is the differential fuzzer for the batched path:
// whatever op sequence the bytes decode to — duplicate removal indexes,
// add-then-remove of the same facility across a batch, empty deltas,
// out-of-range indexes — ApplyDeltaBatch must either reject exactly when
// the sequential path rejects, or produce a map identical region by region
// to it and to a from-scratch Build over the updated sets. The batched and
// the sequential path both splice, so only the build can catch a fault
// they share.
func FuzzApplyDeltaBatch(f *testing.F) {
	// Duplicate removal of the same client index, twice within one delta and
	// again in the next.
	f.Add([]byte{2, 5, 2, 5, 4, 2, 5})
	// Open a facility, then close it in the next delta of the same batch.
	f.Add([]byte{1, 6, 6, 4, 3, 6})
	// Empty deltas surrounding a mixed one.
	f.Add([]byte{5, 0, 9, 9, 1, 2, 2, 3, 1, 5, 4})
	// Out-of-range and negative indexes.
	f.Add([]byte{2, 19, 4, 3, 0})
	// Kitchen sink: adds on top of existing points, removals, separators.
	f.Add([]byte{0, 3, 3, 1, 3, 3, 4, 2, 0, 3, 0, 4, 0, 12, 7, 5, 2, 1})
	metrics := []heatmap.Metric{heatmap.LInf, heatmap.L1, heatmap.L2}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		ds := decodeFuzzDeltas(data)
		clients, facilities := fuzzBaseState()
		metric := metrics[len(data)%3]
		workers := 1 + 2*(len(data)%2)
		m, err := heatmap.Build(heatmap.Config{
			Clients:    clients,
			Facilities: facilities,
			Metric:     metric,
			Workers:    workers,
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		batched, _, batchErr := m.ApplyDeltaBatch(ds)
		sequential := m
		var seqErr error
		for _, d := range ds {
			next, _, err := sequential.ApplyDelta(d)
			if err != nil {
				seqErr = err
				break
			}
			sequential = next
		}
		if (batchErr != nil) != (seqErr != nil) {
			t.Fatalf("batch err = %v, sequential err = %v: paths disagree on validity (deltas %+v)",
				batchErr, seqErr, ds)
		}
		if batchErr != nil {
			if !errors.Is(batchErr, heatmap.ErrBadDelta) {
				t.Fatalf("batch rejection is not ErrBadDelta: %v", batchErr)
			}
			return
		}
		same := func(name string, other *heatmap.Map) {
			t.Helper()
			if batched.NumClients() != other.NumClients() || batched.NumFacilities() != other.NumFacilities() {
				t.Fatalf("set sizes diverge: batch %d/%d, %s %d/%d",
					batched.NumClients(), batched.NumFacilities(), name,
					other.NumClients(), other.NumFacilities())
			}
			br, or := batched.Regions(), other.Regions()
			if len(br) != len(or) {
				t.Fatalf("region counts diverge: batch %d, %s %d (deltas %+v)", len(br), name, len(or), ds)
			}
			for i := range or {
				if br[i].Point != or[i].Point || br[i].Heat != or[i].Heat || !equalInts(br[i].RNN, or[i].RNN) {
					t.Fatalf("region %d diverges:\nbatch %+v\n%s %+v", i, br[i], name, or[i])
				}
			}
			for _, p := range []heatmap.Point{heatmap.Pt(4, 4), heatmap.Pt(0, 10), heatmap.Pt(8.5, 3.5)} {
				bh, brnn := batched.HeatAt(p)
				oh, ornn := other.HeatAt(p)
				if bh != oh || !equalInts(brnn, ornn) {
					t.Fatalf("HeatAt(%v) diverges: batch %v/%v, %s %v/%v", p, bh, brnn, name, oh, ornn)
				}
			}
		}
		same("sequential", sequential)
		mr := &mirror{
			clients:    append([]heatmap.Point(nil), clients...),
			facilities: append([]heatmap.Point(nil), facilities...),
		}
		for _, d := range ds {
			mr.apply(t, d)
		}
		fresh, err := heatmap.Build(heatmap.Config{Clients: mr.clients, Facilities: mr.facilities, Metric: metric, Workers: workers})
		if errors.Is(err, core.ErrNoCircles) && batched.NumRegions() == 0 {
			return // every client sits on a facility: nothing to build
		}
		if err != nil {
			t.Fatalf("Build over the batched map's sets: %v", err)
		}
		same("fresh build", fresh)
	})
}
