package delta_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/delta"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/render"
)

// mirror tracks the expected client/facility slices by replaying the
// documented Delta semantics (sequential swap-removes, then appends), so the
// test can rebuild the exact map ApplyDelta claims to be equivalent to.
type mirror struct {
	clients, facilities []heatmap.Point
}

func (mr *mirror) apply(t *testing.T, d heatmap.Delta) {
	t.Helper()
	for _, i := range d.RemoveClients {
		if i < 0 || i >= len(mr.clients) {
			t.Fatalf("mirror: client index %d out of range", i)
		}
		last := len(mr.clients) - 1
		mr.clients[i] = mr.clients[last]
		mr.clients = mr.clients[:last]
	}
	mr.clients = append(mr.clients, d.AddClients...)
	for _, j := range d.RemoveFacilities {
		if j < 0 || j >= len(mr.facilities) {
			t.Fatalf("mirror: facility index %d out of range", j)
		}
		last := len(mr.facilities) - 1
		mr.facilities[j] = mr.facilities[last]
		mr.facilities = mr.facilities[:last]
	}
	mr.facilities = append(mr.facilities, d.AddFacilities...)
}

// assertMapsIdentical asserts two maps are indistinguishable: same bounds,
// same regions (order, representative points, RNN sets, heat), same maximum,
// and byte-identical rendered tiles under a shared normalization.
func assertMapsIdentical(t *testing.T, name string, got, want *heatmap.Map) {
	t.Helper()
	if got.Bounds() != want.Bounds() {
		t.Fatalf("%s: bounds %v, want %v", name, got.Bounds(), want.Bounds())
	}
	gr, wr := got.Regions(), want.Regions()
	if len(gr) != len(wr) {
		t.Fatalf("%s: %d regions, want %d", name, len(gr), len(wr))
	}
	for i := range wr {
		g, w := gr[i], wr[i]
		if g.Point != w.Point || g.Heat != w.Heat || !equalInts(g.RNN, w.RNN) {
			t.Fatalf("%s: region %d differs:\ngot  %+v\nwant %+v", name, i, g, w)
		}
	}
	gMax, gBest := got.MaxHeat()
	wMax, wBest := want.MaxHeat()
	if gMax != wMax || gBest.Point != wBest.Point {
		t.Fatalf("%s: max (%v at %v), want (%v at %v)", name, gMax, gBest.Point, wMax, wBest.Point)
	}
	if got.NumClients() != want.NumClients() || got.NumFacilities() != want.NumFacilities() {
		t.Fatalf("%s: sets %d/%d, want %d/%d", name,
			got.NumClients(), got.NumFacilities(), want.NumClients(), want.NumFacilities())
	}
	// Tile bytes: render the central sub-rectangle of the shared bounds from
	// both maps with a fixed normalization and compare the encoded PNGs.
	b := want.Bounds()
	tile := geom.Rect{
		MinX: b.MinX + b.Width()/4, MinY: b.MinY + b.Height()/4,
		MaxX: b.MaxX - b.Width()/4, MaxY: b.MaxY - b.Height()/4,
	}
	if tile.Width() <= 0 || tile.Height() <= 0 {
		return
	}
	var gotPNG, wantPNG bytes.Buffer
	gRaster, err := got.RasterizeRect(tile, 48, 48)
	if err != nil {
		t.Fatalf("%s: rasterize got: %v", name, err)
	}
	wRaster, err := want.RasterizeRect(tile, 48, 48)
	if err != nil {
		t.Fatalf("%s: rasterize want: %v", name, err)
	}
	if err := gRaster.WritePNGScaled(&gotPNG, render.Grayscale, 0, wMax); err != nil {
		t.Fatal(err)
	}
	if err := wRaster.WritePNGScaled(&wantPNG, render.Grayscale, 0, wMax); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPNG.Bytes(), wantPNG.Bytes()) {
		t.Fatalf("%s: tile bytes differ from a from-scratch rebuild", name)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomDelta draws one small mutation batch. Additions occasionally land
// exactly on existing points to exercise zero-radius circles and coincident
// sides.
func randomDelta(rng *rand.Rand, mr *mirror, span float64) heatmap.Delta {
	var d heatmap.Delta
	pt := func() heatmap.Point {
		switch rng.Intn(6) {
		case 0:
			return mr.facilities[rng.Intn(len(mr.facilities))]
		case 1:
			return mr.clients[rng.Intn(len(mr.clients))]
		default:
			return heatmap.Pt(rng.Float64()*span, rng.Float64()*span)
		}
	}
	switch rng.Intn(5) {
	case 0: // add clients
		for n := 1 + rng.Intn(2); n > 0; n-- {
			d.AddClients = append(d.AddClients, pt())
		}
	case 1: // remove a client
		if len(mr.clients) > 2 {
			d.RemoveClients = []int{rng.Intn(len(mr.clients))}
		}
	case 2: // open a facility
		d.AddFacilities = []heatmap.Point{pt()}
	case 3: // close a facility
		if len(mr.facilities) > 1 {
			d.RemoveFacilities = []int{rng.Intn(len(mr.facilities))}
		}
	default: // mixed batch: additions and removals of both kinds at once
		d.AddClients = []heatmap.Point{pt()}
		d.AddFacilities = []heatmap.Point{pt()}
		if rng.Intn(2) == 0 && len(mr.clients) > 2 && len(mr.facilities) > 1 {
			d.RemoveClients = []int{rng.Intn(len(mr.clients))}
			d.RemoveFacilities = []int{rng.Intn(len(mr.facilities))}
		}
	}
	return d
}

// TestApplyDeltaMatchesRebuild is the tentpole's acceptance criterion: for
// randomized update sequences under every metric, each ApplyDelta result is
// identical — regions, heat values, tile bytes — to a from-scratch Build over
// the updated sets. Well over 100 update sequences run in the full suite.
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	t.Parallel()
	sequences := 35
	opsPerSeq := 4
	if testing.Short() {
		sequences = 6
	}
	for _, metric := range []heatmap.Metric{heatmap.LInf, heatmap.L1, heatmap.L2} {
		metric := metric
		t.Run(metric.String(), func(t *testing.T) {
			t.Parallel()
			for seq := 0; seq < sequences; seq++ {
				rng := rand.New(rand.NewSource(int64(7000 + 100*int(metric) + seq)))
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
				workers := 1 + seq%3
				m, err := heatmap.Build(heatmap.Config{
					Clients:    append([]heatmap.Point(nil), mr.clients...),
					Facilities: append([]heatmap.Point(nil), mr.facilities...),
					Metric:     metric,
					Workers:    workers,
				})
				if err != nil {
					t.Fatalf("seq %d: Build: %v", seq, err)
				}
				for op := 0; op < opsPerSeq; op++ {
					d := randomDelta(rng, mr, 100)
					next, stats, err := m.ApplyDelta(d)
					if err != nil {
						t.Fatalf("seq %d op %d: ApplyDelta(%+v): %v", seq, op, d, err)
					}
					mr.apply(t, d)
					rebuilt, err := heatmap.Build(heatmap.Config{
						Clients:    append([]heatmap.Point(nil), mr.clients...),
						Facilities: append([]heatmap.Point(nil), mr.facilities...),
						Metric:     metric,
						Workers:    workers,
					})
					if err != nil {
						t.Fatalf("seq %d op %d: rebuild: %v", seq, op, err)
					}
					name := fmt.Sprintf("%s/seq=%d/op=%d", metric, seq, op)
					assertMapsIdentical(t, name, next, rebuilt)
					if stats.EventsReswept > stats.EventsTotal {
						t.Fatalf("%s: reswept %d of %d events", name, stats.EventsReswept, stats.EventsTotal)
					}
					m = next
				}
			}
		})
	}
}

// TestApplyDeltaCopyOnWrite asserts the receiver map is untouched by an
// update: the old snapshot keeps answering exactly as before.
func TestApplyDeltaCopyOnWrite(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	var clients, facilities []heatmap.Point
	for i := 0; i < 50; i++ {
		clients = append(clients, heatmap.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	for i := 0; i < 9; i++ {
		facilities = append(facilities, heatmap.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: heatmap.L2})
	if err != nil {
		t.Fatal(err)
	}
	beforeRegions := m.NumRegions()
	beforeMax, _ := m.MaxHeat()
	probe := heatmap.Pt(50, 50)
	beforeHeat, beforeRNN := m.HeatAt(probe)

	next, _, err := m.ApplyDelta(heatmap.Delta{
		AddClients:    []heatmap.Point{heatmap.Pt(50, 50)},
		RemoveClients: []int{3},
		AddFacilities: []heatmap.Point{heatmap.Pt(10, 90)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if next == m {
		t.Fatal("ApplyDelta returned the receiver")
	}
	if m.NumRegions() != beforeRegions || m.NumClients() != 50 || m.NumFacilities() != 9 {
		t.Fatalf("receiver mutated: %d regions, %d clients, %d facilities",
			m.NumRegions(), m.NumClients(), m.NumFacilities())
	}
	if max, _ := m.MaxHeat(); max != beforeMax {
		t.Fatalf("receiver max heat changed: %v -> %v", beforeMax, max)
	}
	if h, rnn := m.HeatAt(probe); h != beforeHeat || !equalInts(rnn, beforeRNN) {
		t.Fatalf("receiver HeatAt changed: %v/%v -> %v/%v", beforeHeat, beforeRNN, h, rnn)
	}
	if next.NumClients() != 50 || next.NumFacilities() != 10 {
		t.Fatalf("updated map has %d clients, %d facilities; want 50 and 10",
			next.NumClients(), next.NumFacilities())
	}
}

// TestApplyDeltaValidation covers the ErrBadDelta paths and the unsupported
// configurations.
func TestApplyDeltaValidation(t *testing.T) {
	t.Parallel()
	clients := []heatmap.Point{heatmap.Pt(0, 0), heatmap.Pt(4, 4), heatmap.Pt(9, 2)}
	facilities := []heatmap.Point{heatmap.Pt(2, 2), heatmap.Pt(8, 8)}
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities})
	if err != nil {
		t.Fatal(err)
	}
	bad := []heatmap.Delta{
		{RemoveClients: []int{3}},
		{RemoveClients: []int{-1}},
		{RemoveClients: []int{0, 0, 0}},
		{RemoveFacilities: []int{2}},
		{RemoveFacilities: []int{0, 0}},
	}
	for i, d := range bad {
		if _, _, err := m.ApplyDelta(d); !errors.Is(err, heatmap.ErrBadDelta) {
			t.Errorf("bad delta %d (%+v): err = %v, want ErrBadDelta", i, d, err)
		}
	}
	if _, _, err := m.ApplyDelta(heatmap.Delta{}); err != nil {
		t.Errorf("empty delta: %v", err)
	}

	base, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Algorithm: heatmap.AlgBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := base.ApplyDelta(heatmap.Delta{AddClients: []heatmap.Point{heatmap.Pt(1, 1)}}); err == nil {
		t.Error("baseline-algorithm map must reject ApplyDelta")
	}
	mono, err := heatmap.Build(heatmap.Config{Clients: clients, Monochromatic: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mono.ApplyDelta(heatmap.Delta{AddClients: []heatmap.Point{heatmap.Pt(1, 1)}}); err == nil {
		t.Error("monochromatic map must reject ApplyDelta")
	}
	// Index-context measures go stale under renumbering: Weighted's weights
	// are positional, so an update would silently compute wrong heat.
	weighted, err := heatmap.Build(heatmap.Config{
		Clients:    clients,
		Facilities: facilities,
		Measure:    heatmap.Weighted([]float64{1, 2, 3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := weighted.ApplyDelta(heatmap.Delta{AddClients: []heatmap.Point{heatmap.Pt(1, 1)}}); err == nil {
		t.Error("weighted-measure map must reject ApplyDelta")
	}
}

// TestDeltaEmpty covers the Delta.Empty helper directly.
func TestDeltaEmpty(t *testing.T) {
	t.Parallel()
	if !(delta.Delta{}).Empty() {
		t.Error("zero Delta should be Empty")
	}
	if (delta.Delta{RemoveClients: []int{0}}).Empty() {
		t.Error("non-zero Delta should not be Empty")
	}
}

// TestApplyRejectsBadInput exercises the package-level validation ApplyBatch
// performs before touching any state.
func TestApplyRejectsBadInput(t *testing.T) {
	t.Parallel()
	st := delta.State{
		Clients:    []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)},
		Facilities: []geom.Point{geom.Pt(2, 0)},
	}
	if _, err := delta.ApplyBatch(st, []delta.Delta{{}}, delta.Options{Metric: geom.Metric(99)}, nil); err == nil {
		t.Error("invalid metric must be rejected")
	}
	opts := delta.Options{Metric: geom.L2}
	if _, err := delta.ApplyBatch(st, []delta.Delta{{AddClients: []geom.Point{geom.Pt(math.NaN(), 0)}}}, opts, nil); !errors.Is(err, delta.ErrBadDelta) {
		t.Error("non-finite client point must be rejected")
	}
	if _, err := delta.ApplyBatch(st, []delta.Delta{{RemoveFacilities: []int{0}}}, opts, nil); !errors.Is(err, delta.ErrBadDelta) {
		t.Error("removing the last facility must be rejected")
	}
}
