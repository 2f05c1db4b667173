package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// slabRecord is one slab as captured by recordingSlabSink.
type slabRecord struct {
	x0, x1  float64
	actives []int
	edges   []float64
	arcs    [][2]int // (circle, upperFlag) of each edge's arc
	gaps    [][]int  // RNN set above each edge
}

// recordingSlabSink records every slab at its position; decline makes it
// refuse the slabs at Begin.
type recordingSlabSink struct {
	recs    []*slabRecord
	decline bool
}

func (r *recordingSlabSink) Begin(ev *SlabEvents, _ []SlabRange, _ *LabelInterner) bool {
	r.recs = make([]*slabRecord, len(ev.events))
	return !r.decline
}

func (r *recordingSlabSink) Slab(k int, x0, x1 float64, actives []int, edges []SlabEdge) {
	rec := &slabRecord{x0: x0, x1: x1, actives: append([]int(nil), actives...)}
	for _, e := range edges {
		rec.edges = append(rec.edges, e.Y)
		rec.arcs = append(rec.arcs, [2]int{int(e.Arc >> 1), int(e.Arc & 1)})
		rec.gaps = append(rec.gaps, append([]int{}, e.Above.RNN...))
	}
	r.recs[k] = rec
}

// slabs returns the recorded slabs in slab order.
func (r *recordingSlabSink) slabs() []slabRecord {
	var out []slabRecord
	for _, rec := range r.recs {
		if rec != nil {
			out = append(out, *rec)
		}
	}
	return out
}

// emitAll emits the full slab decomposition of ncs into sink (pool nil
// means a fresh pool); ok is false when ncs has no positive-radius circle.
func emitAll(t *testing.T, ncs []nncircle.NNCircle, sink SlabSink, pool *LabelInterner) (ev *SlabEvents, ok bool) {
	t.Helper()
	ev, err := NewSlabEvents(ncs)
	if err == ErrNoCircles {
		return nil, false
	}
	if err != nil {
		t.Fatalf("NewSlabEvents: %v", err)
	}
	if err := ev.Emit(sink, pool, nil); err != nil {
		t.Fatalf("Emit: %v", err)
	}
	return ev, true
}

// oracleL2Slabs is the L2 slab emission the output-sensitive one replaced,
// kept as its oracle: every slab collects its active circles from a map,
// evaluates and fully sorts their arcs at the midpoint, and walks them bottom
// to top with a running set, interning every gap.
func oracleL2Slabs(circles []nncircle.NNCircle, sink SlabSink, pool *LabelInterner) error {
	events := buildL2Events(circles)
	if !sink.Begin(&SlabEvents{circles: circles, events: events}, []SlabRange{{Lo: 0, Hi: len(events) - 1}}, pool) {
		return ErrSlabsAborted
	}
	active := make(map[int]bool)
	var (
		actives []int
		arcs    []arcRef
		edges   []SlabEdge
		set     = oset.New()
	)
	for l, ev := range events {
		for _, ci := range ev.insert {
			active[ci] = true
		}
		for _, ci := range ev.remove {
			delete(active, ci)
		}
		xLeft := ev.x
		xRight := xLeft
		if l+1 < len(events) {
			xRight = events[l+1].x
		}
		actives = actives[:0]
		for ci := range active {
			actives = append(actives, ci)
		}
		sort.Ints(actives)
		edges = edges[:0]
		if xRight <= xLeft || len(actives) == 0 {
			sink.Slab(l, xLeft, xRight, actives, edges)
			continue
		}
		xm := (xLeft + xRight) / 2
		arcs = arcs[:0]
		for _, ci := range actives {
			yLo, yHi, ok := circles[ci].Circle.YAtX(xm)
			if !ok {
				continue
			}
			arcs = append(arcs,
				arcRef{circle: ci, upper: false, y: yLo},
				arcRef{circle: ci, upper: true, y: yHi},
			)
		}
		slices.SortFunc(arcs, func(a, b arcRef) int {
			switch {
			case a.y < b.y:
				return -1
			case a.y > b.y:
				return 1
			case a.circle != b.circle:
				return a.circle - b.circle
			case !a.upper && b.upper:
				return -1
			case a.upper && !b.upper:
				return 1
			default:
				return 0
			}
		})
		set.Clear()
		for _, a := range arcs {
			applyArc(circles, a, set)
			edges = append(edges, SlabEdge{Y: a.y, Arc: int32(arcSlot(a)), Above: pool.Intern(set)})
		}
		sink.Slab(l, xLeft, xRight, actives, edges)
	}
	return nil
}

// digestSink condenses every slab of a stream into one 64-bit digest of its
// boundaries and edge heights (as bit patterns), actives, arc order and gap
// label pointers, kept at the slab's position, so two emissions of a large
// map can be compared slab by slab without holding either stream in memory.
type digestSink struct {
	x0s     []float64
	digests []uint64
	written []bool
}

func (d *digestSink) Begin(ev *SlabEvents, _ []SlabRange, _ *LabelInterner) bool {
	n := len(ev.events)
	d.x0s, d.digests, d.written = make([]float64, n), make([]uint64, n), make([]bool, n)
	return true
}

func (d *digestSink) Slab(k int, x0, x1 float64, actives []int, edges []SlabEdge) {
	h := uint64(0xcbf29ce484222325)
	mix := func(w uint64) {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	mix(math.Float64bits(x0))
	mix(math.Float64bits(x1))
	mix(uint64(len(actives)))
	for _, a := range actives {
		mix(uint64(a))
	}
	for _, e := range edges {
		mix(math.Float64bits(e.Y))
		mix(uint64(e.Arc))
		mix(uint64(reflect.ValueOf(e.Above).Pointer()))
	}
	d.x0s[k], d.digests[k], d.written[k] = x0, h, true
}

// slabDigests returns the digests of the written slabs in slab order.
func (d *digestSink) slabDigests() []uint64 {
	var out []uint64
	for k, ok := range d.written {
		if ok {
			out = append(out, d.digests[k])
		}
	}
	return out
}

// assertSameDigests requires two digested slab streams to be identical.
func assertSameDigests(t *testing.T, ctx string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slabs, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: slab %d differs from the oracle's (boundaries, actives, heights, arc order or label pointers)", ctx, i)
		}
	}
}

// identityInstance derives an L2 instance for the emission identity suite.
// Snapped instances put every coordinate on a coarse integer grid, so
// boundaries meet in shared tangencies and multi-circle intersection points;
// unsnapped ones are in general position. Both sample clients co-located
// with a facility (zero-radius circles) and with another client (identical
// circles).
func identityInstance(rng *rand.Rand, snapped bool) []nncircle.NNCircle {
	pt := func() geom.Point {
		p := geom.Pt(rng.Float64()*40, rng.Float64()*40)
		if snapped {
			p = geom.Pt(math.Round(p.X/4)*4, math.Round(p.Y/4)*4)
		}
		return p
	}
	facilities := make([]geom.Point, 2+rng.Intn(8))
	for i := range facilities {
		facilities[i] = pt()
	}
	clients := make([]geom.Point, 10+rng.Intn(50))
	for i := range clients {
		switch {
		case rng.Intn(10) == 0:
			clients[i] = facilities[rng.Intn(len(facilities))]
		case i > 0 && rng.Intn(6) == 0:
			clients[i] = clients[rng.Intn(i)]
		default:
			clients[i] = pt()
		}
	}
	ncs, err := nncircle.Compute(clients, facilities, geom.L2)
	if err != nil {
		panic(err)
	}
	return ncs
}

// checkL2EmissionIdentity emits ncs through the oracle, through Emit and
// through Emit over a few random slab ranges, all interning into one
// pool, and requires every stream to match the oracle's digest for digest.
func checkL2EmissionIdentity(t *testing.T, ctx string, ncs []nncircle.NNCircle, rng *rand.Rand) {
	t.Helper()
	ev, err := NewSlabEvents(ncs)
	if err == ErrNoCircles {
		return
	}
	if err != nil {
		t.Fatalf("%s: NewSlabEvents: %v", ctx, err)
	}
	pool := NewLabelInterner(nil)
	want := &digestSink{}
	if err := oracleL2Slabs(ev.circles, want, pool); err != nil {
		t.Fatalf("%s: oracle: %v", ctx, err)
	}
	got := &digestSink{}
	if err := ev.Emit(got, pool, nil); err != nil {
		t.Fatalf("%s: Emit: %v", ctx, err)
	}
	assertSameDigests(t, ctx+" full", got.slabDigests(), want.digests)

	n := len(want.digests)
	cuts := []int{rng.Intn(n + 1), rng.Intn(n + 1), rng.Intn(n + 1), rng.Intn(n + 1)}
	sort.Ints(cuts)
	var ranges []SlabRange
	for _, w := range [][2]int{{cuts[0], cuts[1]}, {cuts[2], cuts[3]}} {
		if w[1] > w[0] {
			ranges = append(ranges, SlabRange{Lo: w[0], Hi: w[1] - 1})
		}
	}
	if len(ranges) == 0 {
		return
	}
	part := &digestSink{}
	if err := ev.Emit(part, pool, ranges); err != nil {
		t.Fatalf("%s: Emit over ranges: %v", ctx, err)
	}
	wantPart := append(slices.Clone(want.digests[cuts[0]:cuts[1]]), want.digests[cuts[2]:cuts[3]]...)
	assertSameDigests(t, ctx+" windows", part.slabDigests(), wantPart)
}

// TestL2SlabEmissionMatchesOracle is the identity suite of the
// output-sensitive L2 emission: over 300 random snapped and unsnapped
// instances and heatmapd's default map, the full and windowed StartSlab/Edge
// streams equal the per-slab sort-and-walk oracle's.
func TestL2SlabEmissionMatchesOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 300; trial++ {
		snapped := trial%2 == 0
		ncs := identityInstance(rng, snapped)
		checkL2EmissionIdentity(t, "random instance", ncs, rng)
	}
	if testing.Short() {
		return
	}
	// heatmapd's default map: NYC, 2000 clients and 600 facilities, sampled
	// as with -seed 1.
	pool, err := dataset.ByName("NYC", (2000+600)*2, 1)
	if err != nil {
		t.Fatal(err)
	}
	clients, facilities := pool.SampleClientsFacilities(2000, 600, 2)
	ncs, err := nncircle.Compute(clients, facilities, geom.L2)
	if err != nil {
		t.Fatal(err)
	}
	checkL2EmissionIdentity(t, "heatmapd default map", ncs, rng)
}

// TestEmitSlabsRangeMatchesFullEmission checks the partial-rebuild contract
// for both sweep families: for any run of slabs, Emit over that range
// reproduces exactly the slabs of the full emission it names — same
// boundaries, actives, edges and gap sets — despite its warm-started active
// set. It also pins Xs to the emitted left edges and CellBound as an upper
// bound of the emitted cells.
func TestEmitSlabsRangeMatchesFullEmission(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(71))
	for _, metric := range []geom.Metric{geom.LInf, geom.L2} {
		for trial := 0; trial < 8; trial++ {
			ncs := fuzzInstance(t, rng.Int63(), 6+rng.Intn(30), 1+rng.Intn(6), metric)
			sink := &recordingSlabSink{}
			ev, ok := emitAll(t, ncs, sink, nil)
			full := sink.slabs()
			if !ok || len(full) == 0 {
				continue
			}
			cells := 0
			for _, sl := range full {
				cells += 1 + 2*len(sl.edges)
			}
			if ev.CellBound() < cells {
				t.Fatalf("metric=%v trial=%d: CellBound %d below the %d emitted cells", metric, trial, ev.CellBound(), cells)
			}
			xs := make([]float64, len(full))
			for i, sl := range full {
				xs[i] = sl.x0
			}
			if !reflect.DeepEqual(ev.Xs(), xs) {
				t.Fatalf("metric=%v trial=%d: Xs differs from the emitted slab left edges", metric, trial)
			}
			for w := 0; w < 4; w++ {
				i := rng.Intn(len(full))
				j := i + rng.Intn(len(full)-i) // slabs i through j
				part := &recordingSlabSink{}
				if err := ev.Emit(part, nil, []SlabRange{{Lo: i, Hi: j}}); err != nil {
					t.Fatalf("Emit(%d..%d): %v", i, j, err)
				}
				if !reflect.DeepEqual(part.slabs(), full[i:j+1]) {
					t.Fatalf("metric=%v trial=%d slabs %d..%d: range emission differs from full emission slice (%d vs %d slabs)",
						metric, trial, i, j, len(part.slabs()), j+1-i)
				}
			}
		}
	}
}

// TestEmitSlabsRejectsL1 pins the contract that L1 inputs must be rotated by
// the caller.
func TestEmitSlabsRejectsL1(t *testing.T) {
	t.Parallel()
	ncs, err := nncircle.Compute(
		[]geom.Point{{X: 0, Y: 0}, {X: 3, Y: 1}},
		[]geom.Point{{X: 1, Y: 2}},
		geom.L1,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSlabEvents(ncs); err != ErrUnsupportedSlabMetric {
		t.Fatalf("NewSlabEvents(L1) err = %v, want ErrUnsupportedSlabMetric", err)
	}
}

// TestEmitSlabsAbort pins that a sink declining the slabs at Begin stops
// the emission with ErrSlabsAborted before any slab, for both sweep
// families, and that a one-pass build it declines is CREST's.
func TestEmitSlabsAbort(t *testing.T) {
	t.Parallel()
	for _, metric := range []geom.Metric{geom.LInf, geom.L2} {
		ncs := fuzzInstance(t, 5, 20, 3, metric)
		ev, err := NewSlabEvents(ncs)
		if err != nil {
			t.Fatal(err)
		}
		sink := &recordingSlabSink{decline: true}
		if err := ev.Emit(sink, nil, nil); err != ErrSlabsAborted {
			t.Fatalf("metric=%v: err = %v, want ErrSlabsAborted", metric, err)
		}
		if n := len(sink.slabs()); n != 0 {
			t.Fatalf("metric=%v: a declined emission wrote %d slabs", metric, n)
		}
		res, err := CRESTWithSlabs(ncs, Options{Workers: 2}, sink)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CREST(ncs, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("metric=%v declined build", metric), want, res)
		if n := len(sink.slabs()); n != 0 {
			t.Fatalf("metric=%v: a declined build wrote %d slabs", metric, n)
		}
	}
}

// TestEmitSlabsCoversArrangement cross-checks the L2 slab stream against
// brute-force containment at slab-gap midpoints: the gap's recorded RNN set
// must equal the set of circles containing the midpoint.
func TestEmitSlabsCoversArrangement(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 6; trial++ {
		metric := []geom.Metric{geom.LInf, geom.L2}[trial%2]
		ncs := fuzzInstance(t, rng.Int63(), 5+rng.Intn(20), 1+rng.Intn(5), metric)
		sink := &recordingSlabSink{}
		if _, ok := emitAll(t, ncs, sink, nil); !ok {
			continue
		}
		for _, sl := range sink.slabs() {
			if sl.x1 <= sl.x0 {
				continue
			}
			xm := (sl.x0 + sl.x1) / 2
			for g := 0; g+1 < len(sl.edges); g++ {
				lo, hi := sl.edges[g], sl.edges[g+1]
				if hi <= lo {
					continue
				}
				ym := (lo + hi) / 2
				p := geom.Pt(xm, ym)
				want := []int{}
				for _, nc := range ncs {
					if nc.Circle.Radius > 0 && nc.Circle.ContainsStrict(p) {
						want = append(want, nc.Client)
					}
				}
				if !reflect.DeepEqual(sl.gaps[g], want) {
					t.Fatalf("metric=%v slab [%v,%v] gap %d midpoint %v: emitted %v, brute force %v",
						metric, sl.x0, sl.x1, g, p, sl.gaps[g], want)
				}
			}
		}
	}
}

// TestEmitSlabsRangesMultiWindow pins the multi-range emission for both
// sweep families: two disjoint slab ranges emitted in one call equal the
// corresponding slices of the full emission, in range order, with the same
// gap sets.
func TestEmitSlabsRangesMultiWindow(t *testing.T) {
	t.Parallel()
	for _, metric := range []geom.Metric{geom.LInf, geom.L2} {
		ncs := fuzzInstance(t, 17, 24, 4, metric)
		pool := NewLabelInterner(nil)
		sink := &recordingSlabSink{}
		ev, _ := emitAll(t, ncs, sink, pool)
		full := sink.slabs()
		n := len(full)
		if n < 8 {
			t.Fatalf("metric=%v: instance too small (%d slabs)", metric, n)
		}
		a0, a1, b0, b1 := 1, n/3, n/2, n-1
		multi := &recordingSlabSink{}
		if err := ev.Emit(multi, pool, []SlabRange{{Lo: a0, Hi: a1 - 1}, {Lo: b0, Hi: b1 - 1}}); err != nil {
			t.Fatal(err)
		}
		want := append(append([]slabRecord{}, full[a0:a1]...), full[b0:b1]...)
		if !reflect.DeepEqual(multi.slabs(), want) {
			t.Fatalf("metric=%v: multi-range emission differs: got %d slabs, want %d", metric, len(multi.slabs()), len(want))
		}
	}
}
