package core

import (
	"math"
	"sort"
	"time"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// Incremental Region Coloring: resweep only the part of the arrangement a set
// update touched.
//
// The correctness argument is the partition layer's determinism contract run
// in reverse. A label emitted at an event depends only on (a) the circles
// straddling the sweep line there, (b) the event's own insert/remove sides and
// (c) the x-coordinate of the following event — never on how the sweep
// arrived (partition.go sweeps strips from warm-started line statuses and
// produces the sequential output exactly). So when a perturbation changes
// some circles, every event outside the union of the perturbed circles'
// x-extents still has the same straddling set, the same sides and the same
// successor: its labels are unchanged. Only the events inside the perturbed
// x-intervals — plus one event to their left, whose slab's right edge may have
// moved — need resweeping, and the relabeled slice can be spliced between the
// untouched prefix and suffix of the previous label list, reproducing the
// from-scratch emission order byte for byte.
//
// Every update takes this one path, however much of the arrangement it
// dirties: with every event dirty the resweep is a strip-parallel full
// sweep plus a copy of the label list, so no share of dirty events makes a
// clean run the cheaper answer. The reswept sets are interned into the pool
// the caller passes — the one pool a map and every map derived from it by
// updates share. A slab outside the ranges keeps its boundaries, actives
// and gaps too, so a resweep that carries a slab sink re-emits the slabs of
// its ranges in the same pass; its event list is handed back for a patch
// deferred to later.

// ResweepOutcome is the result of an incremental Resweep, with counters
// describing how much of the sweep actually ran.
type ResweepOutcome struct {
	// Result is equivalent, label for label, to a full CREST run over the
	// circles (the Stats work counters describe the map, not the incremental
	// work; see Resweep). Its LabelPool is the pool Resweep interned into.
	Result *Result
	// Events is the sweep-space event list of the new arrangement, the one
	// the resweep swept: a deferred slab index patch
	// (pointloc.Index.Patch) sweeps it instead of constructing it again.
	Events *SlabEvents
	// Rebuilt reports that a full sweep ran instead of a splice: the prior
	// labels were unavailable (none, or discarded).
	Rebuilt bool
	// EventsTotal is the event count of the new arrangement; EventsReswept is
	// how many of them were actually swept (equal when Rebuilt).
	EventsTotal, EventsReswept int
}

// Resweep incrementally recomputes a CREST result after a perturbation of the
// circle set. circles is the complete new NN-circle slice; prior is the label
// slice of the previous CREST run (in emission order) over the previous
// circles; perturbed holds the geometry of every circle that differs between
// the two runs — the old version of a removed or modified circle and the new
// version of an added or modified one. pool is the label pool to intern the
// reswept sets into — the one every map of a lineage shares — and is reused
// only when it evaluates opts' measure; otherwise (nil included) a fresh pool
// is made. The returned Result carries the pool either way, and its labels
// carry their sets' ids there: a prior label kept by the splice keeps its
// own id when pool was reused (prior's ids must index pool's table, as the
// labels of a Result over pool do), and is given its set's id in the fresh
// pool otherwise.
//
// The returned labels are identical — order, regions, representative points,
// RNN sets and heat values — to what CREST(circles, opts) would produce. The
// Stats of the returned Result describe the resulting map the way a full run
// would (Labelings and InfluenceCalls equal the label count, Events the full
// event count), except StatusWork, which counts the resweep's own status
// work; the events actually swept are in the outcome's counters.
// With slabs set, the strips also write the slabs of the events they sweep
// into it (see SlabSink): Dirty of the perturbed spans, or every slab.
func Resweep(circles []nncircle.NNCircle, opts Options, prior []Label, perturbed []geom.Circle, pool *LabelInterner, slabs SlabSink) (*ResweepOutcome, error) {
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	col := newCollector(opts, pool)
	if metric == geom.L1 {
		usable = nncircle.RotateL1ToLInf(usable)
		col.toOriginal = geom.RotateLInfToL1
	}
	ev := &SlabEvents{circles: usable, events: eventsOf(usable)}
	p := &pass{circles: usable, events: ev.events, labels: true}
	n := len(ev.events)
	if opts.DiscardLabels || len(prior) == 0 {
		// Splicing needs the prior labels; without them only a full run can
		// answer.
		if slabs != nil && slabs.Begin(ev, []SlabRange{{Lo: 0, Hi: n - 1}}, col.intern) {
			p.slabs = slabs
		}
		res := p.sweepAll(col)
		res.Stats.Circles = len(usable)
		return &ResweepOutcome{Result: res, Events: ev, Rebuilt: true, EventsTotal: n, EventsReswept: n}, nil
	}
	ranges := eventRanges(n, ev.x, perturbedSpans(perturbed, metric))
	swept := slabRanges(ranges)
	if slabs != nil && slabs.Begin(ev, swept, col.intern) {
		p.slabs = slabs
	}
	return spliceOutcome(col, ev, prior, ranges, p.sweepRanges(col, swept), col.intern == pool), nil
}

// slabRanges returns the event runs of ranges.
func slabRanges(ranges []eventRange) []SlabRange {
	out := make([]SlabRange, len(ranges))
	for i, r := range ranges {
		out[i] = SlabRange{Lo: r.lo, Hi: r.hi}
	}
	return out
}

// perturbedSpans returns the merged x-intervals (in the sweep coordinate
// system) covered by the perturbed circles. Zero-radius circles contribute no
// events and therefore no span. L2 spans are expanded by a relative epsilon:
// buildL2Events clusters near-coincident event coordinates, and a cluster at a
// span edge must land entirely inside or entirely outside the resweep range in
// both the old and the new event list.
func perturbedSpans(perturbed []geom.Circle, metric geom.Metric) []interval {
	spans := make([]interval, 0, len(perturbed))
	for _, c := range perturbed {
		if c.Radius <= 0 {
			continue
		}
		if metric == geom.L1 {
			c = geom.RotateCircleL1ToLInf(c)
		}
		lo, hi := c.LeftX(), c.RightX()
		if metric == geom.L2 {
			const eps = 1e-6
			lo -= eps * (1 + math.Abs(lo))
			hi += eps * (1 + math.Abs(hi))
		}
		spans = append(spans, interval{lo: lo, hi: hi})
	}
	return mergeIntervals(spans)
}

// eventRange is one contiguous run of event indexes to resweep, together with
// the half-closed window [winLo, winHi] of sweep-space x-coordinates whose
// prior labels it replaces. The window covers every reswept event plus every
// event of the previous arrangement that no longer exists (those lie inside
// the perturbed spans by construction).
type eventRange struct {
	lo, hi       int
	winLo, winHi float64
}

// eventRanges maps the perturbed spans onto index ranges of the new event
// list. Each range is extended one event to the left of its span when
// possible: that event's slab ends at the first in-span event, whose
// x-coordinate may have changed, so its labels must be re-emitted with the
// corrected right edge, and so must its slab, whose L2 arc order is decided
// at its midpoint. Overlapping or touching ranges are merged. It is the one
// dirty-window rule of the labels and the slabs alike.
func eventRanges(n int, xOf func(int) float64, spans []interval) []eventRange {
	if len(spans) == 0 {
		return nil
	}
	out := make([]eventRange, 0, len(spans))
	for _, s := range spans {
		first := sort.Search(n, func(i int) bool { return xOf(i) >= s.lo })
		lo := first - 1
		if lo < 0 {
			lo = 0
		}
		hi := sort.Search(n, func(i int) bool { return xOf(i) > s.hi }) - 1
		if hi < lo {
			hi = lo
		}
		out = append(out, eventRange{
			lo:    lo,
			hi:    hi,
			winLo: math.Min(xOf(lo), s.lo),
			winHi: math.Max(xOf(hi), s.hi),
		})
	}
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r.lo <= last.hi+1 || r.winLo <= last.winHi {
			if r.hi > last.hi {
				last.hi = r.hi
			}
			if r.winHi > last.winHi {
				last.winHi = r.winHi
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// spliceOutcome assembles the final label slice: the prior labels outside
// every replacement window, with each range's freshly swept labels (strip
// collectors concatenated in order) inserted in place of the prior labels
// inside its window. Prior labels are in emission order (non-decreasing
// Region.MinX), so a single merge pass suffices and the spliced slice is in
// full-sweep emission order. With no ranges (the perturbation had no usable
// events, e.g. only zero-radius circles changed) the arrangement is
// unchanged and the prior labels are copied as they are. kept reports that
// the prior labels' ids index col's pool; otherwise every label is given
// its set's id there.
func spliceOutcome(col *collector, ev *SlabEvents, prior []Label, ranges []eventRange, parts [][]*collector, kept bool) *ResweepOutcome {
	labels := make([]Label, 0, len(prior))
	reswept, work := 0, 0
	pi := 0
	for i, r := range ranges {
		reswept += r.hi - r.lo + 1
		for pi < len(prior) && prior[pi].Region.MinX < r.winLo {
			labels = append(labels, prior[pi])
			pi++
		}
		for pi < len(prior) && prior[pi].Region.MinX <= r.winHi {
			pi++ // replaced by the resweep
		}
		for _, c := range parts[i] {
			labels = append(labels, c.res.Labels...)
			work += c.res.Stats.StatusWork
		}
	}
	labels = append(labels, prior[pi:]...)
	if !kept {
		for i := range labels {
			labels[i].Set = col.intern.ID(col.intern.internSorted(labels[i].RNN)) + 1
		}
	}
	res := finalizeSpliced(col, labels, len(ev.circles), len(ev.events))
	res.Stats.StatusWork = work
	return &ResweepOutcome{
		Result:        res,
		Events:        ev,
		EventsTotal:   len(ev.events),
		EventsReswept: reswept,
	}
}

// finalizeSpliced builds the Result describing the spliced labels, with the
// same maximum tie-breaking as the sequential collector (the first label in
// emission order strictly exceeding the running maximum wins), Stats as a
// full run would report them, and col's label pool.
func finalizeSpliced(col *collector, labels []Label, circles, eventsTotal int) *Result {
	res := &Result{Labels: labels, MaxHeat: math.Inf(-1), pool: col.intern}
	for _, l := range labels {
		if n := len(l.RNN); n > res.Stats.MaxRNNSetSize {
			res.Stats.MaxRNNSetSize = n
		}
		if l.Heat > res.MaxHeat {
			res.MaxHeat = l.Heat
			res.MaxLabel = l
		}
	}
	if math.IsInf(res.MaxHeat, -1) {
		res.MaxHeat = 0
	}
	res.Stats.Circles = circles
	res.Stats.Events = eventsTotal
	res.Stats.Labelings = len(labels)
	res.Stats.InfluenceCalls = len(labels)
	res.Stats.Duration = time.Since(col.started)
	return res
}
