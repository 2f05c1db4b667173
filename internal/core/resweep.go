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

// DefaultMaxResweepFraction is the dirty-event fraction above which Resweep
// abandons splicing and reruns the full sweep: past this point the warm-up
// scans plus the resweep cost about as much as a clean run.
const DefaultMaxResweepFraction = 0.35

// ResweepOutcome is the result of an incremental Resweep, with counters
// describing how much of the sweep actually ran.
type ResweepOutcome struct {
	// Result is equivalent, label for label, to a full CREST run over the
	// circles (the Stats work counters describe the map, not the incremental
	// work; see Resweep).
	Result *Result
	// Rebuilt reports that the dirty fraction exceeded the threshold (or the
	// prior labels were unavailable) and a full sweep ran instead of a splice.
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
// version of an added or modified one. maxFraction bounds the dirty-event
// fraction worth splicing (non-positive means DefaultMaxResweepFraction).
//
// The returned labels are identical — order, regions, representative points,
// RNN sets and heat values — to what CREST(circles, opts) would produce. The
// Stats of the returned Result describe the resulting map the way a full run
// would (Labelings and InfluenceCalls equal the label count, Events the full
// event count), except StatusWork, which counts the resweep's own status
// work; the events actually swept are in the outcome's counters.
func Resweep(circles []nncircle.NNCircle, opts Options, prior []Label, perturbed []geom.Circle, maxFraction float64) (*ResweepOutcome, error) {
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	if maxFraction <= 0 {
		maxFraction = DefaultMaxResweepFraction
	}
	if opts.DiscardLabels || len(prior) == 0 {
		// Splicing needs the prior labels; without them only a full run can
		// answer.
		res, err := CREST(circles, opts)
		if err != nil {
			return nil, err
		}
		return rebuiltOutcome(res), nil
	}
	spans := perturbedSpans(perturbed, metric)
	if metric == geom.L1 {
		return resweep(nncircle.RotateL1ToLInf(usable), opts, prior, spans, geom.RotateLInfToL1, maxFraction), nil
	}
	return resweep(usable, opts, prior, spans, nil, maxFraction), nil
}

func rebuiltOutcome(res *Result) *ResweepOutcome {
	return &ResweepOutcome{
		Result:        res,
		Rebuilt:       true,
		EventsTotal:   res.Stats.Events,
		EventsReswept: res.Stats.Events,
	}
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
// corrected right edge. Overlapping or touching ranges are merged.
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

// resweep runs the incremental resweep over circles already in sweep space.
func resweep(circles []nncircle.NNCircle, opts Options, prior []Label, spans []interval, toOriginal func(geom.Point) geom.Point, maxFraction float64) *ResweepOutcome {
	started := time.Now()
	events := eventsOf(circles)
	ranges := eventRanges(len(events), func(i int) float64 { return events[i].x }, spans)
	if reswept, frac := reweptCount(ranges, len(events)); frac > maxFraction {
		res := runEngine(circles, opts, toOriginal, true)
		res.Stats.Circles = len(circles)
		return rebuiltOutcome(res)
	} else if reswept == 0 {
		return priorOutcome(circles, prior, len(events), started)
	}
	parent := newCollector(opts)
	if toOriginal != nil {
		parent.toOriginal = toOriginal
	}
	workers := opts.workerCount()
	parts := make([][]*collector, len(ranges))
	for i, r := range ranges {
		xAfter := events[r.hi].x
		if r.hi+1 < len(events) {
			xAfter = events[r.hi+1].x
		}
		strips := splitSpans(events, r.lo, r.hi+1, workers*stripsPerWorker, xAfter)
		parts[i] = runStrips(strips, workers, parent, func(st span, c *collector) {
			sweepStrip(circles, events, st, c, true)
		})
	}
	return spliceOutcome(circles, prior, ranges, parts, parent.intern, len(events), started)
}

func reweptCount(ranges []eventRange, total int) (int, float64) {
	n := 0
	for _, r := range ranges {
		n += r.hi - r.lo + 1
	}
	if total == 0 {
		return n, 0
	}
	return n, float64(n) / float64(total)
}

// priorOutcome repackages the untouched prior labels: the perturbation had no
// usable events (e.g. only zero-radius circles changed), so the arrangement is
// unchanged.
func priorOutcome(circles []nncircle.NNCircle, prior []Label, eventsTotal int, started time.Time) *ResweepOutcome {
	labels := make([]Label, len(prior))
	copy(labels, prior)
	return &ResweepOutcome{
		Result:      finalizeSpliced(circles, labels, nil, eventsTotal, started),
		EventsTotal: eventsTotal,
	}
}

// spliceOutcome assembles the final label slice: the prior labels outside
// every replacement window, with each range's freshly swept labels (strip
// collectors concatenated in order) inserted in place of the prior labels
// inside its window. Prior labels are in emission order (non-decreasing
// Region.MinX), so a single merge pass suffices and the spliced slice is in
// full-sweep emission order.
func spliceOutcome(circles []nncircle.NNCircle, prior []Label, ranges []eventRange, parts [][]*collector, pool *LabelInterner, eventsTotal int, started time.Time) *ResweepOutcome {
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
	res := finalizeSpliced(circles, labels, pool, eventsTotal, started)
	res.Stats.StatusWork = work
	return &ResweepOutcome{
		Result:        res,
		EventsTotal:   eventsTotal,
		EventsReswept: reswept,
	}
}

// finalizeSpliced builds the Result describing the spliced labels, with the
// same maximum tie-breaking as the sequential collector (the first label in
// emission order strictly exceeding the running maximum wins) and Stats as a
// full run would report them. pool, when non-nil, is the label pool the
// resweep interned the dirty-range labels into (partial — it only saw the
// reswept sets — but a valid seed for downstream consumers).
func finalizeSpliced(circles []nncircle.NNCircle, labels []Label, pool *LabelInterner, eventsTotal int, started time.Time) *Result {
	res := &Result{Labels: labels, MaxHeat: math.Inf(-1), pool: pool}
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
	res.Stats.Circles = len(circles)
	res.Stats.Events = eventsTotal
	res.Stats.Labelings = len(labels)
	res.Stats.InfluenceCalls = len(labels)
	res.Stats.Duration = time.Since(started)
	return res
}
