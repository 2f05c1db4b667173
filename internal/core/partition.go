package core

import (
	"sync"
	"sync/atomic"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// The partition layer: strip-parallel execution of the CREST sweeps.
//
// A left-to-right sweep touches each event exactly once, and the line status
// at an event depends only on which circles straddle the sweep line there —
// not on how the sweep arrived. The event sequence can therefore be split
// into contiguous x-ranges ("strips"), each swept by its own worker after a
// warm-up that inserts the circles spanning the strip's left boundary, the
// same grid-partitioning argument the capacity-constrained predecessor work
// (Sun et al. [22]) relies on. Each strip emits into its own Sink; the
// per-strip Results are merged deterministically (labels concatenated in
// strip order, maxima and statistics reduced left to right), so the output is
// identical to the sequential sweep for every worker count.
//
// Load balance: strip boundaries are chosen by cumulative event weight (an
// event's side count — the best O(1) proxy for its status-mutation and
// relabeling work), not by uniform x-ranges or raw event counts, so
// Zipfian-clustered inputs don't starve strips. On top of that the event
// sequence is over-partitioned into stripsPerWorker strips per worker and the
// strips are consumed from a shared queue: a worker that drew a cheap strip
// steals the next one instead of idling behind a straggler.

// minStripEvents is the smallest number of events worth giving a strip its
// own warm-up; below it the O(n) warm-up scan dominates the sweep itself.
const minStripEvents = 64

// stripsPerWorker is the over-partitioning factor: how many strips each
// worker gets on average, bounding the idle tail at ~1/stripsPerWorker of one
// worker's share even when per-strip costs are skewed.
const stripsPerWorker = 4

// span is one contiguous chunk of an event sequence together with the
// x-coordinate bounding its last slab on the right (the x of the first
// event of the next strip, or the final event's own x for the last strip).
type span[E any] struct {
	events []E
	xAfter float64
	// weight is the chunk's total event weight (see splitSpans), used to
	// presize per-strip sinks.
	weight int
}

// splitSpans partitions events into at most n contiguous chunks of
// near-equal cumulative weight, never creating chunks smaller than
// minStripEvents events. xOf extracts an event's x-coordinate; weightOf its
// weight (rect and L2 events weigh 1 plus their side count).
func splitSpans[E any](events []E, n int, xOf func(E) float64, weightOf func(E) int) []span[E] {
	if len(events) == 0 {
		return nil
	}
	if limit := len(events) / minStripEvents; n > limit {
		n = limit
	}
	if n < 1 {
		n = 1
	}
	xLast := xOf(events[len(events)-1])
	if n == 1 {
		w := 0
		for i := range events {
			w += weightOf(events[i])
		}
		return []span[E]{{events: events, xAfter: xLast, weight: w}}
	}
	remW := 0
	for i := range events {
		remW += weightOf(events[i])
	}
	out := make([]span[E], 0, n)
	lo := 0
	for i := 0; i < n && lo < len(events); i++ {
		left := n - i
		hi := len(events)
		w := 0
		if left > 1 {
			// Take events until this chunk reaches its share of the remaining
			// weight, within the bounds that keep every chunk (including the
			// ones still to come) at least minStripEvents long.
			target := remW / left
			maxHi := len(events) - (left-1)*minStripEvents
			hi = lo
			for hi < maxHi && (w < target || hi-lo < minStripEvents) {
				w += weightOf(events[hi])
				hi++
			}
		} else {
			for j := lo; j < hi; j++ {
				w += weightOf(events[j])
			}
		}
		remW -= w
		xAfter := xLast
		if hi < len(events) {
			xAfter = xOf(events[hi])
		}
		out = append(out, span[E]{events: events[lo:hi], xAfter: xAfter, weight: w})
		lo = hi
	}
	return out
}

// eventWeight is the work proxy of a rectilinear event: one unit of slab
// overhead plus one per side (each inserted or removed side mutates the
// status and widens the changed intervals).
func eventWeight(ev event) int { return 1 + len(ev.insert) + len(ev.remove) }

// l2EventWeight mirrors eventWeight for the Euclidean sweep; intersections
// dominate the per-event relabeling there, so they count double (two arcs
// each).
func l2EventWeight(ev l2Event) int {
	return 1 + len(ev.insert) + len(ev.remove) + 2*len(ev.intersections)
}

// runEngine executes the rectilinear sweep — CREST when changedIntervals is
// set, CREST-A otherwise — over L-infinity circles, sequentially or
// strip-parallel according to opts.Workers. toOriginal maps representative
// points back to the original coordinate system (nil = identity; the L1
// callers pass the inverse rotation).
func runEngine(circles []nncircle.NNCircle, opts Options, toOriginal func(geom.Point) geom.Point, changedIntervals bool) *Result {
	col := newCollector(opts)
	if toOriginal != nil {
		col.toOriginal = toOriginal
	}
	workers := opts.workerCount()
	if workers <= 1 {
		runCREST(circles, col, col.intern, changedIntervals)
		return col.finish()
	}
	strips := splitSpans(buildEvents(circles), workers*stripsPerWorker, func(ev event) float64 { return ev.x }, eventWeight)
	parts := runStrips(strips, workers, col, func(st span[event], c *collector) {
		sweepStrip(circles, st, c, changedIntervals)
	})
	return mergeParts(col, parts)
}

// sweepStrip warm-starts and sweeps one rectilinear strip into c, borrowing
// pooled scratch for the duration.
func sweepStrip(circles []nncircle.NNCircle, st span[event], c *collector, changedIntervals bool) {
	scratch := sweepScratchPool.Get().(*sweepScratch)
	var intern *LabelInterner
	if changedIntervals {
		intern = c.intern
	}
	status, cache := warmLineStatus(circles, st.events[0].x, intern, scratch)
	c.reserve(2 * st.weight)
	c.AddEvents(len(st.events))
	sweepEvents(circles, st.events, status, cache, c, c.intern, scratch, changedIntervals, st.xAfter)
	sweepScratchPool.Put(scratch)
}

// runL2Engine is the Euclidean counterpart of runEngine, partitioning the
// CREST-L2 event sequence of crestl2.go.
func runL2Engine(circles []nncircle.NNCircle, opts Options) *Result {
	col := newCollector(opts)
	workers := opts.workerCount()
	if workers <= 1 {
		runCRESTL2(circles, col, col.intern)
		return col.finish()
	}
	strips := splitSpans(buildL2Events(circles), workers*stripsPerWorker, func(ev l2Event) float64 { return ev.x }, l2EventWeight)
	parts := runStrips(strips, workers, col, func(st span[l2Event], c *collector) {
		sweepL2Strip(circles, st, c)
	})
	return mergeParts(col, parts)
}

// sweepL2Strip warm-starts and sweeps one Euclidean strip into c.
func sweepL2Strip(circles []nncircle.NNCircle, st span[l2Event], c *collector) {
	c.reserve(2 * st.weight)
	c.AddEvents(len(st.events))
	sweepL2Events(circles, st.events, nncircle.StraddlingX(circles, st.events[0].x), c, c.intern, st.xAfter)
}

// runStrips sweeps the strips on a bounded pool of workers goroutines, each
// strip emitting into its own collector derived from parent (sharing the
// label pool), and returns the collectors in strip order. Workers draw
// strips from a shared atomic cursor — over-partitioning plus dynamic
// consumption is what absorbs per-strip cost skew. Strip isolation keeps the
// output deterministic regardless of which worker sweeps which strip.
func runStrips[E any](strips []span[E], workers int, parent *collector, sweep func(span[E], *collector)) []*collector {
	parts := make([]*collector, len(strips))
	for i := range parts {
		parts[i] = newStripCollector(parent)
	}
	if workers > len(strips) {
		workers = len(strips)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(strips) {
					return
				}
				sweep(strips[i], parts[i])
			}
		}()
	}
	wg.Wait()
	return parts
}

// warmLineStatus builds the line status of a sweep line positioned just
// before x: every circle whose x-extent straddles x (inserted strictly
// before x, not yet removed) is present. When intern is non-nil (the CREST
// changed-interval path), the base-record cache is populated with one prefix
// walk interning the anchor sides into the run's pool, so the strip's first
// changed intervals find the same records a full sweep would have left behind
// (the cached sets equal the true prefix sets whenever they are read —
// Section V-C2). CREST-A never reads the cache, so its strips pass nil and
// skip the anchor interning. scratch lends the walk its reusable set.
func warmLineStatus(circles []nncircle.NNCircle, x float64, intern *LabelInterner, scratch *sweepScratch) (*lineStatus, map[int64]*Interned) {
	status := newLineStatus(circles)
	for _, ci := range nncircle.StraddlingX(circles, x) {
		status.insertCircle(ci)
	}
	cache := make(map[int64]*Interned)
	if intern != nil {
		set := scratch.base
		set.Clear()
		for it := status.tree.Min(); it.Valid(); it = it.Next() {
			status.apply(it.Key().ID, set)
			if isAnchor(it.Key().ID) {
				cache[it.Key().ID] = intern.Intern(set)
			}
		}
	}
	return status, cache
}

// mergeParts folds the per-strip collectors, in strip order, into the outer
// collector (which carries the run's start time) and finishes it. Labels are
// concatenated in strip order — exactly the sequential emission order — and
// the maximum keeps the first label attaining it, matching the sequential
// tie-breaking.
func mergeParts(into *collector, parts []*collector) *Result {
	res := into.res
	if !into.opts.DiscardLabels {
		total := 0
		for _, p := range parts {
			total += len(p.res.Labels)
		}
		into.reserve(total)
	}
	for _, p := range parts {
		r := p.res
		if !into.opts.DiscardLabels {
			res.Labels = append(res.Labels, r.Labels...)
		}
		res.Stats.Events += r.Stats.Events
		res.Stats.Labelings += r.Stats.Labelings
		res.Stats.InfluenceCalls += r.Stats.InfluenceCalls
		if r.Stats.MaxRNNSetSize > res.Stats.MaxRNNSetSize {
			res.Stats.MaxRNNSetSize = r.Stats.MaxRNNSetSize
		}
		if r.MaxHeat > res.MaxHeat {
			res.MaxHeat = r.MaxHeat
			res.MaxLabel = r.MaxLabel
		}
	}
	return into.finish()
}
