package core

import (
	"sync"
	"sync/atomic"

	"rnnheatmap/internal/nncircle"
)

// The partition layer: strip-parallel execution of the one sweep, for every
// metric.
//
// A left-to-right sweep touches each event exactly once, and the line status
// at an event depends only on which circles straddle the sweep line there —
// not on how the sweep arrived. The event sequence can therefore be split
// into contiguous x-ranges ("strips"), each swept by its own worker after a
// warm-up that loads the circles spanning the strip's left boundary
// (sweeper.warm), the same grid-partitioning argument the
// capacity-constrained predecessor work (Sun et al. [22]) relies on. An L2
// strip builds its first slab's order by inserting those arcs at the slab's
// midpoint, which is the order the sequential sweep reaches there by its
// swaps. Each strip emits its labels into its own Sink; the per-strip
// Results are merged deterministically (labels concatenated in strip order,
// maxima and statistics reduced left to right), so the output is identical
// to the sequential sweep for every worker count. The same argument holds
// for the slabs a pass writes: a strip writes the slabs opening at its own
// events, each at its position, so the strips' runs join in strip order.
//
// Load balance: strip boundaries are chosen by cumulative event weight (an
// event's circle and crossing count — the best O(1) proxy for its
// status-mutation and relabeling work), not by uniform x-ranges or raw event
// counts, so Zipfian-clustered inputs don't starve strips. On top of that the
// event sequence is over-partitioned into stripsPerWorker strips per worker
// and the strips are consumed from a shared queue: a worker that drew a cheap
// strip steals the next one instead of idling behind a straggler.

// minStripEvents is the smallest number of events worth giving a strip its
// own warm-up; below it the O(n) warm-up scan dominates the sweep itself.
const minStripEvents = 64

// stripsPerWorker is the over-partitioning factor: how many strips each
// worker gets on average, bounding the idle tail at ~1/stripsPerWorker of one
// worker's share even when per-strip costs are skewed.
const stripsPerWorker = 4

// span is one contiguous run of events, events[lo:hi], together with the
// x-coordinate bounding its last slab on the right (the x of the first event
// of the next strip, or the final event's own x for the last strip).
type span struct {
	lo, hi int
	xAfter float64
	// weight is the run's total event weight (see splitSpans), used to
	// presize per-strip sinks.
	weight int
}

// splitSpans partitions events[lo:hi] into at most n contiguous runs of
// near-equal cumulative eventWeight, never creating runs shorter than
// minStripEvents events. xAfter bounds the last run's final slab.
func splitSpans(events []event, lo, hi, n int, xAfter float64) []span {
	if hi <= lo {
		return nil
	}
	if limit := (hi - lo) / minStripEvents; n > limit {
		n = limit
	}
	if n < 1 {
		n = 1
	}
	remW := 0
	for i := lo; i < hi; i++ {
		remW += eventWeight(&events[i])
	}
	out := make([]span, 0, n)
	for i := 0; i < n && lo < hi; i++ {
		left := n - i
		end := hi
		w := 0
		if left > 1 {
			// Take events until this run reaches its share of the remaining
			// weight, within the bounds that keep every run (including the
			// ones still to come) at least minStripEvents long.
			target := remW / left
			maxEnd := hi - (left-1)*minStripEvents
			end = lo
			for end < maxEnd && (w < target || end-lo < minStripEvents) {
				w += eventWeight(&events[end])
				end++
			}
		} else {
			w = remW
		}
		remW -= w
		xa := xAfter
		if end < hi {
			xa = events[end].x
		}
		out = append(out, span{lo: lo, hi: end, xAfter: xa, weight: w})
		lo = end
	}
	return out
}

// eventWeight is the work proxy of an event: one unit of slab overhead plus
// one per inserted or removed circle (each mutates the status and widens the
// changed ranges) and two per crossing (two arcs each).
func eventWeight(ev *event) int {
	return 1 + len(ev.insert) + len(ev.remove) + 2*len(ev.crossings)
}

// pass is one sweep over an event list in sweep space, whose strips carry
// up to two products: the labels, into each strip's collector (all pairs
// with labelAll, the CREST-A ablation), and the slabs, into slabs.
type pass struct {
	circles  []nncircle.NNCircle
	events   []event
	labels   bool
	labelAll bool
	slabs    SlabSink
}

// sweepAll sweeps every event of the pass into col, sequentially or
// strip-parallel by col's worker count, and finishes col.
func (p *pass) sweepAll(col *collector) *Result {
	last := p.events[len(p.events)-1].x
	workers := col.opts.workerCount()
	if workers <= 1 {
		p.strip(span{hi: len(p.events), xAfter: last}, col)
		return col.finish()
	}
	strips := splitSpans(p.events, 0, len(p.events), workers*stripsPerWorker, last)
	return mergeParts(col, runStrips(strips, workers, col, p.strip))
}

// sweepRanges sweeps the events of each range, split into strips on col's
// workers, and returns each range's strip collectors in strip order.
func (p *pass) sweepRanges(col *collector, ranges []SlabRange) [][]*collector {
	workers := col.opts.workerCount()
	parts := make([][]*collector, len(ranges))
	for i, r := range ranges {
		xAfter := p.events[r.Hi].x
		if r.Hi+1 < len(p.events) {
			xAfter = p.events[r.Hi+1].x
		}
		strips := splitSpans(p.events, r.Lo, r.Hi+1, workers*stripsPerWorker, xAfter)
		parts[i] = runStrips(strips, workers, col, p.strip)
	}
	return parts
}

// strip warm-starts and sweeps one strip into c with a pooled sweeper,
// keeping a record on every arc when it writes slabs.
func (p *pass) strip(st span, c *collector) {
	s := newSweeper(p.circles, p.events, c.intern)
	s.labelAll, s.slabs = p.labelAll, p.slabs
	switch {
	case p.labelAll: // CREST-A keeps no records
	case p.slabs != nil:
		s.stride = 1
	default:
		s.stride = cacheStride
	}
	if p.labels {
		s.sink = c
		c.reserve(2 * st.weight)
	}
	c.AddEvents(st.hi - st.lo)
	s.run(st.lo, st.hi, st.xAfter)
	c.res.Stats.StatusWork += s.st.work
	s.release()
}

// runStrips sweeps the strips on a bounded pool of workers goroutines, each
// strip emitting into its own collector derived from parent (sharing the
// label pool), and returns the collectors in strip order. Workers draw
// strips from a shared atomic cursor — over-partitioning plus dynamic
// consumption is what absorbs per-strip cost skew. Strip isolation keeps the
// output deterministic regardless of which worker sweeps which strip.
func runStrips(strips []span, workers int, parent *collector, sweep func(span, *collector)) []*collector {
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
		res.Stats.StatusWork += r.Stats.StatusWork
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
