package core

import (
	"math"
	"slices"
	"sort"
	"sync"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// The one sweep of every metric. It moves left to right over the events;
// between two consecutive events the line status (status.go) holds the arcs
// of every circle the sweep line cuts — for L-infinity, and L1 after its
// rotation, the horizontal sides of the squares — and adjacent arcs delimit
// the subregions of the slab. At each event the sweeper updates the status,
// derives the changed ranges the event opens (Lemma 2) and walks them: it
// rebuilds the RNN set below a range from the nearest cached record
// (rebuildBase), labels every valid pair inside it and refreshes the records
// it passes (Section V-C2). CREST, CREST-A, CREST-L2, the strips of the
// partition layer and the incremental resweep all run this one sweeper, and
// a sweeper that carries a slab sink writes each slab as it passes it
// (slabs.go).

// event is one sweep event: an x-coordinate together with the circles whose
// left extreme (insert) or right extreme (remove) lies there and, for L2,
// the boundary crossings there.
type event struct {
	x         float64
	insert    []int // indexes into the circle slice
	remove    []int
	crossings []crossing
}

// crossing is a boundary intersection of circles a and b at p.
type crossing struct {
	a, b int
	p    geom.Point
}

// buildEvents returns the sorted, de-duplicated event list of rectilinear
// circles.
func buildEvents(circles []nncircle.NNCircle) []event {
	type side struct {
		x      float64
		circle int
		left   bool
	}
	sides := make([]side, 0, 2*len(circles))
	for i, nc := range circles {
		sides = append(sides,
			side{x: nc.Circle.LeftX(), circle: i, left: true},
			side{x: nc.Circle.RightX(), circle: i, left: false},
		)
	}
	sort.Slice(sides, func(i, j int) bool { return sides[i].x < sides[j].x })
	var events []event
	for _, s := range sides {
		if len(events) == 0 || events[len(events)-1].x != s.x {
			events = append(events, event{x: s.x})
		}
		ev := &events[len(events)-1]
		if s.left {
			ev.insert = append(ev.insert, s.circle)
		} else {
			ev.remove = append(ev.remove, s.circle)
		}
	}
	return events
}

// eventsOf returns the event list of circles in sweep space: L2 circles get
// the crossing events of buildL2Events, all others buildEvents.
func eventsOf(circles []nncircle.NNCircle) []event {
	if isL2(circles) {
		return buildL2Events(circles)
	}
	return buildEvents(circles)
}

func isL2(circles []nncircle.NNCircle) bool {
	return len(circles) > 0 && circles[0].Circle.Metric == geom.L2
}

// interval is a changed interval: the y-range within which pairs must be
// re-labeled after an event (Lemma 2).
type interval struct {
	lo, hi float64
}

// mergeIntervals sorts the intervals and merges the ones that overlap or
// touch, returning disjoint intervals in ascending order.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// cacheStride is the anchor spacing of the base-record cache: a labeling
// sweep keeps records only on arcs whose slot is divisible by the stride.
// Every anchor gets its record from the walk of the range that inserted it,
// and every record a change makes stale is dropped and rewritten before it
// is read, so a base set is rebuilt by replaying about a stride's worth of
// arcs above the nearest record. The stride trades that short replay for a
// cache (and interned pool) holding several times fewer records. A sweep
// that writes slabs needs every gap's label and keeps a record on every arc.
const cacheStride = 4

// fragileGap is the relative height difference below which two adjacent L2
// arcs are re-checked at every event: rounding can reorder arcs that close
// a little away from the crossing that names them (see checkOrder).
const fragileGap = 1e-9

// crossWindow is the relative distance from a slab's midpoint within which
// the crossings of other events than the slab's own and its two neighbors'
// are checked too: where circles touch, or cross at a shallow angle, their
// computed heights can tie or reorder over a stretch of slabs.
const crossWindow = 1e-7

// sweeper is one sweep's working state; instances are pooled, and a strip
// borrows one for its whole run.
type sweeper struct {
	st     status
	events []event
	l2     bool
	// stride selects the arcs that keep records (see cacheStride); 0 keeps
	// none (CREST-A).
	stride int32
	// sink receives the labels of the changed ranges, or of every pair when
	// labelAll (CREST-A) is set; nil for the labels-off pass.
	sink     Sink
	labelAll bool
	// slabs receives every slab the run passes, its actives tracked by act
	// and its edges buffered in edges; nil when the pass writes no slabs.
	slabs SlabSink
	act   activeSet
	edges []SlabEdge

	intern *LabelInterner
	base   runningSet
	// pending lists the active L2 circles whose arcs are not in the status
	// yet: the slab's midpoint does not cut them.
	pending []int
	changed []interval
	ranges  []walkRange
	// stale lists arcs whose records went stale without a changed range
	// covering them; checks is the order check's work list and fragile the
	// arcs it re-checks at the next event.
	stale, checks, fragile []int32
	replay                 []int32
	// seen[slot] is the last check epoch that queued the arc.
	seen  []uint32
	epoch uint32
}

// walkRange is a range of the status from arc lo to arc hi, both present
// (hi -1: to the top), walked bottom-up; only a range with emit set labels
// its pairs.
type walkRange struct {
	lo, hi int32
	emit   bool
}

var sweeperPool = sync.Pool{New: func() any { return &sweeper{base: runningSet{set: oset.New()}} }}

// newSweeper borrows a sweeper for circles and their events, labeling and
// writing nothing until the caller sets stride, sink and slabs. Return it
// with release.
func newSweeper(circles []nncircle.NNCircle, events []event, intern *LabelInterner) *sweeper {
	s := sweeperPool.Get().(*sweeper)
	s.l2 = isL2(circles)
	s.st.reset(circles, s.l2)
	s.base.circles = circles
	s.events, s.intern = events, intern
	s.stride, s.sink, s.labelAll, s.slabs = 0, nil, false, nil
	s.pending, s.fragile = s.pending[:0], s.fragile[:0]
	s.seen = resize(s.seen, 2*len(circles))
	return s
}

func (s *sweeper) release() {
	s.events, s.sink, s.slabs, s.intern, s.base.circles, s.base.from = nil, nil, nil, nil, nil, nil
	clear(s.edges[:cap(s.edges)])
	sweeperPool.Put(s)
}

// run sweeps events[lo:hi] from a sweep line cutting the circles that
// straddle events[lo].x; xAfter bounds the last slab on the right (the x of
// events[hi], or the final event's own x when the run ends the sweep),
// writing each event's slab right after its step when it carries a sink.
func (s *sweeper) run(lo, hi int, xAfter float64) {
	s.warm(lo)
	for l := lo; l < hi; l++ {
		xr := xAfter
		if l+1 < hi {
			xr = s.events[l+1].x
		}
		s.step(l, xr, l == lo)
		if s.slabs != nil {
			s.emitSlab(l, xr)
		}
	}
	stepped.Add(int64(hi - lo))
}

// warm loads the circles straddling events[l].x, the sweep line just before
// that event: rectilinear sides go into the status, L2 circles into pending
// until step places them at the first slab's midpoint.
func (s *sweeper) warm(l int) {
	straddling := nncircle.StraddlingX(s.st.circles, s.events[l].x)
	for _, ci := range straddling {
		if s.l2 {
			s.pending = append(s.pending, ci)
		} else {
			s.st.insertCircle(ci)
		}
	}
	if s.slabs != nil {
		s.act.on = resize(s.act.on, len(s.st.circles))
		clear(s.act.on)
		s.act.list = s.act.list[:0]
		s.act.advance(straddling, nil)
	}
}

// step applies events[l] and labels the slab from its x to xr. first marks
// the first event of a run: its status is then built rather than updated,
// and one walk over the whole status writes the records.
func (s *sweeper) step(l int, xr float64, first bool) {
	ev := &s.events[l]
	if xr <= ev.x {
		return // the final event: it only empties the status
	}
	s.ranges = s.ranges[:0]
	if s.l2 {
		s.stepL2(l, (ev.x+xr)/2, first)
	} else {
		s.stepRect(ev)
	}
	if first && s.stride > 0 {
		s.recordAll()
	}
	if s.labelAll {
		if s.st.head != 0 {
			s.processInterval(walkRange{lo: s.st.arc[s.st.head], hi: -1, emit: true}, ev.x, xr)
		}
		return
	}
	for _, r := range s.ranges {
		s.processInterval(r, ev.x, xr)
	}
}

// stepRect applies a rectilinear event and derives its changed ranges: the
// y-intervals of the inserted and removed squares, merged where they touch.
func (s *sweeper) stepRect(ev *event) {
	changed := s.changed[:0]
	for _, ci := range ev.insert {
		s.st.insertCircle(ci)
		c := s.st.circles[ci].Circle
		changed = append(changed, interval{lo: c.BottomY(), hi: c.TopY()})
	}
	for _, ci := range ev.remove {
		s.st.remove(int32(2 * ci))
		s.st.remove(int32(2*ci + 1))
		c := s.st.circles[ci].Circle
		changed = append(changed, interval{lo: c.BottomY(), hi: c.TopY()})
	}
	s.changed = changed
	if s.labelAll {
		return
	}
	for _, iv := range mergeIntervals(changed) {
		lo := s.st.seek(iv.lo)
		if lo == 0 || s.st.y(lo) > iv.hi {
			continue
		}
		hi := s.st.seekLast(iv.hi)
		s.ranges = append(s.ranges, walkRange{lo: s.st.arc[lo], hi: s.st.arc[hi], emit: true})
	}
}

// stepL2 applies an L2 event and moves the status to the slab midpoint xm,
// then derives the changed ranges. The labeled ones are the oracle's: the
// arcs of each inserted circle, and for each crossing the arcs through its
// point, merged where they overlap or are adjacent in the status. The
// records that other changes make stale — removals with arcs between their
// two halves, swaps, circles placed after their insertion event — get
// ranges that only refresh them.
func (s *sweeper) stepL2(l int, xm float64, first bool) {
	st := &s.st
	ev := &s.events[l]
	s.stale, s.checks = s.stale[:0], s.checks[:0]
	s.pending = append(s.pending, ev.insert...)
	for _, ci := range ev.remove {
		lo, hi := int32(2*ci), int32(2*ci+1)
		if !st.has(lo) {
			if k := slices.Index(s.pending, ci); k >= 0 {
				s.pending = slices.Delete(s.pending, k, k+1)
			}
			continue
		}
		for n := st.next[st.node[lo]]; n != st.node[hi]; n = st.next[n] {
			st.work++
			s.stale = append(s.stale, st.arc[n])
		}
		for _, a := range [2]int32{lo, hi} {
			n := st.node[a]
			if p := st.prev[n]; p != 0 {
				s.checks = append(s.checks, st.arc[p])
			}
			if q := st.next[n]; q != 0 {
				s.checks = append(s.checks, st.arc[q])
			}
			st.remove(a)
		}
	}
	st.moveTo(xm)
	if !first {
		w := crossWindow * (1 + math.Abs(xm))
		for k := l - 1; k >= 0 && (k >= l-1 || xm-s.events[k].x <= w); k-- {
			s.checkCrossings(k)
		}
		for k := l; k < len(s.events) && (k <= l+1 || s.events[k].x-xm <= w); k++ {
			s.checkCrossings(k)
		}
		s.checks = append(s.checks, s.fragile...)
		s.fragile = s.fragile[:0]
		s.checkOrder()
	}
	kept := s.pending[:0]
	for _, ci := range s.pending {
		if _, _, ok := st.circles[ci].Circle.YAtX(xm); !ok {
			kept = append(kept, ci)
			continue
		}
		lo, hi := int32(2*ci), int32(2*ci+1)
		st.insertCircle(ci)
		s.noteFragile(lo, false)
		s.noteFragile(hi, false)
		if !first && !slices.Contains(ev.insert, ci) {
			s.ranges = append(s.ranges, walkRange{lo: lo, hi: hi})
		}
	}
	s.pending = kept

	mark := len(s.ranges)
	for _, ci := range ev.insert {
		if lo := int32(2 * ci); st.has(lo) {
			s.ranges = append(s.ranges, walkRange{lo: lo, hi: lo + 1, emit: true})
		}
	}
	for _, c := range ev.crossings {
		var at [4]int32
		arcs := s.arcsThrough(s.arcsThrough(at[:0], c.a, c.p, 1e-12), c.b, c.p, 1e-12)
		var lo, hi int32 = -1, -1
		n := 0
		for _, a := range arcs {
			if !st.has(a) {
				continue
			}
			if n == 0 || s.less(a, lo) {
				lo = a
			}
			if n == 0 || s.less(hi, a) {
				hi = a
			}
			n++
		}
		if n >= 2 {
			s.ranges = append(s.ranges, walkRange{lo: lo, hi: hi, emit: true})
		}
	}
	s.mergeLabeled(mark)
	s.addStale()
}

// addStale adds a refresh range for every stale arc still present and sorts
// all ranges bottom-up, the order in which each walk finds the records
// below it current.
func (s *sweeper) addStale() {
	for _, a := range s.stale {
		if s.st.has(a) {
			s.ranges = append(s.ranges, walkRange{lo: a, hi: a})
		}
	}
	s.sortRanges(s.ranges)
}

// sortRanges sorts ranges by their lowest arc.
func (s *sweeper) sortRanges(rs []walkRange) {
	slices.SortFunc(rs, func(p, q walkRange) int {
		switch {
		case p.lo == q.lo:
			return 0
		case s.less(p.lo, q.lo):
			return -1
		default:
			return 1
		}
	})
}

// checkCrossings queues the arcs through event k's crossing points for
// checkOrder, with a tolerance wide enough for either half near a circle's
// horizontal extreme.
func (s *sweeper) checkCrossings(k int) {
	for _, c := range s.events[k].crossings {
		eps := fragileGap * (1 + math.Abs(c.p.Y))
		s.checks = s.arcsThrough(s.arcsThrough(s.checks, c.a, c.p, eps), c.b, c.p, eps)
	}
}

// arcsThrough appends the arcs of circle ci that pass through its boundary
// point p: the upper arc when p lies above the center, the lower arc when
// below, and both when p is within eps of the center's height, at the
// circle's horizontal extreme.
func (s *sweeper) arcsThrough(dst []int32, ci int, p geom.Point, eps float64) []int32 {
	cy := s.st.circles[ci].Circle.Center.Y
	if p.Y >= cy-eps {
		dst = append(dst, int32(2*ci+1))
	}
	if p.Y <= cy+eps {
		dst = append(dst, int32(2*ci))
	}
	return dst
}

// less reports whether arc a orders before arc b at the current x.
func (s *sweeper) less(a, b int32) bool { return s.st.before(s.st.height(a), a, b) }

// mergeLabeled sorts the labeled ranges from s.ranges[mark:] and merges
// those that overlap or are adjacent in the status.
func (s *sweeper) mergeLabeled(mark int) {
	rs := s.ranges[mark:]
	if len(rs) < 2 {
		return
	}
	s.sortRanges(rs)
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if !s.less(last.hi, r.lo) || s.st.next[s.st.node[last.hi]] == s.st.node[r.lo] {
			if s.less(last.hi, r.hi) {
				last.hi = r.hi
			}
			continue
		}
		out = append(out, r)
	}
	s.ranges = s.ranges[:mark+len(out)]
}

// checkOrder restores the order at the new midpoint around the arcs in
// s.checks: the arcs of the crossings at this event and at its two
// neighbors, the neighbors of removed arcs, and the fragile arcs. Each is
// swapped past its neighbors while they are out of order, and every arc it
// passes is checked in turn; so is every neighbor closer than fragileGap,
// which spreads the check over a cluster of arcs through one shared point.
// The arcs end locally sorted. A crossing at a neighboring event can show at
// this midpoint: buildL2Events' clustering puts a crossing up to its epsilon
// right of its event's x, and rounding can order two arcs wrongly just
// before or after they cross or touch. Arcs left closer than fragileGap to a
// neighbor are checked again at the next event.
func (s *sweeper) checkOrder() {
	st := &s.st
	s.epoch++
	for len(s.checks) > 0 {
		a := s.checks[len(s.checks)-1]
		s.checks = s.checks[:len(s.checks)-1]
		if !st.has(a) {
			continue
		}
		s.seen[a] = s.epoch
		for {
			st.work++
			n := st.node[a]
			if p := st.prev[n]; p != 0 && s.less(a, st.arc[p]) {
				s.swapped(p, n)
				continue
			}
			if q := st.next[n]; q != 0 && s.less(st.arc[q], a) {
				s.swapped(n, q)
				continue
			}
			break
		}
		s.noteFragile(a, true)
	}
}

// swapped swaps the arcs of adjacent nodes m and n (m below n), marks both
// stale and queues both for a check of their new neighbors.
func (s *sweeper) swapped(m, n int32) {
	st := &s.st
	st.swap(m, n)
	s.stale = append(s.stale, st.arc[m], st.arc[n])
	s.checks = append(s.checks, st.arc[m], st.arc[n])
}

// noteFragile queues arc a for a check at the next event when a neighbor is
// closer than fragileGap, unless the two can never change their order: two
// halves of one circle, or like halves of identical circles. With spread
// set, such a neighbor not yet checked at this event is queued now.
func (s *sweeper) noteFragile(a int32, spread bool) {
	st := &s.st
	n := st.node[a]
	ya := st.height(a)
	fragile := false
	for _, m := range [2]int32{st.prev[n], st.next[n]} {
		if m == 0 {
			continue
		}
		b := st.arc[m]
		if a>>1 == b>>1 || a&1 == b&1 && st.circles[a>>1].Circle == st.circles[b>>1].Circle {
			continue
		}
		if math.Abs(st.height(b)-ya) > fragileGap*(1+math.Abs(ya)) {
			continue
		}
		fragile = true
		if spread && s.seen[b] != s.epoch {
			s.seen[b] = s.epoch
			s.checks = append(s.checks, b)
		}
	}
	if fragile {
		s.fragile = append(s.fragile, a)
	}
}

// keeps reports whether arc a keeps a record.
func (s *sweeper) keeps(a int32) bool { return s.stride > 0 && a%s.stride == 0 }

// recordAll walks the whole status once and writes every record.
func (s *sweeper) recordAll() {
	st := &s.st
	s.base.start(nil, oset.ContentKey{})
	for n := st.head; n != 0; n = st.next[n] {
		st.work++
		s.base.apply(st.arc[n])
		if s.keeps(st.arc[n]) {
			st.rec[n], st.recKey[n] = s.base.label(s.intern), s.base.key
		}
	}
}

// processInterval walks range r bottom-up from the RNN set below it,
// writing the records of the arcs it passes and, when r.emit is set,
// labeling every valid pair inside it with the slab [xl, xr] (Section
// V-C2). The set is carried as its interner key and looked up only where a
// label is needed — at records and at labeled pairs — so no per-face set is
// materialized, degenerate pairs cost nothing, and a set is built only the
// first time the pool sees it.
func (s *sweeper) processInterval(r walkRange, xl, xr float64) {
	st := &s.st
	s.rebuildBase(st.node[r.lo])
	last := int32(0)
	if r.hi >= 0 {
		last = st.node[r.hi]
	}
	for n := st.node[r.lo]; n != 0; n = st.next[n] {
		st.work++
		a := st.arc[n]
		s.base.apply(a)
		keep := s.keeps(a)
		var y, yNext float64
		emit := false
		if r.emit && s.sink != nil && n != last && st.next[n] != 0 {
			y, yNext = st.y(n), st.y(st.next[n])
			emit = yNext > y
		}
		if keep || emit {
			lbl := s.base.label(s.intern)
			if keep {
				st.rec[n], st.recKey[n] = lbl, s.base.key
			}
			if emit {
				s.sink.Label(geom.Rect{MinX: xl, MinY: y, MaxX: xr, MaxY: yNext}, lbl)
			}
		}
		if n == last {
			return
		}
	}
}

// rebuildBase starts s.base at the RNN set of the gap just below node start:
// it walks down from start's predecessor to the nearest node with a record —
// or the bottom of the status — and replays the arcs it passed bottom-up (a
// circle's two arcs only cancel in that order).
func (s *sweeper) rebuildBase(start int32) {
	st := &s.st
	arcs := s.replay[:0]
	n := st.prev[start]
	for ; n != 0 && st.rec[n] == nil; n = st.prev[n] {
		st.work++
		arcs = append(arcs, st.arc[n])
	}
	if n != 0 {
		st.work++
		s.base.start(st.rec[n], st.recKey[n])
	} else {
		s.base.start(nil, oset.ContentKey{})
	}
	for i := len(arcs) - 1; i >= 0; i-- {
		s.base.apply(arcs[i])
	}
	s.replay = arcs[:0]
}

// runningSet is a walk's running RNN set. It is carried as its interner key
// (oset.ContentKey), stepped arc by arc: a lower arc adds its circle's
// client, an upper arc removes it. The set itself is materialized only when
// the pool misses the key, from the record the walk started at and the arcs
// applied since. This relies on every circle carrying a distinct client, as
// NN-circles do.
type runningSet struct {
	circles []nncircle.NNCircle
	key     oset.ContentKey
	from    *Interned // the record the walk started at; nil for the empty set
	// trail holds the arcs applied since from; set is from plus trail[:done]
	// once a miss materialized it (done < 0 before).
	trail []int32
	set   *oset.Set
	done  int
}

func (b *runningSet) start(from *Interned, key oset.ContentKey) {
	b.from, b.key, b.trail, b.done = from, key, b.trail[:0], -1
}

func (b *runningSet) apply(a int32) {
	if client := b.circles[a>>1].Client; a&1 == 0 {
		b.key = b.key.Add(client)
	} else {
		b.key = b.key.Remove(client)
	}
	b.trail = append(b.trail, a)
}

// label returns the pooled label of the running set, interning it on a miss.
func (b *runningSet) label(in *LabelInterner) *Interned {
	if l := in.lookup(b.key); l != nil {
		return l
	}
	if b.done < 0 {
		b.set.Clear()
		if b.from != nil {
			b.set.Reset(b.from.RNN)
		}
		b.done = 0
	}
	for ; b.done < len(b.trail); b.done++ {
		a := b.trail[b.done]
		if client := b.circles[a>>1].Client; a&1 == 0 {
			b.set.Add(client)
		} else {
			b.set.Remove(client)
		}
	}
	return in.Intern(b.set)
}
