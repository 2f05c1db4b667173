package core

import (
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// The line status of every sweep: the arcs of the circles the sweep line
// cuts, in a treap ordered by each arc's height at the sweep's current x,
// then by circle, the lower half first. An arc is named by its slot,
// 2·circle + upper; for L-infinity (and rotated L1) circles the arcs are the
// horizontal sides, whose heights do not depend on x. The slot order is the
// tie-break, so the order is strict and equals a full sort of the arcs.
//
// An L2 arc's height changes with x, but two arcs can only change their
// order where they cross, and every crossing is an event (the argument of
// Bentley and Ottmann's segment sweep, 1979). So the sweep moves x from slab
// to slab and repairs the order where events name it with swaps; it never
// re-sorts. A swap exchanges the arcs two nodes hold, so the tree's shape is
// unchanged and the per-arc handles (node) make every insertion, removal and
// swap O(log n) with no allocation per event.
//
// Each node also carries the record of the base-set cache (Section V-C2):
// the interned label of the gap just above its arc and its interner key, as
// of the last walk that passed it. Removing or swapping an arc drops its
// node's record.
type status struct {
	circles []nncircle.NNCircle
	l2      bool
	// x is where L2 heights are evaluated: the current slab's midpoint.
	x float64
	// Nodes are indexes into the parallel arrays below; node 0 is nil.
	// prev and next thread the nodes in order, so walks never climb.
	left, right, parent, prev, next []int32
	prio                            []uint32
	arc                             []int32
	rec                             []*Interned
	recKey                          []oset.ContentKey
	free                            []int32
	root, head                      int32
	// node[slot] is the node holding arc slot, 0 when the arc is absent.
	node []int32
	// ys[slot] caches an L2 arc's height at x when at[slot] == epoch; moving
	// x or a reset starts a new epoch, so stale stamps never match.
	ys    []float64
	at    []uint32
	epoch uint32
	seed  uint32
	// work counts status operations (see Stats.StatusWork).
	work int
}

// reset empties s for circles, keeping its buffers.
func (s *status) reset(circles []nncircle.NNCircle, l2 bool) {
	for n := s.head; n != 0; n = s.next[n] {
		s.node[s.arc[n]] = 0
	}
	s.circles, s.l2, s.x = circles, l2, 0
	s.node = resize(s.node, 2*len(circles))
	if l2 {
		s.ys, s.at = resize(s.ys, 2*len(circles)), resize(s.at, 2*len(circles))
	}
	s.epoch++
	// Node 0 is the nil sentinel.
	if s.arc == nil {
		s.left, s.right, s.parent = []int32{0}, []int32{0}, []int32{0}
		s.prev, s.next, s.prio = []int32{0}, []int32{0}, []uint32{0}
		s.arc, s.rec, s.recKey = []int32{0}, []*Interned{nil}, []oset.ContentKey{{}}
	}
	clear(s.rec)
	s.left, s.right, s.parent = s.left[:1], s.right[:1], s.parent[:1]
	s.prev, s.next, s.prio = s.prev[:1], s.next[:1], s.prio[:1]
	s.arc, s.rec, s.recKey, s.free = s.arc[:1], s.rec[:1], s.recKey[:1], s.free[:0]
	s.root, s.head, s.seed, s.work = 0, 0, 0x9e3779b9, 0
}

// resize returns buf with length n, reallocated (zeroed) when its capacity
// is short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// has reports whether arc slot a is in the status.
func (s *status) has(a int32) bool { return s.node[a] != 0 }

// height returns arc a's height at the current x.
func (s *status) height(a int32) float64 {
	if s.l2 {
		if s.at[a] != s.epoch {
			lo, hi, _ := s.circles[a>>1].Circle.YAtX(s.x)
			b := a &^ 1
			s.ys[b], s.ys[b+1] = lo, hi
			s.at[b], s.at[b+1] = s.epoch, s.epoch
		}
		return s.ys[a]
	}
	c := &s.circles[a>>1].Circle
	if a&1 == 0 {
		return c.BottomY()
	}
	return c.TopY()
}

// moveTo moves the sweep line to x, where L2 heights are evaluated.
func (s *status) moveTo(x float64) {
	s.x = x
	s.epoch++
}

// y returns the height of the arc node n holds.
func (s *status) y(n int32) float64 { return s.height(s.arc[n]) }

// before reports whether the arc at height ya with slot a orders before the
// arc with slot b.
func (s *status) before(ya float64, a int32, b int32) bool {
	yb := s.height(b)
	if ya != yb {
		return ya < yb
	}
	return a < b
}

// alloc returns a fresh node holding arc a.
func (s *status) alloc(a int32) int32 {
	s.seed ^= s.seed << 13
	s.seed ^= s.seed >> 17
	s.seed ^= s.seed << 5
	var n int32
	if k := len(s.free); k > 0 {
		n = s.free[k-1]
		s.free = s.free[:k-1]
		s.left[n], s.right[n], s.parent[n], s.prev[n], s.next[n] = 0, 0, 0, 0, 0
		s.prio[n], s.arc[n], s.rec[n] = s.seed, a, nil
	} else {
		n = int32(len(s.arc))
		s.left, s.right, s.parent = append(s.left, 0), append(s.right, 0), append(s.parent, 0)
		s.prev, s.next = append(s.prev, 0), append(s.next, 0)
		s.prio, s.arc, s.rec = append(s.prio, s.seed), append(s.arc, a), append(s.rec, nil)
		s.recKey = append(s.recKey, oset.ContentKey{})
	}
	s.node[a] = n
	return n
}

// insertCircle adds both arcs of circle ci.
func (s *status) insertCircle(ci int) {
	s.insert(int32(2 * ci))
	s.insert(int32(2*ci + 1))
}

// insert adds arc a at its place in the order at the current x.
func (s *status) insert(a int32) {
	n := s.alloc(a)
	ya := s.height(a)
	p, cur, left := int32(0), s.root, false
	for cur != 0 {
		s.work++
		p = cur
		left = s.before(ya, a, s.arc[cur])
		if left {
			cur = s.left[cur]
		} else {
			cur = s.right[cur]
		}
	}
	s.work++
	s.parent[n] = p
	switch {
	case p == 0:
		s.root, s.head = n, n
	case left:
		s.left[p] = n
		s.next[n], s.prev[n] = p, s.prev[p]
		if s.prev[p] != 0 {
			s.next[s.prev[p]] = n
		} else {
			s.head = n
		}
		s.prev[p] = n
	default:
		s.right[p] = n
		s.prev[n], s.next[n] = p, s.next[p]
		if s.next[p] != 0 {
			s.prev[s.next[p]] = n
		}
		s.next[p] = n
	}
	for s.parent[n] != 0 && s.prio[n] > s.prio[s.parent[n]] {
		s.rotateUp(n)
	}
}

// rotateUp rotates node n above its parent.
func (s *status) rotateUp(n int32) {
	p := s.parent[n]
	g := s.parent[p]
	if s.left[p] == n {
		s.left[p] = s.right[n]
		if s.right[n] != 0 {
			s.parent[s.right[n]] = p
		}
		s.right[n] = p
	} else {
		s.right[p] = s.left[n]
		if s.left[n] != 0 {
			s.parent[s.left[n]] = p
		}
		s.left[n] = p
	}
	s.parent[p], s.parent[n] = n, g
	switch {
	case g == 0:
		s.root = n
	case s.left[g] == p:
		s.left[g] = n
	default:
		s.right[g] = n
	}
}

// remove deletes arc a, which must be present, and drops its record.
func (s *status) remove(a int32) {
	s.work++
	n := s.node[a]
	for s.left[n] != 0 && s.right[n] != 0 {
		c := s.left[n]
		if s.prio[s.right[n]] > s.prio[c] {
			c = s.right[n]
		}
		s.rotateUp(c)
	}
	child := s.left[n] | s.right[n]
	p := s.parent[n]
	if child != 0 {
		s.parent[child] = p
	}
	switch {
	case p == 0:
		s.root = child
	case s.left[p] == n:
		s.left[p] = child
	default:
		s.right[p] = child
	}
	if s.prev[n] != 0 {
		s.next[s.prev[n]] = s.next[n]
	} else {
		s.head = s.next[n]
	}
	if s.next[n] != 0 {
		s.prev[s.next[n]] = s.prev[n]
	}
	s.node[a], s.rec[n] = 0, nil
	s.free = append(s.free, n)
}

// swap exchanges the arcs of nodes m and n and drops both records: the gaps
// above both arcs change.
func (s *status) swap(m, n int32) {
	s.work++
	a, b := s.arc[m], s.arc[n]
	s.arc[m], s.arc[n] = b, a
	s.node[a], s.node[b] = n, m
	s.rec[m], s.rec[n] = nil, nil
}

// seek returns the first node whose height is at least y, or 0.
func (s *status) seek(y float64) int32 {
	res := int32(0)
	for cur := s.root; cur != 0; {
		s.work++
		if s.y(cur) >= y {
			res, cur = cur, s.left[cur]
		} else {
			cur = s.right[cur]
		}
	}
	return res
}

// seekLast returns the last node whose height is at most y, or 0.
func (s *status) seekLast(y float64) int32 {
	res := int32(0)
	for cur := s.root; cur != 0; {
		s.work++
		if s.y(cur) <= y {
			res, cur = cur, s.right[cur]
		} else {
			cur = s.left[cur]
		}
	}
	return res
}
