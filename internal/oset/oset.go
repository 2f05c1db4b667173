// Package oset implements the base-set data structure that CREST uses to
// cache and incrementally modify RNN sets (Section V-C2 and V-D of the
// paper). A Set holds client identifiers (small non-negative integers) with
// O(1) insertion, removal and membership test and O(λ) snapshot, where λ is
// the set size. Snapshots are required whenever a labeled RNN set must
// survive subsequent sweep-line modifications.
//
// The implementation mirrors the paper's design: a doubly linked list of the
// members (preserving insertion order so that snapshots are cheap and
// deterministic) plus a random-access index (a map) from member to list node.
package oset

import (
	"fmt"
	"sort"
	"strings"
)

// node is a doubly linked list node holding a single member.
type node struct {
	val        int
	prev, next *node
}

// Set is an insertion-ordered set of client identifiers. The zero value is
// not ready to use; call New.
type Set struct {
	head, tail *node
	index      map[int]*node
	// hash is the running order-independent content hash (see Hash),
	// maintained incrementally: each member's 128-bit value hash is XORed in
	// on Add and out again on Remove.
	hash [2]uint64
	// free is a free-list of removed nodes. Sweep scratch sets mutate
	// millions of times over one strip; recycling nodes keeps those
	// mutations allocation-free once the list has warmed up.
	free *node
}

// newNode pops a recycled node from the free-list, or allocates one.
func (s *Set) newNode(v int) *node {
	n := s.free
	if n == nil {
		return &node{val: v}
	}
	s.free = n.next
	n.val, n.prev, n.next = v, nil, nil
	return n
}

// recycle pushes an unlinked node onto the free-list.
func (s *Set) recycle(n *node) {
	n.prev, n.next = nil, s.free
	s.free = n
}

// Hash returns a 128-bit order-independent hash of the set's members — the
// XOR of ValueHash over them — maintained in O(1) per mutation. Two equal
// sets always hash equally; unequal sets collide with probability ~2^-128
// per pair — far below any realistic corpus — which is what lets the slab
// point-location builder intern millions of per-face RNN sets without
// sorting or serializing each one. Do not persist the hash: its mixing
// constants are an internal detail.
func (s *Set) Hash() [2]uint64 { return s.hash }

// ValueHash maps one member to its 128-bit hash: two independent
// splitmix64 finalizer chains over the value. Set.Hash is the XOR of
// ValueHash over the members, so a caller that tracks membership changes
// itself can maintain the same hash without a Set.
func ValueHash(v int) [2]uint64 {
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	x := uint64(v) * 0x9e3779b97f4a7c15
	return [2]uint64{mix(x + 0x9e3779b97f4a7c15), mix(x ^ 0x6a09e667f3bcc909)}
}

// New returns an empty set. The optional members are added in order.
func New(members ...int) *Set {
	s := &Set{index: make(map[int]*node)}
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Len returns the number of members.
func (s *Set) Len() int { return len(s.index) }

// Contains reports whether v is a member of s.
func (s *Set) Contains(v int) bool {
	_, ok := s.index[v]
	return ok
}

// Add inserts v into s. Adding an existing member is a no-op. It reports
// whether the set changed.
func (s *Set) Add(v int) bool {
	if _, ok := s.index[v]; ok {
		return false
	}
	n := s.newNode(v)
	n.prev = s.tail
	if s.tail != nil {
		s.tail.next = n
	} else {
		s.head = n
	}
	s.tail = n
	s.index[v] = n
	vh := ValueHash(v)
	s.hash[0] ^= vh[0]
	s.hash[1] ^= vh[1]
	return true
}

// Remove deletes v from s. Removing a non-member is a no-op. It reports
// whether the set changed.
func (s *Set) Remove(v int) bool {
	n, ok := s.index[v]
	if !ok {
		return false
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	delete(s.index, v)
	vh := ValueHash(v)
	s.hash[0] ^= vh[0]
	s.hash[1] ^= vh[1]
	s.recycle(n)
	return true
}

// Clear removes every member, retaining the index allocation (and recycling
// every list node) so the set can be reused across many queries (e.g. one per
// rasterized pixel) without churning the allocator.
func (s *Set) Clear() {
	if s.tail != nil {
		s.tail.next = s.free
		s.free = s.head
	}
	s.head, s.tail = nil, nil
	clear(s.index)
	s.hash = [2]uint64{}
}

// Reset clears s and refills it from vals in order. It is the scratch-set
// reconstruction path of the CREST sweep: a cached base record (an interned,
// ascending RNN slice) is materialized back into a mutable set without
// allocating, thanks to the node free-list and the retained index map.
func (s *Set) Reset(vals []int) {
	s.Clear()
	for _, v := range vals {
		s.Add(v)
	}
}

// Members returns the members in insertion order. The returned slice is a
// fresh copy safe to retain.
func (s *Set) Members() []int {
	out := make([]int, 0, len(s.index))
	for n := s.head; n != nil; n = n.next {
		out = append(out, n.val)
	}
	return out
}

// AppendMembers appends the members in insertion order to dst and returns
// the extended slice. It is the allocation-free variant of Members for
// callers that bring their own buffer.
func (s *Set) AppendMembers(dst []int) []int {
	for n := s.head; n != nil; n = n.next {
		dst = append(dst, n.val)
	}
	return dst
}

// Sorted returns the members in ascending order.
func (s *Set) Sorted() []int {
	out := s.Members()
	sort.Ints(out)
	return out
}

// Clone returns an independent copy of s. The copy cost is O(Len()),
// matching the base-set copy bound used in the CREST complexity analysis.
func (s *Set) Clone() *Set {
	c := &Set{index: make(map[int]*node, len(s.index))}
	for n := s.head; n != nil; n = n.next {
		c.Add(n.val)
	}
	return c
}

// Equal reports whether s and t contain exactly the same members, regardless
// of insertion order.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	for v := range s.index {
		if !t.Contains(v) {
			return false
		}
	}
	return true
}

// Key returns a canonical string identifying the set contents (sorted,
// comma-separated). Two sets have equal keys iff they are Equal. It is used
// to de-duplicate RNN sets across regions in tests and post-processing.
func (s *Set) Key() string {
	vals := s.Sorted()
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// String implements fmt.Stringer using sorted order for readability.
func (s *Set) String() string {
	return "{" + s.Key() + "}"
}

// Range calls f for each member in insertion order until f returns false.
func (s *Set) Range(f func(v int) bool) {
	for n := s.head; n != nil; n = n.next {
		if !f(n.val) {
			return
		}
	}
}

// FromSorted builds a set from an already de-duplicated slice. It is a
// convenience for tests and decoding.
func FromSorted(vals []int) *Set {
	s := New()
	for _, v := range vals {
		s.Add(v)
	}
	return s
}
