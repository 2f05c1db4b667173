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
//
// ContentKey is the one identity of an RNN set, from the sweep's label
// interner through summaries, optimal ranking and the snapshot pool.
package oset

import (
	"sort"
	"strconv"
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
	// key is the running content key (see ContentKey), maintained
	// incrementally on Add and Remove.
	key ContentKey
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

// ContentKey identifies a set by its contents: Hash is the XOR of a 128-bit
// value hash over the members and N their count, independent of order and
// history. Equal sets have equal keys; unequal sets collide with probability
// about 2^-128 per pair, so sets are interned and joined without sorting or
// serializing them. Do not persist a key: its mixing constants are internal.
type ContentKey struct {
	Hash [2]uint64
	N    int
}

// Add returns the key of the set k identifies with the non-member v added.
func (k ContentKey) Add(v int) ContentKey {
	k.toggle(v)
	k.N++
	return k
}

// Remove returns the key of the set k identifies with the member v removed.
func (k ContentKey) Remove(v int) ContentKey {
	k.toggle(v)
	k.N--
	return k
}

// toggle XORs v's 128-bit value hash (two independent splitmix64 finalizer
// chains over the value) into the key's hash.
func (k *ContentKey) toggle(v int) {
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	x := uint64(v) * 0x9e3779b97f4a7c15
	k.Hash[0] ^= mix(x + 0x9e3779b97f4a7c15)
	k.Hash[1] ^= mix(x ^ 0x6a09e667f3bcc909)
}

// KeyOf returns the content key of the set whose members are vals, which
// must hold no duplicates (in any order). It runs in O(len(vals)) and does
// not allocate.
func KeyOf(vals []int) ContentKey {
	var k ContentKey
	for _, v := range vals {
		k = k.Add(v)
	}
	return k
}

// ContentKey returns the set's content key in O(1): the set maintains it on
// every Add and Remove.
func (s *Set) ContentKey() ContentKey { return s.key }

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
	s.key = s.key.Add(v)
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
	s.key = s.key.Remove(v)
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
	s.key = ContentKey{}
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

// String implements fmt.Stringer: the members in ascending order, as
// "{1,2,3}".
func (s *Set) String() string {
	b := []byte{'{'}
	for i, v := range s.Sorted() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(append(b, '}'))
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
