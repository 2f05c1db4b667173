package oset

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddRemoveContains(t *testing.T) {
	s := New()
	if s.Len() != 0 || s.Contains(1) {
		t.Fatalf("new set should be empty")
	}
	if !s.Add(3) || !s.Add(1) || !s.Add(2) {
		t.Fatalf("adding new members should report change")
	}
	if s.Add(3) {
		t.Fatalf("adding existing member should not report change")
	}
	if s.Len() != 3 || !s.Contains(1) || !s.Contains(2) || !s.Contains(3) {
		t.Fatalf("membership wrong after adds: %v", s)
	}
	if !s.Remove(1) {
		t.Fatalf("removing member should report change")
	}
	if s.Remove(1) || s.Remove(99) {
		t.Fatalf("removing non-member should not report change")
	}
	if s.Len() != 2 || s.Contains(1) {
		t.Fatalf("membership wrong after removal: %v", s)
	}
}

func TestMembersOrder(t *testing.T) {
	s := New(5, 3, 9, 1)
	if got := s.Members(); !reflect.DeepEqual(got, []int{5, 3, 9, 1}) {
		t.Errorf("Members = %v, want insertion order", got)
	}
	if got := s.Sorted(); !reflect.DeepEqual(got, []int{1, 3, 5, 9}) {
		t.Errorf("Sorted = %v", got)
	}
	s.Remove(3)
	s.Add(3)
	if got := s.Members(); !reflect.DeepEqual(got, []int{5, 9, 1, 3}) {
		t.Errorf("Members after re-add = %v", got)
	}
}

func TestRemoveEnds(t *testing.T) {
	s := New(1, 2, 3)
	s.Remove(1) // head
	if got := s.Members(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("after head removal: %v", got)
	}
	s.Remove(3) // tail
	if got := s.Members(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("after tail removal: %v", got)
	}
	s.Remove(2) // only element
	if s.Len() != 0 || len(s.Members()) != 0 {
		t.Errorf("set should be empty, got %v", s.Members())
	}
	// Set remains usable after being emptied.
	s.Add(7)
	if got := s.Members(); !reflect.DeepEqual(got, []int{7}) {
		t.Errorf("after re-add: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(1, 2, 3)
	c := s.Clone()
	if oracleKey(s.Members()) != oracleKey(c.Members()) {
		t.Fatalf("clone should equal original")
	}
	c.Add(4)
	c.Remove(1)
	if s.Contains(4) || !s.Contains(1) {
		t.Fatalf("mutating clone affected original")
	}
	if oracleKey(s.Members()) == oracleKey(c.Members()) {
		t.Fatalf("sets should now differ")
	}
}

// oracleKey is the exact string identity of a set: its members in
// ascending order, printed. The content-key tests are checked against it.
func oracleKey(vals []int) string {
	sorted := append([]int(nil), vals...)
	sort.Ints(sorted)
	return fmt.Sprint(sorted)
}

func TestEqualAndKey(t *testing.T) {
	a := New(3, 1, 2)
	b := New(1, 2, 3)
	c := New(1, 2)
	if oracleKey(a.Members()) != oracleKey(b.Members()) || a.ContentKey() != b.ContentKey() {
		t.Errorf("order should not affect equality: %v vs %v", a.ContentKey(), b.ContentKey())
	}
	if oracleKey(a.Members()) == oracleKey(c.Members()) || a.ContentKey() == c.ContentKey() {
		t.Errorf("different sets should not be equal")
	}
	if a.ContentKey() != KeyOf([]int{2, 3, 1}) || a.ContentKey().N != 3 {
		t.Errorf("ContentKey = %v, KeyOf = %v", a.ContentKey(), KeyOf([]int{2, 3, 1}))
	}
	if a.String() != "{1,2,3}" {
		t.Errorf("String = %q", a.String())
	}
	if New().ContentKey() != (ContentKey{}) || KeyOf(nil) != (ContentKey{}) || New().String() != "{}" {
		t.Errorf("empty key/string wrong: %v %v %q", New().ContentKey(), KeyOf(nil), New().String())
	}
	if New().ContentKey() != New().ContentKey() {
		t.Errorf("empty sets should have equal keys")
	}
}

// TestContentKeyMatchesOracle checks the content key against the exact
// string oracle on random small sets, where equal sets are common: two sets
// have equal keys exactly when their sorted members print the same, whether
// the key came from a Set's mutation history, KeyOf over the members in any
// order, or Add and Remove steps on a key.
func TestContentKeyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	byKey := map[ContentKey]string{}
	byOracle := map[string]ContentKey{}
	s := New()
	for i := 0; i < 5000; i++ {
		v := rng.Intn(12)
		before := s.ContentKey()
		if s.Contains(v) {
			s.Remove(v)
			if s.ContentKey() != before.Remove(v) {
				t.Fatalf("Remove(%d): set key %v, stepped key %v", v, s.ContentKey(), before.Remove(v))
			}
		} else {
			s.Add(v)
			if s.ContentKey() != before.Add(v) {
				t.Fatalf("Add(%d): set key %v, stepped key %v", v, s.ContentKey(), before.Add(v))
			}
		}
		members := s.Members()
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		key, oracle := s.ContentKey(), oracleKey(members)
		if KeyOf(members) != key {
			t.Fatalf("KeyOf(%v) = %v, set key %v", members, KeyOf(members), key)
		}
		if key.N != len(members) {
			t.Fatalf("key count %d for %d members", key.N, len(members))
		}
		if got, ok := byKey[key]; ok && got != oracle {
			t.Fatalf("sets %s and %s share key %v", got, oracle, key)
		}
		if got, ok := byOracle[oracle]; ok && got != key {
			t.Fatalf("set %s has keys %v and %v", oracle, got, key)
		}
		byKey[key], byOracle[oracle] = oracle, key
	}
	if len(byKey) < 1000 {
		t.Fatalf("only %d distinct sets visited", len(byKey))
	}
}

func TestRange(t *testing.T) {
	s := New(4, 5, 6)
	var seen []int
	s.Range(func(v int) bool {
		seen = append(seen, v)
		return true
	})
	if !reflect.DeepEqual(seen, []int{4, 5, 6}) {
		t.Errorf("Range order = %v", seen)
	}
	seen = nil
	s.Range(func(v int) bool {
		seen = append(seen, v)
		return false
	})
	if len(seen) != 1 {
		t.Errorf("Range should stop when f returns false, saw %v", seen)
	}
}

func TestFromSorted(t *testing.T) {
	s := FromSorted([]int{1, 5, 9})
	if s.Len() != 3 || !s.Contains(5) {
		t.Errorf("FromSorted wrong: %v", s)
	}
}

// Property: a Set subjected to a random sequence of adds and removes always
// matches a reference map implementation.
func TestSetMatchesReferenceModel(t *testing.T) {
	f := func(ops []int16) bool {
		s := New()
		ref := map[int]bool{}
		for _, op := range ops {
			v := int(op) % 50
			if v < 0 {
				v = -v
			}
			if op%2 == 0 {
				s.Add(v)
				ref[v] = true
			} else {
				s.Remove(v)
				delete(ref, v)
			}
			if s.Len() != len(ref) {
				return false
			}
		}
		want := make([]int, 0, len(ref))
		for v := range ref {
			want = append(want, v)
		}
		sort.Ints(want)
		return reflect.DeepEqual(s.Sorted(), want) || (len(want) == 0 && s.Len() == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Clone must be O(n) and yield deep independence across many random mutations.
func TestCloneStress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New()
	for i := 0; i < 1000; i++ {
		s.Add(rng.Intn(200))
	}
	snap := s.Clone()
	snapMembers := snap.Sorted()
	for i := 0; i < 1000; i++ {
		if rng.Intn(2) == 0 {
			s.Add(rng.Intn(200))
		} else {
			s.Remove(rng.Intn(200))
		}
	}
	if !reflect.DeepEqual(snap.Sorted(), snapMembers) {
		t.Fatalf("snapshot changed after mutations to original")
	}
}

func BenchmarkAddRemove(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Add(i % 1024)
		if i%3 == 0 {
			s.Remove((i - 512) % 1024)
		}
	}
}

func BenchmarkClone64(b *testing.B) {
	s := New()
	for i := 0; i < 64; i++ {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

func TestClear(t *testing.T) {
	s := New(3, 1, 2)
	s.Clear()
	if s.Len() != 0 || s.Contains(1) {
		t.Fatalf("after Clear: Len=%d, want empty set", s.Len())
	}
	if got := s.Members(); len(got) != 0 {
		t.Fatalf("Members after Clear = %v, want none", got)
	}
	// The cleared set is reusable and behaves like a fresh one.
	s.Add(7)
	s.Add(5)
	if got := s.Sorted(); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("Sorted after reuse = %v, want [5 7]", got)
	}
}

// TestHashOrderIndependence pins the interning contract of ContentKey:
// equal sets have equal keys regardless of insertion order or mutation
// history, unequal sets (here) differ, and an emptied set returns to the
// zero key.
func TestHashOrderIndependence(t *testing.T) {
	a := New(1, 2, 3)
	b := New(3, 1, 2)
	if a.ContentKey() != b.ContentKey() {
		t.Fatalf("key depends on insertion order: %v vs %v", a.ContentKey(), b.ContentKey())
	}
	// Same members reached through a different history key the same.
	c := New(1, 2, 3, 9)
	c.Remove(9)
	if c.ContentKey() != a.ContentKey() {
		t.Fatalf("key depends on mutation history: %v vs %v", c.ContentKey(), a.ContentKey())
	}
	if a.ContentKey().Hash == New(1, 2).ContentKey().Hash {
		t.Fatal("distinct sets {1,2,3} and {1,2} collide")
	}
	a.Remove(1)
	a.Remove(2)
	a.Remove(3)
	if a.ContentKey() != New().ContentKey() {
		t.Fatalf("emptied set key = %v, want the empty key", a.ContentKey())
	}
	a.Add(4)
	a.Clear()
	if a.ContentKey() != (ContentKey{}) {
		t.Fatalf("cleared set key = %v, want the zero key", a.ContentKey())
	}
}

// TestResetAndAppendMembers covers the sweep's scratch-set reconstruction
// path: Reset refills a used set without fresh nodes, and AppendMembers
// extends a caller buffer in insertion order.
func TestResetAndAppendMembers(t *testing.T) {
	s := New(10, 20, 30)
	s.Reset([]int{7, 5, 6})
	if got, want := s.Members(), []int{7, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Members after Reset = %v, want %v", got, want)
	}
	if s.Contains(10) || s.Len() != 3 {
		t.Fatalf("Reset kept stale members: %v", s.Members())
	}
	if s.ContentKey() != New(7, 5, 6).ContentKey() {
		t.Fatal("Reset set's key disagrees with a freshly built equal set")
	}
	dst := s.AppendMembers([]int{99})
	if want := []int{99, 7, 5, 6}; !reflect.DeepEqual(dst, want) {
		t.Fatalf("AppendMembers = %v, want %v", dst, want)
	}
	if dst = New().AppendMembers(nil); len(dst) != 0 {
		t.Fatalf("AppendMembers on empty set = %v, want none", dst)
	}
}
