package core

import (
	"slices"
	"testing"

	"rnnheatmap/internal/oset"
)

// TestLabelInternerIDs pins the id table: ids count up from 0 in the order
// records are first asked for, one per set, and never change; a Table taken
// earlier stays a valid, unchanged prefix; and a pool seeded from a stored
// table keeps every stored set under its stored id, the empty set included,
// and numbers new sets after them.
func TestLabelInternerIDs(t *testing.T) {
	in := NewLabelInterner(nil)
	a, b := in.Intern(oset.FromSorted([]int{1, 4})), in.Intern(oset.FromSorted([]int{2}))
	if got := []uint32{in.ID(b), in.ID(in.Empty()), in.ID(a), in.ID(b)}; !slices.Equal(got, []uint32{0, 1, 2, 0}) {
		t.Fatalf("ids in first-ask order = %v, want [0 1 2 0]", got)
	}
	heats, sets := in.Table()
	c := in.Intern(oset.FromSorted([]int{3, 5, 7}))
	if in.ID(c) != 3 || len(heats) != 3 || sets[0] != b || sets[2] != a || heats[2] != a.Heat {
		t.Fatalf("table %v %v after a later id %d, want the first three records", heats, sets, in.ID(c))
	}

	stored := [][]int{{2, 9}, {}, {4}}
	seeded := NewLabelInternerFrom(nil, stored, []float64{2, 0, 1})
	if got := seeded.Intern(oset.FromSorted([]int{2, 9})); seeded.ID(got) != 0 || got.Heat != 2 {
		t.Errorf("a stored set interns as id %d heat %v, want its stored id 0, heat 2", seeded.ID(got), got.Heat)
	}
	if id := seeded.ID(seeded.Empty()); id != 1 {
		t.Errorf("the empty set has id %d, want its stored id 1", id)
	}
	if got := seeded.Intern(oset.FromSorted([]int{4, 6})); seeded.ID(got) != 3 {
		t.Errorf("a new set has id %d, want 3, after the stored ones", seeded.ID(got))
	}
	heats, sets = seeded.Table()
	if len(sets) != 4 || !slices.Equal(sets[2].RNN, []int{4}) || !slices.Equal(heats, []float64{2, 0, 1, 2}) {
		t.Errorf("seeded table %v %v, want the stored sets then the new one", heats, sets)
	}
	noEmpty := NewLabelInternerFrom(nil, [][]int{{1}}, []float64{1})
	if id := noEmpty.ID(noEmpty.Empty()); id != 1 {
		t.Errorf("an empty set the stored table lacks gets id %d, want the next one, 1", id)
	}
}

// TestLabelInternerLookupID checks that LookupID finds the id of a set the
// pool numbered, by its members, and never assigns one: a set the pool
// holds without an id, or does not hold, is not found, and the table does
// not grow.
func TestLabelInternerLookupID(t *testing.T) {
	in := NewLabelInterner(nil)
	a := in.Intern(oset.FromSorted([]int{1, 4}))
	in.Intern(oset.FromSorted([]int{2}))
	if _, ok := in.LookupID([]int{1, 4}); ok {
		t.Fatal("found an id for a set the pool never numbered")
	}
	in.ID(in.Empty())
	in.ID(a)
	if id, ok := in.LookupID([]int{1, 4}); !ok || id != 1 {
		t.Fatalf("LookupID({1,4}) = %d, %v, want 1, true", id, ok)
	}
	if id, ok := in.LookupID([]int{}); !ok || id != 0 {
		t.Fatalf("LookupID({}) = %d, %v, want the empty set's id 0", id, ok)
	}
	for _, rnn := range [][]int{{2}, {3}} {
		if _, ok := in.LookupID(rnn); ok {
			t.Fatalf("LookupID(%v) found an id", rnn)
		}
	}
	if heats, _ := in.Table(); len(heats) != 2 {
		t.Fatalf("table holds %d ids after the lookups, want 2", len(heats))
	}
	seeded := NewLabelInternerFrom(nil, [][]int{{2, 9}, {}, {4}}, []float64{2, 0, 1})
	if id, ok := seeded.LookupID([]int{4}); !ok || id != 2 {
		t.Fatalf("seeded LookupID({4}) = %d, %v, want its stored id 2", id, ok)
	}
}
