package snapshot_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/snapshot"
)

// TestLabelSetIDsOnLineage: on every state of a map's lineage — built,
// committed, opened from its file and opened then committed — each label
// carries the id under which the slab index's table holds its set and
// heat, so the encoder can plan the file's pool by those ids
// (TestEncodeMatchesRetainedEncoder holds its bytes to the retained
// encoder's on these states).
func TestLabelSetIDsOnLineage(t *testing.T) {
	t.Parallel()
	for _, in := range []struct {
		ds                string
		metric            geom.Metric
		clients, facility int
	}{
		{"Uniform", geom.LInf, 300, 30},
		{"Zipfian", geom.L1, 300, 30},
		{"NYC", geom.L2, 200, 60},
	} {
		clients, facilities := samplePoints(t, in.ds, in.clients, in.facility, 1, 1)
		for _, s := range mapLineage(t, clients, facilities, in.metric, commitDelta(clients, facilities)) {
			if s.tables == nil {
				continue
			}
			ctx := fmt.Sprintf("%v %s", in.metric, s.name)
			for i, l := range s.snap.Labels {
				if l.Set == 0 || int(l.Set) > s.tables.NumSets {
					t.Fatalf("%s: label %d carries set id %d of %d", ctx, i, int64(l.Set)-1, s.tables.NumSets)
				}
				if rnn, heat := s.tables.Set(l.Set - 1); !slices.Equal(rnn, l.RNN) || heat != l.Heat {
					t.Fatalf("%s: label %d (%v, heat %v) carries the id of %v, heat %v", ctx, i, l.RNN, l.Heat, rnn, heat)
				}
			}
		}
	}
}

// TestEncodeRefusesForeignSetIDs: when every label carries a set id, the
// encoder plans the pool by id and refuses a label whose id lies outside
// the slab tables' table or names another set or heat there, and two
// labels of different sets under one id. Labels whose ids agree, and a
// list in which some label carries no id (keyed by content), encode to the
// bytes of labels without ids.
func TestEncodeRefusesForeignSetIDs(t *testing.T) {
	t.Parallel()
	sets := [][]int{{0, 2}, {1}}
	heats := []float64{2, 1}
	slabs := []snapshot.SlabLists{
		{Actives: []int32{0}, Arcs: []uint32{0<<1 | 1}, Gaps: []uint32{0, 1}},
		{Actives: []int32{1}, Arcs: []uint32{1 << 1}, Gaps: []uint32{1, 0}},
	}
	tables := &snapshot.SlabTables{
		Xs:      []float64{0, 1},
		Slab:    func(i int) snapshot.SlabLists { return slabs[i] },
		NumSets: len(sets),
		Set:     func(id uint32) ([]int, float64) { return sets[id], heats[id] },
	}
	snap := func(ids ...uint32) *snapshot.Snapshot {
		s := &snapshot.Snapshot{Metric: geom.L2, Labels: []core.Label{
			{Region: geom.Rect{MaxX: 1, MaxY: 1}, Point: geom.Pt(0.5, 0.5), RNN: []int{0, 2}, Heat: 2},
			{Region: geom.Rect{MinX: 1, MaxX: 2, MaxY: 3}, Point: geom.Pt(1.5, 1.5), RNN: []int{1}, Heat: 1},
			{Region: geom.Rect{MinX: 2, MaxX: 3, MaxY: 1}, Point: geom.Pt(2.5, 0.5), RNN: []int{0, 2}, Heat: 2},
		}}
		for i, id := range ids {
			s.Labels[i].Set = id
		}
		return s
	}
	var byContent bytes.Buffer
	if err := snap().Encode(&byContent, tables); err != nil {
		t.Fatal(err)
	}
	for name, ids := range map[string][]uint32{"agreeing ids": {1, 2, 1}, "a label without an id": {1, 0, 1}} {
		var got bytes.Buffer
		if err := snap(ids...).Encode(&got, tables); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), byContent.Bytes()) {
			t.Errorf("%s: encoded to other bytes than labels without ids", name)
		}
	}
	for _, c := range []struct {
		name string
		ids  []uint32
		heat float64
		want string
	}{
		{"outside the table", []uint32{1, 3, 1}, 1, "outside the slab tables"},
		{"another set", []uint32{2, 2, 1}, 1, "names another set"},
		{"another heat", []uint32{1, 2, 1}, 5, "names another set"},
		{"one id for two sets", []uint32{1, 1, 1}, 1, "for different sets"},
	} {
		s := snap(c.ids...)
		s.Labels[1].Heat = c.heat
		if err := s.Encode(&bytes.Buffer{}, tables); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Encode = %v, want an error saying %q", c.name, err, c.want)
		}
	}
}
