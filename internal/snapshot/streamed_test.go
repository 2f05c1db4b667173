package snapshot_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/delta"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/pointloc"
	"rnnheatmap/internal/postprocess"
	"rnnheatmap/internal/snapshot"
)

// savedMap is one map as heatmap.Map.SaveSnapshot hands it to the encoder:
// its snapshot, and its slab index's tables (nil: no slab sections).
type savedMap struct {
	name   string
	snap   *snapshot.Snapshot
	tables *snapshot.SlabTables
}

// mapLineage builds a map over the points the way heatmap.Build does,
// commits d to it, and commits d again to the map opened from the built
// map's file; each commit resweeps into the lineage's pool and patches the
// slab index it derives from, as heatmap.Map.ApplyDeltaBatch does. It
// returns every state a save writes — built, committed, opened (saved at
// another version, so every slab aliases the mapped file) and opened then
// committed — each with its slab index and without.
func mapLineage(t *testing.T, clients, facilities []geom.Point, metric geom.Metric, d delta.Delta) []savedMap {
	t.Helper()
	measure := influence.Size()
	spec, err := influence.SpecOf(measure)
	if err != nil {
		t.Fatal(err)
	}
	snapOf := func(version uint64, clients, facilities []geom.Point, circles []nncircle.NNCircle, res *core.Result) *snapshot.Snapshot {
		sum := postprocess.Summarize(res.Labels)
		return &snapshot.Snapshot{
			MapVersion: version, Metric: metric, Algorithm: "crest", Workers: 2, Measure: spec,
			Clients: clients, Facilities: facilities, Circles: circles,
			Labels: res.Labels, MaxHeat: res.MaxHeat, MaxLabel: res.MaxLabel, Stats: res.Stats,
			Summary: &sum,
		}
	}
	commit := func(version uint64, st delta.State, from *pointloc.Index) (*snapshot.Snapshot, *pointloc.Index) {
		st.Pool = from.Pool()
		out, err := delta.ApplyBatch(st, []delta.Delta{d}, delta.Options{Metric: metric, Measure: measure, Workers: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := from.Patch(out.State.Circles, out.Stats.DirtySpans, out.Events, pointloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return snapOf(version, out.State.Clients, out.State.Facilities, out.State.Circles, out.Result), ix
	}

	circles, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CREST(circles, core.Options{Measure: measure, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pointloc.Build(circles, measure, pointloc.Options{Pool: res.LabelPool()})
	if err != nil {
		t.Fatal(err)
	}
	built := snapOf(1, clients, facilities, circles, res)
	committed, cix := commit(2, delta.State{Clients: clients, Facilities: facilities, Circles: circles, Labels: res.Labels}, ix)

	file, err := snapshot.EncodeOracle(built, ix.ExportTables())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "built.snap")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	oix, err := pointloc.Open(v, measure)
	if err != nil {
		t.Fatal(err)
	}
	opened := v.Snapshot()
	opened.MapVersion = 3
	sum := v.Meta().Summary
	opened.Summary = &sum
	reopened, rix := commit(4, delta.State{Clients: opened.Clients, Facilities: opened.Facilities, Circles: opened.Circles, Labels: opened.Labels}, oix)

	var out []savedMap
	for _, s := range []struct {
		name string
		snap *snapshot.Snapshot
		ix   *pointloc.Index
	}{{"built", built, ix}, {"committed", committed, cix}, {"opened", opened, oix}, {"opened+committed", reopened, rix}} {
		out = append(out, savedMap{s.name, s.snap, s.ix.ExportTables()}, savedMap{s.name + "/no-slabs", s.snap, nil})
	}
	return out
}

// matchWriter checks what it is given against want, in order, keeping the
// offset of the first byte that differs (-1 while none does).
type matchWriter struct {
	want []byte
	off  int
	diff int
}

func (m *matchWriter) Write(b []byte) (int, error) {
	if m.diff < 0 {
		end := min(m.off+len(b), len(m.want))
		if !bytes.Equal(b[:end-m.off], m.want[m.off:end]) || end-m.off < len(b) {
			m.diff = m.off
			for m.diff < end && m.want[m.diff] == b[m.diff-m.off] {
				m.diff++
			}
		}
	}
	m.off += len(b)
	return len(b), nil
}

// assertOracleBytes holds Encode, with its array views and with every value
// converted, to the retained encoder's bytes for s.
func assertOracleBytes(t *testing.T, ctx string, s savedMap) {
	t.Helper()
	want, err := snapshot.EncodeOracle(s.snap, s.tables)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []struct {
		name string
		run  func(io.Writer) error
	}{
		{"aliased", func(w io.Writer) error { return s.snap.Encode(w, s.tables) }},
		{"converted", func(w io.Writer) error { return snapshot.EncodeConverted(s.snap, w, s.tables) }},
	} {
		m := &matchWriter{want: want, diff: -1}
		if err := enc.run(m); err != nil {
			t.Fatalf("%s %s %s: %v", ctx, s.name, enc.name, err)
		}
		if m.diff >= 0 || m.off != len(want) {
			t.Errorf("%s %s %s: wrote %d bytes differing from the retained encoder's %d at byte %d",
				ctx, s.name, enc.name, m.off, len(want), m.diff)
		}
	}
}

// samplePoints draws clients and facilities the way the end-to-end plan
// workload and heatmapd do: a pool of twice the map's size from poolSeed,
// sampled with sampleSeed.
func samplePoints(t *testing.T, ds string, nClients, nFacilities int, poolSeed, sampleSeed int64) ([]geom.Point, []geom.Point) {
	t.Helper()
	pool, err := dataset.ByName(ds, 2*(nClients+nFacilities), poolSeed)
	if err != nil {
		t.Fatal(err)
	}
	clients, facilities := pool.SampleClientsFacilities(nClients, nFacilities, sampleSeed)
	return clients, facilities
}

// commitDelta adds a client and a facility between existing points and
// removes a client.
func commitDelta(clients, facilities []geom.Point) delta.Delta {
	mid := func(a, b geom.Point) geom.Point { return geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2) }
	return delta.Delta{
		AddClients:    []geom.Point{mid(clients[1], clients[2])},
		RemoveClients: []int{3},
		AddFacilities: []geom.Point{mid(facilities[0], clients[5])},
	}
}

// TestEncodeMatchesRetainedEncoder: the streaming encoder writes, byte for
// byte, the file the encoder it replaced wrote — flat concatenated tables
// and a whole-file buffer — on the three input shapes of the end-to-end
// plan workload (one per metric) and, outside -short, on heatmapd's default
// map: built, committed, opened from its file and saved at another
// version, and opened then committed, with slab sections and without, from
// the array views and with every value converted. WriteFile writes the
// same bytes to disk.
func TestEncodeMatchesRetainedEncoder(t *testing.T) {
	inputs := []struct {
		name              string
		ds                string
		metric            geom.Metric
		clients, facility int
		sampleSeed        int64
	}{
		{"plan-linf-uniform", "Uniform", geom.LInf, 1000, 100, 1},
		{"plan-l1-zipfian", "Zipfian", geom.L1, 1000, 100, 1},
		{"plan-l2-nyc", "NYC", geom.L2, 600, 180, 1},
		{"heatmapd-default", "NYC", geom.L2, 2000, 600, 2},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if in.clients > 1000 && testing.Short() {
				t.Skip("the default map's 51 MiB file takes seconds to encode three ways")
			}
			t.Parallel()
			clients, facilities := samplePoints(t, in.ds, in.clients, in.facility, 1, in.sampleSeed)
			for _, s := range mapLineage(t, clients, facilities, in.metric, commitDelta(clients, facilities)) {
				assertOracleBytes(t, in.name, s)
			}
		})
	}
	t.Run("WriteFile", func(t *testing.T) {
		t.Parallel()
		clients, facilities := samplePoints(t, "NYC", 200, 60, 1, 3)
		dir := t.TempDir()
		for i, s := range mapLineage(t, clients, facilities, geom.L2, commitDelta(clients, facilities)) {
			want, err := snapshot.EncodeOracle(s.snap, s.tables)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("m%d.snap", i))
			if err := s.snap.WriteFile(path, s.tables); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: WriteFile wrote %d bytes, not the retained encoder's %d", s.name, len(got), len(want))
			}
		}
	})
}
