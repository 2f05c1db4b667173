package heatmap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSnapshotFormatsAgree is the persistence acceptance criterion: one
// built map saved with SaveSnapshot and restored with OpenSnapshot answers
// every read identically to the original, down to the tile PNG bytes, for
// all three metrics. The mapped restore must serve metadata, queries and
// tiles without materializing heap structures.
func TestSnapshotFormatsAgree(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	for _, metric := range []Metric{LInf, L1, L2} {
		metric := metric
		t.Run(fmt.Sprintf("%v", metric), func(t *testing.T) {
			t.Parallel()
			orig, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			path := filepath.Join(t.TempDir(), "m.snap")
			if err := orig.SaveSnapshot(path, 7); err != nil {
				t.Fatalf("SaveSnapshot: %v", err)
			}
			m, version, err := OpenSnapshot(path)
			if err != nil {
				t.Fatalf("OpenSnapshot: %v", err)
			}
			if version != 7 {
				t.Errorf("map version = %d, want 7", version)
			}
			if got := m.Residency(); got != "mapped" {
				t.Errorf("Residency after OpenSnapshot = %q, want mapped", got)
			}

			// Metadata, queries and tiles first: all must be served off the
			// mapping without materializing.
			if m.NumClients() != orig.NumClients() || m.NumFacilities() != orig.NumFacilities() {
				t.Error("set sizes differ")
			}
			if m.NumRegions() != orig.NumRegions() {
				t.Errorf("NumRegions = %d, want %d", m.NumRegions(), orig.NumRegions())
			}
			wantMaxHeat, wantMaxRegion := orig.MaxHeat()
			gotMaxHeat, gotMaxRegion := m.MaxHeat()
			if gotMaxHeat != wantMaxHeat || !reflect.DeepEqual(gotMaxRegion, wantMaxRegion) {
				t.Error("MaxHeat diverges")
			}
			if m.Summary() != orig.Summary() {
				t.Errorf("Summary = %+v, want %+v", m.Summary(), orig.Summary())
			}
			if m.Stats() != orig.Stats() {
				t.Error("Stats diverge")
			}
			if m.Bounds() != orig.Bounds() {
				t.Errorf("Bounds = %v, want %v", m.Bounds(), orig.Bounds())
			}
			// Saving built orig's slab index, so the mapped view's counts
			// must match it exactly.
			_, slabs, cells := orig.SlabIndexStats()
			if mb, ms, mc := m.SlabIndexStats(); !mb || ms != slabs || mc != cells {
				t.Errorf("SlabIndexStats = %v/%d/%d, want true/%d/%d", mb, ms, mc, slabs, cells)
			}
			for _, p := range []Point{Pt(250, 250), Pt(10, 490), Pt(333.5, 41.25), Pt(-100, -100)} {
				gh, gr := m.HeatAt(p)
				wh, wr := orig.HeatAt(p)
				if gh != wh || !reflect.DeepEqual(gr, wr) {
					t.Errorf("HeatAt(%v) = %v/%v, want %v/%v", p, gh, gr, wh, wr)
				}
			}
			full := orig.Bounds()
			sub := Rect{MinX: full.MinX, MinY: full.MinY,
				MaxX: (full.MinX + full.MaxX) / 2, MaxY: (full.MinY + full.MaxY) / 2}
			for _, b := range []Rect{full, sub} {
				if !bytes.Equal(tilePNG(t, m, b), tilePNG(t, orig, b)) {
					t.Errorf("rendered PNG for %v differs", b)
				}
			}
			if got := m.Residency(); got != "mapped" {
				t.Errorf("Residency after decode-free reads = %q, want mapped", got)
			}

			// Region enumeration materializes the mapped map and must agree.
			if !reflect.DeepEqual(m.Regions(), orig.Regions()) {
				t.Error("Regions diverge")
			}
			if got := m.Residency(); got != "mapped+heap" {
				t.Errorf("Residency after Regions = %q, want mapped+heap", got)
			}
		})
	}
}

// TestOpenSnapshotRefusesOtherVersions: a file carrying the snapshot magic
// but another format version — the retired format 1 or a future 3 — is
// refused with an error naming the file and the version, never misread.
func TestOpenSnapshotRefusesOtherVersions(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	orig, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.snap")
	if err := orig.SaveSnapshot(path, 1); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint16{1, 3} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(b[4:6], version)
		p := filepath.Join(dir, fmt.Sprintf("v%d.snap", version))
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := OpenSnapshot(p)
		if err == nil || m != nil {
			t.Fatalf("OpenSnapshot of a version-%d file = (%v, %v), want a refusal", version, m, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", version)) || !strings.Contains(msg, p) {
			t.Errorf("OpenSnapshot of a version-%d file: %q does not name the file and the version", version, msg)
		}
	}
}

// TestMappedApplyDeltaPromotes: mutating a mapped map promotes it to a heap
// copy whose answers match the same delta applied to the original build.
func TestMappedApplyDeltaPromotes(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	orig, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := orig.SaveSnapshot(path, 1); err != nil {
		t.Fatal(err)
	}
	mapped, _, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{
		AddClients:    []Point{Pt(100, 100), Pt(400, 250)},
		RemoveClients: []int{3},
		AddFacilities: []Point{Pt(250, 250)},
	}
	next1, _, err := orig.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta on original: %v", err)
	}
	next2, _, err := mapped.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta on mapped map: %v", err)
	}
	if got := mapped.Residency(); got != "mapped+heap" {
		t.Errorf("receiver Residency after ApplyDelta = %q, want mapped+heap", got)
	}
	if got := next2.Residency(); got != "heap" {
		t.Errorf("promoted map Residency = %q, want heap", got)
	}
	if !reflect.DeepEqual(next1.Regions(), next2.Regions()) {
		t.Error("regions diverge after ApplyDelta on a mapped map")
	}
	if !bytes.Equal(tilePNG(t, next1, next1.Bounds()), tilePNG(t, next2, next2.Bounds())) {
		t.Error("pixels diverge after ApplyDelta on a mapped map")
	}
	// The receiver keeps serving its pre-delta answers off the mapping.
	if !bytes.Equal(tilePNG(t, mapped, orig.Bounds()), tilePNG(t, orig, orig.Bounds())) {
		t.Error("mapped receiver changed after ApplyDelta")
	}
}

// TestOpenedMapCommitPatches: a commit patches the slab index of the map it
// derives from — the index a built map materialized, or the one a map
// opened from its snapshot finds in the file — whatever share of the
// arrangement it dirties, so the committed map has its index before any
// query, interns into the one pool that index draws its ids from, and
// answers exactly as a fresh build over the updated sets: regions, queries
// on circle boundaries, tiles, and the optimal ranking with its face
// geometry, for every metric. The second commit closes the facilities that
// serve the most clients and dirties more than a third of the events.
func TestOpenedMapCommitPatches(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	d := Delta{RemoveClients: []int{3}, AddFacilities: []Point{Pt(490.5, 10.25)}}
	for _, metric := range []Metric{LInf, L1, L2} {
		metric := metric
		t.Run(fmt.Sprintf("%v", metric), func(t *testing.T) {
			t.Parallel()
			orig, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "m.snap")
			if err := orig.SaveSnapshot(path, 1); err != nil {
				t.Fatal(err)
			}
			mapped, _, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range map[string]*Map{"built": orig, "opened": mapped} {
				next, st, err := m.ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				assertCommitPatched(t, name+" commit 1", next, st)
				next, st, err = next.ApplyDelta(Delta{RemoveFacilities: busiestFacilities(next, 12)})
				if err != nil {
					t.Fatal(err)
				}
				if 100*st.EventsReswept <= 35*st.EventsTotal {
					t.Fatalf("%s commit 2 reswept %d of %d events; it must dirty more than 35%%", name, st.EventsReswept, st.EventsTotal)
				}
				assertCommitPatched(t, name+" commit 2", next, st)
			}
		})
	}
}

// busiestFacilities returns the indexes of the n facilities that serve the
// most clients, descending, so that removing them in order keeps each
// index valid under swap-remove.
func busiestFacilities(m *Map, n int) []int {
	served := make([]int, m.NumFacilities())
	for _, nc := range m.circles {
		served[nc.Facility]++
	}
	order := make([]int, len(served))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return served[order[i]] > served[order[j]] })
	out := order[:n]
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// assertCommitPatched requires a committed map to splice rather than
// rebuild, to carry a patched slab index before its first query whose ids
// come from the map's own label pool, and to answer as a fresh build.
func assertCommitPatched(t *testing.T, ctx string, next *Map, st DeltaStats) {
	t.Helper()
	if st.Rebuilt {
		t.Fatalf("%s: the commit rebuilt instead of splicing", ctx)
	}
	ix, built := next.builtPointLoc()
	if !built || ix == nil {
		t.Fatalf("%s: the committed map has no slab index before its first query: the commit did not patch", ctx)
	}
	if pool := next.result.LabelPool(); pool == nil || pool != ix.Pool() {
		t.Fatalf("%s: the map's label pool is not the one its slab index draws ids from", ctx)
	}
	fresh, err := Build(Config{Clients: next.cfg.Clients, Facilities: next.cfg.Facilities, Metric: next.cfg.Metric})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next.Regions(), fresh.Regions()) {
		t.Errorf("%s: regions diverge from a fresh build", ctx)
	}
	for _, nc := range fresh.circles {
		c, r := nc.Circle.Center, nc.Circle.Radius
		for _, p := range []Point{c, Pt(c.X+r, c.Y), Pt(c.X, c.Y-r), Pt(c.X-r/2, c.Y+r/2)} {
			gh, gr := next.HeatAt(p)
			wh, wr := fresh.HeatAt(p)
			if math.Float64bits(gh) != math.Float64bits(wh) || !reflect.DeepEqual(gr, wr) {
				t.Fatalf("%s: HeatAt(%v) = %v/%v, a fresh build answers %v/%v", ctx, p, gh, gr, wh, wr)
			}
		}
	}
	full := fresh.Bounds()
	sub := Rect{MinX: full.MinX, MinY: full.MinY, MaxX: (full.MinX + full.MaxX) / 2, MaxY: (full.MinY + full.MaxY) / 2}
	for _, b := range []Rect{full, sub} {
		if !bytes.Equal(tilePNG(t, next, b), tilePNG(t, fresh, b)) {
			t.Errorf("%s: rendered PNG for %v differs from a fresh build's", ctx, b)
		}
	}
	want, err := fresh.OptimalTopK(10, OptimalConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := next.OptimalTopK(10, OptimalConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 10 || !want[0].HasGeometry {
		t.Fatalf("%s: a fresh build ranks %d regions (geometry %v), want 10 with geometry", ctx, len(want), len(want) > 0 && want[0].HasGeometry)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: OptimalTopK diverges from a fresh build:\n got %+v\nwant %+v", ctx, got, want)
	}
}

// TestSaveMappedSnapshotCopiesFile: saving a map opened from a file that
// carries its slab index, at the file's own version, writes the file's bytes
// without materializing the map, for every metric. Another version, or a
// file without slab sections, takes the encoding path: it materializes, and
// the latter gains the slab index it lacked.
func TestSaveMappedSnapshotCopiesFile(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	for _, metric := range []Metric{LInf, L1, L2} {
		orig, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		src := filepath.Join(dir, "src.snap")
		if err := orig.SaveSnapshot(src, 4); err != nil {
			t.Fatal(err)
		}
		mapped, _, err := OpenSnapshot(src)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, "dst.snap")
		if err := mapped.SaveSnapshot(dst, 4); err != nil {
			t.Fatal(err)
		}
		sb, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, db) {
			t.Errorf("%v: saving a mapped map at its own version wrote %d bytes that differ from the %d-byte source", metric, len(db), len(sb))
		}
		if got := mapped.Residency(); got != "mapped" {
			t.Errorf("%v: Residency after the copy = %q, want mapped", metric, got)
		}
		if err := mapped.SaveSnapshot(dst, 5); err != nil {
			t.Fatal(err)
		}
		if got := mapped.Residency(); got != "mapped+heap" {
			t.Errorf("%v: Residency after a save at another version = %q, want mapped+heap", metric, got)
		}
		if m, v, err := OpenSnapshot(dst); err != nil || v != 5 || !bytes.Equal(tilePNG(t, m, orig.Bounds()), tilePNG(t, orig, orig.Bounds())) {
			t.Errorf("%v: the re-encoded save reopens at version %d (err %v), want 5 with the original's pixels", metric, v, err)
		}
	}

	bare, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2, NoSlabIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "bare.snap")
	if err := bare.SaveSnapshot(src, 1); err != nil {
		t.Fatal(err)
	}
	mapped, _, err := OpenSnapshot(src)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.view.HasSlabIndex() {
		t.Fatal("a NoSlabIndex map's snapshot carries slab sections")
	}
	dst := filepath.Join(dir, "indexed.snap")
	if err := mapped.SaveSnapshot(dst, 1); err != nil {
		t.Fatal(err)
	}
	indexed, _, err := OpenSnapshot(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !indexed.view.HasSlabIndex() {
		t.Error("re-saving a mapped map without slab sections did not add them")
	}
}

// TestMappedOptimal: the optimal-location engine works on a snapshot
// restored by OpenSnapshot (materializing it) and matches the original
// build exactly, geometry included, for every metric. A restored
// map's labels and slab gaps come from different pools than the build's, so
// the ranking and the geometry join must compare sets by content.
func TestMappedOptimal(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	for _, metric := range []Metric{LInf, L1, L2} {
		metric := metric
		t.Run(fmt.Sprintf("%v", metric), func(t *testing.T) {
			t.Parallel()
			orig, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "m.snap")
			if err := orig.SaveSnapshot(path, 1); err != nil {
				t.Fatal(err)
			}
			mapped, _, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := orig.OptimalTopK(10, OptimalConstraints{})
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != 10 {
				t.Fatalf("built map ranks %d regions, want 10", len(want))
			}
			for _, r := range want {
				if !r.HasGeometry || r.Area <= 0 || r.Cells == 0 {
					t.Fatalf("built map's region %v has no geometry to compare: %+v", r.RNN, r)
				}
			}
			got, err := mapped.OptimalTopK(10, OptimalConstraints{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("OptimalTopK diverges:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestSaveSnapshotFormat: the deprecated format-naming save writes exactly
// SaveSnapshot's bytes for SnapshotV2 and refuses every other value without
// touching the target path.
func TestSaveSnapshotFormat(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := filepath.Join(dir, "want.snap")
	if err := m.SaveSnapshot(want, 3); err != nil {
		t.Fatal(err)
	}
	got := filepath.Join(dir, "got.snap")
	if err := m.SaveSnapshotFormat(got, 3, SnapshotV2); err != nil {
		t.Fatalf("SaveSnapshotFormat(SnapshotV2): %v", err)
	}
	wb, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	// Stats.Duration is part of the file and identical here: both saves
	// encode the same built map.
	if !bytes.Equal(gb, wb) {
		t.Error("SaveSnapshotFormat(SnapshotV2) bytes differ from SaveSnapshot's")
	}
	for _, f := range []SnapshotFormat{0, 1, 3} {
		p := filepath.Join(dir, fmt.Sprintf("f%d.snap", f))
		if err := m.SaveSnapshotFormat(p, 3, f); err == nil {
			t.Errorf("SaveSnapshotFormat(%d) succeeded, want a refusal", f)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("SaveSnapshotFormat(%d) left a file behind (stat err %v)", f, err)
		}
	}
}
