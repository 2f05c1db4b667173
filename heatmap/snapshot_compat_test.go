package heatmap

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSnapshotFormatsAgree is the cross-format acceptance criterion: one
// built map saved as format v1 and format v2, restored three ways — v1
// decode, v2 decode, v2 mmap — answers every read identically, down to the
// tile PNG bytes, for all three metrics. The mapped restore must serve
// metadata, queries and tiles without materializing heap structures.
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
			dir := t.TempDir()
			v1Path := filepath.Join(dir, "m1.snap")
			v2Path := filepath.Join(dir, "m2.snap")
			if err := orig.SaveSnapshotFormat(v1Path, 7, SnapshotV1); err != nil {
				t.Fatalf("SaveSnapshotFormat(v1): %v", err)
			}
			if err := orig.SaveSnapshot(v2Path, 7); err != nil {
				t.Fatalf("SaveSnapshot: %v", err)
			}

			fromV1, ver1, err := LoadSnapshot(v1Path)
			if err != nil {
				t.Fatalf("LoadSnapshot(v1): %v", err)
			}
			fromV2, ver2, err := LoadSnapshot(v2Path)
			if err != nil {
				t.Fatalf("LoadSnapshot(v2): %v", err)
			}
			mapped, ver3, err := OpenSnapshot(v2Path)
			if err != nil {
				t.Fatalf("OpenSnapshot: %v", err)
			}
			if ver1 != 7 || ver2 != 7 || ver3 != 7 {
				t.Errorf("map versions = %d/%d/%d, want 7", ver1, ver2, ver3)
			}
			if got := mapped.Residency(); got != "mapped" {
				t.Errorf("Residency after OpenSnapshot = %q, want mapped", got)
			}

			// Metadata, queries and tiles first: all must be served off the
			// mapping without materializing.
			maps := map[string]*Map{"v1-decode": fromV1, "v2-decode": fromV2, "v2-mmap": mapped}
			wantMaxHeat, wantMaxRegion := orig.MaxHeat()
			for name, m := range maps {
				if m.NumClients() != orig.NumClients() || m.NumFacilities() != orig.NumFacilities() {
					t.Errorf("%s: set sizes differ", name)
				}
				if m.NumRegions() != orig.NumRegions() {
					t.Errorf("%s: NumRegions = %d, want %d", name, m.NumRegions(), orig.NumRegions())
				}
				gotMaxHeat, gotMaxRegion := m.MaxHeat()
				if gotMaxHeat != wantMaxHeat || !reflect.DeepEqual(gotMaxRegion, wantMaxRegion) {
					t.Errorf("%s: MaxHeat diverges", name)
				}
				if m.Summary() != orig.Summary() {
					t.Errorf("%s: Summary = %+v, want %+v", name, m.Summary(), orig.Summary())
				}
				if m.Stats() != orig.Stats() {
					t.Errorf("%s: Stats diverge", name)
				}
				if m.Bounds() != orig.Bounds() {
					t.Errorf("%s: Bounds = %v, want %v", name, m.Bounds(), orig.Bounds())
				}
				if name == "v2-mmap" {
					// Saving built orig's slab index, so the mapped view's
					// counts must match it exactly.
					_, slabs, cells := orig.SlabIndexStats()
					if mb, ms, mc := m.SlabIndexStats(); !mb || ms != slabs || mc != cells {
						t.Errorf("%s: SlabIndexStats = %v/%d/%d, want true/%d/%d", name, mb, ms, mc, slabs, cells)
					}
				}
				for _, p := range []Point{Pt(250, 250), Pt(10, 490), Pt(333.5, 41.25), Pt(-100, -100)} {
					gh, gr := m.HeatAt(p)
					wh, wr := orig.HeatAt(p)
					if gh != wh || !reflect.DeepEqual(gr, wr) {
						t.Errorf("%s: HeatAt(%v) = %v/%v, want %v/%v", name, p, gh, gr, wh, wr)
					}
				}
				full := orig.Bounds()
				sub := Rect{MinX: full.MinX, MinY: full.MinY,
					MaxX: (full.MinX + full.MaxX) / 2, MaxY: (full.MinY + full.MaxY) / 2}
				for _, b := range []Rect{full, sub} {
					if !bytes.Equal(tilePNG(t, m, b), tilePNG(t, orig, b)) {
						t.Errorf("%s: rendered PNG for %v differs", name, b)
					}
				}
			}
			if got := mapped.Residency(); got != "mapped" {
				t.Errorf("Residency after decode-free reads = %q, want mapped", got)
			}

			// Region enumeration materializes the mapped map and must agree.
			wantRegions := orig.Regions()
			for name, m := range maps {
				if !reflect.DeepEqual(m.Regions(), wantRegions) {
					t.Errorf("%s: Regions diverge", name)
				}
			}
			if got := mapped.Residency(); got != "mapped+heap" {
				t.Errorf("Residency after Regions = %q, want mapped+heap", got)
			}
		})
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

// TestMappedOptimal: the optimal-location engine works on a v2 snapshot
// restored by decoding and by mmap (materializing it) and matches the
// original build exactly, geometry included, for every metric. A restored
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
			decoded, _, err := LoadSnapshot(path)
			if err != nil {
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
			for name, m := range map[string]*Map{"v2-decode": decoded, "v2-mmap": mapped} {
				got, err := m.OptimalTopK(10, OptimalConstraints{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: OptimalTopK diverges:\n got %+v\nwant %+v", name, got, want)
				}
			}
		})
	}
}
