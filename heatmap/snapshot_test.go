package heatmap

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/render"
)

// snapshotTestSets returns a small deterministic workload.
func snapshotTestSets(t *testing.T) (clients, facilities []Point) {
	t.Helper()
	ds := dataset.Uniform(400, geom.Rect{MaxX: 500, MaxY: 500}, 11)
	return ds.SampleClientsFacilities(150, 50, 3)
}

// stored returns st as a snapshot file stores it: without the run's
// wall-clock duration, which a map opened from the file reads as 0.
func stored(st core.Stats) core.Stats {
	st.Duration = 0
	return st
}

// tilePNG renders a deterministic sub-rectangle PNG, normalized against a
// fixed range the way the server normalizes tiles.
func tilePNG(t *testing.T, m *Map, bounds Rect) []byte {
	t.Helper()
	raster, err := m.RasterizeRect(bounds, 64, 64)
	if err != nil {
		t.Fatalf("RasterizeRect: %v", err)
	}
	var buf bytes.Buffer
	if err := raster.WritePNGScaled(&buf, render.Grayscale, 0, 10); err != nil {
		t.Fatalf("WritePNGScaled: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripAcrossMetricsAndMeasures is the acceptance criterion:
// SaveSnapshot -> OpenSnapshot of a built map is byte-identical for region
// labels, heat values and rendered tile PNGs, for every metric and every
// serializable measure — so connectivity edges and the capacity context
// round-trip through the snapshot's meta section.
func TestSnapshotRoundTripAcrossMetricsAndMeasures(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	weights := make([]float64, len(clients))
	for i := range weights {
		weights[i] = 1 + float64(i%5)/2
	}
	edges := make([][2]int, 0, len(clients)-1)
	for i := 0; i+1 < len(clients); i += 2 {
		edges = append(edges, [2]int{i, i + 1})
	}

	for _, metric := range []Metric{LInf, L1, L2} {
		assignment, err := NearestAssignment(clients, facilities, metric)
		if err != nil {
			t.Fatal(err)
		}
		capacities := make([]float64, len(facilities))
		for i := range capacities {
			capacities[i] = 3
		}
		measures := map[string]Measure{
			"size":         Size(),
			"weighted":     Weighted(weights),
			"connectivity": Connectivity(edges),
			"capacity":     Capacity(assignment, capacities, 4),
		}
		for name, measure := range measures {
			t.Run(fmt.Sprintf("%v_%s", metric, name), func(t *testing.T) {
				t.Parallel()
				orig, err := Build(Config{
					Clients: clients, Facilities: facilities,
					Metric: metric, Measure: measure,
				})
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				path := filepath.Join(t.TempDir(), "m.snap")
				if err := orig.SaveSnapshot(path, 5); err != nil {
					t.Fatalf("SaveSnapshot: %v", err)
				}
				loaded, version, err := OpenSnapshot(path)
				if err != nil {
					t.Fatalf("OpenSnapshot: %v", err)
				}
				if version != 5 {
					t.Errorf("loaded map version = %d, want 5", version)
				}

				if !reflect.DeepEqual(loaded.Regions(), orig.Regions()) {
					t.Error("region labels differ after round-trip")
				}
				gotMax, _ := loaded.MaxHeat()
				wantMax, _ := orig.MaxHeat()
				if gotMax != wantMax {
					t.Errorf("max heat = %v, want %v", gotMax, wantMax)
				}
				if loaded.Bounds() != orig.Bounds() {
					t.Errorf("bounds = %v, want %v", loaded.Bounds(), orig.Bounds())
				}
				if loaded.MeasureName() != orig.MeasureName() {
					t.Errorf("measure = %q, want %q", loaded.MeasureName(), orig.MeasureName())
				}
				if loaded.NumClients() != orig.NumClients() || loaded.NumFacilities() != orig.NumFacilities() {
					t.Error("set sizes differ after round-trip")
				}
				for _, p := range []Point{Pt(250, 250), Pt(10, 490), Pt(333.5, 41.25), Pt(-100, -100)} {
					gh, gr := loaded.HeatAt(p)
					wh, wr := orig.HeatAt(p)
					if gh != wh || !reflect.DeepEqual(gr, wr) {
						t.Errorf("HeatAt(%v) = %v/%v, want %v/%v", p, gh, gr, wh, wr)
					}
				}

				full := orig.Bounds()
				sub := Rect{MinX: full.MinX, MinY: full.MinY,
					MaxX: (full.MinX + full.MaxX) / 2, MaxY: (full.MinY + full.MaxY) / 2}
				for _, b := range []Rect{full, sub} {
					if !bytes.Equal(tilePNG(t, loaded, b), tilePNG(t, orig, b)) {
						t.Errorf("rendered PNG for %v differs after round-trip", b)
					}
				}
			})
		}
	}
}

// TestSnapshotRejectsCustomMeasure asserts the documented limitation.
func TestSnapshotRejectsCustomMeasure(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	m, err := Build(Config{
		Clients: clients, Facilities: facilities, Metric: L2,
		Measure: CustomMeasure("mine", func(cs []int) float64 { return float64(len(cs)) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(1); err == nil {
		t.Error("Snapshot of a custom-measure map succeeded, want error")
	}
}

// TestSaveSnapshotStreams pins the streamed save: saving heatmapd's default
// map (NYC L2 2000/600) after one commit — a 51 MiB file, nearly all of it
// slab sections — allocates less than a quarter of the bytes it writes.
// A save that concatenated the slab lists into flat tables, or buffered the
// file, would allocate several times the file.
func TestSaveSnapshotStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and saves heatmapd's default map")
	}
	clients, facilities := heatmapdDefaultSets()
	m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: L2})
	if err != nil {
		t.Fatal(err)
	}
	m.HeatAt(clients[0]) // builds the slab index, as heatmapd's first render does
	next, _, err := m.ApplyDelta(Delta{AddClients: []Point{Pt((clients[1].X+clients[2].X)/2, (clients[1].Y+clients[2].Y)/2)}, RemoveClients: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "default.snap")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := next.SaveSnapshot(path, 2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("saving %d bytes allocated %d bytes", st.Size(), alloc)
	if 4*alloc >= uint64(st.Size()) {
		t.Errorf("saving %d bytes allocated %d bytes, want less than a quarter", st.Size(), alloc)
	}
}

// TestSaveIsAFunctionOfTheMap: two independent builds of one input save
// byte-identical files, for every metric, slab index included, so a byte
// comparison of two files can confirm that they store one map. The file
// keeps no wall-clock time of the build.
func TestSaveIsAFunctionOfTheMap(t *testing.T) {
	t.Parallel()
	clients, facilities := snapshotTestSets(t)
	for _, metric := range []Metric{LInf, L1, L2} {
		dir := t.TempDir()
		var files [2][]byte
		for i := range files {
			m, err := Build(Config{Clients: clients, Facilities: facilities, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("m%d.snap", i))
			if err := m.SaveSnapshot(path, 1); err != nil {
				t.Fatal(err)
			}
			if files[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			if built, _, _ := m.SlabIndexStats(); !built {
				t.Fatalf("%v: the save wrote no slab index", metric)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%v: two builds of one input saved different files (%d and %d bytes)", metric, len(files[0]), len(files[1]))
		}
	}
}
