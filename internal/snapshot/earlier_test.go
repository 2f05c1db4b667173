package snapshot_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/pointloc"
	"rnnheatmap/internal/render"
	"rnnheatmap/internal/snapshot"
)

// withHeights returns the tables of an L2 index with the heights earlier
// builds stored: each slab's lists carry, beside its arcs, every arc's
// height at the slab's midpoint (the emission's ordering key), with extra
// heights (or, when negative, fewer) on the first slab that has arcs.
func withHeights(t *testing.T, tables *snapshot.SlabTables, v *snapshot.View, extra int) *snapshot.SlabTables {
	t.Helper()
	out := *tables
	first := -1
	for i := range tables.Xs {
		if len(tables.Slab(i).Arcs) > 0 {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no slab has arcs")
	}
	out.Slab = func(i int) snapshot.SlabLists {
		sl := tables.Slab(i)
		x1 := tables.Xs[i]
		if i+1 < len(tables.Xs) {
			x1 = tables.Xs[i+1]
		}
		xm := (tables.Xs[i] + x1) / 2
		sl.Edges = make([]float64, len(sl.Arcs))
		for k, a := range sl.Arcs {
			lo, hi, _ := v.CircleAt(int(a >> 1)).Circle.YAtX(xm)
			sl.Edges[k] = lo
			if a&1 != 0 {
				sl.Edges[k] = hi
			}
		}
		if i == first {
			if extra < 0 {
				sl.Edges = sl.Edges[:len(sl.Edges)+extra]
			}
			for k := 0; k < extra; k++ {
				sl.Edges = append(sl.Edges, sl.Edges[len(sl.Edges)-1])
			}
		}
		return sl
	}
	return &out
}

// tileBytes renders bounds of m as a 256-pixel PNG tile, on a fixed heat
// scale.
func tileBytes(t *testing.T, m *heatmap.Map, bounds heatmap.Rect) []byte {
	t.Helper()
	raster, err := m.RasterizeRect(bounds, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := raster.WritePNGScaled(&buf, render.Grayscale, 0, 20); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenEarlierL2Layout: an L2 file in the layout earlier builds wrote,
// which stores one height per arc in its slab edge section, opens, and its
// map answers as the map of the file this build writes for the same map
// does: at every circle's center and the four extremes of its boundary,
// in one batch, in two tiles and in OptimalTopK(10). Saved at another
// version, it writes this build's layout, byte for byte what the new
// file's map writes. A file whose heights section has any other length is
// refused with an error naming the section.
func TestOpenEarlierL2Layout(t *testing.T) {
	t.Parallel()
	clients, facilities := samplePoints(t, "NYC", 600, 180, 1, 1)
	built, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: heatmap.L2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	newPath := filepath.Join(dir, "new.snap")
	if err := built.SaveSnapshot(newPath, 1); err != nil {
		t.Fatal(err)
	}

	// The earlier layout of the same map: the new file's snapshot and slab
	// index, with the heights put back, through the retained encoder.
	v, err := snapshot.Open(newPath)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	ix, err := pointloc.Open(v, influence.Size())
	if err != nil {
		t.Fatal(err)
	}
	tables, arcs := ix.ExportTables(), 0
	for i := range tables.Xs {
		arcs += len(tables.Slab(i).Arcs)
	}
	earlier := func(name string, extra int) (string, int) {
		file, err := snapshot.EncodeOracle(v.Snapshot(), withHeights(t, tables, v, extra))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		return path, len(file)
	}
	oldPath, oldSize := earlier("earlier.snap", 0)
	newFile, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if oldSize != len(newFile)+8*arcs {
		t.Fatalf("the earlier layout is %d bytes, want the new file's %d plus 8 for each of %d arcs", oldSize, len(newFile), arcs)
	}

	om, version, err := heatmap.OpenSnapshot(oldPath)
	if err != nil {
		t.Fatalf("opening the earlier layout: %v", err)
	}
	nm, _, err := heatmap.OpenSnapshot(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Errorf("the earlier layout opened at version %d, want 1", version)
	}
	var probes []heatmap.Point
	for i := 0; i < v.NumCircles(); i++ {
		c := v.CircleAt(i).Circle
		r := c.Radius
		probes = append(probes, c.Center,
			heatmap.Pt(c.Center.X-r, c.Center.Y), heatmap.Pt(c.Center.X+r, c.Center.Y),
			heatmap.Pt(c.Center.X, c.Center.Y-r), heatmap.Pt(c.Center.X, c.Center.Y+r))
	}
	for _, p := range probes {
		gh, gr := om.HeatAt(p)
		wh, wr := nm.HeatAt(p)
		if gh != wh || !reflect.DeepEqual(gr, wr) {
			t.Fatalf("HeatAt(%v) = %v %v, the new file's map %v %v", p, gh, gr, wh, wr)
		}
	}
	gh, gr := om.HeatAtBatch(probes)
	wh, wr := nm.HeatAtBatch(probes)
	if !reflect.DeepEqual(gh, wh) || !reflect.DeepEqual(gr, wr) {
		t.Fatal("HeatAtBatch differs from the new file's map")
	}
	full := nm.Bounds()
	center := heatmap.Rect{
		MinX: (3*full.MinX + full.MaxX) / 4, MinY: (3*full.MinY + full.MaxY) / 4,
		MaxX: (full.MinX + 3*full.MaxX) / 4, MaxY: (full.MinY + 3*full.MaxY) / 4,
	}
	for _, b := range []heatmap.Rect{full, center} {
		if !bytes.Equal(tileBytes(t, om, b), tileBytes(t, nm, b)) {
			t.Errorf("the tile of %v differs from the new file's map's", b)
		}
	}
	gotTop, err := om.OptimalTopK(10, heatmap.OptimalConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	wantTop, err := nm.OptimalTopK(10, heatmap.OptimalConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTop) != 10 || !reflect.DeepEqual(gotTop, wantTop) {
		t.Errorf("OptimalTopK(10) = %+v, the new file's map %+v", gotTop, wantTop)
	}

	var saved [2][]byte
	for i, m := range []*heatmap.Map{om, nm} {
		path := filepath.Join(dir, []string{"old-v2.snap", "new-v2.snap"}[i])
		if err := m.SaveSnapshot(path, 2); err != nil {
			t.Fatal(err)
		}
		if saved[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if len(saved[0]) != len(newFile) || !bytes.Equal(saved[0], saved[1]) {
		t.Errorf("saved at version 2, the earlier layout's map wrote %d bytes, not the %d the new file's map wrote (new file: %d)",
			len(saved[0]), len(saved[1]), len(newFile))
	}
	// Saved at its own version, the earlier layout's map is rewritten in
	// the current layout, not copied: it writes the new file byte for byte.
	samePath := filepath.Join(dir, "old-v1.snap")
	if err := om.SaveSnapshot(samePath, 1); err != nil {
		t.Fatal(err)
	}
	if same, err := os.ReadFile(samePath); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(same, newFile) {
		t.Errorf("saved at its own version 1, the earlier layout's map wrote %d bytes, not the new file's %d", len(same), len(newFile))
	}

	for _, extra := range []int{-1, 1} {
		path, _ := earlier("damaged.snap", extra)
		if bad, err := snapshot.Open(path); err == nil {
			bad.Close()
			t.Errorf("Open accepted an L2 file with %+d heights", extra)
		} else if !strings.Contains(err.Error(), "slab edges") {
			t.Errorf("Open of an L2 file with %+d heights: %v, want an error naming the slab edges", extra, err)
		}
	}
}
