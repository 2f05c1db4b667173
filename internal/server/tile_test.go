package server

import (
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"testing"

	"rnnheatmap/internal/geom"
)

func TestGridWorldIsCenteredSquare(t *testing.T) {
	t.Parallel()
	g := newGrid(geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 40})
	if w, h := g.world.Width(), g.world.Height(); w != h || w != 100 {
		t.Fatalf("world = %v, want a 100x100 square", g.world)
	}
	if c := g.world.Center(); c.X != 50 || c.Y != 20 {
		t.Fatalf("world center = %v, want (50, 20)", c)
	}
}

func TestGridTileBounds(t *testing.T) {
	t.Parallel()
	g := newGrid(geom.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8})
	if got := g.tileBounds(0, 0, 0); got != g.world {
		t.Fatalf("tile 0/0/0 = %v, want the whole world %v", got, g.world)
	}
	// Zoom 1: tile (0, 0) is the north-west quadrant.
	nw := g.tileBounds(1, 0, 0)
	want := geom.Rect{MinX: 0, MinY: 4, MaxX: 4, MaxY: 8}
	if nw != want {
		t.Fatalf("tile 1/0/0 = %v, want %v", nw, want)
	}
	// The four zoom-1 tiles partition the world exactly.
	se := g.tileBounds(1, 1, 1)
	if se != (geom.Rect{MinX: 4, MinY: 0, MaxX: 8, MaxY: 4}) {
		t.Fatalf("tile 1/1/1 = %v, want the south-east quadrant", se)
	}
}

func TestGridValid(t *testing.T) {
	t.Parallel()
	g := newGrid(geom.Rect{MaxX: 1, MaxY: 1})
	cases := []struct {
		z, x, y int
		want    bool
	}{
		{0, 0, 0, true},
		{0, 1, 0, false},
		{1, 1, 1, true},
		{1, 2, 0, false},
		{-1, 0, 0, false},
		{MaxZoom, 0, 0, true},
		{MaxZoom + 1, 0, 0, false},
	}
	for _, tc := range cases {
		if got := g.valid(tc.z, tc.x, tc.y); got != tc.want {
			t.Errorf("valid(%d, %d, %d) = %v, want %v", tc.z, tc.x, tc.y, got, tc.want)
		}
	}
}

// TestTileMissAllocs pins the pooled tile miss: once the raster, palette
// and encoder pools are warm, rendering and encoding a 256-pixel tile
// through ServeHTTP allocates about the PNG's size, not the 512 KiB of heats
// and 256 KiB of RGBA pixels an unpooled miss allocates. It runs serially,
// so no parallel test's allocations land in the measurement.
func TestTileMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values on purpose")
	}
	s, err := New(Config{Map: buildMap(t, 1), TileSize: 256, TileCacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The first misses build the slab index and fill the pools.
	for x := 0; x < 2; x++ {
		if rec := get(t, s, fmt.Sprintf("/v1/tiles/3/%d/0.png", x)); rec.Code != http.StatusOK {
			t.Fatalf("warm-up tile = %d", rec.Code)
		}
	}
	var per []uint64
	var ms runtime.MemStats
	for x := 0; x < 8; x++ {
		path := fmt.Sprintf("/v1/tiles/3/%d/4.png", x)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rec := get(t, s, path)
		runtime.ReadMemStats(&ms)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		per = append(per, ms.TotalAlloc-before)
	}
	if got := s.RenderCalls(); got != 10 {
		t.Fatalf("RenderCalls = %d, want 10: every measured request must be a miss", got)
	}
	slices.Sort(per)
	if med := per[len(per)/2]; med >= 64<<10 {
		t.Fatalf("a warm-pool tile miss allocates a median %d B (all: %v), want under 64 KiB", med, per)
	}
	t.Logf("bytes allocated per tile miss: %v", per)
}
