package pointloc

import "rnnheatmap/internal/geom"

// Locator is the query surface shared by the heap-resident Index and the
// mmap-backed Mapped locator: point queries, the monotone batch driver the
// HTTP batch endpoints use, the raster kernel the renderer uses, and the
// identification accessors servers expose in stats. Both implementations
// answer byte-identically to the enclosure oracle (and therefore to each
// other) for every query point.
type Locator interface {
	// Query returns the heat and RNN set of the face containing p. The
	// returned slice may be shared with the locator — callers must not
	// mutate it.
	Query(p geom.Point) (float64, []int)
	// QueryBatch answers one Query per point in input order; the returned
	// RNN slices are caller-owned copies.
	QueryBatch(ps []geom.Point) ([]float64, [][]int)
	// HeatGrid fills out (row-major, row 0 at the top, len(out) ==
	// width*height) with the heat Query returns at each pixel center of
	// bounds (geom.Rect.PixelCenters).
	HeatGrid(bounds geom.Rect, width, height int, out []float64)
	// Metric returns the original metric of the indexed circles.
	Metric() geom.Metric
	// NumSlabs and Cells describe the slab decomposition for stats.
	NumSlabs() int
	Cells() int
}

var (
	_ Locator = (*Index)(nil)
	_ Locator = (*Mapped)(nil)
)
