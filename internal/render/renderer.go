package render

import (
	"errors"
	"slices"
	"sync/atomic"

	"rnnheatmap/internal/enclosure"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/pointloc"
)

// Renderer rasterizes arbitrary sub-rectangles of one heat map, through a
// slab point-location index (NewIndexRenderer) or a point-enclosure index
// that is built once and reused across calls (NewRenderer). HeatMap builds
// a renderer per invocation, which is fine for a one-shot PNG dump but not
// for a tile server answering many small viewport requests; a Renderer
// amortizes the construction and is safe for concurrent use.
type Renderer struct {
	circles []nncircle.NNCircle
	index   enclosure.Index
	measure influence.Measure
	bounds  geom.Rect
	ix      *pointloc.Index
	calls   atomic.Int64
}

// NewIndexRenderer builds a Renderer that rasterizes through a slab
// point-location index (pointloc.Index.HeatGrid): each pixel column
// resolves its slab and runs one gap search for all of its pixels, and each
// pixel reads a precomputed face heat with no RNN-set construction — no
// circles, no enclosure index. The output is byte-identical to the enclosure path:
// HeatGrid returns exactly the heats of per-pixel point queries, and the
// index implements the enclosure path's closed boundary convention. bounds
// is the map's full extent (Bounds); an index opened from a snapshot
// renders tiles without materializing a single heap object from the file.
func NewIndexRenderer(ix *pointloc.Index, bounds geom.Rect, measure influence.Measure) (*Renderer, error) {
	if ix == nil {
		return nil, errors.New("render: nil slab index")
	}
	if measure == nil {
		measure = influence.Size()
	}
	return &Renderer{measure: measure, bounds: bounds, ix: ix}, nil
}

// NewRenderer builds a Renderer over the NN-circles. index may be nil, in
// which case the default R-tree enclosure index is constructed; passing a
// prebuilt index (e.g. the one heatmap.Map already owns) shares it instead.
// measure nil means influence.Size().
func NewRenderer(circles []nncircle.NNCircle, index enclosure.Index, measure influence.Measure) (*Renderer, error) {
	if len(circles) == 0 {
		return nil, errors.New("render: no NN-circles")
	}
	if index == nil {
		index = enclosure.NewRTreeIndex(nncircle.Circles(circles))
	}
	if measure == nil {
		measure = influence.Size()
	}
	bounds := geom.EmptyRect()
	for _, nc := range circles {
		bounds = bounds.Union(nc.Circle.BoundingRect())
	}
	return &Renderer{circles: circles, index: index, measure: measure, bounds: bounds}, nil
}

// Bounds returns the bounding rectangle of the NN-circles — outside it every
// pixel has an empty RNN set, so it is the natural full-map viewport.
func (rd *Renderer) Bounds() geom.Rect { return rd.bounds }

// Calls returns how many Render invocations have completed. Cache layers use
// it to assert that warm requests do not re-render.
func (rd *Renderer) Calls() int64 { return rd.calls.Load() }

// RenderWidth renders bounds at the given pixel width with the height
// chosen to preserve the aspect ratio, following the same sizing defaults
// as HeatMap (width <= 0 means 512). Empty bounds mean the full map.
func (rd *Renderer) RenderWidth(bounds geom.Rect, width int) (*Raster, error) {
	opts, err := Options{Width: width, Bounds: bounds}.normalize(rd.bounds)
	if err != nil {
		return nil, err
	}
	return rd.Render(opts.Bounds, opts.Width, opts.Height)
}

// Render rasterizes the given sub-rectangle of the map at width x height
// pixels. Each pixel's value is the influence of the pixel center's RNN set;
// pixel centers follow the same half-pixel grid as HeatMap, so rendering the
// full bounds reproduces HeatMap exactly. The raster depends only on the
// circles and the measure — never on how the heat map was swept — so output
// is deterministic across worker counts.
func (rd *Renderer) Render(bounds geom.Rect, width, height int) (*Raster, error) {
	r := new(Raster)
	if err := rd.RenderInto(r, bounds, width, height); err != nil {
		return nil, err
	}
	return r, nil
}

// RenderInto is Render writing into dst: it overwrites every value and
// reuses dst.Values when its capacity suffices, so a caller that renders
// many tiles (the tile server, from a pool) allocates no raster per tile.
func (rd *Renderer) RenderInto(dst *Raster, bounds geom.Rect, width, height int) error {
	if bounds.IsEmpty() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return errors.New("render: empty raster bounds")
	}
	if width <= 0 || height <= 0 {
		return errors.New("render: non-positive raster size")
	}
	values := slices.Grow(dst.Values[:0], width*height)[:width*height]
	*dst = Raster{Bounds: bounds, Width: width, Height: height, Values: values}
	if rd.ix != nil {
		rd.ix.HeatGrid(bounds, width, height, values)
	} else {
		rd.enclosureGrid(bounds, width, height, values)
	}
	rd.calls.Add(1)
	return nil
}

// enclosureGrid is the no-index path and the oracle HeatGrid is held to:
// one stabbing query per pixel center, its RNN set fed to the measure.
func (rd *Renderer) enclosureGrid(bounds geom.Rect, width, height int, out []float64) {
	xs, ys := make([]float64, width), make([]float64, height)
	bounds.PixelCenters(xs, ys)
	centers := make([]geom.Point, width)
	set := oset.New()
	for py, y := range ys {
		for px, x := range xs {
			centers[px] = geom.Pt(x, y)
		}
		for px, ids := range rd.index.EnclosingBatch(centers) {
			set.Clear()
			for _, id := range ids {
				set.Add(rd.circles[id].Client)
			}
			out[py*width+px] = rd.measure.Influence(set)
		}
	}
}
