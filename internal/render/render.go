// Package render rasterizes RNN heat maps and writes them as PNG, PGM or
// ASCII art. It is the plotting substrate for Fig. 1 and Fig. 15 of the
// paper (the satellite backdrops of those figures are not reproduced).
//
// Rasterization evaluates the influence of each pixel from the RNN sets
// obtained through a point-enclosure index, which works for any influence
// measure. For the plain size measure a faster superimposition mode is also
// provided (Fig. 3(b)): it simply counts overlapping NN-circles per pixel.
//
// Two entry points share one pixel-evaluation path: HeatMap is the one-shot
// API (build index, rasterize, done), while Renderer keeps the index and
// renders arbitrary sub-rectangles repeatedly — the substrate for the tile
// server in internal/server. Rasters normalize against their own min/max by
// default; ImageScaled/WritePNGScaled accept a fixed range so independently
// rendered tiles of one map shade consistently.
package render

import (
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
)

// Raster is a rectangular grid of heat values covering Bounds.
type Raster struct {
	Bounds        geom.Rect
	Width, Height int
	Values        []float64 // row-major, row 0 is the top (max Y)
}

// At returns the heat value of pixel (x, y).
func (r *Raster) At(x, y int) float64 { return r.Values[y*r.Width+x] }

// MinMax returns the smallest and largest heat values.
func (r *Raster) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range r.Values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// Options configures rasterization.
type Options struct {
	// Width and Height are the raster dimensions in pixels. Zero values
	// default to 512 wide with the height chosen to preserve aspect ratio.
	Width, Height int
	// Bounds is the region of space to rasterize; when empty it defaults to
	// the bounding rectangle of the NN-circles.
	Bounds geom.Rect
	// Measure is the influence measure; nil means influence.Size().
	Measure influence.Measure
}

func (o Options) normalize(defaultBounds geom.Rect) (Options, error) {
	if o.Bounds.IsEmpty() || o.Bounds.Area() == 0 {
		o.Bounds = defaultBounds
	}
	if o.Bounds.IsEmpty() || o.Bounds.Width() <= 0 || o.Bounds.Height() <= 0 {
		return o, errors.New("render: empty raster bounds")
	}
	if o.Width <= 0 {
		o.Width = 512
	}
	if o.Height <= 0 {
		o.Height = int(float64(o.Width) * o.Bounds.Height() / o.Bounds.Width())
		if o.Height < 1 {
			o.Height = 1
		}
	}
	if o.Measure == nil {
		o.Measure = influence.Size()
	}
	return o, nil
}

// HeatMap rasterizes the influence of every pixel: the pixel center's RNN
// set is retrieved through a point-enclosure index and fed to the measure.
// It is the one-shot entry point; callers that render many viewports of the
// same map should build a Renderer once and call Render on it.
func HeatMap(circles []nncircle.NNCircle, opts Options) (*Raster, error) {
	rd, err := NewRenderer(circles, nil, opts.Measure)
	if err != nil {
		return nil, err
	}
	opts, err = opts.normalize(rd.Bounds())
	if err != nil {
		return nil, err
	}
	return rd.Render(opts.Bounds, opts.Width, opts.Height)
}

// Superimposition rasterizes the overlay of translucent NN-circles
// (Fig. 3(b)): each pixel's value is the number of circles covering it. It
// is equivalent to HeatMap with the size measure but does not need RNN sets,
// and exists to demonstrate why superimposition cannot express generic
// measures.
func Superimposition(circles []nncircle.NNCircle, opts Options) (*Raster, error) {
	opts.Measure = influence.Size()
	return HeatMap(circles, opts)
}

// ColorMap maps a normalized heat value in [0, 1] to a color.
type ColorMap func(v float64) color.RGBA

// Grayscale maps low heat to white and high heat to black, matching the
// paper's figures ("the darker regions indicate higher heat values").
func Grayscale(v float64) color.RGBA {
	g := uint8(255 * (1 - clamp01(v)))
	return color.RGBA{R: g, G: g, B: g, A: 255}
}

// Inferno is a compact warm color ramp (black → red → yellow → white).
func Inferno(v float64) color.RGBA {
	v = clamp01(v)
	switch {
	case v < 0.25:
		t := v / 0.25
		return color.RGBA{R: uint8(80 * t), A: 255}
	case v < 0.5:
		t := (v - 0.25) / 0.25
		return color.RGBA{R: uint8(80 + 150*t), G: uint8(30 * t), A: 255}
	case v < 0.75:
		t := (v - 0.5) / 0.25
		return color.RGBA{R: uint8(230 + 25*t), G: uint8(30 + 150*t), B: uint8(20 * t), A: 255}
	default:
		t := (v - 0.75) / 0.25
		return color.RGBA{R: 255, G: uint8(180 + 75*t), B: uint8(20 + 235*t), A: 255}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Image converts the raster into an image using the color map. Values are
// normalized by the raster's min/max; a constant raster renders as blank.
func (r *Raster) Image(cm ColorMap) *image.RGBA {
	lo, hi := r.MinMax()
	return r.ImageScaled(cm, lo, hi)
}

// ImageScaled converts the raster into an image normalizing values against
// the fixed range [lo, hi] instead of the raster's own min/max. Tile servers
// use it with the map-wide heat range so that adjacent tiles — each covering
// a sub-rectangle with a different local maximum — shade consistently.
func (r *Raster) ImageScaled(cm ColorMap, lo, hi float64) *image.RGBA {
	if cm == nil {
		cm = Grayscale
	}
	span := hi - lo
	img := image.NewRGBA(image.Rect(0, 0, r.Width, r.Height))
	// Values and Pix share the row-major layout (Stride is 4*Width), so
	// pixel i is Pix[4i:4i+4] — the bytes SetRGBA would write.
	for i, h := range r.Values {
		c := cm(scaled(h, lo, span))
		px := img.Pix[4*i : 4*i+4 : 4*i+4]
		px[0], px[1], px[2], px[3] = c.R, c.G, c.B, c.A
	}
	return img
}

// scaled normalizes heat h against [lo, lo+span]; a non-positive span maps
// every heat to 0.
func scaled(h, lo, span float64) float64 {
	if span > 0 {
		return (h - lo) / span
	}
	return 0
}

// pngEncoder encodes every raster with png.Encode's settings; its buffer
// pool hands the zlib writer and row buffers of one encode to the next, so a
// tile server stops allocating them per tile.
var pngEncoder = png.Encoder{BufferPool: &pngBuffers{}}

// pngBuffers is a png.EncoderBufferPool over a sync.Pool.
type pngBuffers struct{ pool sync.Pool }

func (p *pngBuffers) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b
}

func (p *pngBuffers) Put(b *png.EncoderBuffer) { p.pool.Put(b) }

// paletter maps a raster onto a palette image: one color-map evaluation per
// distinct heat and one palette entry per distinct color. Given a palette
// image, png picks 1, 2, 4 or 8 bits per pixel and skips the per-row filter
// search, which is most of the cost of encoding a truecolor tile that holds
// a handful of heats. paletters pools it, Pix buffer included, so a tile
// server stops allocating it per tile.
type paletter struct {
	img    image.Paletted
	byHeat map[uint64]uint8 // heat bits → palette index, this encode
	// swatches holds each color's palette entry, boxed into a color.Color
	// once and kept across encodes (up to maxSwatches colors), so building
	// a palette allocates nothing; an entry is in this encode's palette, at
	// idx, when its gen is this encode's.
	swatches map[color.RGBA]swatch
	gen      uint64
}

type swatch struct {
	entry color.Color
	idx   uint8
	gen   uint64
}

const maxSwatches = 4096

var paletters = sync.Pool{New: func() any {
	return &paletter{img: image.Paletted{Palette: make(color.Palette, 0, 256)},
		byHeat: map[uint64]uint8{}, swatches: map[color.RGBA]swatch{}}
}}

// index fills the palette image with the raster's colors as ImageScaled
// computes them. It reports false when they do not fit a palette: more than
// 256 distinct colors, or any color with alpha below 255 (which would need a
// tRNS chunk and premultiplied round trips).
func (p *paletter) index(r *Raster, cm ColorMap, lo, hi float64) (*image.Paletted, bool) {
	clear(p.byHeat)
	if len(p.swatches) > maxSwatches {
		clear(p.swatches)
	}
	p.gen++
	pix := slices.Grow(p.img.Pix[:0], len(r.Values))[:len(r.Values)]
	p.img = image.Paletted{Pix: pix, Stride: r.Width, Rect: image.Rect(0, 0, r.Width, r.Height),
		Palette: p.img.Palette[:0]}
	span := hi - lo
	// Heats change only at region boundaries along a row, so the lookup
	// runs once per run of equal heats, not once per pixel.
	var last uint64
	var idx uint8
	for i, h := range r.Values {
		if bits := math.Float64bits(h); i == 0 || bits != last {
			j, ok := p.byHeat[bits]
			if !ok {
				c := cm(scaled(h, lo, span))
				if c.A != 255 {
					return nil, false
				}
				sw, seen := p.swatches[c]
				if !seen || sw.gen != p.gen {
					if len(p.img.Palette) == 256 {
						return nil, false
					}
					if !seen {
						// An opaque RGBA is the same NRGBA, the model png
						// writes the palette in, so the write converts
						// nothing.
						sw.entry = color.NRGBA{R: c.R, G: c.G, B: c.B, A: 255}
					}
					sw.idx, sw.gen = uint8(len(p.img.Palette)), p.gen
					p.swatches[c] = sw
					p.img.Palette = append(p.img.Palette, sw.entry)
				}
				j = sw.idx
				p.byHeat[bits] = j
			}
			last, idx = bits, j
		}
		pix[i] = idx
	}
	return &p.img, true
}

// WritePNG encodes the raster as a PNG image normalized against its own
// min/max; see WritePNGScaled.
func (r *Raster) WritePNG(w io.Writer, cm ColorMap) error {
	lo, hi := r.MinMax()
	return r.WritePNGScaled(w, cm, lo, hi)
}

// WritePNGScaled encodes the raster as a PNG normalized against the fixed
// range [lo, hi]; see ImageScaled. The PNG is indexed-color when the
// raster's colors fit a palette — at most 256 distinct colors, all opaque,
// as Grayscale's always are — and truecolor otherwise; either way it
// decodes to ImageScaled's pixels.
func (r *Raster) WritePNGScaled(w io.Writer, cm ColorMap, lo, hi float64) error {
	if cm == nil {
		cm = Grayscale
	}
	p := paletters.Get().(*paletter)
	defer paletters.Put(p)
	var img image.Image
	if pi, ok := p.index(r, cm, lo, hi); ok {
		img = pi
	} else {
		img = r.ImageScaled(cm, lo, hi)
	}
	if err := pngEncoder.Encode(w, img); err != nil {
		return fmt.Errorf("render: encoding png: %w", err)
	}
	return nil
}

// SavePNG writes the raster to a PNG file.
func (r *Raster) SavePNG(path string, cm ColorMap) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	defer f.Close()
	if err := r.WritePNG(f, cm); err != nil {
		return err
	}
	return f.Close()
}

// WritePGM writes the raster as a plain-text PGM (P2) grayscale image, which
// is convenient for golden-file tests and quick terminal inspection.
func (r *Raster) WritePGM(w io.Writer) error {
	lo, hi := r.MinMax()
	span := hi - lo
	if _, err := fmt.Fprintf(w, "P2\n%d %d\n255\n", r.Width, r.Height); err != nil {
		return err
	}
	for y := 0; y < r.Height; y++ {
		for x := 0; x < r.Width; x++ {
			v := 0.0
			if span > 0 {
				v = (r.At(x, y) - lo) / span
			}
			if _, err := fmt.Fprintf(w, "%d ", int(255*v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ASCII renders the raster as a small ASCII-art heat map (darker characters
// mean higher heat), resampling to at most the given number of columns.
func (r *Raster) ASCII(cols int) string {
	if cols <= 0 || cols > r.Width {
		cols = r.Width
	}
	ramp := " .:-=+*#%@"
	rows := cols * r.Height / r.Width
	if rows < 1 {
		rows = 1
	}
	// Terminal characters are roughly twice as tall as wide.
	rows = rows / 2
	if rows < 1 {
		rows = 1
	}
	lo, hi := r.MinMax()
	span := hi - lo
	var b strings.Builder
	for ry := 0; ry < rows; ry++ {
		for rx := 0; rx < cols; rx++ {
			x := rx * r.Width / cols
			y := ry * r.Height / rows
			v := 0.0
			if span > 0 {
				v = (r.At(x, y) - lo) / span
			}
			idx := int(v * float64(len(ramp)-1))
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
