package render

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/pointloc"
)

func testCircles() []nncircle.NNCircle {
	return []nncircle.NNCircle{
		{Client: 0, Circle: geom.NewCircle(geom.Pt(2, 2), 2, geom.L2)},
		{Client: 1, Circle: geom.NewCircle(geom.Pt(4, 2), 2, geom.L2)},
		{Client: 2, Circle: geom.NewCircle(geom.Pt(10, 10), 1, geom.L2)},
	}
}

func TestHeatMapBasics(t *testing.T) {
	t.Parallel()
	r, err := HeatMap(testCircles(), Options{Width: 64, Height: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.Width != 64 || r.Height != 64 || len(r.Values) != 64*64 {
		t.Fatalf("raster dims wrong: %dx%d", r.Width, r.Height)
	}
	lo, hi := r.MinMax()
	if lo != 0 || hi != 2 {
		t.Errorf("MinMax = %g, %g; want 0, 2", lo, hi)
	}
}

func TestHeatMapMatchesOracle(t *testing.T) {
	t.Parallel()
	circles := testCircles()
	r, err := HeatMap(circles, Options{Width: 40, Height: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Spot check pixels against direct counting.
	rng := rand.New(rand.NewSource(1))
	dx := r.Bounds.Width() / float64(r.Width)
	dy := r.Bounds.Height() / float64(r.Height)
	for i := 0; i < 200; i++ {
		px, py := rng.Intn(r.Width), rng.Intn(r.Height)
		x := r.Bounds.MinX + (float64(px)+0.5)*dx
		y := r.Bounds.MaxY - (float64(py)+0.5)*dy
		count := 0.0
		for _, nc := range circles {
			if nc.Circle.Contains(geom.Pt(x, y)) {
				count++
			}
		}
		if r.At(px, py) != count {
			t.Fatalf("pixel (%d,%d) = %g, want %g", px, py, r.At(px, py), count)
		}
	}
}

func TestHeatMapErrorsAndDefaults(t *testing.T) {
	t.Parallel()
	if _, err := HeatMap(nil, Options{}); err == nil {
		t.Errorf("no circles should error")
	}
	r, err := HeatMap(testCircles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Width != 512 {
		t.Errorf("default width = %d", r.Width)
	}
	// Custom bounds restrict the raster.
	r2, err := HeatMap(testCircles(), Options{Width: 16, Height: 16,
		Bounds: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Bounds.MaxX != 1 {
		t.Errorf("bounds not honored: %v", r2.Bounds)
	}
}

func TestHeatMapWithMeasure(t *testing.T) {
	t.Parallel()
	weights := []float64{10, 1, 1}
	r, err := HeatMap(testCircles(), Options{Width: 32, Height: 32, Measure: influence.Weighted(weights)})
	if err != nil {
		t.Fatal(err)
	}
	_, hi := r.MinMax()
	if hi != 11 {
		t.Errorf("weighted max = %g, want 11", hi)
	}
}

func TestSuperimposition(t *testing.T) {
	t.Parallel()
	a, err := Superimposition(testCircles(), Options{Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	b, err := HeatMap(testCircles(), Options{Width: 32, Height: 32, Measure: influence.Size()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("superimposition differs from size heat map at %d", i)
		}
	}
}

func TestColorMaps(t *testing.T) {
	t.Parallel()
	if Grayscale(0).R != 255 || Grayscale(1).R != 0 {
		t.Errorf("grayscale endpoints wrong")
	}
	if Grayscale(-5) != Grayscale(0) || Grayscale(7) != Grayscale(1) {
		t.Errorf("grayscale should clamp")
	}
	prev := -1
	for _, v := range []float64{0, 0.3, 0.6, 0.9, 1} {
		c := Inferno(v)
		lum := int(c.R) + int(c.G) + int(c.B)
		if lum < prev {
			t.Errorf("inferno should get brighter with heat")
		}
		prev = lum
	}
}

func TestImageAndPNG(t *testing.T) {
	t.Parallel()
	r, err := HeatMap(testCircles(), Options{Width: 20, Height: 10})
	if err != nil {
		t.Fatal(err)
	}
	img := r.Image(nil)
	if img.Bounds().Dx() != 20 || img.Bounds().Dy() != 10 {
		t.Errorf("image dims wrong")
	}
	var buf bytes.Buffer
	if err := r.WritePNG(&buf, Inferno); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("png round trip: %v", err)
	}
	if decoded.Bounds().Dx() != 20 {
		t.Errorf("decoded width = %d", decoded.Bounds().Dx())
	}
	path := t.TempDir() + "/heat.png"
	if err := r.SavePNG(path, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPGMAndASCII(t *testing.T) {
	t.Parallel()
	r, err := HeatMap(testCircles(), Options{Width: 30, Height: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P2\n30 20\n255\n") {
		t.Errorf("PGM header wrong: %q", buf.String()[:20])
	}
	art := r.ASCII(40)
	if len(art) == 0 || !strings.Contains(art, "\n") {
		t.Errorf("ASCII output empty")
	}
	// High-heat area (overlap of circles 0 and 1) should use a darker glyph
	// than the empty corner.
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("too few ASCII rows: %d", len(lines))
	}
}

func TestConstantRaster(t *testing.T) {
	t.Parallel()
	r := &Raster{Bounds: geom.Rect{MaxX: 1, MaxY: 1}, Width: 4, Height: 4, Values: make([]float64, 16)}
	img := r.Image(Grayscale)
	if img.RGBAAt(0, 0).R != 255 {
		t.Errorf("constant raster should render blank (white)")
	}
	if s := r.ASCII(4); !strings.Contains(s, " ") {
		t.Errorf("constant ASCII should be blank: %q", s)
	}
}

func TestRendererSubRectMatchesFullRender(t *testing.T) {
	t.Parallel()
	circles := testCircles()
	rd, err := NewRenderer(circles, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Render the full bounds at 64x64, then each quadrant at 32x32: the
	// pixel-center grids coincide, so quadrant values must equal the
	// corresponding sub-block of the full raster.
	b := rd.Bounds()
	full, err := rd.Render(b, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	cx, cy := b.Center().X, b.Center().Y
	quads := []struct {
		rect   geom.Rect
		ox, oy int // pixel offset of the quadrant inside the full raster
	}{
		{geom.Rect{MinX: b.MinX, MinY: cy, MaxX: cx, MaxY: b.MaxY}, 0, 0},
		{geom.Rect{MinX: cx, MinY: cy, MaxX: b.MaxX, MaxY: b.MaxY}, 32, 0},
		{geom.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: cx, MaxY: cy}, 0, 32},
		{geom.Rect{MinX: cx, MinY: b.MinY, MaxX: b.MaxX, MaxY: cy}, 32, 32},
	}
	for qi, q := range quads {
		tile, err := rd.Render(q.rect, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				if got, want := tile.At(x, y), full.At(q.ox+x, q.oy+y); got != want {
					t.Fatalf("quadrant %d pixel (%d,%d) = %g, want %g", qi, x, y, got, want)
				}
			}
		}
	}
}

func TestRendererMatchesHeatMap(t *testing.T) {
	t.Parallel()
	circles := testCircles()
	viaHeatMap, err := HeatMap(circles, Options{Width: 48, Height: 48})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewRenderer(circles, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaRenderer, err := rd.Render(rd.Bounds(), 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaHeatMap.Values {
		if viaHeatMap.Values[i] != viaRenderer.Values[i] {
			t.Fatalf("value %d differs: %g vs %g", i, viaHeatMap.Values[i], viaRenderer.Values[i])
		}
	}
}

func TestRendererCallCounterAndErrors(t *testing.T) {
	t.Parallel()
	rd, err := NewRenderer(testCircles(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Calls() != 0 {
		t.Fatalf("fresh renderer has %d calls", rd.Calls())
	}
	if _, err := rd.Render(rd.Bounds(), 8, 8); err != nil {
		t.Fatal(err)
	}
	if rd.Calls() != 1 {
		t.Fatalf("Calls = %d, want 1", rd.Calls())
	}
	if _, err := rd.Render(geom.Rect{}, 8, 8); err == nil {
		t.Error("empty bounds should error")
	}
	if _, err := rd.Render(rd.Bounds(), 0, 8); err == nil {
		t.Error("zero width should error")
	}
	if rd.Calls() != 1 {
		t.Fatalf("failed renders must not count: Calls = %d, want 1", rd.Calls())
	}
	if _, err := NewRenderer(nil, nil, nil); err == nil {
		t.Error("no circles should error")
	}
}

func TestImageScaledFixedRange(t *testing.T) {
	t.Parallel()
	r := &Raster{Bounds: geom.Rect{MaxX: 2, MaxY: 1}, Width: 2, Height: 1, Values: []float64{1, 1}}
	// Against its own min/max the constant raster is blank (v = 0 everywhere);
	// against a fixed [0, 2] range both pixels sit at half intensity.
	img := r.ImageScaled(Grayscale, 0, 2)
	if c := img.RGBAAt(0, 0); c.R != 127 && c.R != 128 {
		t.Errorf("fixed-range pixel = %v, want mid gray", c)
	}
	blank := r.Image(Grayscale)
	if c := blank.RGBAAt(0, 0); c.R != 255 {
		t.Errorf("self-normalized constant raster pixel = %v, want white", c)
	}
	var buf bytes.Buffer
	if err := r.WritePNGScaled(&buf, nil, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatalf("WritePNGScaled produced an undecodable image: %v", err)
	}
}

// pngColorType returns the IHDR color type byte of an encoded PNG: 3 for
// indexed color, 2 for truecolor, 6 for truecolor with alpha.
func pngColorType(t *testing.T, b []byte) byte {
	t.Helper()
	// 8-byte signature, chunk length, "IHDR", width, height, bit depth.
	if len(b) < 26 || string(b[12:16]) != "IHDR" {
		t.Fatalf("not a PNG with a leading IHDR chunk: % x", b[:min(len(b), 26)])
	}
	return b[25]
}

// assertDecodesTo decodes an encoded PNG and compares every pixel with want.
func assertDecodesTo(t *testing.T, b []byte, want *image.RGBA) {
	t.Helper()
	got, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("png.Decode: %v", err)
	}
	if got.Bounds() != want.Bounds() {
		t.Fatalf("decoded bounds %v, want %v", got.Bounds(), want.Bounds())
	}
	for y := 0; y < want.Rect.Dy(); y++ {
		for x := 0; x < want.Rect.Dx(); x++ {
			if g, w := color.RGBAModel.Convert(got.At(x, y)), want.RGBAAt(x, y); g != w {
				t.Fatalf("pixel (%d,%d) decodes to %v, want %v", x, y, g, w)
			}
		}
	}
}

// TestPNGDecodesToImageScaled pins the tile encoding to ImageScaled's pixels,
// which are the truecolor tiles' pixels: a Grayscale or Inferno raster of a
// few heats encodes as indexed color (IHDR color type 3) and decodes to
// exactly ImageScaled's colors, ImageScaled's direct Pix fill writes the
// pixels a per-pixel SetRGBA would, and encodes from four goroutines
// sharing the palette, Pix and encoder pools write the same bytes as a
// lone encode.
func TestPNGDecodesToImageScaled(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	type tile struct {
		r    *Raster
		cm   ColorMap
		want []byte
	}
	var tiles []tile
	for _, cm := range []ColorMap{Grayscale, Inferno} {
		for k := 0; k < 4; k++ {
			w, h := 1+rng.Intn(70), 1+rng.Intn(70)
			r := &Raster{Bounds: geom.Rect{MaxX: 1, MaxY: 1}, Width: w, Height: h, Values: make([]float64, w*h)}
			// k = 0 is a constant raster: a one-color palette.
			for i := range r.Values {
				r.Values[i] = float64(rng.Intn(1 + 8*k))
			}
			ref := image.NewRGBA(image.Rect(0, 0, w, h))
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					ref.SetRGBA(x, y, cm((r.At(x, y)-1)/6))
				}
			}
			img := r.ImageScaled(cm, 1, 7)
			if !bytes.Equal(img.Pix, ref.Pix) || img.Stride != ref.Stride {
				t.Fatalf("%dx%d: ImageScaled pixels differ from SetRGBA", w, h)
			}
			var want bytes.Buffer
			if err := r.WritePNGScaled(&want, cm, 1, 7); err != nil {
				t.Fatal(err)
			}
			if ct := pngColorType(t, want.Bytes()); ct != 3 {
				t.Fatalf("%dx%d: IHDR color type %d, want 3 (indexed)", w, h, ct)
			}
			assertDecodesTo(t, want.Bytes(), img)
			tiles = append(tiles, tile{r, cm, want.Bytes()})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, tl := range tiles {
					var got bytes.Buffer
					if err := tl.r.WritePNGScaled(&got, tl.cm, 1, 7); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got.Bytes(), tl.want) {
						t.Errorf("%dx%d: concurrent WritePNGScaled bytes differ from a lone encode", tl.r.Width, tl.r.Height)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPNGTruecolorFallback pins the rasters whose colors do not fit a
// palette to the truecolor encoding, byte for byte a plain png.Encoder at
// pngEncoder's compression level encoding ImageScaled: more than 256
// distinct colors, and a color map with alpha below 255. Exactly 256
// colors still take the palette.
func TestPNGTruecolorFallback(t *testing.T) {
	t.Parallel()
	ramp := func(n int) *Raster {
		r := &Raster{Bounds: geom.Rect{MaxX: 1, MaxY: 1}, Width: n, Height: 3, Values: make([]float64, 3*n)}
		for i := range r.Values {
			r.Values[i] = float64(i % n)
		}
		return r
	}
	// step maps the ramp's n heats to n distinct opaque colors.
	step := func(n int) ColorMap {
		return func(v float64) color.RGBA {
			i := int(math.Round(v * float64(n-1)))
			return color.RGBA{R: uint8(i), G: uint8(i >> 8), A: 255}
		}
	}
	translucent := func(v float64) color.RGBA { return color.RGBA{R: uint8(128 * clamp01(v)), A: 128} }
	for _, tc := range []struct {
		name     string
		r        *Raster
		cm       ColorMap
		wantType byte
	}{
		{"inferno-4096", ramp(4096), Inferno, 2},
		{"257-colors", ramp(257), step(257), 2},
		{"256-colors", ramp(256), step(256), 3},
		{"translucent", ramp(64), translucent, 6},
	} {
		lo, hi := tc.r.MinMax()
		img := tc.r.ImageScaled(tc.cm, lo, hi)
		colors := map[color.RGBA]bool{}
		for i := 0; i < len(img.Pix); i += 4 {
			colors[color.RGBA{img.Pix[i], img.Pix[i+1], img.Pix[i+2], img.Pix[i+3]}] = true
		}
		var got bytes.Buffer
		if err := tc.r.WritePNGScaled(&got, tc.cm, lo, hi); err != nil {
			t.Fatal(err)
		}
		if ct := pngColorType(t, got.Bytes()); ct != tc.wantType {
			t.Errorf("%s (%d colors): IHDR color type %d, want %d", tc.name, len(colors), ct, tc.wantType)
		}
		if tc.wantType == 3 {
			assertDecodesTo(t, got.Bytes(), img)
			continue
		}
		if tc.name == "inferno-4096" && len(colors) <= 256 {
			t.Fatalf("%s: only %d distinct colors; the case must overflow the palette", tc.name, len(colors))
		}
		var want bytes.Buffer
		plain := png.Encoder{CompressionLevel: pngEncoder.CompressionLevel}
		if err := plain.Encode(&want, img); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WritePNGScaled bytes differ from png.Encoder{CompressionLevel: %d}.Encode(ImageScaled)",
				tc.name, plain.CompressionLevel)
		}
	}
}

// TestPaletterStaleBuffers pins the pooled palette state: a paletter whose
// Pix, palette and lookup maps hold a previous, larger tile's contents
// indexes and encodes a raster exactly as a fresh one does, and so does one
// whose swatches of this raster's colors stand from earlier encodes.
func TestPaletterStaleBuffers(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	r := &Raster{Bounds: geom.Rect{MaxX: 1, MaxY: 1}, Width: 37, Height: 23, Values: make([]float64, 37*23)}
	for i := range r.Values {
		r.Values[i] = float64(rng.Intn(5))
	}
	stale := paletters.New().(*paletter)
	stale.gen = 41
	stale.img.Pix = bytes.Repeat([]byte{0xff}, 4096)
	for i := 0; i < 200; i++ {
		stale.img.Palette = append(stale.img.Palette, color.RGBA{R: uint8(i), A: 255})
		stale.byHeat[math.Float64bits(float64(i%5))] = uint8(199 - i)
		c := Inferno(float64(i%5) / 4)
		stale.swatches[c] = swatch{entry: color.NRGBA{R: c.R, G: c.G, B: c.B, A: 255}, idx: uint8(i), gen: stale.gen}
	}
	encode := func(p *paletter) []byte {
		img, ok := p.index(r, Inferno, 0, 4)
		if !ok {
			t.Fatal("a five-heat raster must fit a palette")
		}
		var b bytes.Buffer
		if err := pngEncoder.Encode(&b, img); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	fresh := encode(paletters.New().(*paletter))
	if got := encode(stale); !bytes.Equal(got, fresh) {
		t.Fatal("encoding from stale pooled buffers differs from a fresh encode")
	}
	var viaAPI bytes.Buffer
	if err := r.WritePNGScaled(&viaAPI, Inferno, 0, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaAPI.Bytes(), fresh) {
		t.Fatal("WritePNGScaled differs from a fresh paletter's encode")
	}
}

// TestRenderIntoMatchesRender pins the pooled raster path: RenderInto into a
// raster prefilled with NaN — larger than the tile, and smaller — equals a
// fresh Render, for every metric through the slab index and through the
// enclosure path.
func TestRenderIntoMatchesRender(t *testing.T) {
	t.Parallel()
	ds := dataset.Uniform(300, geom.Rect{MaxX: 100, MaxY: 100}, 11)
	clients, facilities := ds.SampleClientsFacilities(200, 40, 3)
	for _, metric := range []geom.Metric{geom.LInf, geom.L1, geom.L2} {
		circles, err := nncircle.Compute(clients, facilities, metric)
		if err != nil {
			t.Fatal(err)
		}
		encl, err := NewRenderer(circles, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pointloc.Build(circles, nil, pointloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		slab, err := NewIndexRenderer(ix, encl.Bounds(), nil)
		if err != nil {
			t.Fatal(err)
		}
		b := encl.Bounds()
		sub := geom.Rect{MinX: b.MinX + 10, MinY: b.MinY + 20, MaxX: b.MinX + 50, MaxY: b.MinY + 45}
		for name, rd := range map[string]*Renderer{"enclosure": encl, "slab": slab} {
			for _, prefill := range []int{0, 17, 40 * 30, 5000} {
				dst := &Raster{Values: make([]float64, prefill)}
				for i := range dst.Values {
					dst.Values[i] = math.NaN()
				}
				for _, view := range []geom.Rect{sub, b} {
					want, err := rd.Render(view, 40, 30)
					if err != nil {
						t.Fatal(err)
					}
					if err := rd.RenderInto(dst, view, 40, 30); err != nil {
						t.Fatal(err)
					}
					if dst.Bounds != want.Bounds || dst.Width != want.Width || dst.Height != want.Height || len(dst.Values) != len(want.Values) {
						t.Fatalf("%v %s: RenderInto raster %v %dx%d with %d values, want %v %dx%d with %d", metric, name,
							dst.Bounds, dst.Width, dst.Height, len(dst.Values), want.Bounds, want.Width, want.Height, len(want.Values))
					}
					for i, v := range want.Values {
						if math.Float64bits(dst.Values[i]) != math.Float64bits(v) {
							t.Fatalf("%v %s prefill %d: value %d = %g, want %g", metric, name, prefill, i, dst.Values[i], v)
						}
					}
				}
			}
		}
	}
}
