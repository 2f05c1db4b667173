package render

import (
	"bytes"
	"image"
	"image/png"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
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

// TestPNGBytesMatchStdlibEncode pins the encode path to png.Encode over a
// per-pixel SetRGBA image: the direct Pix fill writes the same pixels, and
// the shared pooled encoder — reused across encodes and goroutines — writes
// the same bytes.
func TestPNGBytesMatchStdlibEncode(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	type tile struct {
		r    *Raster
		cm   ColorMap
		want []byte
	}
	var tiles []tile
	for _, cm := range []ColorMap{Grayscale, Inferno} {
		for k := 0; k < 3; k++ {
			w, h := 1+rng.Intn(70), 1+rng.Intn(70)
			r := &Raster{Bounds: geom.Rect{MaxX: 1, MaxY: 1}, Width: w, Height: h, Values: make([]float64, w*h)}
			for i := range r.Values {
				r.Values[i] = float64(rng.Intn(9))
			}
			ref := image.NewRGBA(image.Rect(0, 0, w, h))
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					ref.SetRGBA(x, y, cm((r.At(x, y)-1)/6))
				}
			}
			if got := r.ImageScaled(cm, 1, 7); !bytes.Equal(got.Pix, ref.Pix) || got.Stride != ref.Stride {
				t.Fatalf("%dx%d: ImageScaled pixels differ from SetRGBA", w, h)
			}
			var want bytes.Buffer
			if err := png.Encode(&want, ref); err != nil {
				t.Fatal(err)
			}
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
						t.Errorf("%dx%d: WritePNGScaled bytes differ from png.Encode", tl.r.Width, tl.r.Height)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
