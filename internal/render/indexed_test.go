package render

import (
	"bytes"
	"encoding/binary"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"testing"
)

// pngReference is the encoder indexedPNG must match byte for byte, with a
// buffer pool of its own so the differential runs stay fast.
var pngReference = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: &pngBuffers{}}

// indexedImage draws a width x height palette image of the given number of
// opaque colors: runs of one index up to maxRun pixels long (1 draws every
// pixel alone).
func indexedImage(rng *rand.Rand, colors, width, height, maxRun int) *image.Paletted {
	pal := make(color.Palette, colors)
	for i := range pal {
		pal[i] = color.NRGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: 255}
	}
	img := image.NewPaletted(image.Rect(0, 0, width, height), pal)
	for i := 0; i < len(img.Pix); {
		v := uint8(rng.Intn(colors))
		for n := 1 + rng.Intn(max(1, maxRun)); n > 0 && i < len(img.Pix); n-- {
			img.Pix[i] = v
			i++
		}
	}
	return img
}

// assertIndexedMatches holds e's encoding of img to pngReference's.
func assertIndexedMatches(t *testing.T, e *indexedPNG, img *image.Paletted, ctx string) []byte {
	t.Helper()
	var want, got bytes.Buffer
	if err := pngReference.Encode(&want, img); err != nil {
		t.Fatalf("%s: png.Encoder: %v", ctx, err)
	}
	if err := e.encode(&got, img); err != nil {
		t.Fatalf("%s: indexedPNG: %v", ctx, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: %dx%d image of %d colors: indexedPNG wrote %d bytes that differ from png.Encoder's %d",
			ctx, img.Rect.Dx(), img.Rect.Dy(), len(img.Palette), got.Len(), want.Len())
	}
	return got.Bytes()
}

// idatChunks counts the IDAT chunks of a PNG stream.
func idatChunks(t *testing.T, b []byte) int {
	t.Helper()
	n := 0
	for b = b[8:]; len(b) >= 12; {
		size := int(binary.BigEndian.Uint32(b))
		if string(b[4:8]) == "IDAT" {
			n++
		}
		b = b[12+size:]
	}
	return n
}

// TestIndexedPNGMatchesEncoder holds indexedPNG to png.Encoder at
// png.BestSpeed on palettes of 1 to 256 colors — every bit depth and both
// sides of each switch — at widths 1 to 300, which cover every partial
// trailing byte at 1, 2 and 4 bits per pixel, on images whose deflate
// stream spans several 32 KiB IDAT chunks, and through one pooled writer whose row buffer still holds a
// larger earlier image's row.
func TestIndexedPNGMatchesEncoder(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	var e indexedPNG
	for _, colors := range []int{1, 2, 3, 4, 5, 16, 17, 256} {
		// Widest first, so each row buffer still holds a wider row.
		for width := 300; width >= 1; width-- {
			img := indexedImage(rng, colors, width, 1+width%5, 1+rng.Intn(8))
			assertIndexedMatches(t, &e, img, "widths")
		}
	}
	// Incompressible rows: several IDAT chunks.
	for _, colors := range []int{2, 16, 256} {
		img := indexedImage(rng, colors, 600, 900, 1)
		b := assertIndexedMatches(t, &e, img, "multi-chunk")
		if n := idatChunks(t, b); n < 3 {
			t.Fatalf("%d colors: %d IDAT chunks, want a deflate stream over at least 3", colors, n)
		}
	}
	// A stale pooled writer: its row buffer filled past the next image's
	// row, its zlib and bufio writers mid-stream from an aborted encode.
	stale := paletters.New().(*paletter)
	assertIndexedMatches(t, &stale.png, indexedImage(rng, 256, 300, 3, 1), "stale")
	for i := range stale.png.row[:cap(stale.png.row)] {
		stale.png.row[i] = 0xff
	}
	_, _ = stale.png.zw.Write([]byte("unfinished"))
	_, _ = stale.png.bw.Write([]byte("unflushed"))
	for _, colors := range []int{2, 4, 16, 256} {
		assertIndexedMatches(t, &stale.png, indexedImage(rng, colors, 37, 11, 3), "stale")
	}
}

// TestIndexedPNGAllocs pins the writer's warm encode of a 256 px tile of 16
// colors to zero allocations.
func TestIndexedPNGAllocs(t *testing.T) {
	img := indexedImage(rand.New(rand.NewSource(9)), 16, 256, 256, 40)
	var e indexedPNG
	var b bytes.Buffer
	if err := e.encode(&b, img); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		if err := e.encode(&b, img); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm encode allocated %v times, want 0", allocs)
	}
}

// FuzzIndexedPNG is the writer's differential fuzz harness: a fuzzer-drawn
// palette image (1 to 256 colors, 1 to 300 px wide, 1 to 300 rows, runs of
// up to 255 equal pixels) encoded by indexedPNG —
// fresh, then warm, through a writer whose row buffer starts stale —
// byte for byte as png.Encoder at png.BestSpeed encodes it.
func FuzzIndexedPNG(f *testing.F) {
	f.Add(int64(1), uint16(16), uint16(256), uint16(256), uint8(40))
	f.Add(int64(2), uint16(1), uint16(1), uint16(1), uint8(1))
	f.Add(int64(3), uint16(2), uint16(9), uint16(3), uint8(2))
	f.Add(int64(4), uint16(3), uint16(299), uint16(7), uint8(5))
	f.Add(int64(5), uint16(17), uint16(300), uint16(300), uint8(1))
	f.Add(int64(6), uint16(255), uint16(123), uint16(45), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, colors, width, height uint16, maxRun uint8) {
		rng := rand.New(rand.NewSource(seed))
		img := indexedImage(rng, 1+int(colors%256), 1+int(width%300), 1+int(height%300), int(maxRun))
		e := indexedPNG{row: bytes.Repeat([]byte{0xa5}, 512)}
		first := assertIndexedMatches(t, &e, img, "fresh")
		if warm := assertIndexedMatches(t, &e, img, "warm"); !bytes.Equal(warm, first) {
			t.Fatal("a warm encode differs from the first")
		}
	})
}
