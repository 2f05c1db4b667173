package render

import (
	"bufio"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"io"
)

// pngSignature opens every PNG stream.
var pngSignature = [8]byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}

// indexedPNG writes opaque palette images byte for byte as
// png.Encoder{CompressionLevel: png.BestSpeed} does: the same IHDR and PLTE
// chunks, and the same IDAT stream — each row's filter byte (none,
// as png writes every palette image) and its indices packed at 1, 2, 4 or
// 8 bits per pixel by palette size, written row by row into a zlib writer
// at BestSpeed over a 32 KiB bufio.Writer whose flushes become the IDAT
// chunks. It packs the rows straight from Pix, where png reads each
// sub-byte pixel through ColorIndexAt, and its chunk CRCs run through
// crc32.Update, so a warm encode allocates nothing. The zero value is
// ready to use; one encode at a time.
type indexedPNG struct {
	w   io.Writer
	err error
	zw  *zlib.Writer
	bw  *bufio.Writer
	row []byte
	// head and foot frame a chunk, and tmp holds the IHDR and PLTE data;
	// they live here because a writer's Write may keep its argument.
	head [8]byte
	foot [4]byte
	tmp  [3 * 256]byte
}

// encode writes img as an indexed-color PNG to w. Its palette must hold 1
// to 256 opaque colors (png would add a tRNS chunk for others), and its
// Pix indices must be less than the palette's size.
func (e *indexedPNG) encode(w io.Writer, img *image.Paletted) error {
	width, height := img.Rect.Dx(), img.Rect.Dy()
	if width <= 0 || height <= 0 {
		return fmt.Errorf("invalid image size %dx%d", width, height)
	}
	pal := img.Palette
	if len(pal) < 1 || len(pal) > 256 {
		return fmt.Errorf("palette of %d colors", len(pal))
	}
	e.w = w
	_, e.err = w.Write(pngSignature[:])

	bits := 8
	switch {
	case len(pal) <= 2:
		bits = 1
	case len(pal) <= 4:
		bits = 2
	case len(pal) <= 16:
		bits = 4
	}
	binary.BigEndian.PutUint32(e.tmp[0:4], uint32(width))
	binary.BigEndian.PutUint32(e.tmp[4:8], uint32(height))
	e.tmp[8], e.tmp[9] = byte(bits), 3 // indexed color
	e.tmp[10], e.tmp[11], e.tmp[12] = 0, 0, 0
	e.chunk(e.tmp[:13], "IHDR")

	for i, c := range pal {
		c1 := color.NRGBAModel.Convert(c).(color.NRGBA)
		e.tmp[3*i], e.tmp[3*i+1], e.tmp[3*i+2] = c1.R, c1.G, c1.B
	}
	e.chunk(e.tmp[:3*len(pal)], "PLTE")

	if e.err == nil {
		e.err = e.idat(img, width, height, bits)
	}
	e.chunk(nil, "IEND")
	return e.err
}

// idat writes the image data: the packed rows through zlib into the
// bufio.Writer, whose flushes Write turns into IDAT chunks.
func (e *indexedPNG) idat(img *image.Paletted, width, height, bits int) error {
	if e.zw == nil {
		e.bw = bufio.NewWriterSize(e, 1<<15)
		e.zw, _ = zlib.NewWriterLevel(e.bw, zlib.BestSpeed) // fails only for an invalid level
	} else {
		e.bw.Reset(e)
		e.zw.Reset(e.bw)
	}
	n := 1 + (bits*width+7)/8
	if cap(e.row) < n {
		e.row = make([]byte, n)
	}
	row := e.row[:n]
	row[0] = 0 // filter type none
	for y := 0; y < height; y++ {
		packRow(row[1:], img.Pix[y*img.Stride:y*img.Stride+width], bits)
		if _, err := e.zw.Write(row); err != nil {
			return err
		}
	}
	if err := e.zw.Close(); err != nil {
		return err
	}
	return e.bw.Flush()
}

// packRow packs the palette indices pix into out at bits per pixel, each
// byte's pixels from its high bits down, as png does; a partial last byte
// keeps its low bits zero.
func packRow(out, pix []byte, bits int) {
	switch bits {
	case 8:
		copy(out, pix)
	case 4:
		for len(pix) >= 2 {
			out[0] = pix[0]<<4 | pix[1]
			out, pix = out[1:], pix[2:]
		}
		if len(pix) == 1 {
			out[0] = pix[0] << 4
		}
	default:
		shift, perByte := uint(bits), 8/bits
		for k := range out {
			group := pix[k*perByte : min((k+1)*perByte, len(pix))]
			var b byte
			for _, v := range group {
				b = b<<shift | v
			}
			out[k] = b << (shift * uint(perByte-len(group)))
		}
	}
}

// Write writes b as one IDAT chunk; only idat's bufio.Writer calls it.
func (e *indexedPNG) Write(b []byte) (int, error) {
	e.chunk(b, "IDAT")
	if e.err != nil {
		return 0, e.err
	}
	return len(b), nil
}

// chunk writes one chunk — length, name, data and the CRC of name and
// data — unless an earlier write failed.
func (e *indexedPNG) chunk(b []byte, name string) {
	if e.err != nil {
		return
	}
	binary.BigEndian.PutUint32(e.head[:4], uint32(len(b)))
	copy(e.head[4:], name)
	crc := crc32.Update(crc32.Update(0, crc32.IEEETable, e.head[4:]), crc32.IEEETable, b)
	binary.BigEndian.PutUint32(e.foot[:], crc)
	if _, e.err = e.w.Write(e.head[:]); e.err != nil {
		return
	}
	if _, e.err = e.w.Write(b); e.err != nil {
		return
	}
	_, e.err = e.w.Write(e.foot[:])
}
