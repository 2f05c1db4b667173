// Package snapshot persists built heat maps. A snapshot file round-trips
// everything a heatmap.Map is made of — the client and facility sets, the
// NN-circles, the labeled regions, the influence measure's serializable
// context, the run statistics and, when one was built, the slab
// point-location index — so a server restart serves a 100k-circle map
// without re-running the CREST sweep. A companion write-ahead log (wal.go)
// records the deltas a mutable server applied since its last snapshot, so
// replaying snapshot+WAL reconstructs the exact pre-crash map.
//
// A map reaches disk through one writer (WriteFile, format2.go) and comes
// back through one reader (Open, view.go). The layout is format version 2:
// the magic "RNHM" and a u16 version, then fixed-width little-endian
// sections behind an offset table, each CRC-framed individually, so the
// file is mmap'd and queried with no decode step. Every section is bounds-
// and CRC-checked at Open, so a corrupt or truncated file fails fast
// instead of being misread.
//
// Compatibility policy: readers accept exactly the version this package
// writes. Any layout change bumps the version, and a file of any other
// version — the retired streaming format 1 included — is refused with an
// error naming the file and its version, never misparsed. To migrate a
// version-1 file, open the map with a build that still reads version 1 and
// save it again (heatmapd's POST /maps/{name}/snapshot forces a save).
// heatmapd has written version 2 by default since that format was
// introduced.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/postprocess"
)

var magic = [4]byte{'R', 'N', 'H', 'M'}

// maxSliceLen bounds every length prefix read from a snapshot or WAL file.
// It is far above any realistic workload (the repo's big benchmarks use 100k
// circles) but small enough that a corrupt length cannot claim an absurd
// element count outright.
const maxSliceLen = 1 << 28

// allocChunk caps the up-front capacity of any slice grown during decoding.
// Decoders append up to the declared length but never reserve more than this
// ahead of the data actually read, so a corrupt length prefix runs the
// stream out of input (an error) after at most a few MB of allocation
// instead of OOM-ing the loader.
const allocChunk = 1 << 16

// Snapshot is the serializable state of one built heat map. It mirrors the
// inputs and outputs of heatmap.Build plus the map version a server had
// assigned when it saved.
type Snapshot struct {
	// MapVersion is the server-side version counter of the saved map (1 for a
	// freshly built map, +1 per applied mutation). WAL replay skips records
	// already folded into the snapshot by comparing against it.
	MapVersion uint64
	// Metric, Monochromatic, Algorithm and Workers reproduce the
	// heatmap.Config the map was built with.
	Metric        geom.Metric
	Monochromatic bool
	Algorithm     string
	Workers       int
	// Measure is the serializable description of the influence measure.
	Measure influence.Spec
	// Clients and Facilities are the point sets (after any applied deltas).
	Clients    []geom.Point
	Facilities []geom.Point
	// Circles are the NN-circles of the clients.
	Circles []nncircle.NNCircle
	// Labels, MaxHeat, MaxLabel and Stats reproduce the core.Result of the
	// Region Coloring run.
	Labels   []core.Label
	MaxHeat  float64
	MaxLabel core.Label
	Stats    core.Stats
	// Summary, when non-nil, is postprocess.Summarize(Labels), which the
	// caller already holds; the encoder computes it when nil.
	Summary *postprocess.Summary
}

func encodeLabel(e *encoder, l *core.Label) {
	e.f64(l.Region.MinX)
	e.f64(l.Region.MinY)
	e.f64(l.Region.MaxX)
	e.f64(l.Region.MaxY)
	e.f64(l.Point.X)
	e.f64(l.Point.Y)
	e.f64(l.Heat)
	e.u32(uint32(len(l.RNN)))
	for _, id := range l.RNN {
		e.i32(int32(id))
	}
}

func decodeLabel(d *decoder, l *core.Label) {
	l.Region = geom.Rect{MinX: d.f64(), MinY: d.f64(), MaxX: d.f64(), MaxY: d.f64()}
	l.Point = geom.Point{X: d.f64(), Y: d.f64()}
	l.Heat = d.f64()
	n := d.sliceLen()
	if d.err != nil {
		return
	}
	// Always allocate: the sweeps emit empty (non-nil) RNN slices for regions
	// outside every circle, and round-trip equality must preserve that.
	l.RNN = make([]int, 0, min(n, allocChunk))
	for i := 0; i < n && d.err == nil; i++ {
		l.RNN = append(l.RNN, int(d.i32()))
	}
}

func encodeSpec(e *encoder, s influence.Spec) {
	e.str(s.Kind)
	e.f64s(s.Weights)
	e.u32(uint32(len(s.Edges)))
	for _, edge := range s.Edges {
		e.i32(int32(edge[0]))
		e.i32(int32(edge[1]))
	}
	if s.Capacity == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.i32s(s.Capacity.Assignment)
		e.f64s(s.Capacity.Capacities)
		e.f64(s.Capacity.NewFacilityCapacity)
	}
	e.f64(s.GainCapacity)
}

func decodeSpec(d *decoder) influence.Spec {
	var s influence.Spec
	s.Kind = d.str()
	s.Weights = d.f64s()
	n := d.sliceLen()
	if d.err == nil && n > 0 {
		s.Edges = make([][2]int, 0, min(n, allocChunk))
		for i := 0; i < n && d.err == nil; i++ {
			s.Edges = append(s.Edges, [2]int{int(d.i32()), int(d.i32())})
		}
	}
	if d.u8() == 1 {
		ctx := &influence.CapacityContext{}
		ctx.Assignment = d.i32s()
		ctx.Capacities = d.f64s()
		ctx.NewFacilityCapacity = d.f64()
		s.Capacity = ctx
	}
	s.GainCapacity = d.f64()
	return s
}

// MapPath and WALPath return the canonical file names for a named map inside
// a snapshot directory; the server and heatmapd agree on them.
func MapPath(dir, name string) string { return filepath.Join(dir, name+".snap") }
func WALPath(dir, name string) string { return filepath.Join(dir, name+".wal") }

// encoder writes little-endian primitives with a sticky error.
type encoder struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (e *encoder) write(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *encoder) u8(v uint8) { e.buf[0] = v; e.write(e.buf[:1]) }
func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.write(e.buf[:4])
}
func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.write(e.buf[:8])
}
func (e *encoder) i32(v int32)   { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.write([]byte(s))
}

func (e *encoder) f64s(vs []float64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}

func (e *encoder) i32s(vs []int) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i32(int32(v))
	}
}

func (e *encoder) points(ps []geom.Point) {
	e.u32(uint32(len(ps)))
	for _, p := range ps {
		e.f64(p.X)
		e.f64(p.Y)
	}
}

// decoder reads little-endian primitives with a sticky error.
type decoder struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (d *decoder) read(b []byte) {
	if d.err != nil {
		for i := range b {
			b[i] = 0
		}
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		for i := range b {
			b[i] = 0
		}
	}
}

func (d *decoder) u8() uint8 { d.read(d.buf[:1]); return d.buf[0] }
func (d *decoder) u32() uint32 {
	d.read(d.buf[:4])
	return binary.LittleEndian.Uint32(d.buf[:4])
}
func (d *decoder) u64() uint64 {
	d.read(d.buf[:8])
	return binary.LittleEndian.Uint64(d.buf[:8])
}
func (d *decoder) i32() int32   { return int32(d.u32()) }
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// sliceLen reads a length prefix and validates it against maxSliceLen.
func (d *decoder) sliceLen() int {
	n := d.u32()
	if d.err == nil && n > maxSliceLen {
		d.err = fmt.Errorf("length prefix %d exceeds the sanity bound %d: file is corrupt", n, maxSliceLen)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, 0, min(n, allocChunk))
	var chunk [256]byte
	for len(b) < n && d.err == nil {
		c := chunk[:min(n-len(b), len(chunk))]
		d.read(c)
		b = append(b, c...)
	}
	return string(b)
}

func (d *decoder) f64s() []float64 {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, 0, min(n, allocChunk))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.f64())
	}
	return out
}

func (d *decoder) i32s() []int {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, 0, min(n, allocChunk))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, int(d.i32()))
	}
	return out
}

func (d *decoder) points() []geom.Point {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]geom.Point, 0, min(n, allocChunk))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, geom.Point{X: d.f64(), Y: d.f64()})
	}
	return out
}
