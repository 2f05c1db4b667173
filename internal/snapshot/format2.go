package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/postprocess"
)

// Format selects the on-disk layout Save-side callers write. FormatV2 is the
// default: fixed-width little-endian sections behind an offset table, loadable
// with mmap and no decode step (see view.go). FormatV1 is the PR 4 streaming
// layout, kept as an escape hatch for rolling back a deploy whose older
// binaries cannot read v2.
type Format uint16

const (
	FormatV1 Format = 1
	FormatV2 Format = 2
)

// Version2 is the sectioned, mmap-friendly format version.
const Version2 uint16 = 2

// Section kinds. Every kind holds one flat array (or, for secMeta, a small
// v1-style field stream); the offset table maps kind -> (offset, length, CRC).
// Layout per kind:
//
//	secMeta          v1-encoder field stream (see encodeMeta)
//	secClients       f64 ×2 per client (x, y)
//	secFacilities    f64 ×2 per facility (x, y)
//	secCircleIDs     i32 ×2 per circle (client, facility)
//	secCircleGeo     f64 ×3 per circle (cx, cy, radius)
//	secCircleMetrics u8 per circle (geom.Metric)
//	secLabelGeo      f64 ×7 per label (region minx,miny,maxx,maxy, point x,y, heat)
//	secLabelSets     u32 per label: id into the interned-set pool
//	secPoolHeats     f64 per pool record: influence of the set
//	secPoolOff       u32 ×(nPool+1): prefix offsets into secPoolMembers
//	secPoolMembers   i32: concatenated sorted member lists of all pool records
//	secSlabXs        f64 per slab: left sweep-space boundary
//	secSlabActOff    u32 ×(nSlabs+1): prefix offsets into secSlabActives
//	secSlabActives   i32: sorted active-circle indexes per slab
//	secSlabEdgeOff   u32 ×(nSlabs+1): prefix offsets into secSlabEdges
//	secSlabEdges     f64: ascending edge ordinates per slab
//	secSlabArcs      u32 per edge (L2 only): circle index <<1 | upper-arc bit
//	secSlabGaps      u32 per gap: pool id; slab i owns edges[i]+1 gaps, so gap
//	                 offsets derive as edgeOff[i]+i with no extra table
//	secSlabZeroXs    f64 per zero-radius circle: sweep-space center x (sorted)
//	secSlabZeroIdx   i32 per zero-radius circle: index into the circle arrays
//
// The slab sections exist only when the snapshot carries a slab index
// (Meta.HasSlabIndex); everything else is always present.
const (
	secMeta          uint32 = 1
	secClients       uint32 = 2
	secFacilities    uint32 = 3
	secCircleIDs     uint32 = 4
	secCircleGeo     uint32 = 5
	secCircleMetrics uint32 = 6
	secLabelGeo      uint32 = 7
	secLabelSets     uint32 = 8
	secPoolHeats     uint32 = 9
	secPoolOff       uint32 = 10
	secPoolMembers   uint32 = 11
	secSlabXs        uint32 = 12
	secSlabActOff    uint32 = 13
	secSlabActives   uint32 = 14
	secSlabEdgeOff   uint32 = 15
	secSlabEdges     uint32 = 16
	secSlabArcs      uint32 = 17
	secSlabGaps      uint32 = 18
	secSlabZeroXs    uint32 = 19
	secSlabZeroIdx   uint32 = 20
)

// tableEntrySize is the byte size of one offset-table entry:
// u32 kind | u32 crc | u64 offset | u64 length.
const tableEntrySize = 24

// SlabTables is the flattened slab point-location index as stored in a v2
// snapshot: the prefix-offset arrays index the concatenated per-slab lists,
// exactly the shape pointloc.Index.ExportTables emits and the mapped locator
// (pointloc.Mapped) queries in place. Gap labels are interned-set pointers;
// the encoder folds them into the snapshot's set pool and stores pool ids.
type SlabTables struct {
	Xs      []float64
	ActOff  []uint32
	Actives []int32
	EdgeOff []uint32
	Edges   []float64
	Arcs    []uint32 // circle index <<1 | upper bit; L2 only, else empty
	Gaps    []*core.Interned
	ZeroXs  []float64
	ZeroIdx []int32
}

// poolBuilder interns label sets by content (oset.ContentKey) into the flat
// pool arrays. The same set written twice (a label and a slab gap, say) gets
// one record; the first writer's heat wins, which is exact because every
// producer computed the heat from the same measure over the same set. ptr
// remembers the id of each slab gap's pool pointer, so the many gaps that
// share one interned label are keyed once.
type poolBuilder struct {
	ids     map[oset.ContentKey]uint32
	ptr     map[*core.Interned]uint32
	heats   []float64
	off     []uint32
	members []int32
}

func newPoolBuilder() *poolBuilder {
	return &poolBuilder{
		ids: make(map[oset.ContentKey]uint32),
		ptr: make(map[*core.Interned]uint32),
		off: []uint32{0},
	}
}

func (p *poolBuilder) intern(rnn []int, heat float64) uint32 {
	k := oset.KeyOf(rnn)
	if id, ok := p.ids[k]; ok {
		return id
	}
	id := uint32(len(p.heats))
	p.ids[k] = id
	p.heats = append(p.heats, heat)
	for _, v := range rnn {
		p.members = append(p.members, int32(v))
	}
	p.off = append(p.off, uint32(len(p.members)))
	return id
}

func (p *poolBuilder) internLabel(l *core.Interned) uint32 {
	if id, ok := p.ptr[l]; ok {
		return id
	}
	id := p.intern(l.RNN, l.Heat)
	p.ptr[l] = id
	return id
}

// sectionWriter accumulates aligned sections and their table entries.
type sectionWriter struct {
	buf   bytes.Buffer
	kinds []uint32
	offs  []uint64
	lens  []uint64
	crcs  []uint32
	base  uint64 // file offset of buf's first byte
}

func (s *sectionWriter) add(kind uint32, payload []byte) {
	for s.buf.Len()%8 != 0 {
		s.buf.WriteByte(0)
	}
	s.kinds = append(s.kinds, kind)
	s.offs = append(s.offs, s.base+uint64(s.buf.Len()))
	s.lens = append(s.lens, uint64(len(payload)))
	s.crcs = append(s.crcs, crc32.ChecksumIEEE(payload))
	s.buf.Write(payload)
}

func f64Bytes(vs []float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func u32Bytes(vs []uint32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[i*4:], v)
	}
	return b
}

func i32Bytes(vs []int32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	return b
}

func pointBytes(ps []geom.Point) []byte {
	b := make([]byte, 16*len(ps))
	for i, p := range ps {
		binary.LittleEndian.PutUint64(b[i*16:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[i*16+8:], math.Float64bits(p.Y))
	}
	return b
}

// encodeMeta writes the small non-array remainder of the snapshot with the v1
// field encoder: identification, config, measure spec, stats, extrema, the
// array counts the loader validates every section length against, and the
// derived summary/bounds a mapped map serves without materializing anything.
func (s *Snapshot) encodeMeta(tables *SlabTables, nPool int) ([]byte, error) {
	var buf bytes.Buffer
	e := &encoder{w: &buf}
	e.u64(s.MapVersion)
	e.u8(uint8(s.Metric))
	var flags uint8
	if s.Monochromatic {
		flags |= 1
	}
	if tables != nil {
		flags |= 2
	}
	e.u8(flags)
	e.str(s.Algorithm)
	e.i64(int64(s.Workers))
	encodeSpec(e, s.Measure)
	e.f64(s.MaxHeat)
	encodeLabel(e, &s.MaxLabel)
	e.i64(int64(s.Stats.Circles))
	e.i64(int64(s.Stats.Events))
	e.i64(int64(s.Stats.Labelings))
	e.i64(int64(s.Stats.InfluenceCalls))
	e.i64(int64(s.Stats.EnclosureQueries))
	e.i64(int64(s.Stats.GridCells))
	e.i64(int64(s.Stats.MaxRNNSetSize))
	e.i64(int64(s.Stats.Duration))
	e.u32(uint32(len(s.Clients)))
	e.u32(uint32(len(s.Facilities)))
	e.u32(uint32(len(s.Circles)))
	e.u32(uint32(len(s.Labels)))
	e.u32(uint32(nPool))
	if tables != nil {
		e.u32(uint32(len(tables.Xs)))
	} else {
		e.u32(0)
	}
	sum := postprocess.Summarize(s.Labels)
	e.i64(int64(sum.Count))
	e.i64(int64(sum.DistinctSets))
	e.f64(sum.MinHeat)
	e.f64(sum.MaxHeat)
	e.f64(sum.MeanHeat)
	e.i64(int64(sum.MaxRNNSize))
	bounds := geom.EmptyRect()
	for _, nc := range s.Circles {
		bounds = bounds.Union(nc.Circle.BoundingRect())
	}
	e.f64(bounds.MinX)
	e.f64(bounds.MinY)
	e.f64(bounds.MaxX)
	e.f64(bounds.MaxY)
	if e.err != nil {
		return nil, e.err
	}
	return buf.Bytes(), nil
}

// EncodeV2 writes the snapshot to w in the sectioned format v2. tables may be
// nil: the snapshot is then written without a slab index and loaders fall
// back to building one lazily, exactly as for a v1 file.
//
// Layout:
//
//	magic "RNHM" | u16 version=2 | u16 section count |
//	count × { u32 kind | u32 payload CRC-32 (IEEE) | u64 offset | u64 length } |
//	u32 header CRC-32 (over everything before it) | padding |
//	section payloads, each 8-byte aligned
//
// Offsets are absolute file offsets. Each payload carries its own CRC, so a
// torn write is pinned to a section instead of condemning the whole file.
func (s *Snapshot) EncodeV2(w io.Writer, tables *SlabTables) error {
	if tables != nil && len(tables.Gaps) != len(tables.Edges)+len(tables.Xs) {
		return fmt.Errorf("snapshot: slab tables: %d gaps for %d edges + %d slabs",
			len(tables.Gaps), len(tables.Edges), len(tables.Xs))
	}

	pool := newPoolBuilder()
	labelGeo := make([]float64, 0, 7*len(s.Labels))
	labelSets := make([]uint32, 0, len(s.Labels))
	for i := range s.Labels {
		l := &s.Labels[i]
		labelGeo = append(labelGeo,
			l.Region.MinX, l.Region.MinY, l.Region.MaxX, l.Region.MaxY,
			l.Point.X, l.Point.Y, l.Heat)
		labelSets = append(labelSets, pool.intern(l.RNN, l.Heat))
	}
	var gapIDs []uint32
	if tables != nil {
		gapIDs = make([]uint32, 0, len(tables.Gaps))
		for _, g := range tables.Gaps {
			gapIDs = append(gapIDs, pool.internLabel(g))
		}
	}

	meta, err := s.encodeMeta(tables, len(pool.heats))
	if err != nil {
		return fmt.Errorf("snapshot: encoding: %w", err)
	}

	circleIDs := make([]int32, 0, 2*len(s.Circles))
	circleGeo := make([]float64, 0, 3*len(s.Circles))
	circleMetrics := make([]byte, 0, len(s.Circles))
	for _, c := range s.Circles {
		circleIDs = append(circleIDs, int32(c.Client), int32(c.Facility))
		circleGeo = append(circleGeo, c.Circle.Center.X, c.Circle.Center.Y, c.Circle.Radius)
		circleMetrics = append(circleMetrics, byte(c.Circle.Metric))
	}

	sw := &sectionWriter{}
	sw.add(secMeta, meta)
	sw.add(secClients, pointBytes(s.Clients))
	sw.add(secFacilities, pointBytes(s.Facilities))
	sw.add(secCircleIDs, i32Bytes(circleIDs))
	sw.add(secCircleGeo, f64Bytes(circleGeo))
	sw.add(secCircleMetrics, circleMetrics)
	sw.add(secLabelGeo, f64Bytes(labelGeo))
	sw.add(secLabelSets, u32Bytes(labelSets))
	sw.add(secPoolHeats, f64Bytes(pool.heats))
	sw.add(secPoolOff, u32Bytes(pool.off))
	sw.add(secPoolMembers, i32Bytes(pool.members))
	if tables != nil {
		sw.add(secSlabXs, f64Bytes(tables.Xs))
		sw.add(secSlabActOff, u32Bytes(tables.ActOff))
		sw.add(secSlabActives, i32Bytes(tables.Actives))
		sw.add(secSlabEdgeOff, u32Bytes(tables.EdgeOff))
		sw.add(secSlabEdges, f64Bytes(tables.Edges))
		sw.add(secSlabArcs, u32Bytes(tables.Arcs))
		sw.add(secSlabGaps, u32Bytes(gapIDs))
		sw.add(secSlabZeroXs, f64Bytes(tables.ZeroXs))
		sw.add(secSlabZeroIdx, i32Bytes(tables.ZeroIdx))
	}

	// The payload offsets recorded above assumed base 0; shift them past the
	// header now that the section count is known.
	nSec := len(sw.kinds)
	headerLen := 4 + 2 + 2 + nSec*tableEntrySize + 4
	base := uint64((headerLen + 7) &^ 7)
	header := make([]byte, base)
	copy(header, magic[:])
	binary.LittleEndian.PutUint16(header[4:], Version2)
	binary.LittleEndian.PutUint16(header[6:], uint16(nSec))
	for i := 0; i < nSec; i++ {
		ent := header[8+i*tableEntrySize:]
		binary.LittleEndian.PutUint32(ent[0:], sw.kinds[i])
		binary.LittleEndian.PutUint32(ent[4:], sw.crcs[i])
		binary.LittleEndian.PutUint64(ent[8:], base+sw.offs[i])
		binary.LittleEndian.PutUint64(ent[16:], sw.lens[i])
	}
	headCRC := crc32.ChecksumIEEE(header[:headerLen-4])
	binary.LittleEndian.PutUint32(header[headerLen-4:], headCRC)

	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := w.Write(sw.buf.Bytes()); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// WriteFileV2 atomically writes the snapshot to path in format v2 with the
// same temp-file + fsync + rename discipline as WriteFile.
func (s *Snapshot) WriteFileV2(path string, tables *SlabTables) error {
	return s.writeFileWith(path, func(w io.Writer) error { return s.EncodeV2(w, tables) })
}

// WriteFileFormat writes the snapshot in the requested format. tables is only
// consulted for FormatV2 (v1 has no slab sections).
func (s *Snapshot) WriteFileFormat(path string, format Format, tables *SlabTables) error {
	switch format {
	case FormatV1:
		return s.WriteFile(path)
	case FormatV2, 0:
		return s.WriteFileV2(path, tables)
	default:
		return fmt.Errorf("snapshot: unknown format %d", format)
	}
}

func (s *Snapshot) writeFileWith(path string, encode func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}
