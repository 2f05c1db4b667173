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
	"runtime"
	"unsafe"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/postprocess"
)

// Version is the snapshot format version: the sectioned, mmap-friendly
// layout below. Open refuses files of any other version.
const Version uint16 = 2

// Section kinds. Every kind holds one flat array (or, for secMeta, a small
// field stream); the offset table maps kind -> (offset, length, CRC).
// Layout per kind:
//
//	secMeta          little-endian field stream (see encodeMeta)
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

// SlabTables is the slab point-location index as the encoder reads it: the
// index's own arrays, slab by slab. Slab returns each slab's lists as the
// index stores them — heap slices, or slices of the mapped file an index was
// opened from — and the encoder streams the file's concatenated sections and
// their prefix offsets straight from them, copying no list.
// pointloc.Index.ExportTables builds one, and pointloc.Open slices the
// sections back out into the same per-slab lists. Gap labels are the index's
// set ids; the encoder folds their sets into the snapshot's set pool and
// stores pool ids.
type SlabTables struct {
	// Xs holds the slab left edges, ascending: one per slab.
	Xs []float64
	// Slab returns the lists of slab i, for 0 <= i < len(Xs). The encoder
	// calls it more than once per slab and reads the lists only.
	Slab func(i int) SlabLists
	// NumSets bounds the gap set ids; Set resolves an id to the set's
	// members (ascending) and heat.
	NumSets int
	Set     func(id uint32) (rnn []int, heat float64)
	ZeroXs  []float64
	ZeroIdx []int32
}

// SlabLists holds the lists of one slab.
type SlabLists struct {
	Actives []int32   // active circle indexes, ascending
	Edges   []float64 // edge ordinates, ascending
	Arcs    []uint32  // one per edge, L2 only (else empty): circle index <<1 | upper bit
	Gaps    []uint32  // len(Edges)+1 set ids, the gap below the first edge first
}

// poolBuilder interns label sets by content (oset.ContentKey) into the
// snapshot's set pool, in first-appearance order: labels first, then slab
// gaps. The same set written twice (a label and a slab gap, say) gets one
// record; the first writer's heat wins, which is exact because every
// producer computed the heat from the same measure over the same set. A
// record is kept as a reference to its first writer, whose own set and heat
// the pool sections are streamed from.
type poolBuilder struct {
	ids map[oset.ContentKey]uint32
	// refs[id] is the first writer of record id: a label index, or
	// len(labels) + a gap set id.
	refs   []uint32
	labels []core.Label
	tables *SlabTables
}

func (p *poolBuilder) intern(rnn []int, ref uint32) uint32 {
	k := oset.KeyOf(rnn)
	if id, ok := p.ids[k]; ok {
		return id
	}
	id := uint32(len(p.refs))
	p.ids[k] = id
	p.refs = append(p.refs, ref)
	return id
}

// record returns the members and heat of pool record id.
func (p *poolBuilder) record(id int) ([]int, float64) {
	r := int(p.refs[id])
	if r < len(p.labels) {
		return p.labels[r].RNN, p.labels[r].Heat
	}
	return p.tables.Set(uint32(r - len(p.labels)))
}

// gapIDs interns the sets the tables' gaps name, slab by slab, and returns
// a dense table over the set ids: the pool id + 1 of each set a gap names,
// 0 for the rest. Each distinct set id is keyed once; the many gaps sharing
// one set cost one array read each.
func (p *poolBuilder) gapIDs() ([]uint32, error) {
	t := p.tables
	pooled := make([]uint32, t.NumSets)
	for i := range t.Xs {
		sl := t.Slab(i)
		if len(sl.Gaps) != len(sl.Edges)+1 {
			return nil, fmt.Errorf("snapshot: slab tables: slab %d has %d gaps for %d edges", i, len(sl.Gaps), len(sl.Edges))
		}
		for _, g := range sl.Gaps {
			if int(g) >= len(pooled) {
				return nil, fmt.Errorf("snapshot: slab tables: gap set id %d of %d", g, len(pooled))
			}
			if pooled[g] == 0 {
				rnn, _ := t.Set(g)
				pooled[g] = p.intern(rnn, uint32(len(p.labels))+g) + 1
			}
		}
	}
	return pooled, nil
}

// stageSize is the capacity of the one buffer an encoding stages its
// derived values, converted arrays and short array views in.
const stageSize = 256 << 10

// sink receives the bytes of an encoding. An array arrives as a byte view
// of itself when alias is set (a little-endian host, whose memory order is
// the file's) and is converted value by value otherwise. Derived and
// converted values, and views shorter than the stage, collect in buf, whose
// capacity never grows, so w sees few large writes.
type sink struct {
	w     io.Writer
	alias bool
	buf   []byte
	n     uint64 // bytes handed to w
	err   error
}

// off returns the number of bytes received so far.
func (k *sink) off() uint64 { return k.n + uint64(len(k.buf)) }

func (k *sink) write(b []byte) {
	k.n += uint64(len(b))
	if k.err == nil {
		_, k.err = k.w.Write(b)
	}
}

func (k *sink) flush() {
	if len(k.buf) > 0 {
		k.write(k.buf)
		k.buf = k.buf[:0]
	}
}

// bytes receives b, staging it unless it is at least a stage long.
func (k *sink) bytes(b []byte) {
	if len(b) > cap(k.buf)-len(k.buf) {
		k.flush()
		if len(b) >= cap(k.buf) {
			k.write(b)
			return
		}
	}
	k.buf = append(k.buf, b...)
}

// room flushes the stage unless it has n bytes free.
func (k *sink) room(n int) {
	if cap(k.buf)-len(k.buf) < n {
		k.flush()
	}
}

func (k *sink) u8(v uint8)    { k.room(1); k.buf = append(k.buf, v) }
func (k *sink) u32(v uint32)  { k.room(4); k.buf = binary.LittleEndian.AppendUint32(k.buf, v) }
func (k *sink) u64(v uint64)  { k.room(8); k.buf = binary.LittleEndian.AppendUint64(k.buf, v) }
func (k *sink) i32(v int32)   { k.u32(uint32(v)) }
func (k *sink) f64(v float64) { k.u64(math.Float64bits(v)) }

func (k *sink) f64s(vs []float64) {
	if k.alias {
		k.bytes(byteView(vs))
		return
	}
	for _, v := range vs {
		k.f64(v)
	}
}

func (k *sink) u32s(vs []uint32) {
	if k.alias {
		k.bytes(byteView(vs))
		return
	}
	for _, v := range vs {
		k.u32(v)
	}
}

func (k *sink) i32s(vs []int32) {
	if k.alias {
		k.bytes(byteView(vs))
		return
	}
	for _, v := range vs {
		k.i32(v)
	}
}

func (k *sink) points(ps []geom.Point) {
	if k.alias {
		k.bytes(byteView(ps))
		return
	}
	for _, p := range ps {
		k.f64(p.X)
		k.f64(p.Y)
	}
}

// poolIDs receives pooled[g]-1 for each gap set id g: a slab's gaps as
// pool ids (see poolBuilder.gapIDs).
func (k *sink) poolIDs(gaps, pooled []uint32) {
	for len(gaps) > 0 {
		k.room(4)
		n := min(len(gaps), (cap(k.buf)-len(k.buf))/4)
		for _, g := range gaps[:n] {
			k.buf = binary.LittleEndian.AppendUint32(k.buf, pooled[g]-1)
		}
		gaps = gaps[n:]
	}
}

// crcWriter keeps the CRC-32 (IEEE) of what it is given.
type crcWriter struct{ crc uint32 }

func (c *crcWriter) Write(b []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, b)
	return len(b), nil
}

// section is one payload of the file: emit streams it into a sink, once to
// size and checksum it and once to write it, and must send the same bytes
// both times.
type section struct {
	kind uint32
	emit func(k *sink)
	len  uint64
	crc  uint32
}

// encodeMeta writes the small non-array remainder of the snapshot with the
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
	sum := s.Summary
	if sum == nil {
		all := postprocess.Summarize(s.Labels)
		sum = &all
	}
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

// sections lays the snapshot out for writing: it interns the set pool and
// returns the payloads in file order, each streamed from the array that
// holds it or derived from one as it is written.
func (s *Snapshot) sections(tables *SlabTables) ([]section, error) {
	pool := &poolBuilder{ids: make(map[oset.ContentKey]uint32, len(s.Labels)), labels: s.Labels, tables: tables}
	// A label's pool id is the one value whose derivation (keying its set)
	// costs more than holding it: 4 bytes per label, against the 60 the
	// label sections store.
	labelSets := make([]uint32, len(s.Labels))
	for i := range s.Labels {
		labelSets[i] = pool.intern(s.Labels[i].RNN, uint32(i))
	}
	var gapIDs []uint32
	if tables != nil {
		var err error
		if gapIDs, err = pool.gapIDs(); err != nil {
			return nil, err
		}
	}
	meta, err := s.encodeMeta(tables, len(pool.refs))
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding: %w", err)
	}
	secs := []section{
		{kind: secMeta, emit: func(k *sink) { k.bytes(meta) }},
		{kind: secClients, emit: func(k *sink) { k.points(s.Clients) }},
		{kind: secFacilities, emit: func(k *sink) { k.points(s.Facilities) }},
		{kind: secCircleIDs, emit: func(k *sink) {
			for _, c := range s.Circles {
				k.i32(int32(c.Client))
				k.i32(int32(c.Facility))
			}
		}},
		{kind: secCircleGeo, emit: func(k *sink) {
			for _, c := range s.Circles {
				k.f64(c.Circle.Center.X)
				k.f64(c.Circle.Center.Y)
				k.f64(c.Circle.Radius)
			}
		}},
		{kind: secCircleMetrics, emit: func(k *sink) {
			for _, c := range s.Circles {
				k.u8(uint8(c.Circle.Metric))
			}
		}},
		{kind: secLabelGeo, emit: func(k *sink) {
			for i := range s.Labels {
				l := &s.Labels[i]
				k.f64(l.Region.MinX)
				k.f64(l.Region.MinY)
				k.f64(l.Region.MaxX)
				k.f64(l.Region.MaxY)
				k.f64(l.Point.X)
				k.f64(l.Point.Y)
				k.f64(l.Heat)
			}
		}},
		{kind: secLabelSets, emit: func(k *sink) { k.u32s(labelSets) }},
		{kind: secPoolHeats, emit: func(k *sink) {
			for id := range pool.refs {
				_, heat := pool.record(id)
				k.f64(heat)
			}
		}},
		{kind: secPoolOff, emit: func(k *sink) {
			off := uint32(0)
			k.u32(off)
			for id := range pool.refs {
				rnn, _ := pool.record(id)
				off += uint32(len(rnn))
				k.u32(off)
			}
		}},
		{kind: secPoolMembers, emit: func(k *sink) {
			for id := range pool.refs {
				rnn, _ := pool.record(id)
				for _, v := range rnn {
					k.i32(int32(v))
				}
			}
		}},
	}
	if tables != nil {
		secs = append(secs, tables.sections(gapIDs)...)
	}
	return secs, nil
}

// sections returns the slab sections, streamed from the slabs' own lists:
// the offset arrays are running sums of the list lengths, and gap set ids
// map to pool ids through pooled (see poolBuilder.gapIDs).
func (t *SlabTables) sections(pooled []uint32) []section {
	n := len(t.Xs)
	prefix := func(k *sink, count func(SlabLists) int) {
		off := uint32(0)
		k.u32(off)
		for i := 0; i < n; i++ {
			off += uint32(count(t.Slab(i)))
			k.u32(off)
		}
	}
	return []section{
		{kind: secSlabXs, emit: func(k *sink) { k.f64s(t.Xs) }},
		{kind: secSlabActOff, emit: func(k *sink) { prefix(k, func(sl SlabLists) int { return len(sl.Actives) }) }},
		{kind: secSlabActives, emit: func(k *sink) {
			for i := 0; i < n; i++ {
				k.i32s(t.Slab(i).Actives)
			}
		}},
		{kind: secSlabEdgeOff, emit: func(k *sink) { prefix(k, func(sl SlabLists) int { return len(sl.Edges) }) }},
		{kind: secSlabEdges, emit: func(k *sink) {
			for i := 0; i < n; i++ {
				k.f64s(t.Slab(i).Edges)
			}
		}},
		{kind: secSlabArcs, emit: func(k *sink) {
			for i := 0; i < n; i++ {
				k.u32s(t.Slab(i).Arcs)
			}
		}},
		{kind: secSlabGaps, emit: func(k *sink) {
			for i := 0; i < n; i++ {
				k.poolIDs(t.Slab(i).Gaps, pooled)
			}
		}},
		{kind: secSlabZeroXs, emit: func(k *sink) { k.f64s(t.ZeroXs) }},
		{kind: secSlabZeroIdx, emit: func(k *sink) { k.i32s(t.ZeroIdx) }},
	}
}

// header returns the file header for secs, whose lengths and CRCs are
// known: magic, version, the section table with each payload's absolute
// offset (8-byte aligned, in order, from the end of the padded header) and
// the header CRC, padded to the first payload.
func header(secs []section) []byte {
	headerLen := 4 + 2 + 2 + len(secs)*tableEntrySize + 4
	off := uint64((headerLen + 7) &^ 7)
	h := make([]byte, off)
	copy(h, magic[:])
	binary.LittleEndian.PutUint16(h[4:], Version)
	binary.LittleEndian.PutUint16(h[6:], uint16(len(secs)))
	for i, sec := range secs {
		ent := h[8+i*tableEntrySize:]
		binary.LittleEndian.PutUint32(ent[0:], sec.kind)
		binary.LittleEndian.PutUint32(ent[4:], sec.crc)
		binary.LittleEndian.PutUint64(ent[8:], off)
		binary.LittleEndian.PutUint64(ent[16:], sec.len)
		off = (off + sec.len + 7) &^ 7
	}
	binary.LittleEndian.PutUint32(h[headerLen-4:], crc32.ChecksumIEEE(h[:headerLen-4]))
	return h
}

// Encode writes the snapshot to w in the sectioned format. tables may be
// nil: the snapshot is then written without slab sections, and a map opened
// from it builds its slab index on the first query that needs one.
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
//
// Every section is streamed from the array that holds it — the snapshot's
// slices, the slab index's own lists — twice: once into a checksum, for the
// header that precedes it, and once into w. Nothing the size of a section
// is copied: the encoding holds the set pool's key table, one pool id per
// label and one per gap set id, and one fixed staging buffer.
func (s *Snapshot) Encode(w io.Writer, tables *SlabTables) error {
	return s.encode(w, tables, hostLittleEndian && unsafe.Sizeof(geom.Point{}) == 16)
}

// encode is Encode with the array views selectable: alias=false converts
// every array value by value through the staging buffer, the path a
// big-endian host takes; both write the same bytes.
func (s *Snapshot) encode(w io.Writer, tables *SlabTables, alias bool) error {
	secs, err := s.sections(tables)
	if err != nil {
		return err
	}
	sum := &crcWriter{}
	k := &sink{w: sum, alias: alias, buf: make([]byte, 0, stageSize)}
	for i := range secs {
		sum.crc, k.n = 0, 0
		secs[i].emit(k)
		k.flush()
		secs[i].len, secs[i].crc = k.n, sum.crc
	}

	var zeros [8]byte
	k.w, k.n = w, 0
	k.bytes(header(secs))
	for i := range secs {
		k.bytes(zeros[:(8-k.off()%8)%8])
		start := k.off()
		secs[i].emit(k)
		if k.off()-start != secs[i].len {
			return fmt.Errorf("snapshot: section %d changed length while being written", secs[i].kind)
		}
		if k.err != nil {
			break
		}
	}
	k.flush()
	// The sections read slab lists that may alias a mapped file; the
	// tables' closures hold the index, and so the view, that owns them.
	runtime.KeepAlive(tables)
	if k.err != nil {
		return fmt.Errorf("snapshot: %w", k.err)
	}
	return nil
}

// WriteFile atomically writes the snapshot to path: the bytes go to a
// temporary file in the same directory which is fsynced and renamed over
// path, so a crash mid-save leaves the previous snapshot intact. (The
// directory is fsynced too: the server resets the WAL right after a snapshot
// save, and if the rename were still only in the page cache a power failure
// would roll back to the old snapshot with an already-emptied log — losing
// acknowledged mutations.) tables is as for Encode.
func (s *Snapshot) WriteFile(path string, tables *SlabTables) error {
	return writeFile(path, func(w io.Writer) error { return s.Encode(w, tables) })
}

// WriteFile atomically writes the view's file bytes to path, the way
// Snapshot.WriteFile writes an encoded snapshot: a copy of the file the
// view was opened from, with no decode and no re-encode.
func (v *View) WriteFile(path string) error {
	return writeFile(path, func(w io.Writer) error {
		_, err := w.Write(v.data)
		runtime.KeepAlive(v) // v.data is unmapped once v is unreachable
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		return nil
	})
}

// writeFile is the temp-file, fsync, rename and directory-fsync sequence
// of WriteFile around write.
func writeFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
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
