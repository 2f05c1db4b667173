package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/oset"
)

// This file keeps the encoder Encode replaced as the oracle its bytes are
// held to: it concatenates the slabs into flat tables, builds every section
// as a slice and the whole file in one buffer. It shares only encodeMeta
// with the package, whose field stream neither encoder changes.

// flatTables is the slab index concatenated into the file's flat arrays.
type flatTables struct {
	Xs      []float64
	ActOff  []uint32
	Actives []int32
	EdgeOff []uint32
	Edges   []float64
	Arcs    []uint32
	Gaps    []uint32
	NumSets int
	Set     func(id uint32) (rnn []int, heat float64)
	ZeroXs  []float64
	ZeroIdx []int32
}

// flatten concatenates the slabs of t, as pointloc's ExportTables did
// before the encoder streamed them. A slab's edge count is its gaps less
// one, so EdgeOff counts an L2 slab's arcs whether or not its Edges carry
// the heights earlier builds stored: tables whose L2 slabs carry one
// height per arc flatten to a file in that earlier layout.
func flatten(t *SlabTables) *flatTables {
	f := &flatTables{
		Xs:      t.Xs,
		ActOff:  make([]uint32, 1, len(t.Xs)+1),
		EdgeOff: make([]uint32, 1, len(t.Xs)+1),
		Arcs:    []uint32{},
		NumSets: t.NumSets,
		Set:     t.Set,
		ZeroXs:  t.ZeroXs,
		ZeroIdx: t.ZeroIdx,
	}
	for i := range t.Xs {
		sl := t.Slab(i)
		f.Actives = append(f.Actives, sl.Actives...)
		f.ActOff = append(f.ActOff, uint32(len(f.Actives)))
		f.Edges = append(f.Edges, sl.Edges...)
		f.EdgeOff = append(f.EdgeOff, f.EdgeOff[len(f.EdgeOff)-1]+uint32(len(sl.Gaps)-1))
		f.Arcs = append(f.Arcs, sl.Arcs...)
		f.Gaps = append(f.Gaps, sl.Gaps...)
	}
	return f
}

// oraclePool interns sets by content into the flat pool arrays.
type oraclePool struct {
	ids     map[oset.ContentKey]uint32
	heats   []float64
	off     []uint32
	members []int32
}

func (p *oraclePool) intern(rnn []int, heat float64) uint32 {
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

func (p *oraclePool) gapIDs(t *flatTables) ([]uint32, error) {
	pooled := make([]uint32, t.NumSets)
	out := make([]uint32, len(t.Gaps))
	for i, g := range t.Gaps {
		if int(g) >= len(pooled) {
			return nil, fmt.Errorf("snapshot: slab tables: gap set id %d of %d", g, len(pooled))
		}
		if pooled[g] == 0 {
			pooled[g] = p.intern(t.Set(g)) + 1
		}
		out[i] = pooled[g] - 1
	}
	return out, nil
}

// oracleSections accumulates aligned sections and their table entries.
type oracleSections struct {
	buf   bytes.Buffer
	kinds []uint32
	offs  []uint64
	lens  []uint64
	crcs  []uint32
}

func (s *oracleSections) add(kind uint32, payload []byte) {
	for s.buf.Len()%8 != 0 {
		s.buf.WriteByte(0)
	}
	s.kinds = append(s.kinds, kind)
	s.offs = append(s.offs, uint64(s.buf.Len()))
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

// encodeOracle returns the file the retained encoder writes for s and
// tables (nil for no slab sections).
func encodeOracle(s *Snapshot, tables *SlabTables) ([]byte, error) {
	var flat *flatTables
	if tables != nil {
		flat = flatten(tables)
	}

	pool := &oraclePool{ids: make(map[oset.ContentKey]uint32), off: []uint32{0}}
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
	if flat != nil {
		var err error
		if gapIDs, err = pool.gapIDs(flat); err != nil {
			return nil, err
		}
	}

	meta, err := s.encodeMeta(tables, len(pool.heats))
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding: %w", err)
	}

	circleIDs := make([]int32, 0, 2*len(s.Circles))
	circleGeo := make([]float64, 0, 3*len(s.Circles))
	circleMetrics := make([]byte, 0, len(s.Circles))
	for _, c := range s.Circles {
		circleIDs = append(circleIDs, int32(c.Client), int32(c.Facility))
		circleGeo = append(circleGeo, c.Circle.Center.X, c.Circle.Center.Y, c.Circle.Radius)
		circleMetrics = append(circleMetrics, byte(c.Circle.Metric))
	}

	sw := &oracleSections{}
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
	if flat != nil {
		sw.add(secSlabXs, f64Bytes(flat.Xs))
		sw.add(secSlabActOff, u32Bytes(flat.ActOff))
		sw.add(secSlabActives, i32Bytes(flat.Actives))
		sw.add(secSlabEdgeOff, u32Bytes(flat.EdgeOff))
		sw.add(secSlabEdges, f64Bytes(flat.Edges))
		sw.add(secSlabArcs, u32Bytes(flat.Arcs))
		sw.add(secSlabGaps, u32Bytes(gapIDs))
		sw.add(secSlabZeroXs, f64Bytes(flat.ZeroXs))
		sw.add(secSlabZeroIdx, i32Bytes(flat.ZeroIdx))
	}

	// The payload offsets recorded above assumed base 0; shift them past the
	// header now that the section count is known.
	nSec := len(sw.kinds)
	headerLen := 4 + 2 + 2 + nSec*tableEntrySize + 4
	base := uint64((headerLen + 7) &^ 7)
	header := make([]byte, base)
	copy(header, magic[:])
	binary.LittleEndian.PutUint16(header[4:], Version)
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

	var out bytes.Buffer
	out.Write(header)
	out.Write(sw.buf.Bytes())
	return out.Bytes(), nil
}
