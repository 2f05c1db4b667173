package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/postprocess"
)

// Meta is the decoded non-array remainder of a snapshot: everything a
// server needs to describe and route a map — config, measure spec, stats,
// extrema, counts, the label-distribution summary and the map bounds —
// without touching a single array section. It is a few hundred bytes
// regardless of map size.
type Meta struct {
	MapVersion    uint64
	Metric        geom.Metric
	Monochromatic bool
	Algorithm     string
	Workers       int
	Measure       influence.Spec
	MaxHeat       float64
	MaxLabel      core.Label
	Stats         core.Stats
	NumClients    int
	NumFacilities int
	NumCircles    int
	NumLabels     int
	NumPool       int
	NumSlabs      int
	Summary       postprocess.Summary
	Bounds        geom.Rect
	HasSlabIndex  bool
}

// SlabView exposes the slab point-location sections of a mapped snapshot as
// typed slices aliasing the file bytes; pointloc.Open slices each slab's
// lists out of them without copying. Offsets are prefix arrays: slab i owns
// Actives[ActOff[i]:ActOff[i+1]] and its edges at EdgeOff[i]:EdgeOff[i+1] —
// heights in Edges for L∞ and L1, arcs in Arcs for L2 (Edges is then nil,
// also for a file an earlier build wrote with L2 heights) — and its
// edges+1 gap pool-ids start at Gaps[EdgeOff[i]+uint32(i)].
type SlabView struct {
	Xs      []float64
	ActOff  []uint32
	Actives []int32
	EdgeOff []uint32
	Edges   []float64
	Arcs    []uint32
	Gaps    []uint32
	ZeroXs  []float64
	ZeroIdx []int32
}

// View is a validated snapshot whose arrays alias the underlying bytes —
// an mmap'd file when Open could map it, a heap buffer otherwise. All
// structural invariants (section CRCs, counts, offset monotonicity, index
// ranges) are checked once at Open, so every accessor and Snapshot() are
// infallible afterwards.
//
// A mapped View is unmapped once the garbage collector finds it
// unreachable (a finalizer Open arms), or earlier by Close. A slice into
// the mapping is not a Go pointer and keeps nothing alive, so the lifetime
// rule is: every slice an accessor returns (Bytes, Clients, Facilities,
// Slab, PoolHeats, PoolMembers) may be read only while its View is
// reachable. An object that stores such a slice must also hold the View —
// heatmap.Map holds its view, a slab index its lineage's — and a function
// whose last use of the owner comes before its last read of the slice keeps
// the owner alive with runtime.KeepAlive. Snapshot, CircleAt, LabelAt and
// PoolRNN return heap copies, which outlive the view freely. No View may be
// reachable from itself, or its finalizer never runs.
type View struct {
	data   []byte
	mapped bool

	meta          Meta
	clients       []geom.Point
	facilities    []geom.Point
	circleIDs     []int32
	circleGeo     []float64
	circleMetrics []byte
	labelGeo      []float64
	labelSets     []uint32
	poolHeats     []float64
	poolOff       []uint32
	poolMembers   []int32
	slab          *SlabView
	earlier       bool // an L2 slab index with heights (see CurrentLayout)

	rnnOnce sync.Once
	rnn     [][]int
}

// Open maps the snapshot at path and validates it. A file of any version
// other than Version is refused with an error naming the path and the
// version.
func Open(path string) (*View, error) {
	return open(path, true)
}

// open is Open with the mmap attempt controllable: allowMmap=false forces
// the plain-read fallback every !unix build takes, letting the parity test
// exercise that path on any platform.
func open(path string, allowMmap bool) (*View, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	size := st.Size()
	if size < 8 {
		return nil, fmt.Errorf("snapshot: %s: file too short (%d bytes)", path, size)
	}
	if size > math.MaxInt-8 {
		return nil, fmt.Errorf("snapshot: %s: file too large to map (%d bytes)", path, size)
	}
	var head [6]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if [4]byte(head[:4]) != magic {
		return nil, fmt.Errorf("snapshot: %s: bad magic %q (not a snapshot file)", path, head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != Version {
		return nil, fmt.Errorf("snapshot: %s: unsupported format version %d (this build reads version %d only)",
			path, v, Version)
	}

	var data []byte
	var mapped bool
	if allowMmap {
		data, mapped, err = mmapFile(f, int(size))
	}
	if err != nil || !mapped {
		// No mmap on this platform (or mapping failed): fall back to a plain
		// read. The View works identically over heap bytes.
		data = make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		mapped = false
	}
	if mapped {
		mappedBytes.Add(int64(len(data)))
	}
	v, err := newView(data, mapped)
	if err != nil {
		if mapped {
			_ = unmap(data)
		}
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	if mapped {
		// Heap bytes are the collector's already; a mapping is released
		// when the view becomes unreachable, if Close has not run first.
		runtime.SetFinalizer(v, (*View).Close)
	}
	return v, nil
}

// mappedBytes is the size of every mapping Open holds: added at each map,
// subtracted at each unmap.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of snapshot files this process holds
// mapped: every View that Open mapped and that is neither closed nor yet
// reclaimed by its finalizer.
func MappedBytes() int64 { return mappedBytes.Load() }

// unmap releases a mapping Open made and, once it is gone, counts it out.
func unmap(data []byte) error {
	if err := munmapBytes(data); err != nil {
		return err
	}
	mappedBytes.Add(-int64(len(data)))
	return nil
}

// Close unmaps a mapped View at once instead of when it becomes
// unreachable, and disarms its finalizer. It must only be called once no
// slice aliased from the view (its Bytes, a slab index opened over it or
// patched from one) is read anymore. Calling it again is a no-op; it is a
// no-op on a heap view too.
func (v *View) Close() error {
	runtime.SetFinalizer(v, nil)
	data, mapped := v.data, v.mapped
	v.data, v.mapped = nil, false
	if mapped && data != nil {
		return unmap(data)
	}
	return nil
}

// Mapped reports whether the view's arrays alias an mmap'd file (as opposed
// to a heap buffer).
func (v *View) Mapped() bool { return v.mapped }

// MappedBytes returns the size of the view's mapping: the file's size for
// a mapped view, 0 for a heap view or a closed one.
func (v *View) MappedBytes() int64 {
	if !v.mapped {
		return 0
	}
	return int64(len(v.data))
}

// Bytes exposes the raw snapshot file contents backing the view. Cluster
// bootstrap serves these directly — the replica installs the owner's literal
// file, so the two nodes hold byte-identical snapshots — and because a
// mapped view keeps its inode alive, serving stays consistent even while a
// concurrent save renames a newer file into place. The slice aliases the
// mapping: it must not be written to, and is valid only while v is
// reachable and not closed.
func (v *View) Bytes() []byte { return v.data }

// newView parses and validates the sectioned layout over data.
func newView(data []byte, mapped bool) (*View, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("file too short (%d bytes)", len(data))
	}
	nSec := int(binary.LittleEndian.Uint16(data[6:8]))
	headerLen := 8 + nSec*tableEntrySize + 4
	if nSec == 0 || headerLen > len(data) {
		return nil, fmt.Errorf("section table (%d entries) exceeds file size", nSec)
	}
	wantCRC := binary.LittleEndian.Uint32(data[headerLen-4:])
	if got := crc32.ChecksumIEEE(data[:headerLen-4]); got != wantCRC {
		return nil, fmt.Errorf("header checksum mismatch (file %08x, computed %08x): file is corrupt", wantCRC, got)
	}

	v := &View{data: data, mapped: mapped}
	sections := map[uint32][]byte{}
	for i := 0; i < nSec; i++ {
		ent := data[8+i*tableEntrySize:]
		kind := binary.LittleEndian.Uint32(ent[0:])
		crc := binary.LittleEndian.Uint32(ent[4:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("section %d extends past end of file", kind)
		}
		payload := data[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("section %d checksum mismatch (file %08x, computed %08x): torn write", kind, crc, got)
		}
		if _, dup := sections[kind]; dup {
			return nil, fmt.Errorf("duplicate section %d", kind)
		}
		sections[kind] = payload
	}

	metaRaw, ok := sections[secMeta]
	if !ok {
		return nil, errors.New("missing meta section")
	}
	if err := v.meta.decode(metaRaw); err != nil {
		return nil, err
	}
	m := &v.meta

	v.clients = asPoints(sections[secClients])
	v.facilities = asPoints(sections[secFacilities])
	v.circleIDs = asI32(sections[secCircleIDs])
	v.circleGeo = asF64(sections[secCircleGeo])
	v.circleMetrics = sections[secCircleMetrics]
	v.labelGeo = asF64(sections[secLabelGeo])
	v.labelSets = asU32(sections[secLabelSets])
	v.poolHeats = asF64(sections[secPoolHeats])
	v.poolOff = asU32(sections[secPoolOff])
	v.poolMembers = asI32(sections[secPoolMembers])

	check := func(name string, got, want int) error {
		if got != want {
			return fmt.Errorf("section %s has %d elements, meta declares %d", name, got, want)
		}
		return nil
	}
	if err := errors.Join(
		check("clients", len(v.clients), m.NumClients),
		check("facilities", len(v.facilities), m.NumFacilities),
		check("circle ids", len(v.circleIDs), 2*m.NumCircles),
		check("circle geometry", len(v.circleGeo), 3*m.NumCircles),
		check("circle metrics", len(v.circleMetrics), m.NumCircles),
		check("label geometry", len(v.labelGeo), 7*m.NumLabels),
		check("label sets", len(v.labelSets), m.NumLabels),
		check("pool heats", len(v.poolHeats), m.NumPool),
		check("pool offsets", len(v.poolOff), m.NumPool+1),
	); err != nil {
		return nil, err
	}
	if err := validatePrefix("pool", v.poolOff, len(v.poolMembers)); err != nil {
		return nil, err
	}
	for i, id := range v.labelSets {
		if int(id) >= m.NumPool {
			return nil, fmt.Errorf("label %d references pool record %d of %d", i, id, m.NumPool)
		}
	}
	for _, b := range v.circleMetrics {
		if !geom.Metric(b).Valid() {
			return nil, fmt.Errorf("invalid circle metric %d", b)
		}
	}

	if m.HasSlabIndex {
		s := &SlabView{
			Xs:      asF64(sections[secSlabXs]),
			ActOff:  asU32(sections[secSlabActOff]),
			Actives: asI32(sections[secSlabActives]),
			EdgeOff: asU32(sections[secSlabEdgeOff]),
			Edges:   asF64(sections[secSlabEdges]),
			Arcs:    asU32(sections[secSlabArcs]),
			Gaps:    asU32(sections[secSlabGaps]),
			ZeroXs:  asF64(sections[secSlabZeroXs]),
			ZeroIdx: asI32(sections[secSlabZeroIdx]),
		}
		if err := s.validate(m); err != nil {
			return nil, err
		}
		if m.Metric == geom.L2 && len(s.Edges) > 0 {
			// An earlier build's heights: checked, never read.
			s.Edges, v.earlier = nil, true
		}
		v.slab = s
	}
	return v, nil
}

func validatePrefix(name string, off []uint32, total int) error {
	if len(off) == 0 || off[0] != 0 {
		return fmt.Errorf("%s offsets must start at 0", name)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("%s offsets decrease at %d", name, i)
		}
	}
	if int(off[len(off)-1]) != total {
		return fmt.Errorf("%s offsets end at %d, member array has %d", name, off[len(off)-1], total)
	}
	return nil
}

func (s *SlabView) validate(m *Meta) error {
	if len(s.Xs) != m.NumSlabs {
		return fmt.Errorf("slab xs has %d elements, meta declares %d", len(s.Xs), m.NumSlabs)
	}
	if len(s.ActOff) != m.NumSlabs+1 || len(s.EdgeOff) != m.NumSlabs+1 {
		return errors.New("slab offset arrays must have one entry per slab plus one")
	}
	if err := validatePrefix("slab actives", s.ActOff, len(s.Actives)); err != nil {
		return err
	}
	// The edge offsets count each slab's heights (L∞, L1) or arcs (L2). An
	// L2 file carries no heights, or, written by an earlier build, one per
	// arc.
	edges := int(s.EdgeOff[m.NumSlabs])
	if err := validatePrefix("slab edge", s.EdgeOff, edges); err != nil {
		return err
	}
	arcs := 0
	if m.Metric == geom.L2 {
		arcs = edges
		if len(s.Edges) != 0 && len(s.Edges) != edges {
			return fmt.Errorf("slab edges has %d elements, want 0 or %d", len(s.Edges), edges)
		}
	} else if len(s.Edges) != edges {
		return fmt.Errorf("slab edges has %d elements, want %d", len(s.Edges), edges)
	}
	if len(s.Arcs) != arcs {
		return fmt.Errorf("slab arcs has %d elements, want %d", len(s.Arcs), arcs)
	}
	for i := 1; i < len(s.Xs); i++ {
		if !(s.Xs[i] > s.Xs[i-1]) {
			return fmt.Errorf("slab boundaries not strictly increasing at %d", i)
		}
	}
	for _, a := range s.Actives {
		if a < 0 || int(a) >= m.NumCircles {
			return fmt.Errorf("slab active circle %d out of range", a)
		}
	}
	for _, a := range s.Arcs {
		if int(a>>1) >= m.NumCircles {
			return fmt.Errorf("slab arc circle %d out of range", a>>1)
		}
	}
	if len(s.Gaps) != edges+m.NumSlabs {
		return fmt.Errorf("slab gaps has %d elements, want %d edges + %d slabs",
			len(s.Gaps), edges, m.NumSlabs)
	}
	for _, g := range s.Gaps {
		if int(g) >= m.NumPool {
			return fmt.Errorf("slab gap references pool record %d of %d", g, m.NumPool)
		}
	}
	if len(s.ZeroIdx) != len(s.ZeroXs) {
		return errors.New("slab zero-circle arrays disagree in length")
	}
	for i := 1; i < len(s.ZeroXs); i++ {
		if s.ZeroXs[i] < s.ZeroXs[i-1] {
			return fmt.Errorf("zero-circle xs decrease at %d", i)
		}
	}
	for _, z := range s.ZeroIdx {
		if z < 0 || int(z) >= m.NumCircles {
			return fmt.Errorf("zero circle index %d out of range", z)
		}
	}
	return nil
}

// decode parses the meta section (field order mirrors encodeMeta).
func (m *Meta) decode(raw []byte) error {
	d := &decoder{r: bytes.NewReader(raw)}
	m.MapVersion = d.u64()
	m.Metric = geom.Metric(d.u8())
	flags := d.u8()
	m.Monochromatic = flags&1 != 0
	m.HasSlabIndex = flags&2 != 0
	m.Algorithm = d.str()
	m.Workers = int(d.i64())
	m.Measure = decodeSpec(d)
	m.MaxHeat = d.f64()
	decodeLabel(d, &m.MaxLabel)
	m.Stats.Circles = int(d.i64())
	m.Stats.Events = int(d.i64())
	m.Stats.Labelings = int(d.i64())
	m.Stats.InfluenceCalls = int(d.i64())
	m.Stats.EnclosureQueries = int(d.i64())
	m.Stats.GridCells = int(d.i64())
	m.Stats.MaxRNNSetSize = int(d.i64())
	m.Stats.Duration = time.Duration(d.i64())
	m.NumClients = d.sliceLen()
	m.NumFacilities = d.sliceLen()
	m.NumCircles = d.sliceLen()
	m.NumLabels = d.sliceLen()
	m.NumPool = d.sliceLen()
	m.NumSlabs = d.sliceLen()
	m.Summary.Count = int(d.i64())
	m.Summary.DistinctSets = int(d.i64())
	m.Summary.MinHeat = d.f64()
	m.Summary.MaxHeat = d.f64()
	m.Summary.MeanHeat = d.f64()
	m.Summary.MaxRNNSize = int(d.i64())
	m.Bounds = geom.Rect{MinX: d.f64(), MinY: d.f64(), MaxX: d.f64(), MaxY: d.f64()}
	if d.err != nil {
		return fmt.Errorf("meta section: %w", d.err)
	}
	if !m.Metric.Valid() {
		return fmt.Errorf("invalid metric %d", m.Metric)
	}
	return nil
}

// Meta returns the decoded header metadata.
func (v *View) Meta() *Meta { return &v.meta }

// Clients and Facilities alias the mapped point arrays, valid only while v
// is reachable (see View); Snapshot copies them.
func (v *View) Clients() []geom.Point    { return v.clients }
func (v *View) Facilities() []geom.Point { return v.facilities }

// HasSlabIndex reports whether the snapshot carries slab point-location
// sections (Slab is non-nil).
func (v *View) HasSlabIndex() bool { return v.slab != nil }

// CurrentLayout reports whether the file is in the layout this build
// writes, so a copy of its bytes is what a save of its map would write; an
// L2 file an earlier build wrote with heights is not.
func (v *View) CurrentLayout() bool { return !v.earlier }

// Slab returns the slab index sections, nil when the snapshot has none.
// Its slices alias the file, valid only while v is reachable (see View).
func (v *View) Slab() *SlabView { return v.slab }

// NumCircles returns the circle count.
func (v *View) NumCircles() int { return v.meta.NumCircles }

// CircleAt materializes circle i from the flat arrays.
func (v *View) CircleAt(i int) nncircle.NNCircle {
	return nncircle.NNCircle{
		Client:   int(v.circleIDs[2*i]),
		Facility: int(v.circleIDs[2*i+1]),
		Circle: geom.Circle{
			Metric: geom.Metric(v.circleMetrics[i]),
			Center: geom.Point{X: v.circleGeo[3*i], Y: v.circleGeo[3*i+1]},
			Radius: v.circleGeo[3*i+2],
		},
	}
}

// PoolHeats aliases the influence of every pool record, by pool id, valid
// only while v is reachable (see View).
func (v *View) PoolHeats() []float64 { return v.poolHeats }

// PoolRNN returns the materialized member list of pool record id. Lists are
// built once for the whole pool on first use and shared by every caller —
// the same sharing a live interner provides. Bulk consumers only (LabelAt,
// Snapshot); single queries use PoolMembers to avoid the pool-wide build.
func (v *View) PoolRNN(id uint32) []int { return v.poolInts()[id] }

// PoolMembers aliases the raw i32 member list of pool record id — no
// materialization, no allocation. The slice is file bytes: read-only, and
// valid only while v is reachable (see View).
func (v *View) PoolMembers(id uint32) []int32 {
	return v.poolMembers[v.poolOff[id]:v.poolOff[id+1]]
}

func (v *View) poolInts() [][]int {
	v.rnnOnce.Do(func() {
		rnn := make([][]int, v.meta.NumPool)
		for i := range rnn {
			lo, hi := v.poolOff[i], v.poolOff[i+1]
			members := make([]int, 0, hi-lo)
			for _, m := range v.poolMembers[lo:hi] {
				members = append(members, int(m))
			}
			rnn[i] = members
		}
		v.rnn = rnn
	})
	return v.rnn
}

// LabelAt materializes label i; its RNN slice is shared with the pool, and
// it carries its pool id as its set id (core.Label.Set), the id Interner's
// pool and a slab index opened from the file (pointloc.Open) give the set.
func (v *View) LabelAt(i int) core.Label {
	g := v.labelGeo[7*i : 7*i+7]
	id := v.labelSets[i]
	l := core.Label{
		Region: geom.Rect{MinX: g[0], MinY: g[1], MaxX: g[2], MaxY: g[3]},
		Point:  geom.Point{X: g[4], Y: g[5]},
		Heat:   g[6],
		RNN:    v.PoolRNN(id),
		Set:    id + 1,
	}
	runtime.KeepAlive(v) // g is file bytes, which may be read after the call
	return l
}

// LabelHeats yields the heat of every label, in label order, straight off
// the file's label section: nothing is materialized.
func (v *View) LabelHeats() iter.Seq[float64] {
	return func(yield func(float64) bool) {
		defer runtime.KeepAlive(v) // the heats are file bytes
		for i := 6; i < len(v.labelGeo); i += 7 {
			if !yield(v.labelGeo[i]) {
				return
			}
		}
	}
}

// Interner returns a new label pool over measure (the file's own) holding
// every set of the file's pool under its pool id, the id the file's labels
// and slab gaps store; the sets it meets later get the ids after them (see
// core.NewLabelInternerFrom). It continues the lineage the file was saved
// from, and nothing in it aliases the file.
func (v *View) Interner(measure influence.Measure) *core.LabelInterner {
	pool := core.NewLabelInternerFrom(measure, v.poolInts(), v.poolHeats)
	runtime.KeepAlive(v) // the heats are file bytes, copied by the call
	return pool
}

// Snapshot materializes the full heap Snapshot from the view: the point
// arrays are copied, circles and labels are rebuilt as heap structs, with
// label RNN slices shared through the pool, so nothing in it aliases the
// file and it outlives the view. Infallible: everything was validated at
// Open.
func (v *View) Snapshot() *Snapshot {
	m := &v.meta
	s := &Snapshot{
		MapVersion:    m.MapVersion,
		Metric:        m.Metric,
		Monochromatic: m.Monochromatic,
		Algorithm:     m.Algorithm,
		Workers:       m.Workers,
		Measure:       m.Measure,
		Clients:       slices.Clone(v.clients),
		Facilities:    slices.Clone(v.facilities),
		MaxHeat:       m.MaxHeat,
		MaxLabel:      m.MaxLabel,
		Stats:         m.Stats,
	}
	s.Circles = make([]nncircle.NNCircle, m.NumCircles)
	for i := range s.Circles {
		s.Circles[i] = v.CircleAt(i)
	}
	s.Labels = make([]core.Label, m.NumLabels)
	for i := range s.Labels {
		s.Labels[i] = v.LabelAt(i)
	}
	return s
}
