// Package heatmap is the public API of the library: it builds reverse
// nearest neighbor (RNN) heat maps as described in "Reverse Nearest Neighbor
// Heat Maps: A Tool for Influence Exploration" (Sun et al., ICDE 2016).
//
// Given a client set O and a facility set F, the heat of a location p is an
// influence value computed from p's RNN set — the clients that would have p
// as their nearest facility if p were added to F. The package computes the
// heat of every point in the plane at once by reducing the problem to Region
// Coloring and solving it with the CREST sweep-line algorithm (or, on
// request, the baseline algorithms the paper compares against), then exposes
// the labeled regions for exploration: querying, top-k, thresholding and
// rendering to PNG.
//
// A minimal use looks like:
//
//	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities})
//	if err != nil { ... }
//	top := m.TopK(5)
//	err = m.SavePNG("heat.png", 800)
package heatmap

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/delta"
	"rnnheatmap/internal/enclosure"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/optimal"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/pointloc"
	"rnnheatmap/internal/postprocess"
	"rnnheatmap/internal/render"
	"rnnheatmap/internal/snapshot"
)

// Point is a location in the plane.
type Point = geom.Point

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Rect is an axis-aligned rectangle, used for viewports and sub-rectangle
// rendering.
type Rect = geom.Rect

// Metric selects the distance metric.
type Metric = geom.Metric

// Supported metrics.
const (
	LInf = geom.LInf
	L1   = geom.L1
	L2   = geom.L2
)

// ParseMetric maps a metric name ("linf", "l1", "l2" and common synonyms,
// case-insensitive) to its constant. It is the one parser behind every
// user-facing metric flag and API field, so the accepted names cannot
// diverge between surfaces.
func ParseMetric(name string) (Metric, error) {
	switch strings.ToLower(name) {
	case "linf", "l∞", "chebyshev":
		return LInf, nil
	case "l1", "manhattan":
		return L1, nil
	case "l2", "euclidean":
		return L2, nil
	default:
		return 0, fmt.Errorf("unknown metric %q (want linf, l1 or l2)", name)
	}
}

// Algorithm selects the Region Coloring algorithm.
type Algorithm string

// Available algorithms. CREST is the paper's contribution and the default;
// the others exist for comparison and ablation.
const (
	AlgCREST    Algorithm = "crest"
	AlgCRESTA   Algorithm = "crest-a"
	AlgBaseline Algorithm = "baseline"
)

// Measure is an influence measure over RNN sets. Use Size, Weighted,
// Connectivity, Capacity or CustomMeasure to construct one.
type Measure = influence.Measure

// Size returns the |R(p)| measure.
func Size() Measure { return influence.Size() }

// Weighted returns a measure summing per-client weights.
func Weighted(weights []float64) Measure { return influence.Weighted(weights) }

// Connectivity returns the taxi-sharing measure counting connected client
// pairs inside the RNN set.
func Connectivity(edges [][2]int) Measure { return influence.Connectivity(edges) }

// Capacity returns the capacity-constrained measure of Sun et al. [22];
// assignment maps each client to its current nearest facility index.
func Capacity(assignment []int, capacities []float64, newFacilityCapacity float64) Measure {
	return influence.Capacity(influence.CapacityContext{
		Assignment:          assignment,
		Capacities:          capacities,
		NewFacilityCapacity: newFacilityCapacity,
	})
}

// CustomMeasure adapts a function over sorted client identifiers into a
// Measure.
func CustomMeasure(name string, f func(clients []int) float64) Measure {
	return influence.Func(name, func(s *oset.Set) float64 { return f(s.Sorted()) })
}

// Config describes a heat map computation.
type Config struct {
	// Clients is the client set O. Required unless Monochromatic is set and
	// Facilities provided.
	Clients []Point
	// Facilities is the facility set F. For the monochromatic case leave it
	// nil and set Monochromatic.
	Facilities []Point
	// Monochromatic treats Clients as both O and F (nearest neighbors are
	// sought within the same set).
	Monochromatic bool
	// Metric is the distance metric; the zero value is L-infinity. The paper
	// uses L1 and L2 in its experiments.
	Metric Metric
	// Measure is the influence measure; nil means Size().
	Measure Measure
	// Algorithm selects the Region Coloring algorithm; empty means CREST.
	Algorithm Algorithm
	// Workers is the number of concurrent sweep strips the CREST algorithms
	// use. Zero (the default) uses runtime.GOMAXPROCS(0); 1 forces the exact
	// sequential sweep. The result is identical for every worker count; the
	// baseline algorithm always runs sequentially.
	Workers int
	// NoSlabIndex disables the slab point-location index that normally
	// serves HeatAt, HeatAtBatch and tile rasterization in O(log n) per
	// query (internal/pointloc), and which Build with CREST writes in the
	// sweep that writes the labels. With it set, Build writes the labels
	// only and queries fall back to point-enclosure stabbing over an R-tree
	// index, built on the map's first query. Answers are identical either
	// way — the flag is the opt-out for labels-only use: memory-constrained
	// deployments, maps that are never queried, benchmarking the two paths
	// against each other, and the oracle side of the differential test suite.
	NoSlabIndex bool
}

// Map is a computed RNN heat map. It is safe for concurrent reads (queries,
// rendering, post-processing) once built; heatmapd serves every endpoint
// from one shared Map.
type Map struct {
	cfg     Config
	circles []nncircle.NNCircle
	bounds  Rect
	// result holds the labels; its LabelPool is the label pool of the map's
	// lineage (the map and every map derived from it by ApplyDelta), shared
	// with the slab index, or nil for a map opened from a snapshot, whose
	// labels carry the file's pool ids (see labelPool).
	result  *core.Result
	measure Measure

	rendererOnce sync.Once
	renderer     *render.Renderer
	rendererErr  error

	// The point-query structure is installed by Build, an eager ApplyDelta
	// (the slab index their sweep wrote) or OpenSnapshot (the file's), or
	// else resolved lazily on the first query (pointLoc). pl publishes the
	// resolved state lock-free — readers on the hot query path never touch
	// plMu after the one-time build: the slab index, or, when the index is
	// disabled or declined to build (too large), the R-tree the enclosure
	// path stabs.
	plMu sync.Mutex
	pl   atomic.Pointer[plState]
	// pending, set on a map whose slab index patch was deferred (the steps
	// of GreedyPlace), is what its first point query patches the index
	// from; see pendingPatch. It never changes after the map is built.
	pending *pendingPatch

	// The heat summary of the labels, computed on first use: a heap map is
	// immutable once built, so /stats, the server's map state and a
	// snapshot save share one Summarize.
	summaryOnce sync.Once
	summary     Summary

	// filePool is the label pool of a mapped map's lineage when its file
	// stores no slab index, made on first use by a commit or an index
	// build (see labelPool).
	filePoolOnce sync.Once
	filePool     *core.LabelInterner

	// A mapped map (restored by OpenSnapshot) serves queries, tiles
	// and metadata straight off the snapshot view — view holds the mmap'd
	// file, and pl the slab index opened over its sections when the file
	// carries one. Heap structures (clients, circles, labels) materialize
	// lazily under matOnce the first time an operation needs them — region
	// enumeration, ApplyDelta, the enclosure fallback — after which the map
	// is "mapped+heap". view is nil for heap maps.
	view         *snapshot.View
	matOnce      sync.Once
	materialized atomic.Bool
}

// Region is one labeled region of the heat map.
type Region struct {
	// RNN holds the client indexes of the region's RNN set.
	RNN []int
	// Heat is the influence value.
	Heat float64
	// Point is a representative location inside the region.
	Point Point
}

// Build computes the RNN heat map for the given configuration. With CREST
// (the default) one sweep writes the labels and the slab index (unless
// NoSlabIndex is set, or the index would pass its cell cap).
func Build(cfg Config) (*Map, error) {
	if len(cfg.Clients) == 0 {
		return nil, errors.New("heatmap: no clients")
	}
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("heatmap: invalid metric %v", cfg.Metric)
	}
	var (
		circles []nncircle.NNCircle
		err     error
	)
	if cfg.Monochromatic {
		circles, err = nncircle.ComputeMono(cfg.Clients, cfg.Metric)
	} else {
		circles, err = nncircle.Compute(cfg.Clients, cfg.Facilities, cfg.Metric)
	}
	if err != nil {
		return nil, fmt.Errorf("heatmap: computing NN-circles: %w", err)
	}
	measure := cfg.Measure
	if measure == nil {
		measure = Size()
	}
	opts := core.Options{Measure: measure, Workers: cfg.Workers}
	var res *core.Result
	var sink *pointloc.Sink
	switch cfg.Algorithm {
	case "", AlgCREST:
		if cfg.NoSlabIndex {
			res, err = core.CREST(circles, opts)
			break
		}
		sink = pointloc.NewSink(circles)
		res, err = core.CRESTWithSlabs(circles, opts, sink)
	case AlgCRESTA:
		res, err = core.CRESTA(circles, opts)
	case AlgBaseline:
		res, err = core.Baseline(circles, opts)
	default:
		return nil, fmt.Errorf("heatmap: unknown algorithm %q", cfg.Algorithm)
	}
	if err != nil {
		return nil, fmt.Errorf("heatmap: %w", err)
	}
	bounds := geom.EmptyRect()
	for _, nc := range circles {
		bounds = bounds.Union(nc.Circle.BoundingRect())
	}
	m := &Map{
		cfg:     cfg,
		circles: circles,
		bounds:  bounds,
		result:  res,
		measure: measure,
	}
	if ix, err := sink.Index(); err == nil {
		m.setPointLoc(ix)
	}
	return m, nil
}

// Delta is a batch of client/facility mutations for ApplyDelta, applied
// atomically in field order: client removals, then client additions, then
// facility removals, then facility additions. Removal indexes are sequential
// — each refers to the slice as left by the preceding removals of the same
// batch — and removals swap-remove: the last element moves into the freed
// slot, so all other indexes stay stable. The zero value is a no-op.
type Delta struct {
	AddClients       []Point
	RemoveClients    []int
	AddFacilities    []Point
	RemoveFacilities []int
}

// ErrBadDelta marks ApplyDelta validation failures (out-of-range indexes,
// non-finite points, an update emptying the client or facility set). Check
// with errors.Is to distinguish caller mistakes from internal failures.
var ErrBadDelta = delta.ErrBadDelta

// DeltaStats describes the incremental work one ApplyDelta performed.
type DeltaStats struct {
	// ChangedClients is the number of clients whose NN-circle changed.
	ChangedClients int
	// Rebuilt reports that a full sweep ran instead of an incremental
	// splice: the map had no labels to splice into, or the update left no
	// usable circle.
	Rebuilt bool
	// EventsTotal is the sweep-event count of the updated arrangement;
	// EventsReswept is how many of them the incremental path actually swept.
	EventsTotal, EventsReswept int
	// DirtyRect bounds everything the update could have changed, in map
	// coordinates; tile caches invalidate against it. Empty when nothing
	// changed.
	DirtyRect Rect
	// Duration is the wall-clock time of the update.
	Duration time.Duration
}

// ApplyDelta returns a new Map reflecting the mutations in d, leaving the
// receiver untouched — the copy-on-write building block for servers that
// atomically swap the map under concurrent readers. The returned map is
// identical (regions, heat values, rendered pixels) to a from-scratch Build
// over the updated client and facility sets, but only the part of the
// arrangement the update dirtied is reswept; DeltaStats says how much that
// was.
//
// ApplyDelta requires a bichromatic map computed with the CREST algorithm
// (the default), and a measure whose meaning survives the update: measures
// whose context is indexed by client or facility position (Weighted,
// Capacity, Connectivity) go stale when the update renumbers or extends
// those indexes, so ApplyDelta rejects them — rebuild the map with fresh
// context instead. A CustomMeasure is accepted as-is; if its function closes
// over per-index context, rebuilding is likewise the caller's job.
func (m *Map) ApplyDelta(d Delta) (*Map, DeltaStats, error) {
	return m.ApplyDeltaBatch([]Delta{d})
}

// ApplyDeltaBatch applies ds in order as one update: the set maintenance
// runs delta by delta (removal indexes mean exactly what they would if the
// deltas were applied one at a time), but the union of everything the batch
// dirtied is reswept ONCE and the result published as a single new Map — K
// deltas cost one resweep, which splices the labels and patches the slab
// index, instead of K. The returned map is identical, region for region and
// pixel for pixel, to chaining K ApplyDelta calls. The batch is atomic: an
// invalid delta anywhere (ErrBadDelta) fails the whole call with the
// receiver untouched. The group-committing server ingest path is built on
// this.
func (m *Map) ApplyDeltaBatch(ds []Delta) (*Map, DeltaStats, error) {
	return m.applyDeltaBatch(ds, false)
}

// applyDeltaBatch is ApplyDeltaBatch, with the slab index patch deferred
// to the new map's first point query when deferPatch is set: the new map
// records the index its patch would start from instead (see pendingPatch).
// GreedyPlace derives its steps this way, since a step that ranks regions
// without geometry reads no index.
func (m *Map) applyDeltaBatch(ds []Delta, deferPatch bool) (*Map, DeltaStats, error) {
	if err := m.DeltaSupported(); err != nil {
		return nil, DeltaStats{}, err
	}
	// A mapped map promotes to heap copy-on-write: the delta engine needs the
	// heap point/circle/label slices, and the map it produces is an ordinary
	// heap map (the receiver keeps serving reads off the file mapping).
	m.materialize()
	dds := make([]delta.Delta, len(ds))
	for i, d := range ds {
		dds[i] = delta.Delta{
			AddClients:       d.AddClients,
			RemoveClients:    d.RemoveClients,
			AddFacilities:    d.AddFacilities,
			RemoveFacilities: d.RemoveFacilities,
		}
	}
	// The commit patches the slab index it starts from: m's own, resolving
	// a deferred patch first, or, deferred, the ancestor index of m's own
	// deferred patch with the spans recorded since.
	var base *pointloc.Index
	var spans [][2]float64
	if deferPatch {
		base, spans = m.patchBase()
	} else if m.pending != nil || m.pl.Load() != nil {
		base = m.pointLoc().ix
	}
	// The resweep interns into the lineage's one label pool, whose ids the
	// labels carry: the one the slab index draws its ids from (for an index
	// opened from a snapshot, the interner seeded from the file), or else
	// the labels' own.
	var pool *core.LabelInterner
	if base != nil {
		pool = base.Pool()
	} else {
		pool = m.labelPool()
	}
	// An eager commit's resweep re-emits the dirty slabs in its own pass,
	// and every other slab is shared with the old index (which keeps
	// serving concurrent readers), heap or file. When the patch declines,
	// the next map builds its index lazily on first query.
	var sink *pointloc.Sink
	var slabs func([]nncircle.NNCircle) core.SlabSink
	if base != nil && !deferPatch {
		slabs = func(c []nncircle.NNCircle) core.SlabSink { sink = base.PatchSink(c); return sink }
	}
	out, err := delta.ApplyBatch(
		delta.State{
			Clients:    m.cfg.Clients,
			Facilities: m.cfg.Facilities,
			Circles:    m.circles,
			Labels:     m.result.Labels,
			Pool:       pool,
		},
		dds,
		delta.Options{
			Metric:  m.cfg.Metric,
			Measure: m.measure,
			Workers: m.cfg.Workers,
		},
		slabs,
	)
	if err != nil {
		return nil, DeltaStats{}, fmt.Errorf("heatmap: %w", err)
	}
	cfg := m.cfg
	cfg.Clients = out.State.Clients
	cfg.Facilities = out.State.Facilities
	bounds := geom.EmptyRect()
	for _, nc := range out.State.Circles {
		bounds = bounds.Union(nc.Circle.BoundingRect())
	}
	next := &Map{
		cfg:     cfg,
		circles: out.State.Circles,
		bounds:  bounds,
		result:  out.Result,
		measure: m.measure,
	}
	if sink != nil {
		if ix, err := sink.Index(); err == nil {
			next.setPointLoc(ix)
		}
	} else if base != nil {
		spans = append(spans[:len(spans):len(spans)], out.Stats.DirtySpans...)
		next.pending = &pendingPatch{base: base, spans: spans, events: out.Events}
	}
	return next, DeltaStats{
		ChangedClients: out.Stats.ChangedClients,
		Rebuilt:        out.Stats.Rebuilt,
		EventsTotal:    out.Stats.EventsTotal,
		EventsReswept:  out.Stats.EventsReswept,
		DirtyRect:      out.Stats.DirtyRect,
		Duration:       out.Stats.Duration,
	}, nil
}

// DeltaSupported reports whether this map can be updated with ApplyDelta,
// returning the reason it cannot. Servers use it to refuse mutation
// requests up front (e.g. a capacity-measure map restored from a snapshot
// into a mutable server) instead of surfacing the rejection as an internal
// error per request.
func (m *Map) DeltaSupported() error {
	if m.cfg.Monochromatic {
		return errors.New("heatmap: ApplyDelta requires a bichromatic map")
	}
	if m.cfg.Algorithm != "" && m.cfg.Algorithm != AlgCREST {
		return fmt.Errorf("heatmap: ApplyDelta requires the CREST algorithm, map was built with %q", m.cfg.Algorithm)
	}
	if influence.UsesIndexContext(m.measure) {
		return fmt.Errorf("heatmap: ApplyDelta cannot update a map whose %q measure closes over client/facility indexes; rebuild it with fresh context", m.measure.Name())
	}
	return nil
}

// NumClients and NumFacilities return the sizes of the client and facility
// sets the map was built from (after any ApplyDelta updates). A mapped map
// answers from the snapshot header without touching the point sections.
func (m *Map) NumClients() int {
	if m.view != nil {
		return m.view.Meta().NumClients
	}
	return len(m.cfg.Clients)
}

func (m *Map) NumFacilities() int {
	if m.view != nil {
		return m.view.Meta().NumFacilities
	}
	return len(m.cfg.Facilities)
}

// NearestAssignment returns, for each client, the index of its nearest
// facility under the metric — the "current assignment" the
// capacity-constrained measure consumes. It reuses the k-d tree NN-circle
// construction Build performs, so it costs O(n log m) rather than the
// brute-force O(n·m).
func NearestAssignment(clients, facilities []Point, metric Metric) ([]int, error) {
	circles, err := nncircle.Compute(clients, facilities, metric)
	if err != nil {
		return nil, fmt.Errorf("heatmap: computing assignment: %w", err)
	}
	out := make([]int, len(circles))
	for i, nc := range circles {
		out[i] = nc.Facility
	}
	return out, nil
}

// Regions returns every labeled region.
func (m *Map) Regions() []Region {
	m.materialize()
	out := make([]Region, len(m.result.Labels))
	for i, l := range m.result.Labels {
		out[i] = Region{RNN: l.RNN, Heat: l.Heat, Point: l.Point}
	}
	return out
}

// NumRegions returns the number of labeled regions.
func (m *Map) NumRegions() int {
	if m.view != nil {
		return m.view.Meta().NumLabels
	}
	return len(m.result.Labels)
}

// MaxHeat returns the largest heat value and a region attaining it. A mapped
// map answers from the snapshot header, where the argmax label is stored
// whole.
func (m *Map) MaxHeat() (float64, Region) {
	if m.view != nil {
		meta := m.view.Meta()
		l := meta.MaxLabel
		return meta.MaxHeat, Region{RNN: l.RNN, Heat: l.Heat, Point: l.Point}
	}
	l := m.result.MaxLabel
	return m.result.MaxHeat, Region{RNN: l.RNN, Heat: l.Heat, Point: l.Point}
}

// materialize builds the heap structures of a mapped map — client and
// facility slices, circles, labels — from the snapshot view; it is the one
// place a map file becomes heap state, and every one of them is a copy, so
// neither the map's Config nor a Snapshot it hands out aliases the file. It
// is a no-op for heap maps and runs at most once; operations that can be
// answered from the view's metadata or the slab index opened over it never
// call it, so a snapshot-serving process that only answers queries and
// tiles keeps its heap resident set to the index's slab headers.
func (m *Map) materialize() {
	if m.view == nil {
		return
	}
	m.matOnce.Do(func() {
		s := m.view.Snapshot()
		m.cfg.Clients = s.Clients
		m.cfg.Facilities = s.Facilities
		m.circles = s.Circles
		m.result = &core.Result{
			Labels:   s.Labels,
			MaxHeat:  s.MaxHeat,
			MaxLabel: s.MaxLabel,
			Stats:    s.Stats,
		}
		m.materialized.Store(true)
	})
}

// Residency reports where the map's data lives: "heap" for maps built in
// memory (by Build or by a mutation), "mapped" for a snapshot served off
// the file mapping alone, and "mapped+heap" once an operation has
// materialized heap structures alongside the mapping. A map a mutation
// derived from a mapped one reports "heap", although the clean slabs its
// slab index shares with its predecessor's may still alias the file it
// descends from (MappedBytes says so). Servers surface it in /stats.
func (m *Map) Residency() string {
	if m.view == nil {
		return "heap"
	}
	if m.materialized.Load() {
		return "mapped+heap"
	}
	return "mapped"
}

// MappedBytes returns the size of the snapshot file the map keeps mapped:
// the file it was opened from, or, for a map a mutation derived from one,
// the file its slab index's lineage was opened from; 0 when it holds no
// mapping. The file is unmapped once no map or index holding it is
// reachable. Servers surface it in /stats.
func (m *Map) MappedBytes() int64 {
	if m.view != nil {
		return m.view.MappedBytes()
	}
	if ix, _ := m.patchBase(); ix != nil {
		return ix.MappedBytes()
	}
	return 0
}

// plState is the resolved point-query state: the slab index ix, or, when
// the index is disabled or declined to build, the R-tree enc over the
// circles (exactly one of the two is set). geo is the optimal-location
// geometry of ix, which memoizes the face geometry of each set an answer
// resolves.
type plState struct {
	ix  *pointloc.Index
	enc enclosure.Index
	geo *optimal.Geometry
}

func newPLState(ix *pointloc.Index) *plState {
	return &plState{ix: ix, geo: optimal.FromIndex(ix)}
}

// pointLoc returns the map's point-query structure, resolving it on first
// use; it is the one place a map decides how it answers points. The slab
// index comes first: patched from the ancestor index a deferred patch
// records, or built in the labels-off pass. When it is disabled
// (Config.NoSlabIndex) or declines to build (pointloc.ErrTooLarge), the
// R-tree the enclosure path stabs is built instead, with identical answers;
// no other path builds one. After the first call the lookup is one atomic
// load.
func (m *Map) pointLoc() *plState {
	if st := m.pl.Load(); st != nil {
		return st
	}
	// A mapped map needs heap circles and labels before an index can be
	// built (reached only when the snapshot carries no slab sections:
	// OpenSnapshot installs the index a file stores).
	m.materialize()
	m.plMu.Lock()
	defer m.plMu.Unlock()
	if st := m.pl.Load(); st != nil {
		return st
	}
	var ix *pointloc.Index
	if p := m.pending; p != nil {
		if patchHook != nil {
			patchHook()
		}
		ix, _ = p.base.Patch(m.circles, p.spans, p.events, pointloc.Options{})
	}
	if ix == nil && !m.cfg.NoSlabIndex {
		// Sharing the labels' pool lets the build reuse every RNN set and
		// heat the sweep already interned instead of recomputing them, and
		// keeps the labels' ids the ids of the index's gaps.
		if built, err := pointloc.Build(m.circles, m.measure, pointloc.Options{Pool: m.labelPool()}); err == nil {
			ix = built
		}
	}
	st := newPLState(ix)
	if ix == nil {
		st.enc = enclosure.NewRTreeIndex(nncircle.Circles(m.circles))
	}
	m.pl.Store(st)
	return st
}

// labelPool returns the label pool whose ids the map's labels carry, for a
// commit or an index build to intern into: the sweep's, or, for a map
// opened from a snapshot, a pool seeded with the file's sets under their
// pool ids (snapshot.View.Interner), which the slab index a file stores
// seeds for itself instead (pointloc.Index.Pool). A fresh pool in its place
// would give the sets new ids, and the labels' ids would name nothing in
// it.
func (m *Map) labelPool() *core.LabelInterner {
	if m.view == nil {
		return m.result.LabelPool()
	}
	m.filePoolOnce.Do(func() { m.filePool = m.view.Interner(m.measure) })
	return m.filePool
}

// pendingPatch is the record a map whose slab index patch was deferred
// keeps: the nearest ancestor index already built, the dirty spans of every
// commit since it, and the event list the map's own resweep swept. The
// map's first point query patches base over spans once, in the labels-off
// pass, exactly as ApplyDeltaBatch of those commits' deltas would. It holds
// no ancestor Map, so a chain of deferred maps keeps no chain of maps alive.
type pendingPatch struct {
	base   *pointloc.Index
	spans  [][2]float64
	events *core.SlabEvents
}

// patchBase returns the slab index a commit on m patches from, with the
// dirty spans already recorded against it: m's own index once resolved
// (nil when it was never built or its build declined), else the ancestor
// index of m's deferred patch and the spans since.
func (m *Map) patchBase() (*pointloc.Index, [][2]float64) {
	if st := m.pl.Load(); st != nil {
		return st.ix, nil
	}
	if p := m.pending; p != nil {
		return p.base, p.spans
	}
	return nil, nil
}

// patchHook, when set, is called before every deferred slab index patch;
// tests count patches with it.
var patchHook func()

// builtPointLoc returns the slab index only if it has already been built (or
// its build already declined); it never forces a build, nor a deferred
// patch.
func (m *Map) builtPointLoc() (*pointloc.Index, bool) {
	st := m.pl.Load()
	if st == nil {
		return nil, false
	}
	return st.ix, true
}

// setPointLoc seeds a map (before publication) with the index its sweep
// wrote or its file stores.
func (m *Map) setPointLoc(ix *pointloc.Index) {
	m.pl.Store(newPLState(ix))
}

// SlabIndexStats reports whether the slab point-location index is currently
// materialized and, if so, its slab and cell counts. It never forces a
// build; servers surface it in /stats. A map opened from a snapshot that
// stores its index has it from the start.
func (m *Map) SlabIndexStats() (built bool, slabs, cells int) {
	ix, done := m.builtPointLoc()
	if !done || ix == nil {
		return false, 0, 0
	}
	return true, ix.NumSlabs(), ix.Cells()
}

// ExactPathCounts reports the point queries (HeatAt, and each point of
// HeatAtBatch) and the raster columns (each pixel column of a render with a
// pixel on it) that the slab index resolved on its exact path, the
// closed-containment evaluation it runs within an epsilon of a face
// boundary. The counts cover every map whose index patches the same built
// or loaded index (a map and the maps its commits derive); both read 0
// without a materialized index. It never forces a build; servers surface
// it in /stats.
func (m *Map) ExactPathCounts() (points, columns int64) {
	ix, _ := m.builtPointLoc()
	if ix == nil {
		return 0, 0
	}
	return ix.ExactCounts()
}

// HeatAt returns the heat and RNN set of an arbitrary location, including
// locations outside every labeled region (whose RNN set is empty).
//
// With the slab index available (the default) the query is two binary
// searches against precomputed face labels; otherwise it is a
// point-enclosure stabbing query. Both paths implement the same closed
// boundary convention (see internal/enclosure) and return identical
// answers.
func (m *Map) HeatAt(p Point) (float64, []int) {
	st := m.pointLoc()
	if st.ix != nil {
		heat, rnn := st.ix.Query(p)
		return heat, copyInts(rnn)
	}
	set := oset.New()
	for _, id := range st.enc.Enclosing(p) {
		set.Add(m.circles[id].Client)
	}
	return m.measure.Influence(set), set.Sorted()
}

// HeatAtBatch answers one HeatAt query per point, in input order. It backs
// the server's POST /heat/batch endpoint. With the slab index available the
// points are sorted by sweep x once and the slab list is walked
// monotonically; the fallback issues one enclosure batch.
func (m *Map) HeatAtBatch(ps []Point) (heats []float64, rnns [][]int) {
	st := m.pointLoc()
	if st.ix != nil {
		// QueryBatch hands back caller-owned arena-packed copies, so the
		// answers are safe to retain as-is.
		return st.ix.QueryBatch(ps)
	}
	heats = make([]float64, len(ps))
	rnns = make([][]int, len(ps))
	set := oset.New()
	for i, ids := range st.enc.EnclosingBatch(ps) {
		set.Clear()
		for _, id := range ids {
			set.Add(m.circles[id].Client)
		}
		heats[i] = m.measure.Influence(set)
		rnns[i] = set.Sorted()
	}
	return heats, rnns
}

// copyInts returns a fresh copy of v, preserving non-nil-ness: the slab
// index shares its stored label slices, and public API answers must be safe
// for callers to retain and mutate.
func copyInts(v []int) []int {
	out := make([]int, len(v))
	copy(out, v)
	return out
}

// Bounds returns the bounding rectangle of the NN-circles, computed once at
// Build time. Outside it every location has the empty-set heat, so it is
// the natural full-map viewport for rendering and tiling.
func (m *Map) Bounds() Rect { return m.bounds }

// MeasureName returns the name of the influence measure the map was built
// with (e.g. "size", "capacity"). Servers use it in cache keys and stats.
func (m *Map) MeasureName() string { return m.measure.Name() }

// Renderer returns a render.Renderer over the map's slab point-location
// index — or, when the index is disabled or declined to build, its
// point-enclosure index — for repeated sub-rectangle (tile) rendering. The
// renderer is built on first use and cached; it is safe for concurrent use.
func (m *Map) Renderer() (*render.Renderer, error) {
	m.rendererOnce.Do(func() {
		// Tiles are the hottest read path; rasterizing from the slab index
		// resolves each pixel column's slab once and reads precomputed face
		// heats instead of running one enclosure query per pixel. A map
		// opened from a snapshot rasterizes straight off the file's slab
		// sections — no circles, no enclosure index, no heap decode.
		st := m.pointLoc()
		if st.ix != nil {
			m.renderer, m.rendererErr = render.NewIndexRenderer(st.ix, m.bounds, m.measure)
			return
		}
		m.renderer, m.rendererErr = render.NewRenderer(m.circles, st.enc, m.measure)
	})
	return m.renderer, m.rendererErr
}

// RasterizeRect renders the sub-rectangle bounds of the heat map at
// width x height pixels using the map's influence measure.
func (m *Map) RasterizeRect(bounds Rect, width, height int) (*render.Raster, error) {
	rd, err := m.Renderer()
	if err != nil {
		return nil, err
	}
	return rd.Render(bounds, width, height)
}

// TopK returns the k hottest regions with distinct RNN sets, hottest first.
func (m *Map) TopK(k int) []Region {
	m.materialize()
	labels := postprocess.TopK(m.result.Labels, k, true)
	out := make([]Region, len(labels))
	for i, l := range labels {
		out[i] = Region{RNN: l.RNN, Heat: l.Heat, Point: l.Point}
	}
	return out
}

// AboveThreshold returns the regions whose heat is at least minHeat.
func (m *Map) AboveThreshold(minHeat float64) []Region {
	m.materialize()
	labels := postprocess.Threshold(m.result.Labels, minHeat)
	out := make([]Region, len(labels))
	for i, l := range labels {
		out[i] = Region{RNN: l.RNN, Heat: l.Heat, Point: l.Point}
	}
	return out
}

// Stats exposes the work counters of the underlying Region Coloring run, as
// a snapshot keeps them: StatusWork, which measures one sweep's execution
// rather than the map, is not stored and reads zero.
func (m *Map) Stats() core.Stats {
	if m.view != nil {
		return m.view.Meta().Stats
	}
	st := m.result.Stats
	st.StatusWork = 0
	return st
}

// Summary describes the heat distribution over the labeled regions: region
// and distinct-RNN-set counts, min/mean/max heat and the largest RNN set
// size (the paper's λ).
type Summary = postprocess.Summary

// Summary computes distributional statistics over all labeled regions, once
// per map. For a mapped map the summary was computed at save time and is
// read back from the snapshot header — no label scan.
func (m *Map) Summary() Summary {
	if m.view != nil {
		return m.view.Meta().Summary
	}
	m.summaryOnce.Do(func() { m.summary = postprocess.Summarize(m.result.Labels) })
	return m.summary
}

// HeatHistogram buckets the labeled regions' heat values into the given
// number of equal-width bins between the minimum and maximum heat. It
// returns the bin edges (length bins+1) and counts (length bins). The range
// is the Summary's, and a mapped map buckets the heats its file stores, so
// it stays "mapped".
func (m *Map) HeatHistogram(bins int) (edges []float64, counts []int) {
	if m.view != nil {
		return postprocess.Histogram(m.Summary(), m.view.LabelHeats(), bins)
	}
	return postprocess.Histogram(m.Summary(), postprocess.Heats(m.result.Labels), bins)
}

// Rasterize renders the full heat map into a width-pixel-wide raster using
// the map's influence measure and shared renderer (the enclosure index is
// not rebuilt per call).
func (m *Map) Rasterize(width int) (*render.Raster, error) {
	rd, err := m.Renderer()
	if err != nil {
		return nil, err
	}
	return rd.RenderWidth(m.bounds, width)
}

// SavePNG renders the heat map to a grayscale PNG file (darker = hotter),
// matching the presentation of the paper's figures.
func (m *Map) SavePNG(path string, width int) error {
	raster, err := m.Rasterize(width)
	if err != nil {
		return err
	}
	return raster.SavePNG(path, render.Grayscale)
}

// ASCII renders a coarse ASCII-art preview of the heat map.
func (m *Map) ASCII(cols int) (string, error) {
	raster, err := m.Rasterize(cols)
	if err != nil {
		return "", err
	}
	return raster.ASCII(cols), nil
}

// Dataset re-exports the built-in data set generators so example programs
// can be written against the public API only.
type Dataset = dataset.Dataset

// NewYorkLike, LosAngelesLike, UniformDataset and ZipfianDataset generate
// the four point distributions used in the paper's experiments; see package
// dataset for details on how the city simulators substitute for the paper's
// proprietary POI data.
func NewYorkLike(n int, seed int64) *Dataset    { return dataset.NewYorkLike(n, seed) }
func LosAngelesLike(n int, seed int64) *Dataset { return dataset.LosAngelesLike(n, seed) }

// UniformDataset generates n uniformly distributed points in the unit square
// scaled to [0, span]².
func UniformDataset(n int, span float64, seed int64) *Dataset {
	return dataset.Uniform(n, geom.Rect{MaxX: span, MaxY: span}, seed)
}

// ZipfianDataset generates n points with Zipf-skewed clustering (the paper's
// skew coefficient is 0.2).
func ZipfianDataset(n int, span float64, skew float64, seed int64) *Dataset {
	return dataset.Zipfian(n, geom.Rect{MaxX: span, MaxY: span}, skew, seed)
}
