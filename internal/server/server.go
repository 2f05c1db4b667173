// Package server implements heatmapd's HTTP layer: a long-running,
// multi-tenant service that owns a registry of computed heatmap.Maps and
// serves them to many readers. One expensive Build (or a millisecond
// snapshot load) is amortized across arbitrarily many cheap requests —
// slippy-map raster tiles, point and batched influence queries, region
// exploration and operational introspection.
//
// Every endpoint is mounted once, under /v1, and every error is the
// structured envelope {"error": {"code": "...", "message": "..."}}: the
// ones handlers write, and the answer to a request no route matches — 404
// not_found, or 405 method_not_allowed with an Allow header when the path
// has routes under other methods. Each per-map endpoint exists in the tenant form /v1/maps/{map}/...
// and as a default-map alias without the /maps/{map} segment, which
// resolves to the map named "default":
//
//	GET    /v1/maps                          list maps
//	POST   /v1/maps                          create a map from uploaded points
//	GET    /v1/maps/{map}                    map info
//	DELETE /v1/maps/{map}                    delete a map (not "default")
//	POST   /v1/maps/{map}/snapshot           force-persist the map now
//	GET    /v1/maps/{map}/tiles/{z}/{x}/{y}.png   (alias /v1/tiles/...)
//	GET    /v1/maps/{map}/heat               (alias /v1/heat)
//	POST   /v1/maps/{map}/heat/batch         (alias /v1/heat/batch)
//	GET    /v1/maps/{map}/topk               (alias /v1/topk)
//	GET    /v1/maps/{map}/regions            (alias /v1/regions)
//	GET    /v1/maps/{map}/histogram          (alias /v1/histogram)
//	GET    /v1/maps/{map}/optimal            (alias /v1/optimal)
//	POST   /v1/maps/{map}/optimize           (alias /v1/optimize)
//	GET    /v1/maps/{map}/stats              (alias /v1/stats)
//	POST   /v1/maps/{map}/mutations          batched mutation ops (alias /v1/mutations)
//
// A mutable server (Config.Mutable) accepts live set updates through one
// write endpoint, POST .../mutations, applied through heatmap's
// copy-on-write delta path: per map, a writer builds a new map (resweeping
// only the dirty part of the arrangement) and publishes it, so readers never
// lock and never observe a half-updated map. Every new map version — an
// ingested group commit, a committed /optimize, a replica applying shipped
// records — goes through one publish step (mapInstance.publish): log, then
// migrate the tile cache, then swap. Every acknowledged write request bumps
// its map's version by one. Maps are isolated: every instance has its own
// writer lock and its own version-keyed tile cache, so a write burst against
// one tenant never blocks reads or writes on another.
//
// With Config.SnapshotDir set the registry is durable: each map is saved as
// a versioned binary snapshot (internal/snapshot), every applied mutation is
// appended to the map's write-ahead log before it becomes visible, and
// Config.Load restores snapshot+WAL on startup — so a restarted server
// reports the same map version and serves byte-identical tiles as the one
// that crashed.
//
// Tiles are rendered through the current map's shared render.Renderer,
// normalized against the map-wide heat range so adjacent tiles shade
// consistently, and cached per map in a fixed-size LRU with single-flight
// de-duplication keyed by map version. On a mutation, cached tiles that do
// not intersect the update's dirty rectangle are carried over to the new
// version; the rest are invalidated (the whole cache is, whenever the update
// moved the tile grid or the normalization range). Tile bytes depend only on
// the NN-circles and the influence measure, so responses are byte-identical
// regardless of how many workers swept the map — or whether it was swept at
// all rather than loaded from a snapshot.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/render"
	"rnnheatmap/internal/snapshot"
)

// Config configures a Server.
type Config struct {
	// Map is the initial "default" map. Required unless Load restores a
	// default map from SnapshotDir.
	Map *heatmap.Map
	// Mutable enables the write API: POST .../mutations and committed
	// placements (POST .../optimize?commit=true). When false those answer 403
	// read_only.
	Mutable bool
	// TileSize is the tile edge length in pixels; 0 means 256.
	TileSize int
	// TileCacheSize is the per-map LRU capacity in tiles; 0 means 512.
	TileCacheSize int
	// ColorMap renders tiles; nil means render.Grayscale (darker = hotter,
	// as in the paper's figures).
	ColorMap render.ColorMap
	// MaxBatch caps the number of points accepted by POST /heat/batch and the
	// ops and mutations accepted by one POST /mutations request; 0 means
	// 10000.
	MaxBatch int
	// MaxRegions caps the number of regions returned by GET /regions and
	// GET /topk; 0 means 10000.
	MaxRegions int
	// MaxMaps caps the registry size; 0 means 64.
	MaxMaps int
	// MaxMapPoints caps clients+facilities of a map created via POST /maps;
	// 0 means 200000.
	MaxMapPoints int
	// CoalesceWindow is how long each map's ingestion writer waits for more
	// POST /mutations batches before group-committing what it has gathered;
	// 0 means 2ms, negative means never wait (commit whatever is already
	// queued).
	CoalesceWindow time.Duration
	// CoalesceOps caps the total ops gathered into one group commit; 0 means
	// 512.
	CoalesceOps int
	// IngestQueue is the per-map admission queue capacity for POST
	// /mutations; a full queue answers 429 with Retry-After. 0 means 128.
	IngestQueue int
	// SnapshotDir, when non-empty, makes the registry durable: maps are
	// saved there as binary snapshots and (on mutable servers) every applied
	// mutation is write-ahead logged. The directory is created if missing.
	SnapshotDir string
	// Load restores every map found in SnapshotDir at startup, replaying
	// each map's WAL on top of its snapshot. Requires SnapshotDir.
	Load bool
	// Cluster, when non-nil, runs this server as one node of a static
	// cluster: maps are placed onto nodes by consistent hashing, owners
	// ship their WAL to read replicas, and requests for maps placed
	// elsewhere are proxied (reads) or 307-redirected (writes). Requires
	// Mutable and SnapshotDir. See cluster.go.
	Cluster *ClusterOptions
}

// mapState is one immutable snapshot of a served map and everything derived
// from it. Readers load the current snapshot once per request from their
// instance's atomic pointer; writers construct a fresh snapshot and swap.
type mapState struct {
	m       *heatmap.Map
	rd      *render.Renderer
	grid    grid
	version uint64
	// heatLo and heatHi are the map-wide heat range used to normalize every
	// tile, so a region renders the same shade on whichever tile it lands.
	heatLo, heatHi float64
}

func newMapState(m *heatmap.Map, version uint64) (*mapState, error) {
	rd, err := m.Renderer()
	if err != nil {
		return nil, err
	}
	st := &mapState{
		m:       m,
		rd:      rd,
		grid:    newGrid(rd.Bounds()),
		version: version,
	}
	st.heatLo, st.heatHi = heatRange(m)
	return st, nil
}

// Server serves a registry of heat maps over HTTP. It is an http.Handler;
// readers are lock-free against each map's current snapshot, mutations are
// serialized per map by that instance's writer lock.
type Server struct {
	mutable       bool
	tileSize      int
	tileCacheSize int
	cm            render.ColorMap
	maxBatch      int
	maxRegions    int
	maxMaps       int
	maxMapPoints  int
	snapshotDir   string

	coalesceWindow time.Duration
	coalesceOps    int
	ingestQueue    int

	mu   sync.RWMutex
	maps map[string]*mapInstance
	// creating holds names reserved by in-flight POST /maps builds, so
	// concurrent same-name creates are refused before paying a multi-second
	// Build, and the registry cap bounds in-flight builds too.
	creating map[string]struct{}

	mux *http.ServeMux
	// routeList records every registered (method, path) pair. The OpenAPI
	// contract test walks it.
	routeList [][2]string
	started   time.Time

	// cluster is the cluster-mode runtime (nil on single-node servers):
	// placement ring, peer health, request routing, WAL shipping and the
	// replica manager. See cluster.go.
	cluster *clusterNode
}

// New builds a Server for the given configuration.
func New(cfg Config) (*Server, error) {
	if cfg.TileSize == 0 {
		cfg.TileSize = 256
	}
	if cfg.TileSize < 1 || cfg.TileSize > 4096 {
		return nil, fmt.Errorf("server: tile size %d out of range [1, 4096]", cfg.TileSize)
	}
	if cfg.TileCacheSize <= 0 {
		cfg.TileCacheSize = 512
	}
	if cfg.ColorMap == nil {
		cfg.ColorMap = render.Grayscale
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 10000
	}
	if cfg.MaxRegions <= 0 {
		cfg.MaxRegions = 10000
	}
	if cfg.MaxMaps <= 0 {
		cfg.MaxMaps = 64
	}
	if cfg.MaxMapPoints <= 0 {
		cfg.MaxMapPoints = 200000
	}
	if cfg.CoalesceWindow == 0 {
		cfg.CoalesceWindow = 2 * time.Millisecond
	}
	if cfg.CoalesceOps <= 0 {
		cfg.CoalesceOps = 512
	}
	if cfg.IngestQueue <= 0 {
		cfg.IngestQueue = 128
	}
	if cfg.Load && cfg.SnapshotDir == "" {
		return nil, errors.New("server: Config.Load requires Config.SnapshotDir")
	}
	if cfg.Cluster != nil {
		if err := cfg.Cluster.validate(&cfg); err != nil {
			return nil, err
		}
	}
	s := &Server{
		mutable:       cfg.Mutable,
		tileSize:      cfg.TileSize,
		tileCacheSize: cfg.TileCacheSize,
		cm:            cfg.ColorMap,
		maxBatch:      cfg.MaxBatch,
		maxRegions:    cfg.MaxRegions,
		maxMaps:       cfg.MaxMaps,
		maxMapPoints:  cfg.MaxMapPoints,
		snapshotDir:   cfg.SnapshotDir,

		coalesceWindow: cfg.CoalesceWindow,
		coalesceOps:    cfg.CoalesceOps,
		ingestQueue:    cfg.IngestQueue,
		maps:           make(map[string]*mapInstance),
		creating:       make(map[string]struct{}),
		mux:            http.NewServeMux(),
		started:        time.Now(),
	}
	if s.snapshotDir != "" {
		if err := os.MkdirAll(s.snapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: creating snapshot dir: %w", err)
		}
	}
	if cfg.Load {
		if err := s.loadMaps(); err != nil {
			return nil, err
		}
	}
	if s.def() == nil {
		if cfg.Map == nil {
			if cfg.Load {
				return nil, fmt.Errorf("server: no default map: Config.Map is nil and %s holds no %q snapshot", s.snapshotDir, DefaultMapName)
			}
			return nil, errors.New("server: Config.Map is required")
		}
		if _, err := s.register(DefaultMapName, cfg.Map, 1, false, nil); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	// When Load restored a default map, it wins over cfg.Map: the caller
	// asked for durability, and the snapshot is the durable state.
	if cfg.Cluster != nil {
		s.cluster = newClusterNode(s, cfg.Cluster)
	}
	s.routes()
	if s.cluster != nil {
		s.cluster.start()
	}
	return s, nil
}

// APIVersion is the versioned prefix every endpoint is mounted under.
const APIVersion = "v1"

// routeKind classifies per-map endpoints for cluster routing: reads may be
// served by any holder (owner or synced replica) and are proxied to one when
// this node holds no authoritative copy; writes always 307-redirect to the
// owner; local endpoints (node introspection like /stats) never leave the
// node. On single-node servers the classification is inert.
type routeKind int

const (
	routeLocal routeKind = iota
	routeRead
	routeWrite
)

// routes registers every endpoint: the registry, each per-map endpoint in
// its tenant form and its default-map alias, and the cluster endpoints.
func (s *Server) routes() {
	s.add("GET", "/healthz", s.handleHealthz)
	s.add("GET", "/maps", s.handleListMaps)
	s.add("POST", "/maps", s.handleCreateMap)
	s.add("GET", "/maps/{map}", s.named(routeRead, s.handleGetMap))
	s.add("DELETE", "/maps/{map}", s.named(routeWrite, s.handleDeleteMap))
	s.add("POST", "/maps/{map}/snapshot", s.named(routeWrite, s.handleSaveMap))
	for pattern, e := range map[string]struct {
		kind routeKind
		h    func(*mapInstance, http.ResponseWriter, *http.Request)
	}{
		"GET /stats":             {routeLocal, s.handleStats},
		"GET /heat":              {routeRead, s.handleHeat},
		"POST /heat/batch":       {routeRead, s.handleHeatBatch},
		"GET /topk":              {routeRead, s.handleTopK},
		"GET /regions":           {routeRead, s.handleRegions},
		"GET /histogram":         {routeRead, s.handleHistogram},
		"GET /optimal":           {routeRead, s.handleOptimal},
		"POST /optimize":         {routeWrite, s.handleOptimize},
		"GET /tiles/{z}/{x}/{y}": {routeRead, s.handleTile},
		"POST /mutations":        {routeWrite, s.handleMutations},
	} {
		method, path, _ := strings.Cut(pattern, " ")
		s.add(method, path, s.onDefault(e.kind, e.h))
		s.add(method, "/maps/{map}"+path, s.named(e.kind, e.h))
	}
	// The cluster endpoints are always registered — the OpenAPI contract
	// test walks the full route table — and answer not_clustered when the
	// server runs single-node.
	s.add("GET", "/cluster/ping", s.handleClusterPing)
	s.add("GET", "/cluster/status", s.handleClusterStatus)
	s.add("GET", "/cluster/maps", s.handleClusterMaps)
	s.add("GET", "/cluster/maps/{map}/wal", s.handleClusterWAL)
	s.add("GET", "/cluster/maps/{map}/snapshot", s.handleClusterSnapshot)
	// Every other method and path: the catch-all pattern matches any
	// request no route above does.
	s.mux.HandleFunc("/", s.handleUnrouted)
}

// handleUnrouted answers a request no route matches in the error envelope.
// When the path has routes under other methods the answer is the mux's own
// 405 — the same status and Allow header, GET implying HEAD — else 404.
func (s *Server) handleUnrouted(w http.ResponseWriter, r *http.Request) {
	var allow []string
	for _, method := range []string{http.MethodDelete, http.MethodGet, http.MethodPost} {
		probe := *r
		probe.Method = method
		if _, pattern := s.mux.Handler(&probe); pattern != "/" {
			allow = append(allow, method)
			if method == http.MethodGet {
				allow = append(allow, http.MethodHead)
			}
		}
	}
	if len(allow) == 0 {
		writeErrorCode(w, http.StatusNotFound, codeNotFound, "no route matches %s %s", r.Method, r.URL.Path)
		return
	}
	w.Header().Set("Allow", strings.Join(allow, ", "))
	writeErrorCode(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
		"no route matches %s %s; the path allows %s", r.Method, r.URL.Path, strings.Join(allow, ", "))
}

// add registers one endpoint under /v1.
func (s *Server) add(method, path string, h http.HandlerFunc) {
	path = "/" + APIVersion + path
	s.mux.HandleFunc(method+" "+path, h)
	s.routeList = append(s.routeList, [2]string{method, path})
}

// Routes returns every registered (method, path) pair, paths including the
// /v1 prefix. The OpenAPI contract test compares this table against
// docs/openapi.yaml in both directions.
func (s *Server) Routes() [][2]string {
	out := make([][2]string, len(s.routeList))
	copy(out, s.routeList)
	return out
}

// onDefault adapts a per-map handler to its default-map alias.
func (s *Server) onDefault(kind routeKind, h func(*mapInstance, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.clusterRoute(DefaultMapName, kind, w, r) {
			return
		}
		h(s.def(), w, r)
	}
}

// named adapts a per-map handler to its /maps/{map}/... route, resolving
// the tenant and answering 404 for unknown names.
func (s *Server) named(kind routeKind, h func(*mapInstance, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("map")
		if s.clusterRoute(name, kind, w, r) {
			return
		}
		inst := s.lookup(name)
		if inst == nil {
			writeError(w, http.StatusNotFound, "no map named %q", name)
			return
		}
		h(inst, w, r)
	}
}

// clusterRoute lets cluster mode intercept a per-map request (redirect,
// proxy or refuse); false means "serve locally". Single-node servers and
// node-local endpoints always serve locally.
func (s *Server) clusterRoute(name string, kind routeKind, w http.ResponseWriter, r *http.Request) bool {
	if s.cluster == nil || kind == routeLocal {
		return false
	}
	return s.cluster.route(name, kind == routeWrite, w, r)
}

// heatRange returns the fixed normalization range for tiles: from the
// smaller of the empty-set heat and the coolest region to the map maximum.
// For the size measure this is simply [0, max], but signed measures (e.g.
// capacity gain) can dip below the empty-set value.
func heatRange(m *heatmap.Map) (lo, hi float64) {
	outside := m.Bounds().Expand(1).Corners()
	lo, _ = m.HeatAt(outside[0]) // empty RNN set
	hi = lo
	if sum := m.Summary(); sum.Count > 0 {
		lo = math.Min(lo, sum.MinHeat)
		hi = math.Max(hi, sum.MaxHeat)
	}
	return lo, hi
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Bounds returns the data bounds of the currently served default map.
func (s *Server) Bounds() heatmap.Rect { return s.def().state().rd.Bounds() }

// Version returns the default map's current version. It starts at 1 and
// increments with every applied mutation.
func (s *Server) Version() uint64 { return s.def().state().version }

// RenderCalls returns how many tile renders have actually executed for the
// default map across all its versions; warm cache hits do not increment it.
// Exposed for tests and /stats.
func (s *Server) RenderCalls() int64 { return s.def().renders.Load() }

// NumMaps returns the registry size.
func (s *Server) NumMaps() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.maps)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Machine-readable error codes of the error envelope. Every error response
// has the shape {"error": {"code": "<code>", "message": "..."}};
// the code is stable API surface (documented in docs/openapi.yaml), the
// message is free-form prose that may change between releases.
const (
	codeInvalidArgument   = "invalid_argument"
	codeForbidden         = "forbidden"
	codeReadOnly          = "read_only"
	codeNotFound          = "not_found"
	codeMethodNotAllowed  = "method_not_allowed"
	codeConflict          = "conflict"
	codeMapExists         = "map_exists"
	codeImmutableMap      = "immutable_map"
	codeNoRegions         = "no_regions"
	codeResourceExhausted = "resource_exhausted"
	codeRegistryFull      = "registry_full"
	codeQueueFull         = "queue_full"
	codeInternal          = "internal"
	codeUnavailable       = "unavailable"
	codeNotClustered      = "not_clustered"
	codeCompacted         = "compacted"
)

// errorCodeFor maps an HTTP status to its default envelope code; handlers
// with a more specific cause use writeErrorCode directly.
func errorCodeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return codeInvalidArgument
	case http.StatusForbidden:
		return codeForbidden
	case http.StatusNotFound:
		return codeNotFound
	case http.StatusConflict:
		return codeConflict
	case http.StatusTooManyRequests:
		return codeResourceExhausted
	case http.StatusServiceUnavailable:
		return codeUnavailable
	default:
		return codeInternal
	}
}

// errorEnvelope is the error body.
type errorEnvelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeErrorCode(w, code, errorCodeFor(code), format, args...)
}

// writeErrorCode writes an error response in the structured envelope with
// the given machine code.
func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]errorEnvelope{"error": {Code: code, Message: fmt.Sprintf(format, args...)}})
}

// parseFloat parses a finite float parameter of the query q.
func parseFloat(q url.Values, name string) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("query parameter %q is not a finite number: %q", name, raw)
	}
	return v, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.def().state()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"maps":    s.NumMaps(),
		"regions": st.m.NumRegions(),
		"version": st.version,
	})
}

// statsResponse is the GET /stats payload.
type statsResponse struct {
	Name    string `json:"name"`
	Measure string `json:"measure"`
	Version uint64 `json:"version"`
	// APIVersion is the current versioned API prefix ("v1").
	APIVersion string `json:"api_version"`
	Mutable    bool   `json:"mutable"`
	Persisted  bool   `json:"persisted"`
	// SnapshotFormat is the on-disk snapshot layout, "v2", when the server
	// persists its maps (every map is on disk once registered); empty
	// otherwise.
	SnapshotFormat string `json:"snapshot_format,omitempty"`
	// Residency reports where the map's data lives: "heap", "mapped" (served
	// zero-copy off a format-v2 snapshot) or "mapped+heap" (mapped, with heap
	// structures materialized by region enumeration or a mutation).
	Residency     string      `json:"residency"`
	Clients       int         `json:"clients"`
	Facilities    int         `json:"facilities"`
	Regions       int         `json:"regions"`
	MaxHeat       float64     `json:"max_heat"`
	Bounds        rectJSON    `json:"bounds"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Build         buildStats  `json:"build"`
	Heat          heatSummary `json:"heat"`
	Tiles         tileStats   `json:"tiles"`
	Ingest        ingestStats `json:"ingest"`
	QueryIndex    queryIndex  `json:"query_index"`
	Optimal       optimStats  `json:"optimal"`
	// Mapped reports the snapshot file bytes that stay mapped.
	Mapped mappedStats `json:"mapped"`
	// Cluster reports this node's role for the polled map and the node-wide
	// replication counters (replica lag, ship latency, bootstrap bytes).
	// Omitted on single-node servers.
	Cluster *clusterStats `json:"cluster,omitempty"`
}

// mappedStats reports the snapshot files kept mapped. MapBytes is the size
// of the file the map's current state keeps mapped — the one it was loaded
// from, or, for a map committed from a loaded one, the file its slab
// index's clean slabs still alias — and 0 for none. ProcessBytes counts
// every mapping the process holds: a file is unmapped once no map state,
// in-flight reader or slab index that holds it is reachable, so deleted and
// replaced maps leave it after the garbage collector finds them.
type mappedStats struct {
	MapBytes     int64 `json:"map_bytes"`
	ProcessBytes int64 `json:"process_bytes"`
}

// optimStats counts the optimal-location traffic: /optimal queries,
// /optimize runs (dry or committed), and facilities placed by them.
type optimStats struct {
	Queries      int64 `json:"queries"`
	OptimizeRuns int64 `json:"optimize_runs"`
	Placements   int64 `json:"placements"`
}

// queryIndex describes the point-query path serving /heat, /heat/batch and
// tile rasterization: the slab point-location index (O(log n) label lookups)
// or the enclosure fallback (stabbing queries) when the index is disabled or
// declined to build.
type queryIndex struct {
	Path  string `json:"path"` // "slab" or "enclosure"
	Slabs int    `json:"slabs,omitempty"`
	Cells int    `json:"cells,omitempty"`
	// ExactPoints and ExactColumns count the point queries and raster
	// columns the slab index resolved on its exact path (within an epsilon
	// of a face boundary): each /heat point and each point of a batch, and
	// each tile pixel column with a pixel there.
	ExactPoints  int64 `json:"exact_points"`
	ExactColumns int64 `json:"exact_columns"`
}

func queryIndexOf(m *heatmap.Map) queryIndex {
	built, slabs, cells := m.SlabIndexStats()
	if !built {
		return queryIndex{Path: "enclosure"}
	}
	points, columns := m.ExactPathCounts()
	return queryIndex{Path: "slab", Slabs: slabs, Cells: cells, ExactPoints: points, ExactColumns: columns}
}

// heatSummary is the heat distribution over the labeled regions.
type heatSummary struct {
	DistinctSets  int     `json:"distinct_sets"`
	MinHeat       float64 `json:"min_heat"`
	MeanHeat      float64 `json:"mean_heat"`
	MaxHeat       float64 `json:"max_heat"`
	MaxRNNSetSize int     `json:"max_rnn_set_size"`
}

// buildStats mirrors the core.Stats counters of the Region Coloring run that
// produced the current map version (a full build or the latest resweep).
type buildStats struct {
	Circles        int     `json:"circles"`
	Events         int     `json:"events"`
	Labelings      int     `json:"labelings"`
	InfluenceCalls int     `json:"influence_calls"`
	MaxRNNSetSize  int     `json:"max_rnn_set_size"`
	DurationMS     float64 `json:"duration_ms"`
}

type tileStats struct {
	Size        int    `json:"size_px"`
	Cached      int    `json:"cached"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Coalesced   uint64 `json:"coalesced"`
	Renders     int64  `json:"renders"`
	// RenderMS and EncodeMS are the renders' cumulative rasterize and
	// PNG-encode times: where a cache miss spends its time.
	RenderMS float64 `json:"render_ms"`
	EncodeMS float64 `json:"encode_ms"`
}

type rectJSON struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

func toRectJSON(r geom.Rect) rectJSON {
	return rectJSON{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

func (s *Server) handleStats(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	st := inst.state()
	cs := st.m.Stats()
	maxHeat, _ := st.m.MaxHeat()
	sum := st.m.Summary()
	hits, misses, waited := inst.cache.stats()
	var clusterSection *clusterStats
	if s.cluster != nil {
		clusterSection = s.cluster.statsOf(inst)
	}
	var snapFormat string
	if s.snapshotDir != "" {
		snapFormat = "v2"
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Name:           inst.name,
		Measure:        st.m.MeasureName(),
		Version:        st.version,
		APIVersion:     APIVersion,
		Mutable:        s.mutable,
		Persisted:      s.snapshotDir != "",
		SnapshotFormat: snapFormat,
		Residency:      st.m.Residency(),
		Clients:        st.m.NumClients(),
		Facilities:     st.m.NumFacilities(),
		Regions:        st.m.NumRegions(),
		MaxHeat:        maxHeat,
		Bounds:         toRectJSON(st.rd.Bounds()),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Build: buildStats{
			Circles:        cs.Circles,
			Events:         cs.Events,
			Labelings:      cs.Labelings,
			InfluenceCalls: cs.InfluenceCalls,
			MaxRNNSetSize:  cs.MaxRNNSetSize,
			DurationMS:     float64(cs.Duration) / float64(time.Millisecond),
		},
		Heat: heatSummary{
			DistinctSets:  sum.DistinctSets,
			MinHeat:       sum.MinHeat,
			MeanHeat:      sum.MeanHeat,
			MaxHeat:       sum.MaxHeat,
			MaxRNNSetSize: sum.MaxRNNSize,
		},
		Tiles: tileStats{
			Size:        s.tileSize,
			Cached:      inst.cache.len(),
			CacheHits:   hits,
			CacheMisses: misses,
			Coalesced:   waited,
			Renders:     inst.renders.Load(),
			RenderMS:    float64(inst.renderNS.Load()) / float64(time.Millisecond),
			EncodeMS:    float64(inst.encodeNS.Load()) / float64(time.Millisecond),
		},
		Ingest:     s.ingestStatsOf(inst),
		QueryIndex: queryIndexOf(st.m),
		Optimal: optimStats{
			Queries:      inst.optimalQueries.Load(),
			OptimizeRuns: inst.optimizeRuns.Load(),
			Placements:   inst.placements.Load(),
		},
		Mapped: mappedStats{
			MapBytes:     st.m.MappedBytes(),
			ProcessBytes: snapshot.MappedBytes(),
		},
		Cluster: clusterSection,
	})
}

// heatResponse is one influence query result.
type heatResponse struct {
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Heat float64 `json:"heat"`
	RNN  []int   `json:"rnn"`
}

func nonNil(rnn []int) []int {
	if rnn == nil {
		return []int{}
	}
	return rnn
}

func (s *Server) handleHeat(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	x, err := parseFloat(q, "x")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	y, err := parseFloat(q, "y")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	heat, rnn := inst.state().m.HeatAt(heatmap.Pt(x, y))
	if !finite(heat) {
		writeJSON(w, http.StatusOK, heatResponse{X: x, Y: y, Heat: heat, RNN: nonNil(rnn)})
		return
	}
	pio := pointIOs.Get().(*pointIO)
	defer pio.release()
	pio.out = appendHeat(pio.out, x, y, heat, rnn)
	pio.writeAnswer(w)
}

// batchRequest is the POST /heat/batch payload.
type batchRequest struct {
	Points []struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	} `json:"points"`
}

func (s *Server) handleHeatBatch(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	pio := pointIOs.Get().(*pointIO)
	defer pio.release()
	ps, err := pio.readBatch(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if len(ps) == 0 {
		writeError(w, http.StatusBadRequest, "request has no points")
		return
	}
	if len(ps) > s.maxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d points exceeds the limit of %d", len(ps), s.maxBatch)
		return
	}
	for i, p := range ps {
		if !finite(p.X, p.Y) {
			writeError(w, http.StatusBadRequest, "point %d is not finite", i)
			return
		}
	}
	heats, rnns := inst.state().m.HeatAtBatch(ps)
	if !finite(heats...) {
		results := make([]heatResponse, len(ps))
		for i := range ps {
			results[i] = heatResponse{X: ps[i].X, Y: ps[i].Y, Heat: heats[i], RNN: nonNil(rnns[i])}
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": results})
		return
	}
	pio.out = append(pio.out, `{"results":[`...)
	for i, p := range ps {
		if i > 0 {
			pio.out = append(pio.out, ',')
		}
		pio.out = appendHeat(pio.out, p.X, p.Y, heats[i], rnns[i])
	}
	pio.out = append(pio.out, "]}"...)
	pio.writeAnswer(w)
}

// regionJSON is one labeled region in an API response.
type regionJSON struct {
	Heat  float64   `json:"heat"`
	Point pointJSON `json:"point"`
	RNN   []int     `json:"rnn"`
}

type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func toRegionJSON(rs []heatmap.Region) []regionJSON {
	out := make([]regionJSON, len(rs))
	for i, r := range rs {
		out[i] = regionJSON{
			Heat:  r.Heat,
			Point: pointJSON{X: r.Point.X, Y: r.Point.Y},
			RNN:   nonNil(r.RNN),
		}
	}
	return out
}

func (s *Server) handleTopK(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "query parameter \"k\" must be a positive integer, got %q", raw)
			return
		}
		k = v
	}
	if k > s.maxRegions {
		k = s.maxRegions
	}
	regions := inst.state().m.TopK(k)
	// count makes the degenerate case explicit: a map with no labeled
	// regions answers count 0 and an empty list, never fabricated regions.
	writeJSON(w, http.StatusOK, map[string]any{
		"k":       k,
		"count":   len(regions),
		"regions": toRegionJSON(regions),
	})
}

func (s *Server) handleRegions(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	minHeat, err := parseFloat(r.URL.Query(), "min")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	regions := inst.state().m.AboveThreshold(minHeat)
	total := len(regions)
	truncated := false
	if total > s.maxRegions {
		regions = regions[:s.maxRegions]
		truncated = true
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"min":       minHeat,
		"total":     total,
		"truncated": truncated,
		"regions":   toRegionJSON(regions),
	})
}

// handleHistogram serves the heat distribution as equal-width bins, the
// data behind a dashboard's heat legend.
func (s *Server) handleHistogram(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	bins := 20
	if raw := r.URL.Query().Get("bins"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > 1000 {
			writeError(w, http.StatusBadRequest, "query parameter \"bins\" must be an integer in [1, 1000], got %q", raw)
			return
		}
		bins = v
	}
	edges, counts := inst.state().m.HeatHistogram(bins)
	if edges == nil {
		edges = []float64{}
	}
	if counts == nil {
		counts = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"bins":   bins,
		"edges":  edges,
		"counts": counts,
	})
}

func (s *Server) handleTile(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	yRaw, ok := strings.CutSuffix(r.PathValue("y"), ".png")
	if !ok {
		writeError(w, http.StatusBadRequest, "tile path must end in .png")
		return
	}
	z, errZ := strconv.Atoi(r.PathValue("z"))
	x, errX := strconv.Atoi(r.PathValue("x"))
	y, errY := strconv.Atoi(yRaw)
	if errZ != nil || errX != nil || errY != nil {
		writeError(w, http.StatusBadRequest, "tile coordinates must be integers: /tiles/{z}/{x}/{y}.png")
		return
	}
	st := inst.state()
	if !st.grid.valid(z, x, y) {
		writeError(w, http.StatusNotFound, "tile %d/%d/%d outside the pyramid (zoom 0..%d, 2^z tiles per axis)", z, x, y, MaxZoom)
		return
	}
	key := tileKey{version: st.version, z: z, x: x, y: y}
	t, _, err := inst.cache.get(key, func() (*tileData, error) { return s.renderTile(inst, st, z, x, y) })
	if err != nil {
		writeError(w, http.StatusInternalServerError, "rendering tile: %v", err)
		return
	}
	w.Header().Set("ETag", t.etag)
	if s.mutable {
		// Mutations can invalidate any tile at any time; clients must
		// revalidate (the ETag makes that a cheap 304 while the tile stands).
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Cache-Control", "public, max-age=3600")
	}
	if r.Header.Get("If-None-Match") == t.etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("Content-Length", strconv.Itoa(len(t.png)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(t.png)
}

// tileScratch is a tile miss's scratch: the heat raster between rendering
// and encoding, and the buffer the PNG is encoded into before it is copied
// out for the cache. tileScratches pools it, so a miss allocates about the
// PNG's size instead of tileSize² heats and the encode buffer's growth.
type tileScratch struct {
	raster render.Raster
	png    bytes.Buffer
}

var tileScratches = sync.Pool{New: func() any {
	sc := new(tileScratch)
	sc.png.Grow(8 << 10) // most tiles encode in one or two KiB
	return sc
}}

// renderTile rasterizes one tile of the given snapshot, encodes it as PNG
// normalizing against the snapshot's map-wide heat range, and stamps the
// ETag once. The cached PNG bytes are a copy, never pooled memory.
func (s *Server) renderTile(inst *mapInstance, st *mapState, z, x, y int) (*tileData, error) {
	sc := tileScratches.Get().(*tileScratch)
	defer tileScratches.Put(sc)
	start := time.Now()
	if err := st.rd.RenderInto(&sc.raster, st.grid.tileBounds(z, x, y), s.tileSize, s.tileSize); err != nil {
		return nil, err
	}
	rendered := time.Now()
	inst.renders.Add(1)
	inst.renderNS.Add(int64(rendered.Sub(start)))
	sc.png.Reset()
	if err := sc.raster.WritePNGScaled(&sc.png, s.cm, st.heatLo, st.heatHi); err != nil {
		return nil, err
	}
	inst.encodeNS.Add(int64(time.Since(rendered)))
	png := bytes.Clone(sc.png.Bytes())
	h := fnv.New64a()
	_, _ = h.Write(png)
	// The quoted hex hash, as %q would print it, in one allocation.
	var quoted [18]byte
	etag := string(append(strconv.AppendUint(append(quoted[:0], '"'), h.Sum64(), 16), '"'))
	return &tileData{png: png, etag: etag}, nil
}
