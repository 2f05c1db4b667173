package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/snapshot"
)

// DefaultMapName is the name of the map the default-map aliases (/v1/heat,
// /v1/tiles/..., /v1/mutations, ...) resolve to. It always exists and cannot
// be deleted.
const DefaultMapName = "default"

// mapInstance is one tenant of the registry: a named map with its own
// atomically swapped snapshot, writer lock, version-keyed tile cache and —
// when persistence is enabled on a mutable server — write-ahead log.
// Readers of different maps never contend; writers of different maps only
// share the registry's read lock.
type mapInstance struct {
	name    string
	cur     atomic.Pointer[mapState]
	writeMu sync.Mutex // serializes writes: apply + publish, saves, teardown
	cache   *tileCache
	renders atomic.Int64 // tile renders across all of this map's versions
	wal     *snapshot.WAL
	// ing is the map's coalescing ingestion writer (mutable servers only):
	// POST /mutations batches queue here and are group-committed. nil on
	// read-only servers.
	ing *ingester
	// dirty is set when the in-memory map has state (mutations, or a fresh
	// build) not yet folded into the on-disk snapshot.
	dirty atomic.Bool
	// Optimal-location counters, surfaced in /stats: GET /optimal queries,
	// POST /optimize runs (dry or committed), and facilities placed by them.
	optimalQueries atomic.Int64
	optimizeRuns   atomic.Int64
	placements     atomic.Int64
}

// state returns the instance's current map snapshot.
func (inst *mapInstance) state() *mapState { return inst.cur.Load() }

// mapNameRE validates tenant names: they appear in URLs and file names, so
// they are restricted to a safe alphabet.
var mapNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$`)

// errMapExists and errRegistryFull distinguish the create conflicts from
// validation errors.
var (
	errMapExists    = errors.New("map already exists")
	errRegistryFull = errors.New("registry is full")
)

// reserveName claims a map name for an in-flight create. It fails when the
// name is registered or already reserved, or when registered maps plus
// in-flight builds reach the registry cap. releaseName undoes it; the
// eventual register (which inserts into s.maps) is a separate step, so the
// reservation must outlive it — handleCreateMap releases on all paths after
// register returns.
func (s *Server) reserveName(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.maps[name]; ok {
		return fmt.Errorf("%w: %q", errMapExists, name)
	}
	if _, ok := s.creating[name]; ok {
		return fmt.Errorf("%w: %q", errMapExists, name)
	}
	if len(s.maps)+len(s.creating) >= s.maxMaps {
		return fmt.Errorf("%w (%d maps)", errRegistryFull, s.maxMaps)
	}
	s.creating[name] = struct{}{}
	return nil
}

func (s *Server) releaseName(name string) {
	s.mu.Lock()
	delete(s.creating, name)
	s.mu.Unlock()
}

// lookup returns the named instance, or nil.
func (s *Server) lookup(name string) *mapInstance {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maps[name]
}

// def returns the default map's instance; it exists for the lifetime of the
// server (New fails without one and DELETE refuses to remove it).
func (s *Server) def() *mapInstance { return s.lookup(DefaultMapName) }

// instances returns every registered instance, name-sorted for stable
// listings.
func (s *Server) instances() []*mapInstance {
	s.mu.RLock()
	out := make([]*mapInstance, 0, len(s.maps))
	for _, inst := range s.maps {
		out = append(out, inst)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// register builds the instance for m at the given version and adds it to
// the registry. The name is reserved under the registry lock *before* any
// disk side effect, so a losing concurrent create can never overwrite the
// winner's snapshot or WAL; the instance's writer lock is held until its
// persistence is attached, so a mutation racing the registration cannot
// slip past the log.
func (s *Server) register(name string, m *heatmap.Map, version uint64, persisted bool, preWAL *snapshot.WAL) (*mapInstance, error) {
	st, err := newMapState(m, version)
	if err != nil {
		if preWAL != nil {
			preWAL.Close()
		}
		return nil, err
	}
	inst := &mapInstance{name: name, cache: newTileCache(s.tileCacheSize)}
	inst.cur.Store(st)
	if s.mutable {
		// The ingestion writer exists before the instance is reachable, so a
		// POST /mutations racing the registration always finds it; its first
		// commit blocks on writeMu until persistence is attached below.
		inst.ing = newIngester(s, inst)
	}
	inst.writeMu.Lock()
	// fail tears the half-built instance down. The writer lock must be
	// released before stopping the ingester: its writer may already be
	// blocked on that lock in a commit (only possible on the
	// attachPersistence path, after the name was briefly registered), and
	// shutdown waits for it.
	fail := func(err error) (*mapInstance, error) {
		inst.writeMu.Unlock()
		if inst.ing != nil {
			inst.ing.shutdown()
		}
		return nil, err
	}
	s.mu.Lock()
	if _, ok := s.maps[name]; ok {
		s.mu.Unlock()
		if preWAL != nil {
			preWAL.Close()
		}
		return fail(fmt.Errorf("%w: %q", errMapExists, name))
	}
	if len(s.maps) >= s.maxMaps {
		s.mu.Unlock()
		if preWAL != nil {
			preWAL.Close()
		}
		return fail(fmt.Errorf("%w (%d maps)", errRegistryFull, s.maxMaps))
	}
	s.maps[name] = inst
	s.mu.Unlock()
	if err := s.attachPersistence(inst, persisted, preWAL); err != nil {
		s.mu.Lock()
		delete(s.maps, name)
		s.mu.Unlock()
		return fail(err)
	}
	inst.writeMu.Unlock()
	return inst, nil
}

// attachPersistence wires the instance's on-disk state: its WAL (kept open
// for appending on mutable servers) and, for maps not already persisted at
// this exact state, the initial snapshot. preWAL, when non-nil, is an
// already-open handle handed over by the load path so a large log is not
// parsed twice at startup. A fresh (not loaded) map must not inherit a
// previous incarnation's log, whatever the server's mutability — a later
// -load would replay foreign deltas into the wrong map — so the leftover
// WAL is reset (mutable) or removed (read-only). The caller holds
// inst.writeMu.
func (s *Server) attachPersistence(inst *mapInstance, persisted bool, preWAL *snapshot.WAL) error {
	if s.snapshotDir == "" {
		if preWAL != nil {
			preWAL.Close()
		}
		return nil
	}
	walPath := snapshot.WALPath(s.snapshotDir, inst.name)
	if s.mutable {
		wal := preWAL
		if wal == nil {
			opened, records, err := snapshot.OpenWAL(walPath)
			if err != nil {
				return err
			}
			if !persisted && len(records) > 0 {
				if err := opened.Reset(); err != nil {
					opened.Close()
					return err
				}
			}
			wal = opened
		}
		inst.wal = wal
	} else {
		if preWAL != nil {
			preWAL.Close()
		}
		if !persisted {
			if err := os.Remove(walPath); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	if !persisted {
		if err := s.saveInstanceLocked(inst); err != nil {
			if inst.wal != nil {
				inst.wal.Close()
				inst.wal = nil
			}
			return err
		}
	}
	return nil
}

// loadMaps restores every *.snap in the snapshot directory, replaying each
// map's WAL (if any) on top so a mutable server resumes exactly where it
// crashed.
func (s *Server) loadMaps() error {
	entries, err := os.ReadDir(s.snapshotDir)
	if err != nil {
		return fmt.Errorf("server: reading snapshot dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".snap")
		if !mapNameRE.MatchString(name) {
			return fmt.Errorf("server: snapshot file %q does not name a valid map", e.Name())
		}
		// OpenSnapshot serves the file off an mmap view (queries, tiles and
		// metadata with no decode step). A file it refuses — another format
		// version, or damage — fails startup rather than dropping the map.
		m, version, err := heatmap.OpenSnapshot(snapshot.MapPath(s.snapshotDir, name))
		if err != nil {
			return fmt.Errorf("server: loading map %q: %w", name, err)
		}
		m, version, replayed, wal, err := s.replayWAL(name, m, version)
		if err != nil {
			return fmt.Errorf("server: replaying WAL of map %q: %w", name, err)
		}
		inst, err := s.register(name, m, version, true, wal)
		if err != nil {
			return fmt.Errorf("server: registering loaded map %q: %w", name, err)
		}
		if replayed > 0 {
			// The snapshot on disk lags the replayed state; mark dirty so the
			// next save compacts snapshot+WAL.
			inst.dirty.Store(true)
		}
	}
	return nil
}

// replayWAL applies the records of name's WAL that postdate the snapshot,
// all of them as one ApplyDeltaBatch — identical to applying them in a
// chain, with one resweep and one slab-index patch instead of one per
// record. Each record is first checked for continuity and validated against
// the set sizes the records before it leave, so a refused op names the
// version of its record. Replay happens even on a read-only server (the log
// is state, not an optional extra). On a mutable server the open handle is
// returned for register to adopt, so the log is parsed exactly once at
// startup; on a read-only server it is closed and nil is returned.
func (s *Server) replayWAL(name string, m *heatmap.Map, version uint64) (*heatmap.Map, uint64, int, *snapshot.WAL, error) {
	path := snapshot.WALPath(s.snapshotDir, name)
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return m, version, 0, nil, nil
	}
	wal, records, err := snapshot.OpenWAL(path)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	keep := s.mutable
	if !keep {
		wal.Close()
		wal = nil
	}
	fail := func(err error) (*heatmap.Map, uint64, int, *snapshot.WAL, error) {
		if wal != nil {
			wal.Close()
		}
		return nil, 0, 0, nil, err
	}
	var ds []heatmap.Delta
	first, replayed := version+1, 0
	nClients, nFacilities := m.NumClients(), m.NumFacilities()
	for _, rec := range records {
		if rec.Version <= version {
			continue // already folded into the snapshot
		}
		if rec.Version != version+1 {
			return fail(fmt.Errorf("record jumps from version %d to %d: log diverges from snapshot", version, rec.Version))
		}
		rds := recordDeltas(rec)
		if err := validateOps(rds, &nClients, &nFacilities); err != nil {
			return fail(fmt.Errorf("re-applying record for version %d: %w", rec.Version, err))
		}
		ds = append(ds, rds...)
		version = rec.Version
		replayed++
	}
	if replayed > 0 {
		next, _, err := m.ApplyDeltaBatch(ds)
		if err != nil {
			return fail(fmt.Errorf("re-applying the records for versions %d to %d: %w", first, version, err))
		}
		m = next
	}
	return m, version, replayed, wal, nil
}

// saveInstanceLocked snapshots the instance's current state to disk and
// resets its WAL (everything the log held is now in the snapshot). The
// caller must ensure no concurrent mutation: hold inst.writeMu, or be the
// only owner (registration).
func (s *Server) saveInstanceLocked(inst *mapInstance) error {
	st := inst.state()
	if err := st.m.SaveSnapshot(snapshot.MapPath(s.snapshotDir, inst.name), st.version); err != nil {
		return err
	}
	if inst.wal != nil {
		if err := inst.wal.Reset(); err != nil {
			return err
		}
	}
	inst.dirty.Store(false)
	return nil
}

// SaveAll snapshots every map whose state is newer than its on-disk
// snapshot. It is a no-op without a snapshot directory. heatmapd calls it on
// the -save-every ticker and during shutdown.
func (s *Server) SaveAll() error {
	if s.snapshotDir == "" {
		return nil
	}
	var firstErr error
	for _, inst := range s.instances() {
		if !inst.dirty.Load() {
			continue
		}
		inst.writeMu.Lock()
		var err error
		// Re-check membership under the writer lock: a concurrent DELETE
		// removes the instance and then deletes its files under this same
		// lock, and a save racing past that would resurrect them.
		if s.lookup(inst.name) == inst {
			err = s.saveInstanceLocked(inst)
		}
		inst.writeMu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: saving map %q: %w", inst.name, err)
		}
	}
	return firstErr
}

// Close persists all dirty maps and closes their WALs. The server must not
// serve requests afterwards.
func (s *Server) Close() error {
	// Stop the cluster loops first: a replica sync applying records (or a
	// bootstrap renaming snapshot files) must not race the WAL teardown.
	if s.cluster != nil {
		s.cluster.stop()
	}
	err := s.SaveAll()
	for _, inst := range s.instances() {
		// Stop the ingestion writer before taking the writer lock (it may be
		// mid group-commit holding it); queued batches drain with 503.
		if inst.ing != nil {
			inst.ing.shutdown()
		}
		// The writer lock serializes against a straggling autosave or
		// mutation still holding the WAL; closing the file under its feet
		// would fail its Reset/Append with "file already closed".
		inst.writeMu.Lock()
		if inst.wal != nil {
			if cerr := inst.wal.Close(); cerr != nil && err == nil {
				err = cerr
			}
			inst.wal = nil
		}
		inst.writeMu.Unlock()
	}
	return err
}

// mapInfo is one entry of the GET /maps listing.
type mapInfo struct {
	Name       string  `json:"name"`
	Version    uint64  `json:"version"`
	Measure    string  `json:"measure"`
	Clients    int     `json:"clients"`
	Facilities int     `json:"facilities"`
	Regions    int     `json:"regions"`
	MaxHeat    float64 `json:"max_heat"`
}

func infoOf(inst *mapInstance) mapInfo {
	st := inst.state()
	maxHeat, _ := st.m.MaxHeat()
	return mapInfo{
		Name:       inst.name,
		Version:    st.version,
		Measure:    st.m.MeasureName(),
		Clients:    st.m.NumClients(),
		Facilities: st.m.NumFacilities(),
		Regions:    st.m.NumRegions(),
		MaxHeat:    maxHeat,
	}
}

func (s *Server) handleListMaps(w http.ResponseWriter, r *http.Request) {
	insts := s.instances()
	infos := make([]mapInfo, len(insts))
	for i, inst := range insts {
		infos[i] = infoOf(inst)
	}
	writeJSON(w, http.StatusOK, map[string]any{"maps": infos})
}

// createMapRequest is the POST /maps payload: a tenant name plus the client
// and facility sets to build it from. The measure is always size — the
// measures with per-index context (weighted, capacity, connectivity) cannot
// survive mutations or a snapshot-less restart of the creating client, so
// the HTTP surface does not offer them.
type createMapRequest struct {
	Name       string      `json:"name"`
	Clients    []pointJSON `json:"clients"`
	Facilities []pointJSON `json:"facilities"`
	Metric     string      `json:"metric,omitempty"`
	Workers    int         `json:"workers,omitempty"`
}

func (s *Server) handleCreateMap(w http.ResponseWriter, r *http.Request) {
	var req createMapRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if !mapNameRE.MatchString(req.Name) {
		writeError(w, http.StatusBadRequest, "map name must match %s", mapNameRE)
		return
	}
	// In cluster mode the requested name decides the owner; a non-owner
	// redirects (307 preserves method and body) so the map is built, logged
	// and persisted on the node that will serve its writes.
	if s.cluster != nil && s.cluster.routeCreate(req.Name, w, r) {
		return
	}
	if len(req.Clients) == 0 || len(req.Facilities) == 0 {
		writeError(w, http.StatusBadRequest, "a map needs at least one client and one facility")
		return
	}
	if n := len(req.Clients) + len(req.Facilities); n > s.maxMapPoints {
		writeError(w, http.StatusBadRequest, "%d points exceed the per-map limit of %d", n, s.maxMapPoints)
		return
	}
	metric := heatmap.L2
	if req.Metric != "" {
		var err error
		if metric, err = heatmap.ParseMetric(req.Metric); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if req.Workers < 0 || req.Workers > 256 {
		writeError(w, http.StatusBadRequest, "workers %d out of range [0, 256]", req.Workers)
		return
	}
	// Reserve the name before the expensive Build: concurrent same-name
	// creates (and creates against a full registry) are refused immediately
	// instead of each paying a multi-second build that register would then
	// discard.
	if err := s.reserveName(req.Name); err != nil {
		switch {
		case errors.Is(err, errMapExists):
			writeErrorCode(w, http.StatusConflict, codeMapExists, "map %q already exists or is being created", req.Name)
		default:
			writeErrorCode(w, http.StatusTooManyRequests, codeRegistryFull, "%v", err)
		}
		return
	}
	defer s.releaseName(req.Name)
	m, err := heatmap.Build(heatmap.Config{
		Clients:    toPoints(req.Clients),
		Facilities: toPoints(req.Facilities),
		Metric:     metric,
		Workers:    req.Workers,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "building map: %v", err)
		return
	}
	inst, err := s.register(req.Name, m, 1, false, nil)
	switch {
	case errors.Is(err, errMapExists):
		writeErrorCode(w, http.StatusConflict, codeMapExists, "map %q already exists", req.Name)
		return
	case errors.Is(err, errRegistryFull):
		writeErrorCode(w, http.StatusTooManyRequests, codeRegistryFull, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "registering map: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(inst))
}

func (s *Server) handleGetMap(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, infoOf(inst))
}

func (s *Server) handleDeleteMap(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	if inst.name == DefaultMapName {
		writeError(w, http.StatusForbidden, "the default map cannot be deleted")
		return
	}
	s.mu.Lock()
	if s.maps[inst.name] != inst {
		// Already deleted — and possibly re-created under the same name by a
		// concurrent POST /maps; that newer instance is not ours to remove.
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no map named %q", inst.name)
		return
	}
	delete(s.maps, inst.name)
	s.mu.Unlock()
	// Stop the ingestion writer first, and before taking the writer lock: it
	// may be mid group-commit holding that lock. With the name already
	// removed, its membership re-check 404s everything still queued.
	if inst.ing != nil {
		inst.ing.shutdown()
	}
	// Serialize against an in-flight mutation before tearing down the WAL.
	inst.writeMu.Lock()
	defer inst.writeMu.Unlock()
	if inst.wal != nil {
		inst.wal.Close()
		inst.wal = nil
	}
	// Remove the files only while the name is unclaimed, holding the
	// registry lock across check + removal: persistence files are only ever
	// written by an instance that is already registered (register inserts
	// the name under s.mu before attachPersistence runs), so blocking
	// insertion here guarantees a concurrent re-creation's fresh snapshot
	// and WAL cannot appear mid-removal.
	if s.snapshotDir != "" {
		s.mu.Lock()
		if _, reclaimed := s.maps[inst.name]; !reclaimed {
			_ = os.Remove(snapshot.MapPath(s.snapshotDir, inst.name))
			_ = os.Remove(snapshot.WALPath(s.snapshotDir, inst.name))
		}
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": inst.name})
}

// handleSaveMap force-persists one map (POST /maps/{map}/snapshot),
// regardless of the autosave cadence.
func (s *Server) handleSaveMap(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	if s.snapshotDir == "" {
		writeError(w, http.StatusForbidden, "server has no snapshot directory; start heatmapd with -snapshot-dir")
		return
	}
	inst.writeMu.Lock()
	// Re-check membership under the writer lock (as SaveAll does): a
	// concurrent DELETE removes the files under this same lock, and a save
	// racing past it would resurrect the deleted map on disk.
	if s.lookup(inst.name) != inst {
		inst.writeMu.Unlock()
		writeError(w, http.StatusNotFound, "no map named %q", inst.name)
		return
	}
	// Capture the version while still holding the lock: it is the version
	// saveInstanceLocked actually wrote, not whatever a subsequent mutation
	// moves the map to.
	saved := inst.state().version
	err := s.saveInstanceLocked(inst)
	inst.writeMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "saving map: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"saved":   inst.name,
		"version": saved,
		"path":    filepath.Base(snapshot.MapPath(s.snapshotDir, inst.name)),
	})
}
