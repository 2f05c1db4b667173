package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/snapshot"
)

// The write path: the server's one write endpoint and the one step that
// publishes a new map version.
//
//	POST /v1/maps/{map}/mutations    {"ops":[{op},{op},...]}
//
// (and the alias /v1/mutations against the default map). One request carries
// an ordered array of mutation ops — each op any combination of
// client/facility additions and removals — applied atomically: either every
// op lands, under a single version bump, or none do. Removal indexes are
// interpreted sequentially across the whole array with swap-remove
// semantics, so op k may remove what op k-1 added, and each index refers to
// the set as left by the preceding removals (the last element moves into
// the freed slot).
//
// Requests do not take the write path directly. Each map runs a coalescing
// writer goroutine: admitted batches sit in a bounded queue, the writer
// gathers whatever arrives within the coalescing window (or until the op cap
// is hit), and commits the group as one unit — one merged dirty-interval
// resweep via ApplyDeltaBatch, one WAL group commit with a single fsync
// (every acked batch is fsync-durable before its 200), one snapshot swap.
// Each batch in the group still gets its own version and its own WAL record,
// so replay and the one-request-at-a-time arithmetic agree on versions.
//
// Backpressure is explicit: when the queue is full the request is refused
// immediately with 429 and a Retry-After header, and the batch is guaranteed
// not applied. Queue depth and commit latency are reported under "ingest" in
// GET /stats.

// opJSON is one mutation op of a POST /mutations batch.
type opJSON struct {
	AddClients       []pointJSON `json:"add_clients,omitempty"`
	RemoveClients    []int       `json:"remove_clients,omitempty"`
	AddFacilities    []pointJSON `json:"add_facilities,omitempty"`
	RemoveFacilities []int       `json:"remove_facilities,omitempty"`
}

// toPoints converts request points (mutation ops, POST /maps sets) to map
// points.
func toPoints(ps []pointJSON) []heatmap.Point {
	out := make([]heatmap.Point, len(ps))
	for i, p := range ps {
		out[i] = heatmap.Pt(p.X, p.Y)
	}
	return out
}

// mutationsRequest is the POST /mutations payload.
type mutationsRequest struct {
	Ops []opJSON `json:"ops"`
}

// mutationsResponse acknowledges one applied batch. Version is the version
// the map reached by applying this batch (batches coalesced into one group
// commit get consecutive versions in admission order). GroupBatches reports
// how many batches shared the group commit; Rebuilt and ChangedClients
// describe the merged resweep that carried the group.
type mutationsResponse struct {
	Map            string  `json:"map"`
	Version        uint64  `json:"version"`
	Ops            int     `json:"ops"`
	Clients        int     `json:"clients"`
	Facilities     int     `json:"facilities"`
	Regions        int     `json:"regions"`
	MaxHeat        float64 `json:"max_heat"`
	Rebuilt        bool    `json:"rebuilt"`
	ChangedClients int     `json:"changed_clients"`
	GroupBatches   int     `json:"group_batches"`
	QueueMS        float64 `json:"queue_ms"`
	CommitMS       float64 `json:"commit_ms"`
}

// batchResult is the writer's reply to one admitted batch: a status with
// either the success body or the error envelope's code and message, which
// the waiting handler writes to its client.
type batchResult struct {
	code    int
	errCode string
	errMsg  string
	body    any
}

// pendingBatch is one admitted POST /mutations request waiting in a map's
// ingestion queue. done is buffered so the writer never blocks on a reply.
type pendingBatch struct {
	deltas   []heatmap.Delta
	nops     int
	enqueued time.Time
	done     chan batchResult
}

func (pb *pendingBatch) fail(code int, errCode, format string, args ...any) {
	pb.done <- batchResult{code: code, errCode: errCode, errMsg: fmt.Sprintf(format, args...)}
}

// ingester is a map's coalescing writer: a bounded admission queue drained by
// one goroutine that group-commits whatever accumulates within the coalescing
// window.
type ingester struct {
	s    *Server
	inst *mapInstance

	queue chan *pendingBatch
	stop  chan struct{}
	// stopped guards enqueue against shutdown: once set (under mu), no batch
	// can enter the queue, so drain observes a complete set and every admitted
	// batch is guaranteed a reply.
	mu      sync.RWMutex
	stopped bool
	exited  chan struct{}

	gathered     atomic.Uint64 // batches the writer has taken into a group commit
	batches      atomic.Uint64 // committed batches
	ops          atomic.Uint64 // committed ops
	groups       atomic.Uint64 // group commits (fsyncs on the ingest path)
	throttled    atomic.Uint64 // batches refused with 429
	lastCommitNS atomic.Int64  // duration of the most recent group commit
}

func newIngester(s *Server, inst *mapInstance) *ingester {
	g := &ingester{
		s:      s,
		inst:   inst,
		queue:  make(chan *pendingBatch, s.ingestQueue),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go g.run()
	return g
}

// enqueue admits a batch. It returns (false, true) when the ingester is shut
// down (map deleted or server closing) and (false, false) when the queue is
// full — the backpressure signal.
func (g *ingester) enqueue(pb *pendingBatch) (ok, stopped bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.stopped {
		return false, true
	}
	select {
	case g.queue <- pb:
		return true, false
	default:
		return false, false
	}
}

// shutdown stops the writer and waits for it to drain. Safe to call more
// than once. Callers must NOT hold inst.writeMu: the writer may be mid
// commit, holding that lock, and needs to finish before it can observe stop.
func (g *ingester) shutdown() {
	g.mu.Lock()
	if !g.stopped {
		g.stopped = true
		close(g.stop)
	}
	g.mu.Unlock()
	<-g.exited
}

func (g *ingester) run() {
	defer close(g.exited)
	for {
		select {
		case <-g.stop:
			g.drain()
			return
		case pb := <-g.queue:
			group := g.gather(pb)
			g.gathered.Add(uint64(len(group)))
			g.commit(group)
		}
	}
}

// drain replies to every batch still queued after shutdown. enqueue's stopped
// check guarantees nothing is added behind it.
func (g *ingester) drain() {
	for {
		select {
		case pb := <-g.queue:
			pb.fail(http.StatusServiceUnavailable, codeUnavailable, "map %q is shutting down", g.inst.name)
		default:
			return
		}
	}
}

// gather accumulates the group for one commit: the first admitted batch plus
// whatever else arrives within the coalescing window, capped at coalesceOps
// total ops. A non-positive window never waits — it only drains batches that
// are already queued.
func (g *ingester) gather(first *pendingBatch) []*pendingBatch {
	group := []*pendingBatch{first}
	nops := first.nops
	if g.s.coalesceWindow <= 0 {
		for nops < g.s.coalesceOps {
			select {
			case pb := <-g.queue:
				group = append(group, pb)
				nops += pb.nops
			default:
				return group
			}
		}
		return group
	}
	timer := time.NewTimer(g.s.coalesceWindow)
	defer timer.Stop()
	for nops < g.s.coalesceOps {
		select {
		case pb := <-g.queue:
			group = append(group, pb)
			nops += pb.nops
		case <-timer.C:
			return group
		case <-g.stop:
			// Commit what was gathered; the run loop drains the rest.
			return group
		}
	}
	return group
}

// validateOps runs the exact ErrBadDelta checks of the delta layer against
// simulated set sizes, so invalid batches are refused individually (400)
// before the group's merged ApplyDeltaBatch — which then cannot fail on
// validation. Counts evolve in the delta layer's application order: client
// removals, client additions, facility removals, facility additions, delta
// by delta. On success the counts are advanced past the batch.
func validateOps(ds []heatmap.Delta, nClients, nFacilities *int) error {
	c, f := *nClients, *nFacilities
	for i, d := range ds {
		for _, ix := range d.RemoveClients {
			if ix < 0 || ix >= c {
				return fmt.Errorf("op %d: client index %d out of range [0, %d)", i, ix, c)
			}
			if c == 1 {
				return fmt.Errorf("op %d: removing the last client", i)
			}
			c--
		}
		c += len(d.AddClients)
		for _, ix := range d.RemoveFacilities {
			if ix < 0 || ix >= f {
				return fmt.Errorf("op %d: facility index %d out of range [0, %d)", i, ix, f)
			}
			if f == 1 {
				return fmt.Errorf("op %d: removing the last facility", i)
			}
			f--
		}
		f += len(d.AddFacilities)
	}
	*nClients, *nFacilities = c, f
	return nil
}

// walRecord frames one acked batch as a single WAL record: the whole batch
// shares one CRC-framed payload, so a crash can never tear it.
func walRecord(version uint64, ds []heatmap.Delta) snapshot.Record {
	ops := make([]snapshot.Op, len(ds))
	for i, d := range ds {
		ops[i] = snapshot.Op{
			AddClients:       d.AddClients,
			RemoveClients:    d.RemoveClients,
			AddFacilities:    d.AddFacilities,
			RemoveFacilities: d.RemoveFacilities,
		}
	}
	return snapshot.BatchRecord(version, ops)
}

// recordDeltas is walRecord's inverse: the deltas a WAL record logged, in
// application order, for crash replay and replica apply to re-run through
// ApplyDeltaBatch.
func recordDeltas(rec snapshot.Record) []heatmap.Delta {
	ops := rec.Ops()
	ds := make([]heatmap.Delta, len(ops))
	for i, op := range ops {
		ds[i] = heatmap.Delta{
			AddClients:       op.AddClients,
			RemoveClients:    op.RemoveClients,
			AddFacilities:    op.AddFacilities,
			RemoveFacilities: op.RemoveFacilities,
		}
	}
	return ds
}

// publish makes ns, derived from st by an update that dirtied the dirty
// rectangle, the instance's served state. It is the one step every new map
// version goes through, and the caller holds inst.writeMu.
//
// Durable before visible: recs, the log form of the versions after st up to
// ns, are appended to the WAL with one fsync first, and on an append error
// nothing changes and the error is returned — the served map stays st. A
// replica passes none: the owner's log is its history. Then the tile cache
// migrates to the new version: tiles outside dirty carry over, unless the
// tile grid or the heat range moved, in which case every tile's bytes are
// suspect and the cache starts cold. Last, ns is swapped in and the
// instance marked as ahead of its on-disk snapshot.
func (inst *mapInstance) publish(st, ns *mapState, dirty geom.Rect, recs []snapshot.Record) error {
	if inst.wal != nil {
		if err := inst.wal.AppendBatch(recs); err != nil {
			return err
		}
	}
	flushAll := ns.grid != st.grid || ns.heatLo != st.heatLo || ns.heatHi != st.heatHi
	inst.cache.migrate(st.version, ns.version, func(z, x, y int) bool {
		return !flushAll && !st.grid.tileBounds(z, x, y).Intersects(dirty)
	})
	inst.cur.Store(ns)
	inst.dirty.Store(true)
	return nil
}

// commit applies one gathered group: per-batch validation, one merged
// ApplyDeltaBatch, one publish (one WAL record per batch, a single fsync) —
// then a per-batch reply carrying that batch's own version.
func (g *ingester) commit(group []*pendingBatch) {
	s, inst := g.s, g.inst
	started := time.Now()
	inst.writeMu.Lock()
	// Re-check membership under the writer lock, as every write path does: a
	// group racing DELETE /maps/{name} must not be acked against an orphaned
	// instance whose WAL is already gone.
	if s.lookup(inst.name) != inst {
		inst.writeMu.Unlock()
		for _, pb := range group {
			pb.fail(http.StatusNotFound, codeNotFound, "no map named %q", inst.name)
		}
		return
	}
	st := inst.state()
	nC, nF := st.m.NumClients(), st.m.NumFacilities()
	accepted := group[:0:len(group)]
	var merged []heatmap.Delta
	for _, pb := range group {
		if err := validateOps(pb.deltas, &nC, &nF); err != nil {
			pb.fail(http.StatusBadRequest, codeInvalidArgument, "%v", err)
			continue
		}
		accepted = append(accepted, pb)
		merged = append(merged, pb.deltas...)
	}
	if len(accepted) == 0 {
		inst.writeMu.Unlock()
		return
	}
	next, stats, err := st.m.ApplyDeltaBatch(merged)
	if err != nil {
		inst.writeMu.Unlock()
		for _, pb := range accepted {
			pb.fail(http.StatusInternalServerError, codeInternal, "applying batch: %v", err)
		}
		return
	}
	ns, err := newMapState(next, st.version+uint64(len(accepted)))
	if err != nil {
		inst.writeMu.Unlock()
		for _, pb := range accepted {
			pb.fail(http.StatusInternalServerError, codeInternal, "building map state: %v", err)
		}
		return
	}
	// One record per acked batch at consecutive versions. On a failed append
	// the served map is unchanged and every batch of the group sees a
	// retryable 503.
	recs := make([]snapshot.Record, len(accepted))
	for i, pb := range accepted {
		recs[i] = walRecord(st.version+uint64(i+1), pb.deltas)
	}
	if err := inst.publish(st, ns, stats.DirtyRect, recs); err != nil {
		inst.writeMu.Unlock()
		for _, pb := range accepted {
			pb.fail(http.StatusServiceUnavailable, codeUnavailable, "logging batch: %v", err)
		}
		return
	}
	inst.writeMu.Unlock()

	elapsed := time.Since(started)
	g.groups.Add(1)
	g.batches.Add(uint64(len(accepted)))
	g.lastCommitNS.Store(elapsed.Nanoseconds())
	commitMS := float64(elapsed) / float64(time.Millisecond)
	maxHeat, _ := next.MaxHeat()
	for i, pb := range accepted {
		g.ops.Add(uint64(pb.nops))
		pb.done <- batchResult{code: http.StatusOK, body: mutationsResponse{
			Map:            inst.name,
			Version:        recs[i].Version,
			Ops:            pb.nops,
			Clients:        next.NumClients(),
			Facilities:     next.NumFacilities(),
			Regions:        next.NumRegions(),
			MaxHeat:        maxHeat,
			Rebuilt:        stats.Rebuilt,
			ChangedClients: stats.ChangedClients,
			GroupBatches:   len(accepted),
			QueueMS:        float64(started.Sub(pb.enqueued)) / float64(time.Millisecond),
			CommitMS:       commitMS,
		}}
	}
}

// ingestStats is the "ingest" section of GET /stats. BatchesGathered counts
// the batches the writer has taken off the queue into a group commit;
// BatchesCommitted those of them that were applied.
type ingestStats struct {
	QueueDepth       int     `json:"queue_depth"`
	QueueCap         int     `json:"queue_cap"`
	CoalesceWindowMS float64 `json:"coalesce_window_ms"`
	CoalesceOps      int     `json:"coalesce_ops"`
	BatchesGathered  uint64  `json:"batches_gathered"`
	BatchesCommitted uint64  `json:"batches_committed"`
	OpsCommitted     uint64  `json:"ops_committed"`
	GroupCommits     uint64  `json:"group_commits"`
	Throttled        uint64  `json:"throttled"`
	LastCommitMS     float64 `json:"last_commit_ms"`
}

func (s *Server) ingestStatsOf(inst *mapInstance) ingestStats {
	g := inst.ing
	if g == nil {
		return ingestStats{}
	}
	return ingestStats{
		QueueDepth:       len(g.queue),
		QueueCap:         cap(g.queue),
		CoalesceWindowMS: float64(s.coalesceWindow) / float64(time.Millisecond),
		CoalesceOps:      s.coalesceOps,
		BatchesGathered:  g.gathered.Load(),
		BatchesCommitted: g.batches.Load(),
		OpsCommitted:     g.ops.Load(),
		GroupCommits:     g.groups.Load(),
		Throttled:        g.throttled.Load(),
		LastCommitMS:     float64(g.lastCommitNS.Load()) / float64(time.Millisecond),
	}
}

// handleMutations admits one batch into the map's ingestion queue and waits
// for the writer's verdict. The contract: 200 means the whole batch is
// applied and fsync-durable at the reported version; 400/429/503 mean none
// of it is.
func (s *Server) handleMutations(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	if !s.mutable {
		writeErrorCode(w, http.StatusForbidden, codeReadOnly, "server is read-only; start heatmapd with -mutable to enable the mutation API")
		return
	}
	if err := inst.state().m.DeltaSupported(); err != nil {
		writeErrorCode(w, http.StatusConflict, codeImmutableMap, "map %q cannot be mutated: %v", inst.name, err)
		return
	}
	var req mutationsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "request has no ops")
		return
	}
	if len(req.Ops) > s.maxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d ops exceeds the limit of %d", len(req.Ops), s.maxBatch)
		return
	}
	nops := 0
	ds := make([]heatmap.Delta, len(req.Ops))
	for i, op := range req.Ops {
		// encoding/json already refuses NaN and out-of-range numbers such as
		// 1e999, so this check is defense in depth. The op's facility points
		// are numbered after its clients.
		j := 0
		for _, pts := range [2][]pointJSON{op.AddClients, op.AddFacilities} {
			for _, p := range pts {
				if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
					writeError(w, http.StatusBadRequest, "op %d: point %d is not finite", i, j)
					return
				}
				j++
			}
		}
		nops += len(op.AddClients) + len(op.RemoveClients) + len(op.AddFacilities) + len(op.RemoveFacilities)
		ds[i] = heatmap.Delta{
			AddClients:       toPoints(op.AddClients),
			RemoveClients:    op.RemoveClients,
			AddFacilities:    toPoints(op.AddFacilities),
			RemoveFacilities: op.RemoveFacilities,
		}
	}
	if nops == 0 {
		writeError(w, http.StatusBadRequest, "request ops are all empty")
		return
	}
	if nops > s.maxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d mutations exceeds the limit of %d", nops, s.maxBatch)
		return
	}
	g := inst.ing
	if g == nil {
		writeError(w, http.StatusServiceUnavailable, "map %q has no ingestion writer", inst.name)
		return
	}
	pb := &pendingBatch{deltas: ds, nops: nops, enqueued: time.Now(), done: make(chan batchResult, 1)}
	ok, stopped := g.enqueue(pb)
	if stopped {
		writeError(w, http.StatusNotFound, "no map named %q", inst.name)
		return
	}
	if !ok {
		g.throttled.Add(1)
		// The queue is full: the writer is a full coalescing window (plus a
		// commit) away from making room. Tell the client when to come back.
		retry := int(math.Ceil(math.Max(float64(s.coalesceWindow), float64(50*time.Millisecond)) / float64(time.Second)))
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		writeErrorCode(w, http.StatusTooManyRequests, codeQueueFull, "ingestion queue for map %q is full (%d pending batches); retry later", inst.name, cap(g.queue))
		return
	}
	res := <-pb.done
	if res.errMsg != "" {
		writeErrorCode(w, res.code, res.errCode, "%s", res.errMsg)
		return
	}
	writeJSON(w, res.code, res.body)
}
