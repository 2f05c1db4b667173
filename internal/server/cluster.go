package server

// Cluster mode: static-topology read replication over the existing WAL.
//
// A topology file lists every heatmapd process (node id + HTTP address);
// each map name is placed by consistent hashing onto Replicas nodes, owner
// first. The owner serializes all writes for its maps exactly as a
// single-node server does — same writer lock, same write-ahead log — and
// additionally serves that log to its replicas over HTTP:
//
//	GET /v1/cluster/ping                     liveness for the peer prober
//	GET /v1/cluster/status                   placement, health, lag, counters
//	GET /v1/cluster/maps                     maps this node owns + versions
//	GET /v1/cluster/maps/{map}/wal           CRC-framed records since=N
//	GET /v1/cluster/maps/{map}/snapshot      the on-disk v2 snapshot file
//
// Replicas pull: a background manager polls each peer's owned-map listing,
// and for every map this node holds but does not own it first bootstraps by
// fetching the owner's v2 snapshot file (installed verbatim, so replica
// bytes are the owner's bytes), then tails the owner's WAL from the
// snapshot's version, applying each record through ApplyDeltaBatch under
// the instance's writer lock — the same deterministic replay path crash
// recovery uses, so a replica at version V is byte-identical to the owner
// at version V. A replica that falls off the log (HTTP 410) re-bootstraps.
//
// Request routing: reads are served locally when this node holds the map
// (owner or synced replica) and proxied to a live holder otherwise, with
// X-Heatmap-Node naming the node that actually served. Writes are never
// proxied — they 307-redirect to the owner, which keeps exactly one WAL
// writer per map. A proxied request carries X-Heatmap-Forwarded; a node
// receiving one never proxies again, so placement disagreement degrades to
// an error instead of a loop.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/cluster"
	"rnnheatmap/internal/snapshot"
)

// ClusterOptions configures cluster mode (Config.Cluster). Cluster mode
// requires Mutable, SnapshotDir and the v2 snapshot format: owners must log
// writes for shipping, and bootstrap serves the mmap-able snapshot file.
type ClusterOptions struct {
	// Topology is the full static membership (normally LoadTopology of the
	// -cluster-config file).
	Topology *cluster.Topology
	// NodeID is this process's identity; must name a topology node.
	NodeID string
	// ShipInterval is the replica sync cadence (discovery + WAL tailing).
	// Defaults to 150ms.
	ShipInterval time.Duration
	// ProbeInterval is the peer health-ping cadence. Defaults to 2s.
	ProbeInterval time.Duration
	// FetchMax bounds records per WAL fetch. Defaults to 512.
	FetchMax int
}

func (o *ClusterOptions) validate(cfg *Config) error {
	if o.Topology == nil {
		return errors.New("server: Config.Cluster.Topology is required")
	}
	if err := o.Topology.Normalize(); err != nil {
		return fmt.Errorf("server: cluster topology: %w", err)
	}
	if _, ok := o.Topology.Node(o.NodeID); !ok {
		return fmt.Errorf("server: Config.Cluster.NodeID %q is not in the topology", o.NodeID)
	}
	if !cfg.Mutable || cfg.SnapshotDir == "" {
		return errors.New("server: cluster mode requires Mutable and SnapshotDir (owners write-ahead log for their replicas)")
	}
	if o.ShipInterval <= 0 {
		o.ShipInterval = 150 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.FetchMax <= 0 {
		o.FetchMax = 512
	}
	return nil
}

// replicaTask is the sync state of one map this node replicates.
type replicaTask struct {
	// synced is true once the replica installed an owner snapshot in this
	// process's lifetime; until then local state (e.g. a restart-loaded
	// snapshot, or the locally built default map) may diverge from the
	// owner and is not served to cluster reads.
	synced bool
	// ownerVersion is the owner's published version at the last poll; the
	// lag metric is ownerVersion - local version.
	ownerVersion uint64
	lastErr      string
}

// clusterNode is the per-process cluster runtime: placement, health,
// routing, the owner-side ship endpoints' tail cache, and the replica
// manager goroutines.
type clusterNode struct {
	s      *Server
	topo   *cluster.Topology
	ring   *cluster.Ring
	self   cluster.Node
	health *cluster.Health
	client *cluster.Client
	// proxyClient forwards read requests to holders; separate from client
	// so peer-protocol timeouts don't constrain tile downloads.
	proxyClient *http.Client

	shipInterval  time.Duration
	probeInterval time.Duration
	fetchMax      int

	mu       sync.Mutex
	replicas map[string]*replicaTask
	tails    map[string]*tailHandle

	stopOnce sync.Once
	cancel   context.CancelFunc
	ctx      context.Context
	wg       sync.WaitGroup

	// Counters surfaced by /stats and /v1/cluster/status.
	shippedRecords atomic.Uint64 // WAL records applied here as a replica
	bootstraps     atomic.Uint64
	bootstrapBytes atomic.Uint64
	lastShipNS     atomic.Int64 // fetch+apply latency of the last shipment
	proxiedReads   atomic.Uint64
	redirects      atomic.Uint64
}

// tailHandle caches an open WAL tail per owned map, with the FileInfo taken
// at open so a deleted-and-recreated log (new inode at the same path) is
// detected and reopened instead of silently tailing the unlinked file.
type tailHandle struct {
	tail *snapshot.Tail
	fi   os.FileInfo
}

func newClusterNode(s *Server, o *ClusterOptions) *clusterNode {
	self, _ := o.Topology.Node(o.NodeID)
	ctx, cancel := context.WithCancel(context.Background())
	return &clusterNode{
		s:             s,
		topo:          o.Topology,
		ring:          o.Topology.Ring(),
		self:          self,
		health:        cluster.NewHealth(o.Topology.NodeIDs()),
		client:        cluster.NewClient(0),
		proxyClient:   &http.Client{Timeout: 30 * time.Second},
		shipInterval:  o.ShipInterval,
		probeInterval: o.ProbeInterval,
		fetchMax:      o.FetchMax,
		replicas:      map[string]*replicaTask{},
		tails:         map[string]*tailHandle{},
		ctx:           ctx,
		cancel:        cancel,
	}
}

func (c *clusterNode) start() {
	c.wg.Add(2)
	go c.shipLoop()
	go c.probeLoop()
}

func (c *clusterNode) stop() {
	c.stopOnce.Do(func() {
		c.cancel()
		c.wg.Wait()
		c.mu.Lock()
		for _, h := range c.tails {
			_ = h.tail.Close()
		}
		c.tails = map[string]*tailHandle{}
		c.mu.Unlock()
	})
}

// isOwner and isHolder answer placement for a map name on this node.
func (c *clusterNode) isOwner(name string) bool { return c.ring.Owner(name) == c.self.ID }

func (c *clusterNode) holders(name string) []string {
	return c.ring.Holders(name, c.topo.Replicas)
}

// replicaReady reports whether this node's copy of name has been
// bootstrapped from the owner in this process's lifetime.
func (c *clusterNode) replicaReady(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.replicas[name]
	return t != nil && t.synced
}

// ---------------------------------------------------------------------------
// Request routing

// route applies cluster placement to a per-map request before the local
// handler runs. It returns true when it fully handled the request
// (redirected a write, proxied a read, or wrote an error) and false when
// the request should be served locally.
func (c *clusterNode) route(name string, write bool, w http.ResponseWriter, r *http.Request) bool {
	w.Header().Set(cluster.NodeHeader, c.self.ID)
	holders := c.holders(name)
	if write {
		if holders[0] == c.self.ID {
			return false
		}
		// Writes are never proxied: the owner is the single WAL writer, and
		// a 307 preserves method and body, so clients transparently retry
		// against it.
		owner, _ := c.topo.Node(holders[0])
		c.redirects.Add(1)
		w.Header().Set("Location", "http://"+owner.Addr+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
		return true
	}
	if slices.Contains(holders, c.self.ID) {
		if holders[0] == c.self.ID || c.replicaReady(name) {
			return false // authoritative (owner) or converged (synced replica)
		}
		// A holder that has not yet bootstrapped must not serve: its local
		// state (a stale restart snapshot, or the independently built
		// default map) may diverge from the owner. Fall through to proxy.
	}
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		// Already proxied once; never proxy again. 503 sends the proxying
		// node to its next holder.
		writeErrorCode(w, http.StatusServiceUnavailable, codeUnavailable,
			"node %q cannot serve map %q authoritatively", c.self.ID, name)
		return true
	}
	return c.proxy(name, holders, w, r)
}

// proxy forwards a read to the first live holder, failing over in holder
// order (owner first). Peer transport errors feed the health table. When no
// holder is reachable it serves the local copy if one exists — a stale read
// beats no read — and errors otherwise.
func (c *clusterNode) proxy(name string, holders []string, w http.ResponseWriter, r *http.Request) bool {
	// Reads can carry bodies (POST /heat/batch); buffer once so failover
	// can replay it against the next holder.
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
			return true
		}
		body = b
	}
	for _, id := range holders {
		if id == c.self.ID || !c.health.Alive(id) {
			continue
		}
		node, _ := c.topo.Node(id)
		out, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+node.Addr+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			continue
		}
		out.Header = r.Header.Clone()
		out.Header.Set(cluster.ForwardedHeader, c.self.ID)
		resp, err := c.proxyClient.Do(out)
		if err != nil {
			c.health.Report(id, err)
			continue
		}
		if resp.StatusCode >= http.StatusInternalServerError {
			// The peer is up but cannot serve this map (e.g. a holder still
			// bootstrapping answers 503); try the next one without marking
			// the node dead.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			continue
		}
		// The serving peer already stamped its own NodeHeader; drop the one
		// route() pre-set for this node so the response names the true origin.
		w.Header().Del(cluster.NodeHeader)
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		resp.Body.Close()
		c.proxiedReads.Add(1)
		return true
	}
	if c.s.lookup(name) != nil {
		return false // degraded: no live holder, serve the local copy
	}
	writeErrorCode(w, http.StatusServiceUnavailable, codeUnavailable, "no live holder for map %q", name)
	return true
}

// routeCreate places POST /maps by the requested map name: the owner builds
// and persists the map; everyone else redirects. Returns true when handled.
func (c *clusterNode) routeCreate(name string, w http.ResponseWriter, r *http.Request) bool {
	return c.route(name, true, w, r)
}

// ---------------------------------------------------------------------------
// Owner-side ship endpoints

// requireCluster resolves the cluster runtime for the /cluster/* handlers,
// which are always registered (the OpenAPI contract test walks the full
// route table) and answer not_clustered on single-node servers.
func (s *Server) requireCluster(w http.ResponseWriter) *clusterNode {
	if s.cluster == nil {
		writeErrorCode(w, http.StatusConflict, codeNotClustered,
			"this server is not in cluster mode; start heatmapd with -cluster-config and -node-id")
		return nil
	}
	return s.cluster
}

func (s *Server) handleClusterPing(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": c.self.ID})
}

// handleClusterMaps lists the maps this node owns, with published versions.
// Replica managers poll it for discovery; only owned maps appear, so a
// replica never syncs from another replica (or from a node's stale local
// copy of a map placement moved away).
func (s *Server) handleClusterMaps(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	owned := []cluster.MapVersion{}
	for _, inst := range s.instances() {
		if c.isOwner(inst.name) {
			owned = append(owned, cluster.MapVersion{Name: inst.name, Version: inst.state().version})
		}
	}
	slices.SortFunc(owned, func(a, b cluster.MapVersion) int {
		return bytes.Compare([]byte(a.Name), []byte(b.Name))
	})
	writeJSON(w, http.StatusOK, map[string]any{"maps": owned})
}

// ownedInstance resolves a /cluster/maps/{map}/... request to a map this
// node owns, or writes the error.
func (c *clusterNode) ownedInstance(w http.ResponseWriter, r *http.Request) *mapInstance {
	name := r.PathValue("map")
	inst := c.s.lookup(name)
	if inst == nil || !c.isOwner(name) {
		writeError(w, http.StatusNotFound, "this node does not own map %q", name)
		return nil
	}
	return inst
}

// handleClusterWAL serves CRC-framed WAL records with Version > since,
// capped at the map's published version — a record whose fsync succeeded
// but whose state swap has not happened yet is never shipped, so a replica
// cannot get ahead of what the owner acknowledged. 410 Gone means the range
// was compacted into a snapshot and the replica must re-bootstrap.
func (s *Server) handleClusterWAL(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	inst := c.ownedInstance(w, r)
	if inst == nil {
		return
	}
	since, err := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "query parameter \"since\" must be a version number: %v", err)
		return
	}
	limit := c.fetchMax
	if rawMax := r.URL.Query().Get("max"); rawMax != "" {
		m, err := strconv.Atoi(rawMax)
		if err != nil || m < 1 {
			writeError(w, http.StatusBadRequest, "query parameter \"max\" must be a positive count")
			return
		}
		limit = min(m, c.fetchMax)
	}
	if inst.wal == nil {
		writeError(w, http.StatusNotFound, "map %q has no write-ahead log", inst.name)
		return
	}
	published := inst.state().version
	recs, err := c.recordsSince(inst, since, published, limit)
	if errors.Is(err, snapshot.ErrCompacted) {
		writeErrorCode(w, http.StatusGone, codeCompacted,
			"records after version %d were compacted into the snapshot; bootstrap from /cluster/maps/%s/snapshot", since, inst.name)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "tailing WAL of map %q: %v", inst.name, err)
		return
	}
	w.Header().Set(cluster.VersionHeader, strconv.FormatUint(published, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(snapshot.EncodeRecords(recs))
}

// recordsSince reads from the cached read-only tail of inst's WAL. The tail
// is reopened when the log file was replaced (new inode), which happens when
// a map is deleted and re-created under the same name.
func (c *clusterNode) recordsSince(inst *mapInstance, since, published uint64, limit int) ([]snapshot.Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	path := inst.wal.Path()
	h := c.tails[inst.name]
	if h != nil {
		if fi, err := os.Stat(path); err != nil || !os.SameFile(fi, h.fi) {
			_ = h.tail.Close()
			delete(c.tails, inst.name)
			h = nil
		}
	}
	if h == nil {
		t, err := snapshot.OpenTail(path)
		if err != nil {
			return nil, err
		}
		fi, err := t.Stat()
		if err != nil {
			t.Close()
			return nil, err
		}
		h = &tailHandle{tail: t, fi: fi}
		c.tails[inst.name] = h
	}
	return h.tail.RecordsSince(since, published, limit)
}

// handleClusterSnapshot serves the owner's on-disk snapshot file for
// replica bootstrap. The file is served from its mmap view through
// http.ServeContent, so transfers are range-resumable and never hold the
// map's writer lock; a save racing the transfer just renames a new file
// into place while this view keeps its inode. When the on-disk file is
// missing or cannot be opened, a fresh snapshot is forced first.
func (s *Server) handleClusterSnapshot(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	inst := c.ownedInstance(w, r)
	if inst == nil {
		return
	}
	path := snapshot.MapPath(s.snapshotDir, inst.name)
	v, err := snapshot.Open(path)
	if err != nil {
		inst.writeMu.Lock()
		if s.lookup(inst.name) == inst {
			err = s.saveInstanceLocked(inst)
		}
		inst.writeMu.Unlock()
		if err == nil {
			v, err = snapshot.Open(path)
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, "serving snapshot of map %q: %v", inst.name, err)
			return
		}
	}
	defer v.Close()
	w.Header().Set(cluster.VersionHeader, strconv.FormatUint(v.Meta().MapVersion, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, inst.name+".snap", time.Time{}, bytes.NewReader(v.Bytes()))
}

// ---------------------------------------------------------------------------
// Status and stats

type clusterMapStatus struct {
	Name    string   `json:"name"`
	Owner   string   `json:"owner"`
	Holders []string `json:"holders"`
	// Role is this node's relationship to the map: "owner", "replica"
	// (a holder that replicates it) or "local" (resident here but placed
	// elsewhere, e.g. the locally built default map on a non-holder).
	Role    string `json:"role"`
	Version uint64 `json:"version"`
	// OwnerVersion and Lag are reported for replicas: the owner's published
	// version at the last poll and how many versions this copy trails it.
	OwnerVersion uint64 `json:"owner_version,omitempty"`
	Lag          uint64 `json:"lag"`
	// State is "tailing" once the replica bootstrapped, "bootstrapping"
	// before, with the last sync error when one is pending.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

type clusterCounters struct {
	ShippedRecords uint64  `json:"shipped_records"`
	LastShipMS     float64 `json:"last_ship_ms"`
	Bootstraps     uint64  `json:"bootstraps"`
	BootstrapBytes uint64  `json:"bootstrap_bytes"`
	ProxiedReads   uint64  `json:"proxied_reads"`
	RedirectedOps  uint64  `json:"redirected_writes"`
}

func (c *clusterNode) counters() clusterCounters {
	return clusterCounters{
		ShippedRecords: c.shippedRecords.Load(),
		LastShipMS:     float64(c.lastShipNS.Load()) / float64(time.Millisecond),
		Bootstraps:     c.bootstraps.Load(),
		BootstrapBytes: c.bootstrapBytes.Load(),
		ProxiedReads:   c.proxiedReads.Load(),
		RedirectedOps:  c.redirects.Load(),
	}
}

func (c *clusterNode) mapStatus(inst *mapInstance) clusterMapStatus {
	holders := c.holders(inst.name)
	ms := clusterMapStatus{
		Name:    inst.name,
		Owner:   holders[0],
		Holders: holders,
		Role:    "local",
		Version: inst.state().version,
	}
	switch {
	case holders[0] == c.self.ID:
		ms.Role = "owner"
	case slices.Contains(holders, c.self.ID):
		ms.Role = "replica"
		c.mu.Lock()
		if t := c.replicas[inst.name]; t != nil {
			ms.OwnerVersion = t.ownerVersion
			if t.ownerVersion > ms.Version {
				ms.Lag = t.ownerVersion - ms.Version
			}
			ms.State = "bootstrapping"
			if t.synced {
				ms.State = "tailing"
			}
			ms.Error = t.lastErr
		} else {
			ms.State = "bootstrapping"
		}
		c.mu.Unlock()
	}
	return ms
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	insts := s.instances()
	maps := make([]clusterMapStatus, len(insts))
	for i, inst := range insts {
		maps[i] = c.mapStatus(inst)
	}
	slices.SortFunc(maps, func(a, b clusterMapStatus) int {
		return bytes.Compare([]byte(a.Name), []byte(b.Name))
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"node":     c.self.ID,
		"addr":     c.self.Addr,
		"replicas": c.topo.Replicas,
		"vnodes":   c.topo.VNodes,
		"peers":    c.health.Snapshot(),
		"maps":     maps,
		"counters": c.counters(),
	})
}

// clusterStats is the cluster section of /stats: this node's role for the
// polled map plus the node-wide replication counters.
type clusterStats struct {
	Node string `json:"node"`
	// Role/Owner/Lag describe the polled map's placement from this node's
	// point of view.
	Role       string          `json:"role"`
	Owner      string          `json:"owner"`
	Lag        uint64          `json:"replica_lag"`
	PeersAlive int             `json:"peers_alive"`
	PeersTotal int             `json:"peers_total"`
	Counters   clusterCounters `json:"counters"`
}

func (c *clusterNode) statsOf(inst *mapInstance) *clusterStats {
	ms := c.mapStatus(inst)
	alive := 0
	peers := c.health.Snapshot()
	for _, p := range peers {
		if p.Alive {
			alive++
		}
	}
	return &clusterStats{
		Node:       c.self.ID,
		Role:       ms.Role,
		Owner:      ms.Owner,
		Lag:        ms.Lag,
		PeersAlive: alive,
		PeersTotal: len(peers),
		Counters:   c.counters(),
	}
}

// ---------------------------------------------------------------------------
// Replica manager

func (c *clusterNode) probeLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
			for _, n := range c.topo.Nodes {
				if n.ID == c.self.ID {
					continue
				}
				c.health.Report(n.ID, c.client.Ping(c.ctx, n.Addr))
			}
		}
	}
}

func (c *clusterNode) shipLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.shipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
			c.syncOnce()
		}
	}
}

// syncOnce runs one discovery + sync round: poll each peer's owned maps,
// sync every map this node should replicate, and drop replicas whose live
// owner no longer lists them (the map was deleted).
func (c *clusterNode) syncOnce() {
	for _, n := range c.topo.Nodes {
		if n.ID == c.self.ID || c.ctx.Err() != nil {
			continue
		}
		maps, err := c.client.OwnedMaps(c.ctx, n.Addr)
		c.health.Report(n.ID, err)
		if err != nil {
			continue
		}
		listed := make(map[string]bool, len(maps))
		for _, mv := range maps {
			// The peer's listing is input from the network: a name is only
			// trusted onto the filesystem if it is a valid map name, and
			// only synced if the ring agrees the peer owns it.
			if !mapNameRE.MatchString(mv.Name) || c.ring.Owner(mv.Name) != n.ID {
				continue
			}
			listed[mv.Name] = true
			if slices.Contains(c.holders(mv.Name), c.self.ID) {
				c.syncMap(mv.Name, n, mv.Version)
			}
		}
		c.pruneReplicas(n, listed)
	}
}

// pruneReplicas drops local replicas of maps their (live, just polled)
// owner no longer serves: the owner deleted the map, so holding the copy
// would resurrect it on restart.
func (c *clusterNode) pruneReplicas(owner cluster.Node, listed map[string]bool) {
	c.mu.Lock()
	var drop []string
	for name := range c.replicas {
		if name != DefaultMapName && !listed[name] && c.ring.Owner(name) == owner.ID {
			drop = append(drop, name)
		}
	}
	c.mu.Unlock()
	for _, name := range drop {
		c.dropReplica(name)
	}
}

// dropReplica removes a replica instance and its on-disk state, mirroring
// the owner's DELETE under the same lock ordering as handleDeleteMap.
func (c *clusterNode) dropReplica(name string) {
	c.mu.Lock()
	delete(c.replicas, name)
	if h := c.tails[name]; h != nil {
		_ = h.tail.Close()
		delete(c.tails, name)
	}
	c.mu.Unlock()
	inst := c.s.lookup(name)
	if inst == nil {
		return
	}
	if inst.ing != nil {
		inst.ing.shutdown()
	}
	inst.writeMu.Lock()
	defer inst.writeMu.Unlock()
	if c.s.lookup(name) != inst {
		return
	}
	c.s.mu.Lock()
	delete(c.s.maps, name)
	c.s.mu.Unlock()
	if inst.wal != nil {
		_ = inst.wal.Close()
		inst.wal = nil
	}
	_ = os.Remove(snapshot.MapPath(c.s.snapshotDir, name))
	_ = os.Remove(snapshot.WALPath(c.s.snapshotDir, name))
}

// syncMap brings this node's replica of name up to the owner's published
// version: bootstrap from the owner's snapshot if this copy has not been
// grounded in owner bytes yet, then tail the owner's WAL.
func (c *clusterNode) syncMap(name string, owner cluster.Node, ownerVersion uint64) {
	c.mu.Lock()
	task := c.replicas[name]
	if task == nil {
		task = &replicaTask{}
		c.replicas[name] = task
	}
	task.ownerVersion = ownerVersion
	synced := task.synced
	c.mu.Unlock()

	fail := func(err error) {
		c.mu.Lock()
		task.lastErr = err.Error()
		c.mu.Unlock()
	}
	if !synced {
		if err := c.bootstrap(name, owner); err != nil {
			fail(err)
			return
		}
		c.mu.Lock()
		task.synced = true
		task.lastErr = ""
		c.mu.Unlock()
	}
	// Tail until caught up with the version the discovery poll published.
	// The iteration bound only guards against an owner appending faster
	// than we can ever apply; the next tick resumes.
	for i := 0; i < 64; i++ {
		inst := c.s.lookup(name)
		if inst == nil {
			c.mu.Lock()
			task.synced = false
			c.mu.Unlock()
			return
		}
		local := inst.state().version
		if local >= ownerVersion {
			c.mu.Lock()
			task.lastErr = ""
			c.mu.Unlock()
			return
		}
		start := time.Now()
		recs, published, err := c.client.FetchWAL(c.ctx, owner.Addr, name, local, c.fetchMax)
		if errors.Is(err, cluster.ErrSnapshotNeeded) {
			// Fell off the log (the owner compacted past us): re-bootstrap
			// on the next round.
			c.mu.Lock()
			task.synced = false
			c.mu.Unlock()
			return
		}
		if err != nil {
			fail(err)
			return
		}
		c.mu.Lock()
		task.ownerVersion = published
		c.mu.Unlock()
		ownerVersion = published
		if len(recs) == 0 {
			return
		}
		if err := c.applyRecords(inst, recs); err != nil {
			// Divergence (a version gap or an inapplicable delta) means this
			// copy can no longer be trusted; re-ground it in owner bytes.
			fail(err)
			c.mu.Lock()
			task.synced = false
			c.mu.Unlock()
			return
		}
		c.lastShipNS.Store(int64(time.Since(start)))
	}
}

// bootstrap fetches the owner's snapshot file, installs it verbatim as this
// node's on-disk snapshot, and swaps the in-memory instance to serve it.
// Installing the owner's literal bytes (not a local re-encode) is what
// makes replica state byte-comparable to the owner's at equal version.
func (c *clusterNode) bootstrap(name string, owner cluster.Node) error {
	dir := c.s.snapshotDir
	tmp, err := os.CreateTemp(dir, name+".boot-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpPath) }
	version, n, err := c.client.FetchSnapshot(c.ctx, owner.Addr, name, tmp)
	if err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return err
	}
	// Validate before install: a torn transfer must not replace good state.
	m, mv, err := heatmap.OpenSnapshot(tmpPath)
	if err != nil {
		cleanup()
		return fmt.Errorf("bootstrap of %q from %s is not a valid snapshot: %w", name, owner.ID, err)
	}
	if mv != version {
		cleanup()
		return fmt.Errorf("bootstrap of %q: file is version %d, owner announced %d", name, mv, version)
	}

	inst := c.s.lookup(name)
	if inst == nil {
		// Fresh replica. A leftover WAL from a previous incarnation (this
		// node once owned the name, or an old replica crashed) would replay
		// foreign records over the new snapshot at the next -load; remove it
		// before register re-creates it empty.
		if err := os.Remove(snapshot.WALPath(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			cleanup()
			return err
		}
		if err := os.Rename(tmpPath, snapshot.MapPath(dir, name)); err != nil {
			cleanup()
			return err
		}
		inst, err = c.s.register(name, m, version, true, nil)
		if err != nil {
			return err
		}
	} else {
		inst.writeMu.Lock()
		if c.s.lookup(name) != inst {
			inst.writeMu.Unlock()
			cleanup()
			return fmt.Errorf("map %q was deleted during bootstrap", name)
		}
		ns, err := newMapState(m, version)
		if err != nil {
			inst.writeMu.Unlock()
			cleanup()
			return err
		}
		if err := os.Rename(tmpPath, snapshot.MapPath(dir, name)); err != nil {
			inst.writeMu.Unlock()
			cleanup()
			return err
		}
		if inst.wal != nil {
			if err := inst.wal.Reset(); err != nil {
				inst.writeMu.Unlock()
				return err
			}
		}
		old := inst.state()
		// Every cached tile belongs to the replaced lineage; start cold.
		inst.cache.migrate(old.version, ns.version, func(int, int, int) bool { return false })
		inst.cur.Store(ns)
		inst.dirty.Store(false) // disk and memory are the same bytes right now
		inst.writeMu.Unlock()
	}
	c.bootstraps.Add(1)
	c.bootstrapBytes.Add(uint64(n))
	return nil
}

// applyRecords replays shipped WAL records onto the replica instance under
// its writer lock — the same ApplyDeltaBatch path crash recovery uses, one
// version per record, so replica version V is byte-identical to owner
// version V. Nothing is appended to the replica's own WAL: the owner's log
// is the one source of truth, and a restarted replica re-grounds itself by
// bootstrapping rather than replaying a second, possibly divergent log.
func (c *clusterNode) applyRecords(inst *mapInstance, recs []snapshot.Record) error {
	for _, rec := range recs {
		inst.writeMu.Lock()
		if c.s.lookup(inst.name) != inst {
			inst.writeMu.Unlock()
			return fmt.Errorf("map %q was deleted during replication", inst.name)
		}
		st := inst.state()
		if rec.Version <= st.version {
			inst.writeMu.Unlock()
			continue
		}
		if rec.Version != st.version+1 {
			inst.writeMu.Unlock()
			return fmt.Errorf("shipped record jumps from version %d to %d", st.version, rec.Version)
		}
		next, stats, err := st.m.ApplyDeltaBatch(recordDeltas(rec))
		if err != nil {
			inst.writeMu.Unlock()
			return fmt.Errorf("applying shipped record for version %d: %w", rec.Version, err)
		}
		ns, err := newMapState(next, rec.Version)
		if err != nil {
			inst.writeMu.Unlock()
			return err
		}
		// No records: the owner's log is the replica's only history.
		if err := inst.publish(st, ns, stats.DirtyRect, nil); err != nil {
			inst.writeMu.Unlock()
			return err
		}
		inst.writeMu.Unlock()
		c.shippedRecords.Add(1)
	}
	return nil
}
