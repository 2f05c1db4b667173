package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/cluster"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/snapshot"
)

// clusterMap builds the small deterministic map every cluster node starts
// with. All nodes build the same map, which mirrors production (each node
// runs the same heatmapd flags) — the replication machinery must still
// replace a holder's locally built copy with the owner's bytes.
func clusterMap(t testing.TB) *heatmap.Map {
	t.Helper()
	ds := dataset.Uniform(200, datasetBounds(), 42)
	clients, facilities := ds.SampleClientsFacilities(120, 40, 7)
	m, err := heatmap.Build(heatmap.Config{
		Clients:    clients,
		Facilities: facilities,
		Metric:     heatmap.L2,
		Workers:    1,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// testNode is one in-process cluster member: a Server mounted behind a
// swappable handler so the test can "crash" it (swap to nil → 503) and
// later mount a restarted Server at the same address.
type testNode struct {
	id      string
	addr    string
	dir     string
	handler atomic.Pointer[Server]
	srv     *Server
	hs      *httptest.Server
}

func (n *testNode) url(path string) string { return "http://" + n.addr + path }

// crash simulates kill -9: the cluster loops stop (a dead process ships
// nothing) and the handler unmounts, but nothing is saved or closed — all
// durable state is whatever already hit disk.
func (n *testNode) crash() {
	if n.srv != nil && n.srv.cluster != nil {
		n.srv.cluster.stop()
	}
	n.handler.Store(nil)
	n.srv = nil
}

type testCluster struct {
	t     *testing.T
	topo  *cluster.Topology
	nodes []*testNode
}

// newTestCluster starts n cluster nodes with the given replica count, each
// serving the same freshly built default map from its own snapshot dir.
func newTestCluster(t *testing.T, n, replicas int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	m := clusterMap(t)
	for i := 0; i < n; i++ {
		node := &testNode{id: fmt.Sprintf("n%d", i), dir: filepath.Join(t.TempDir(), "snap")}
		node.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if s := node.handler.Load(); s != nil {
				s.ServeHTTP(w, r)
				return
			}
			http.Error(w, "node down", http.StatusServiceUnavailable)
		}))
		node.addr = strings.TrimPrefix(node.hs.URL, "http://")
		t.Cleanup(node.hs.Close)
		tc.nodes = append(tc.nodes, node)
	}
	topoNodes := make([]cluster.Node, n)
	for i, node := range tc.nodes {
		topoNodes[i] = cluster.Node{ID: node.id, Addr: node.addr}
	}
	tc.topo = &cluster.Topology{Nodes: topoNodes, Replicas: replicas}
	for _, node := range tc.nodes {
		tc.start(node, m, false)
	}
	t.Cleanup(func() {
		for _, node := range tc.nodes {
			if node.srv != nil {
				_ = node.srv.Close()
			}
		}
	})
	return tc
}

// start boots (or, with load=true, restarts) a node's Server and mounts it.
func (tc *testCluster) start(node *testNode, m *heatmap.Map, load bool) {
	tc.t.Helper()
	s, err := New(Config{
		Map:           m,
		Mutable:       true,
		TileSize:      64,
		TileCacheSize: 16,
		SnapshotDir:   node.dir,
		Load:          load,
		Cluster: &ClusterOptions{
			Topology:      tc.topo,
			NodeID:        node.id,
			ShipInterval:  15 * time.Millisecond,
			ProbeInterval: 30 * time.Millisecond,
		},
	})
	if err != nil {
		tc.t.Fatalf("New(%s): %v", node.id, err)
	}
	node.srv = s
	node.handler.Store(s)
}

// roles resolves the owner, one replica holder and one non-holder of name.
func (tc *testCluster) roles(name string) (owner, replica, outside *testNode) {
	holders := tc.nodes[0].srv.cluster.holders(name)
	byID := map[string]*testNode{}
	for _, n := range tc.nodes {
		byID[n.id] = n
	}
	owner = byID[holders[0]]
	if len(holders) > 1 {
		replica = byID[holders[1]]
	}
	for _, n := range tc.nodes {
		if !slices.Contains(holders, n.id) {
			outside = n
			break
		}
	}
	return owner, replica, outside
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp, body
}

// noRedirect does not follow redirects, so 307 responses can be asserted.
var noRedirect = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// waitFor polls cond until it returns "" or the deadline passes.
func clusterWaitFor(t *testing.T, what string, cond func() string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		problem := cond()
		if problem == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %s", what, problem)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// mapVersion reads a node's local registry version for name (white-box, so
// waiting on a replica never routes through the cluster).
func localVersion(n *testNode, name string) (uint64, bool) {
	if n.srv == nil {
		return 0, false
	}
	inst := n.srv.lookup(name)
	if inst == nil {
		return 0, false
	}
	return inst.state().version, true
}

// waitSynced waits until node's replica of name tails at exactly version v.
func (tc *testCluster) waitSynced(node *testNode, name string, v uint64) {
	tc.t.Helper()
	clusterWaitFor(tc.t, fmt.Sprintf("%s to reach %s@v%d", node.id, name, v), func() string {
		if !node.srv.cluster.replicaReady(name) {
			return "replica not bootstrapped yet"
		}
		got, ok := localVersion(node, name)
		if !ok {
			return "map not resident"
		}
		if got != v {
			return fmt.Sprintf("at version %d", got)
		}
		return ""
	})
}

// mutateOwner applies one random one-op mutation batch directly to the
// owner and returns the owner's new version.
func mutateOwner(t *testing.T, rng *rand.Rand, owner *testNode) uint64 {
	t.Helper()
	var op map[string]any
	switch rng.Intn(3) {
	case 0:
		pts := make([]map[string]float64, 1+rng.Intn(4))
		for i := range pts {
			pts[i] = map[string]float64{"x": rng.Float64() * 1000, "y": rng.Float64() * 1000}
		}
		op = map[string]any{"add_clients": pts}
	case 1:
		pts := []map[string]float64{{"x": rng.Float64() * 1000, "y": rng.Float64() * 1000}}
		op = map[string]any{"add_facilities": pts}
	default:
		op = map[string]any{"remove_clients": []int{rng.Intn(50)}}
	}
	raw, _ := json.Marshal(map[string]any{"ops": []any{op}})
	return postOwner(t, owner, "/v1/mutations", raw)
}

// postOwner sends one write to the owner and returns the version its 200
// response reports.
func postOwner(t *testing.T, owner *testNode, path string, body []byte) uint64 {
	t.Helper()
	resp, err := http.Post(owner.url(path), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, payload)
	}
	var out struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return out.Version
}

// assertTileParity fetches the same tiles from both nodes (each serves its
// local copy: the owner is authoritative, the replica is synced) and
// requires byte identity, plus matching point-query results.
func assertTileParity(t *testing.T, a, b *testNode) {
	t.Helper()
	for _, tile := range []string{"/v1/tiles/0/0/0.png", "/v1/tiles/1/0/0.png", "/v1/tiles/1/1/1.png", "/v1/tiles/2/1/2.png"} {
		ra, ba := httpGet(t, a.url(tile))
		rb, bb := httpGet(t, b.url(tile))
		if ra.StatusCode != http.StatusOK || rb.StatusCode != http.StatusOK {
			t.Fatalf("tile %s: %d on %s, %d on %s", tile, ra.StatusCode, a.id, rb.StatusCode, b.id)
		}
		if gotA, gotB := ra.Header.Get(cluster.NodeHeader), rb.Header.Get(cluster.NodeHeader); gotA != a.id || gotB != b.id {
			t.Fatalf("tile %s not served locally: node headers %q (want %s) and %q (want %s)", tile, gotA, a.id, gotB, b.id)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("tile %s diverges between %s (%d bytes) and %s (%d bytes) at equal version", tile, a.id, len(ba), b.id, len(bb))
		}
	}
	for _, q := range []string{"/v1/heat?x=100&y=100", "/v1/heat?x=512.5&y=300.25", "/v1/heat?x=999&y=1"} {
		_, ba := httpGet(t, a.url(q))
		_, bb := httpGet(t, b.url(q))
		if !bytes.Equal(ba, bb) {
			t.Fatalf("heat query %s diverges: %s vs %s", q, ba, bb)
		}
	}
}

// TestClusterReplicaConvergence is the tentpole gate: after every owner
// mutation batch, the replica reaches the same version with byte-identical
// tiles and labels; and after the replica dies mid-tail (kill -9 semantics:
// nothing flushed) and restarts from its own disk, it re-converges.
func TestClusterReplicaConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node convergence is not a -short test")
	}
	tc := newTestCluster(t, 3, 2)
	owner, replica, _ := tc.roles(DefaultMapName)
	if owner == nil || replica == nil {
		t.Fatal("placement did not produce an owner and a replica")
	}

	// Initial bootstrap: the replica replaces its locally built default map
	// with the owner's snapshot bytes.
	tc.waitSynced(replica, DefaultMapName, 1)
	assertTileParity(t, owner, replica)

	// Version-for-version: each owner batch must reproduce byte-identically
	// on the replica at that exact version.
	rng := rand.New(rand.NewSource(11))
	var v uint64
	for i := 0; i < 8; i++ {
		v = mutateOwner(t, rng, owner)
		tc.waitSynced(replica, DefaultMapName, v)
		assertTileParity(t, owner, replica)
	}
	// A committed optimizer run ships as one batched record of its
	// placements, and the replica's tiles and labels follow it.
	v = postOwner(t, owner, "/v1/optimize?k=2&commit=true", nil)
	tc.waitSynced(replica, DefaultMapName, v)
	assertTileParity(t, owner, replica)

	// Crash the replica mid-tail: queue several batches and kill it without
	// waiting for them to ship (and without any orderly flush).
	for i := 0; i < 5; i++ {
		v = mutateOwner(t, rng, owner)
	}
	replica.crash()
	for i := 0; i < 5; i++ {
		v = mutateOwner(t, rng, owner)
	}

	// Restart from the replica's own disk (-load), like a supervisor would.
	tc.start(replica, nil, true)
	tc.waitSynced(replica, DefaultMapName, v)
	assertTileParity(t, owner, replica)

	// The replication counters must reflect the work: the replica shipped
	// records and bootstrapped at least twice (initial + post-restart).
	_, raw := httpGet(t, replica.url("/v1/stats"))
	var st statsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding replica stats: %v", err)
	}
	if st.Cluster == nil {
		t.Fatal("replica /stats has no cluster section")
	}
	if st.Cluster.Role != "replica" || st.Cluster.Owner != owner.id {
		t.Errorf("replica stats role=%q owner=%q, want replica/%s", st.Cluster.Role, st.Cluster.Owner, owner.id)
	}
	if st.Cluster.Counters.ShippedRecords == 0 || st.Cluster.Counters.Bootstraps == 0 || st.Cluster.Counters.BootstrapBytes == 0 {
		t.Errorf("replica counters did not move: %+v", st.Cluster.Counters)
	}
}

// TestClusterRouting exercises the request-routing matrix: writes redirect
// to the owner, reads proxy from non-holders, the forwarded guard breaks
// loops, and single-node servers answer not_clustered on /cluster paths.
func TestClusterRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node routing is not a -short test")
	}
	tc := newTestCluster(t, 3, 2)
	owner, replica, outside := tc.roles(DefaultMapName)
	tc.waitSynced(replica, DefaultMapName, 1)

	// A write against any non-owner answers 307 with the owner's address.
	for _, n := range []*testNode{replica, outside} {
		req, _ := http.NewRequest(http.MethodPost, n.url("/v1/mutations"), strings.NewReader(`{"ops":[{"add_clients":[{"x":1,"y":2}]}]}`))
		resp, err := noRedirect.Do(req)
		if err != nil {
			t.Fatalf("POST via %s: %v", n.id, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("write via %s = %d, want 307", n.id, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != "http://"+owner.addr+"/v1/mutations" {
			t.Errorf("write via %s redirects to %q, want the owner %s", n.id, loc, owner.addr)
		}
	}

	// A client that follows redirects (Go re-sends the body on 307) lands
	// the write on the owner transparently.
	resp, err := http.Post(replica.url("/v1/mutations"), "application/json", strings.NewReader(`{"ops":[{"add_clients":[{"x":3,"y":4}]}]}`))
	if err != nil {
		t.Fatalf("redirected write: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("redirected write = %d, want 200", resp.StatusCode)
	}

	// Reads through the non-holder proxy to a holder, naming it.
	r, _ := httpGet(t, outside.url("/v1/heat?x=100&y=100"))
	if r.StatusCode != http.StatusOK {
		t.Fatalf("proxied read = %d", r.StatusCode)
	}
	if node := r.Header.Get(cluster.NodeHeader); node != owner.id && node != replica.id {
		t.Errorf("proxied read served by %q, want a holder (%s or %s)", node, owner.id, replica.id)
	}

	// The forwarded marker prevents a second proxy hop: a non-holder that
	// receives an already-forwarded request refuses instead of chaining.
	req, _ := http.NewRequest(http.MethodGet, outside.url("/v1/heat?x=100&y=100"), nil)
	req.Header.Set(cluster.ForwardedHeader, "test")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("forwarded request to non-holder = %d, want 503", resp.StatusCode)
	}

	// Cluster endpoints on a single-node server answer not_clustered.
	single := newTestServer(t, 1)
	rec := get(t, single, "/v1/cluster/status")
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), codeNotClustered) {
		t.Errorf("single-node /v1/cluster/status = %d %s, want 409 not_clustered", rec.Code, rec.Body.String())
	}
}

// TestClusterReadFailover kills the owner and requires reads to keep being
// served by the surviving replica, while writes (which need the owner's WAL)
// keep redirecting rather than silently forking history.
func TestClusterReadFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node failover is not a -short test")
	}
	tc := newTestCluster(t, 3, 2)
	owner, replica, outside := tc.roles(DefaultMapName)
	tc.waitSynced(replica, DefaultMapName, 1)
	ownerTile := func() []byte {
		_, b := httpGet(t, owner.url("/v1/tiles/1/0/0.png"))
		return b
	}()

	owner.crash()

	// The replica keeps serving its converged copy locally.
	r, body := httpGet(t, replica.url("/v1/tiles/1/0/0.png"))
	if r.StatusCode != http.StatusOK || !bytes.Equal(body, ownerTile) {
		t.Fatalf("replica read after owner death = %d (%d bytes)", r.StatusCode, len(body))
	}

	// The non-holder fails over: the owner answers 503, the proxy walks to
	// the replica and serves its bytes.
	r, body = httpGet(t, outside.url("/v1/tiles/1/0/0.png"))
	if r.StatusCode != http.StatusOK || !bytes.Equal(body, ownerTile) {
		t.Fatalf("failover read = %d (%d bytes)", r.StatusCode, len(body))
	}
	if node := r.Header.Get(cluster.NodeHeader); node != replica.id {
		t.Errorf("failover read served by %q, want the replica %s", node, replica.id)
	}

	// Writes have no failover: the owner is the only WAL writer.
	req, _ := http.NewRequest(http.MethodPost, replica.url("/v1/mutations"), strings.NewReader(`{"ops":[{"add_clients":[{"x":1,"y":2}]}]}`))
	resp, err := noRedirect.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Errorf("write with dead owner = %d, want 307 (no write failover)", resp.StatusCode)
	}
}

// TestClusterMapLifecycle creates a second map through a redirect, waits for
// it to replicate, then deletes it on the owner and requires the replica to
// drop its copy (files included) instead of resurrecting it.
func TestClusterMapLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node lifecycle is not a -short test")
	}
	tc := newTestCluster(t, 3, 2)

	const name = "tenant-a"
	body := map[string]any{
		"name": name,
		"clients": []map[string]float64{
			{"x": 10, "y": 10}, {"x": 20, "y": 25}, {"x": 700, "y": 800}, {"x": 400, "y": 420},
		},
		"facilities": []map[string]float64{{"x": 15, "y": 12}, {"x": 500, "y": 500}},
	}
	raw, _ := json.Marshal(body)
	// Post the create to a node that does NOT own the name; the follow-up
	// redirect must land it on the owner.
	owner, replica, _ := tc.roles(name)
	var nonOwner *testNode
	for _, n := range tc.nodes {
		if n != owner {
			nonOwner = n
			break
		}
	}
	resp, err := http.Post(nonOwner.url("/v1/maps"), "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via %s = %d: %s", nonOwner.id, resp.StatusCode, payload)
	}
	if got, _ := localVersion(owner, name); got != 1 {
		t.Fatalf("create did not land on the owner %s", owner.id)
	}

	tc.waitSynced(replica, name, 1)
	assertTileParity(t, owner, replica)

	// Delete on the owner (routed like any write); the replica's manager
	// notices the owner no longer lists the map and drops the local copy.
	req, _ := http.NewRequest(http.MethodDelete, owner.url("/v1/maps/"+name), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	clusterWaitFor(t, "replica to drop the deleted map", func() string {
		if replica.srv.lookup(name) != nil {
			return "still resident"
		}
		return ""
	})
}

// TestClusterWALEndpoint drives the owner-side ship endpoint directly:
// version-capped record ranges, the published-version header, 410 after
// compaction, and 404 for maps this node does not own.
func TestClusterWALEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node WAL shipping is not a -short test")
	}
	tc := newTestCluster(t, 3, 2)
	owner, replica, _ := tc.roles(DefaultMapName)
	tc.waitSynced(replica, DefaultMapName, 1)

	rng := rand.New(rand.NewSource(5))
	var v uint64
	for i := 0; i < 4; i++ {
		v = mutateOwner(t, rng, owner)
	}

	c := cluster.NewClient(5 * time.Second)
	recs, published, err := c.FetchWAL(context.Background(), owner.addr, DefaultMapName, 1, 0)
	if err != nil {
		t.Fatalf("FetchWAL: %v", err)
	}
	if published != v {
		t.Errorf("published version %d, want %d", published, v)
	}
	if len(recs) != int(v-1) || recs[0].Version != 2 || recs[len(recs)-1].Version != v {
		t.Errorf("FetchWAL(since=1) returned %d records [%d..%d], want %d..%d",
			len(recs), recs[0].Version, recs[len(recs)-1].Version, 2, v)
	}

	// Compact: saving the snapshot resets the WAL, so old ranges are gone
	// and the replica is told to bootstrap.
	resp, err := http.Post(owner.url("/v1/maps/default/snapshot"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save = %d", resp.StatusCode)
	}
	if _, _, err := c.FetchWAL(context.Background(), owner.addr, DefaultMapName, 1, 0); err != cluster.ErrSnapshotNeeded {
		t.Errorf("FetchWAL after compaction = %v, want ErrSnapshotNeeded", err)
	}

	// A node that does not own the map answers 404.
	var nonOwner *testNode
	for _, n := range tc.nodes {
		if n != owner {
			nonOwner = n
			break
		}
	}
	if _, _, err := c.FetchWAL(context.Background(), nonOwner.addr, DefaultMapName, 1, 0); err != cluster.ErrNotFound {
		t.Errorf("FetchWAL against non-owner = %v, want ErrNotFound", err)
	}

	// And the replica must survive the compaction: it re-bootstraps and
	// keeps converging.
	v = mutateOwner(t, rng, owner)
	tc.waitSynced(replica, DefaultMapName, v)
	assertTileParity(t, owner, replica)
}

// TestClusterSnapshotResavesMissingFile: when the owner's snapshot file is
// gone from disk, the bootstrap endpoint saves a fresh one and serves those
// exact bytes, so a replica can always bootstrap from the owner's state.
func TestClusterSnapshotResavesMissingFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := New(Config{
		Map: clusterMap(t), Mutable: true, TileSize: 32, SnapshotDir: dir,
		Cluster: &ClusterOptions{
			Topology: &cluster.Topology{Nodes: []cluster.Node{{ID: "n0", Addr: "127.0.0.1:1"}}, Replicas: 1},
			NodeID:   "n0",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	path := snapshot.MapPath(dir, DefaultMapName)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	rec := get(t, s, "/v1/cluster/maps/default/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("bootstrap snapshot = %d (body %s)", rec.Code, rec.Body)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot file not re-saved: %v", err)
	}
	if !bytes.Equal(rec.Body.Bytes(), disk) {
		t.Error("served snapshot differs from the re-saved file")
	}
	if v := rec.Header().Get(cluster.VersionHeader); v != "1" {
		t.Errorf("%s = %q, want 1", cluster.VersionHeader, v)
	}
}
