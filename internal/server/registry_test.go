package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/snapshot"
)

// mapBody returns a POST /maps payload built from the handMap point sets,
// shifted so each named map is a distinct workload.
func mapBody(name string, shift float64) string {
	type p struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	}
	payload := struct {
		Name       string `json:"name"`
		Clients    []p    `json:"clients"`
		Facilities []p    `json:"facilities"`
		Metric     string `json:"metric"`
	}{Name: name, Metric: "l2"}
	for _, c := range []p{{7, 7}, {13, 7}, {7, 13}, {13, 13}, {10, 13}, {97, 3}, {3, 97}, {95, 95}} {
		payload.Clients = append(payload.Clients, p{c.X + shift, c.Y + shift})
	}
	for _, f := range []p{{10, 10}, {90, 10}, {10, 90}, {90, 90}} {
		payload.Facilities = append(payload.Facilities, p{f.X + shift, f.Y + shift})
	}
	b, _ := json.Marshal(payload)
	return string(b)
}

func TestRegistryCRUD(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true})
	if err != nil {
		t.Fatal(err)
	}

	// The registry starts with exactly the default map.
	rec := do(t, s, http.MethodGet, "/v1/maps", "")
	var listing struct {
		Maps []mapInfo `json:"maps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Maps) != 1 || listing.Maps[0].Name != DefaultMapName {
		t.Fatalf("initial listing = %+v, want just %q", listing.Maps, DefaultMapName)
	}

	// Create a tenant and exercise its endpoints.
	rec = do(t, s, http.MethodPost, "/v1/maps", mapBody("tenant-a", 0))
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /maps = %d (body %s)", rec.Code, rec.Body)
	}
	var created mapInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "tenant-a" || created.Version != 1 || created.Regions <= 0 {
		t.Fatalf("created = %+v", created)
	}
	for _, path := range []string{
		"/v1/maps/tenant-a", "/v1/maps/tenant-a/stats", "/v1/maps/tenant-a/topk?k=3",
		"/v1/maps/tenant-a/heat?x=10&y=10", "/v1/maps/tenant-a/histogram?bins=4",
		"/v1/maps/tenant-a/tiles/1/0/0.png",
	} {
		if rec := do(t, s, http.MethodGet, path, ""); rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d (body %s)", path, rec.Code, rec.Body)
		}
	}

	// Mutating the tenant must not touch the default map.
	rec = do(t, s, http.MethodPost, "/v1/maps/tenant-a/mutations", `{"ops":[{"add_clients":[{"x":50,"y":50}]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("tenant mutation = %d (body %s)", rec.Code, rec.Body)
	}
	var mr mutationsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Map != "tenant-a" || mr.Version != 2 {
		t.Errorf("mutation response %+v, want map tenant-a at version 2", mr)
	}
	if got := s.Version(); got != 1 {
		t.Errorf("default map version = %d after a tenant mutation, want 1", got)
	}

	// Deletion: tenants go away, the default map is protected.
	if rec := do(t, s, http.MethodDelete, "/v1/maps/tenant-a", ""); rec.Code != http.StatusOK {
		t.Fatalf("DELETE tenant = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/maps/tenant-a/stats", ""); rec.Code != http.StatusNotFound {
		t.Errorf("stats of deleted map = %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/v1/maps/default", ""); rec.Code != http.StatusForbidden {
		t.Errorf("DELETE default = %d, want 403", rec.Code)
	}
	if s.NumMaps() != 1 {
		t.Errorf("registry holds %d maps, want 1", s.NumMaps())
	}
}

func TestRegistryCreateValidation(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), MaxMaps: 2, MaxMapPoints: 20})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed", "{", http.StatusBadRequest},
		{"bad name", `{"name":"a/b","clients":[{"x":1,"y":1}],"facilities":[{"x":0,"y":0}]}`, http.StatusBadRequest},
		{"empty name", mapBody("", 0), http.StatusBadRequest},
		{"no clients", `{"name":"x","facilities":[{"x":0,"y":0}]}`, http.StatusBadRequest},
		{"no facilities", `{"name":"x","clients":[{"x":1,"y":1}]}`, http.StatusBadRequest},
		{"bad metric", `{"name":"x","clients":[{"x":1,"y":1}],"facilities":[{"x":0,"y":0}],"metric":"l7"}`, http.StatusBadRequest},
		{"dup default", mapBody(DefaultMapName, 0), http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rec := do(t, s, http.MethodPost, "/v1/maps", tc.body); rec.Code != tc.want {
				t.Errorf("POST /maps (%s) = %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body)
			}
		})
	}
	// Registry cap: MaxMaps=2 leaves room for exactly one tenant.
	if rec := do(t, s, http.MethodPost, "/v1/maps", mapBody("one", 0)); rec.Code != http.StatusCreated {
		t.Fatalf("first tenant = %d (body %s)", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/v1/maps", mapBody("two", 0)); rec.Code != http.StatusTooManyRequests {
		t.Errorf("tenant beyond MaxMaps = %d, want 429", rec.Code)
	}
}

// TestAliasesMatchNamedForm asserts the alias contract: every default-map
// alias answers byte-identically to its /v1/maps/default/... form.
func TestAliasesMatchNamedForm(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{
		"/topk?k=3", "/heat?x=10&y=10", "/histogram?bins=4",
		"/regions?min=2", "/tiles/1/0/0.png", "/tiles/2/1/1.png",
	}
	for _, path := range paths {
		alias := do(t, s, http.MethodGet, "/v1"+path, "")
		named := do(t, s, http.MethodGet, "/v1/maps/default"+path, "")
		if alias.Code != http.StatusOK || named.Code != http.StatusOK {
			t.Fatalf("GET %s: alias %d, named %d", path, alias.Code, named.Code)
		}
		if !bytes.Equal(alias.Body.Bytes(), named.Body.Bytes()) {
			t.Errorf("GET %s differs between the alias and /v1/maps/default form", path)
		}
	}
	// /stats carries a wall-clock uptime, so compare it structurally.
	var aliasSt, namedSt statsResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/v1/stats", "").Body.Bytes(), &aliasSt); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/v1/maps/default/stats", "").Body.Bytes(), &namedSt); err != nil {
		t.Fatal(err)
	}
	aliasSt.UptimeSeconds, namedSt.UptimeSeconds = 0, 0
	if aliasSt != namedSt {
		t.Errorf("/v1/stats differs between forms:\n alias %+v\n named %+v", aliasSt, namedSt)
	}
	// Batched heat and mutations work through both forms, sharing version.
	if rec := do(t, s, http.MethodPost, "/v1/maps/default/heat/batch", `{"points":[{"x":10,"y":10}]}`); rec.Code != http.StatusOK {
		t.Errorf("named heat/batch = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":50,"y":55}]}]}`); rec.Code != http.StatusOK {
		t.Errorf("alias mutation = %d", rec.Code)
	}
	rec := do(t, s, http.MethodGet, "/v1/maps/default/stats", "")
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.Name != DefaultMapName {
		t.Errorf("named stats after alias mutation = %+v, want version 2", st)
	}
}

// tileAndStats snapshots the observable state the persistence tests compare:
// the /stats version and a set of tile bodies.
func tileAndStats(t *testing.T, s *Server, paths []string) (uint64, map[string][]byte) {
	t.Helper()
	rec := do(t, s, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats = %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	tiles := make(map[string][]byte, len(paths))
	for _, path := range paths {
		rec := do(t, s, http.MethodGet, path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		tiles[path] = append([]byte(nil), rec.Body.Bytes()...)
	}
	return st.Version, tiles
}

// TestWALReplayConvergesAfterCrash is the acceptance criterion: a mutable
// server replaying its WAL after an unclean shutdown converges to the same
// map version and tile bytes as the uninterrupted server.
func TestWALReplayConvergesAfterCrash(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// One-op requests, two batched requests (each lands in the WAL as one
	// multi-op record that replay must apply as a unit), and a committed
	// optimizer run (one batched record of its placements). Each write bumps
	// the version by one.
	writes := []struct{ path, body string }{
		{"/v1/mutations", `{"ops":[{"add_clients":[{"x":91,"y":91},{"x":11,"y":12}]}]}`},
		{"/v1/mutations", `{"ops":[{"remove_clients":[3]}]}`},
		{"/v1/mutations", `{"ops":[{"add_facilities":[{"x":55,"y":45}]}]}`},
		{"/v1/mutations", `{"ops":[{"remove_facilities":[1]}]}`},
		{"/v1/mutations", `{"ops":[{"add_clients":[{"x":30,"y":30},{"x":31,"y":31}]},{"remove_clients":[2]}]}`},
		{"/v1/mutations", `{"ops":[{"add_facilities":[{"x":60,"y":60}]},{"add_clients":[{"x":61,"y":61}]},{"remove_facilities":[0]}]}`},
		{"/v1/optimize?k=2&commit=true", ""},
	}
	for _, wr := range writes {
		if rec := do(t, a, http.MethodPost, wr.path, wr.body); rec.Code != http.StatusOK {
			t.Fatalf("POST %s = %d (body %s)", wr.path, rec.Code, rec.Body)
		}
	}
	tilePaths := []string{"/v1/tiles/0/0/0.png", "/v1/tiles/2/0/0.png", "/v1/tiles/2/3/3.png", "/v1/tiles/3/2/5.png"}
	wantVersion, wantTiles := tileAndStats(t, a, tilePaths)
	if wantVersion != uint64(len(writes)+1) {
		t.Fatalf("uninterrupted server at version %d, want %d", wantVersion, len(writes)+1)
	}
	// Crash: server a is abandoned without Close/SaveAll. The on-disk state
	// is the initial snapshot (version 1) plus the WAL.
	b, err := New(Config{Mutable: true, TileSize: 32, SnapshotDir: dir, Load: true})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	gotVersion, gotTiles := tileAndStats(t, b, tilePaths)
	if gotVersion != wantVersion {
		t.Errorf("restarted server at version %d, want %d", gotVersion, wantVersion)
	}
	for _, path := range tilePaths {
		if !bytes.Equal(gotTiles[path], wantTiles[path]) {
			t.Errorf("tile %s differs after WAL replay", path)
		}
	}
	// The records replay as one batch, which must equal the chain the
	// uninterrupted server committed, region for region.
	if got, want := b.def().state().m.Regions(), a.def().state().m.Regions(); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed map has %d regions that differ from the uninterrupted server's %d", len(got), len(want))
	}
	// The replayed server keeps accepting (and logging) mutations.
	if rec := do(t, b, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":20,"y":80}]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("mutation after replay = %d (body %s)", rec.Code, rec.Body)
	}
	if got := b.Version(); got != wantVersion+1 {
		t.Errorf("version after post-replay mutation = %d, want %d", got, wantVersion+1)
	}
}

// TestWALReplayNamesRefusedRecord: a log whose record refuses an op fails
// the restart with an error naming that record's version, although the
// records replay as one batch.
func TestWALReplayNamesRefusedRecord(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, a, http.MethodPost, "/v1/mutations", `{"ops":[{"remove_clients":[0]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("mutation = %d (body %s)", rec.Code, rec.Body)
	}
	wal, _, err := snapshot.OpenWAL(snapshot.WALPath(dir, DefaultMapName))
	if err != nil {
		t.Fatal(err)
	}
	// The map holds 8 clients at version 2: version 3 is valid, version 4
	// removes a client index past the end.
	recs := []snapshot.Record{
		snapshot.BatchRecord(3, []snapshot.Op{{AddClients: []heatmap.Point{heatmap.Pt(40, 40)}}}),
		snapshot.BatchRecord(4, []snapshot.Op{{AddClients: []heatmap.Point{heatmap.Pt(41, 41)}}, {RemoveClients: []int{10}}}),
	}
	if err := wal.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	wal.Close()
	_, err = New(Config{Mutable: true, TileSize: 32, SnapshotDir: dir, Load: true})
	if err == nil || !strings.Contains(err.Error(), "record for version 4: op 1: client index 10 out of range") {
		t.Fatalf("restart err = %v, want the refusal of version 4's op 1", err)
	}
}

// TestSnapshotSaveCompactsWAL asserts a clean shutdown folds the WAL into
// the snapshot: the restarted server loads the snapshot alone.
func TestSnapshotSaveCompactsWAL(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, a, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":91,"y":91}]}]}`); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	tilePaths := []string{"/v1/tiles/0/0/0.png", "/v1/tiles/2/3/3.png"}
	wantVersion, wantTiles := tileAndStats(t, a, tilePaths)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After compaction the snapshot itself carries version 2 and the WAL is
	// empty.
	snap, err := snapshot.Open(snapshot.MapPath(dir, DefaultMapName))
	if err != nil {
		t.Fatal(err)
	}
	if v := snap.Meta().MapVersion; v != wantVersion {
		t.Errorf("compacted snapshot at version %d, want %d", v, wantVersion)
	}
	snap.Close()
	_, records, err := snapshot.OpenWAL(snapshot.WALPath(dir, DefaultMapName))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Errorf("WAL holds %d records after compaction, want 0", len(records))
	}

	b, err := New(Config{Mutable: true, SnapshotDir: dir, Load: true, TileSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	gotVersion, gotTiles := tileAndStats(t, b, tilePaths)
	if gotVersion != wantVersion {
		t.Errorf("restarted version = %d, want %d", gotVersion, wantVersion)
	}
	for _, path := range tilePaths {
		if !bytes.Equal(gotTiles[path], wantTiles[path]) {
			t.Errorf("tile %s differs after snapshot load", path)
		}
	}
}

// TestCreatedMapsPersistAcrossRestart asserts tenants created over HTTP
// survive a restart, and deleted tenants stay deleted.
func TestCreatedMapsPersistAcrossRestart(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := New(Config{Map: handMap(t), Mutable: true, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		if rec := do(t, a, http.MethodPost, "/v1/maps", mapBody(name, 5)); rec.Code != http.StatusCreated {
			t.Fatalf("create %s = %d (body %s)", name, rec.Code, rec.Body)
		}
	}
	if rec := do(t, a, http.MethodDelete, "/v1/maps/beta", ""); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	// Mutate alpha so its durable state is snapshot+WAL.
	if rec := do(t, a, http.MethodPost, "/v1/maps/alpha/mutations", `{"ops":[{"add_clients":[{"x":60,"y":60}]}]}`); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}

	b, err := New(Config{Mutable: true, SnapshotDir: dir, Load: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.NumMaps(); got != 2 {
		t.Errorf("restarted registry holds %d maps, want 2 (default, alpha)", got)
	}
	if rec := do(t, b, http.MethodGet, "/v1/maps/beta/stats", ""); rec.Code != http.StatusNotFound {
		t.Errorf("deleted map resurrected: %d", rec.Code)
	}
	rec := do(t, b, http.MethodGet, "/v1/maps/alpha/stats", "")
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.Clients != 9 {
		t.Errorf("alpha after restart = version %d, %d clients; want 2 and 9", st.Version, st.Clients)
	}
}

// TestForcedSnapshotEndpoint asserts POST /maps/{map}/snapshot persists on
// demand and refuses without a snapshot directory.
func TestForcedSnapshotEndpoint(t *testing.T) {
	t.Parallel()
	noDir, err := New(Config{Map: handMap(t)})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, noDir, http.MethodPost, "/v1/maps/default/snapshot", ""); rec.Code != http.StatusForbidden {
		t.Errorf("snapshot without dir = %d, want 403", rec.Code)
	}

	dir := t.TempDir()
	s, err := New(Config{Map: handMap(t), Mutable: true, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":91,"y":91}]}]}`); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/maps/default/snapshot", ""); rec.Code != http.StatusOK {
		t.Fatalf("forced snapshot = %d (body %s)", rec.Code, rec.Body)
	}
	snap, err := snapshot.Open(snapshot.MapPath(dir, DefaultMapName))
	if err != nil {
		t.Fatal(err)
	}
	if v := snap.Meta().MapVersion; v != 2 {
		t.Errorf("forced snapshot at version %d, want 2", v)
	}
	snap.Close()
	if fi, err := os.Stat(snapshot.WALPath(dir, DefaultMapName)); err != nil || fi.Size() != int64(walFileHeaderLen(t)) {
		t.Errorf("WAL not reset after forced snapshot (size %v, err %v)", fi, err)
	}
}

// walFileHeaderLen exposes the WAL header length without exporting it.
func walFileHeaderLen(t *testing.T) int {
	t.Helper()
	dir := t.TempDir()
	w, _, err := snapshot.OpenWAL(snapshot.WALPath(dir, "probe"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	fi, err := os.Stat(snapshot.WALPath(dir, "probe"))
	if err != nil {
		t.Fatal(err)
	}
	return int(fi.Size())
}

// TestLoadRefusesOtherSnapshotVersions: a map file of another snapshot
// format version — the retired format 1 or a future 3 — fails startup with
// an error naming the map and the version. The server neither skips the map
// nor misreads the file.
func TestLoadRefusesOtherSnapshotVersions(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := New(Config{Map: handMap(t), TileSize: 32, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	path := snapshot.MapPath(dir, DefaultMapName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint16{1, 3} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(b[4:6], version)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{TileSize: 32, SnapshotDir: dir, Load: true})
		if err == nil {
			s.Close()
			t.Fatalf("Load over a version-%d snapshot succeeded, want a refusal", version)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("%q", DefaultMapName)) || !strings.Contains(msg, fmt.Sprintf("version %d", version)) {
			t.Errorf("Load over a version-%d snapshot: %q does not name the map and the version", version, msg)
		}
	}
}

// TestReadOnlyServerReplaysWAL asserts a read-only restart still applies the
// log (the log is state), it just stops appending.
func TestReadOnlyServerReplaysWAL(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, a, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":91,"y":91}]}]}`); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	wantVersion, wantTiles := tileAndStats(t, a, []string{"/v1/tiles/2/3/3.png"})

	b, err := New(Config{SnapshotDir: dir, Load: true, TileSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	gotVersion, gotTiles := tileAndStats(t, b, []string{"/v1/tiles/2/3/3.png"})
	if gotVersion != wantVersion {
		t.Errorf("read-only replay version = %d, want %d", gotVersion, wantVersion)
	}
	if !bytes.Equal(gotTiles["/v1/tiles/2/3/3.png"], wantTiles["/v1/tiles/2/3/3.png"]) {
		t.Errorf("tile differs after read-only replay")
	}
	if rec := do(t, b, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":1,"y":1}]}]}`); rec.Code != http.StatusForbidden {
		t.Errorf("mutation on read-only server = %d, want 403", rec.Code)
	}
}

// TestPerMapTileCachesAreIsolated asserts one tenant's renders and cache
// entries never show up in another tenant's counters.
func TestPerMapTileCachesAreIsolated(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), TileSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/v1/maps", mapBody("other", 0)); rec.Code != http.StatusCreated {
		t.Fatal(rec.Code)
	}
	for i := 0; i < 3; i++ {
		if rec := do(t, s, http.MethodGet, "/v1/maps/other/tiles/1/0/0.png", ""); rec.Code != http.StatusOK {
			t.Fatal(rec.Code)
		}
	}
	if got := s.RenderCalls(); got != 0 {
		t.Errorf("default map rendered %d tiles from another tenant's requests", got)
	}
	other := s.lookup("other")
	if got := other.renders.Load(); got != 1 {
		t.Errorf("tenant renders = %d, want 1 (then cache hits)", got)
	}
	if got := s.def().cache.len(); got != 0 {
		t.Errorf("default cache holds %d tiles, want 0", got)
	}
}
