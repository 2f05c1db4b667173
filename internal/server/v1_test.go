package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// v1Error is the structured /v1 error envelope, as clients decode it.
type v1Error struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// TestV1ErrorEnvelope drives real error paths through the /v1 mount and
// asserts every one answers the structured envelope with the documented
// machine code — while the same request against the legacy path keeps the
// historical flat {"error": "..."} shape.
func TestV1ErrorEnvelope(t *testing.T) {
	t.Parallel()
	// Read-only server, registry capped at one map: that makes the 403
	// read_only, 409 map_exists and 429 registry_full paths reachable
	// deterministically.
	s, err := New(Config{Map: buildMap(t, 1), TileSize: 64, MaxMaps: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cases := []struct {
		name         string
		method, path string
		body         string
		status       int
		code         string
	}{
		{"missing heat params", http.MethodGet, "/heat", "", http.StatusBadRequest, "invalid_argument"},
		{"bad batch body", http.MethodPost, "/heat/batch", `{"points":`, http.StatusBadRequest, "invalid_argument"},
		{"bad topk k", http.MethodGet, "/topk?k=zero", "", http.StatusBadRequest, "invalid_argument"},
		{"unknown map", http.MethodGet, "/maps/nope", "", http.StatusNotFound, "not_found"},
		{"unknown map stats", http.MethodGet, "/maps/nope/stats", "", http.StatusNotFound, "not_found"},
		{"read-only mutation", http.MethodPost, "/clients", `{"points":[{"x":1,"y":1}]}`, http.StatusForbidden, "read_only"},
		{"read-only batch", http.MethodPost, "/mutations", `{"ops":[]}`, http.StatusForbidden, "read_only"},
		{"read-only optimize", http.MethodPost, "/optimize?commit=true", "", http.StatusForbidden, "read_only"},
		{"delete default map", http.MethodDelete, "/maps/default", "", http.StatusForbidden, "forbidden"},
		{"save without snapshot dir", http.MethodPost, "/maps/default/snapshot", "", http.StatusForbidden, "forbidden"},
		{"duplicate map", http.MethodPost, "/maps", `{"name":"default","clients":[{"x":1,"y":1}],"facilities":[{"x":2,"y":2}]}`, http.StatusConflict, "map_exists"},
		{"registry full", http.MethodPost, "/maps", `{"name":"overflow","clients":[{"x":1,"y":1}],"facilities":[{"x":2,"y":2}]}`, http.StatusTooManyRequests, "registry_full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, tc.method, "/v1"+tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("%s /v1%s = %d, want %d (body %s)", tc.method, tc.path, rec.Code, tc.status, rec.Body)
			}
			var env v1Error
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("decoding envelope: %v (body %s)", err, rec.Body)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code = %q, want %q (message %q)", env.Error.Code, tc.code, env.Error.Message)
			}
			if env.Error.Message == "" {
				t.Errorf("empty message in envelope (body %s)", rec.Body)
			}

			// The legacy mount answers the same status with the historical
			// flat shape, and its message matches the envelope's.
			legacy := do(t, s, tc.method, tc.path, tc.body)
			if legacy.Code != tc.status {
				t.Fatalf("%s %s = %d, want %d (body %s)", tc.method, tc.path, legacy.Code, tc.status, legacy.Body)
			}
			var flat struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(legacy.Body.Bytes(), &flat); err != nil {
				t.Fatalf("decoding legacy error: %v (body %s)", err, legacy.Body)
			}
			if flat.Error == "" {
				t.Errorf("legacy error message empty (body %s)", legacy.Body)
			}
			if flat.Error != env.Error.Message {
				t.Errorf("legacy message %q != envelope message %q", flat.Error, env.Error.Message)
			}
		})
	}
}

// TestWriteErrorCodeShapes covers the two wire shapes directly, including
// statuses (429 queue_full, 503 unavailable) that need load or fault
// injection to reach through a live handler.
func TestWriteErrorCodeShapes(t *testing.T) {
	t.Parallel()
	statuses := []struct {
		status int
		code   string
	}{
		{http.StatusBadRequest, "invalid_argument"},
		{http.StatusForbidden, "forbidden"},
		{http.StatusNotFound, "not_found"},
		{http.StatusConflict, "conflict"},
		{http.StatusTooManyRequests, "resource_exhausted"},
		{http.StatusServiceUnavailable, "unavailable"},
		{http.StatusInternalServerError, "internal"},
	}
	for _, tc := range statuses {
		rec := httptest.NewRecorder()
		writeError(&v1Writer{ResponseWriter: rec}, tc.status, "boom %d", tc.status)
		if rec.Code != tc.status {
			t.Fatalf("status = %d, want %d", rec.Code, tc.status)
		}
		var env v1Error
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("decoding envelope: %v", err)
		}
		if env.Error.Code != tc.code {
			t.Errorf("status %d code = %q, want %q", tc.status, env.Error.Code, tc.code)
		}

		plain := httptest.NewRecorder()
		writeError(plain, tc.status, "boom %d", tc.status)
		var flat map[string]string
		if err := json.Unmarshal(plain.Body.Bytes(), &flat); err != nil {
			t.Fatalf("decoding legacy error: %v", err)
		}
		if flat["error"] != env.Error.Message {
			t.Errorf("legacy shape = %v, want message %q", flat, env.Error.Message)
		}
	}
}

// TestV1AliasSuccessBytesIdentical asserts the /v1 mount is a pure alias on
// the success path: same handler, byte-identical body and content type.
func TestV1AliasSuccessBytesIdentical(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 2)
	// /stats is excluded: uptime and traffic counters advance between the
	// two requests. Its /v1 fields are covered by TestStatsV1Fields.
	paths := []string{
		"/healthz",
		"/maps",
		"/maps/default",
		"/heat?x=500&y=500",
		"/topk?k=3",
		"/regions?min=2",
		"/histogram",
		"/tiles/1/0/1.png",
		"/maps/default/heat?x=500&y=500",
		"/maps/default/tiles/1/0/1.png",
	}
	for _, path := range paths {
		legacy := get(t, s, path)
		v1 := get(t, s, "/v1"+path)
		if legacy.Code != http.StatusOK || v1.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, GET /v1%s = %d, want 200/200 (body %s)", path, legacy.Code, path, v1.Code, legacy.Body)
		}
		if !bytes.Equal(legacy.Body.Bytes(), v1.Body.Bytes()) {
			t.Errorf("GET %s body differs between legacy and /v1 mounts", path)
		}
		if lt, vt := legacy.Header().Get("Content-Type"), v1.Header().Get("Content-Type"); lt != vt {
			t.Errorf("GET %s Content-Type %q != /v1 %q", path, lt, vt)
		}
	}
}

// TestStatsV1Fields asserts /stats reports the API version and, for a map
// built in-process (no snapshot), heap residency with no snapshot format.
func TestStatsV1Fields(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 1)
	rec := get(t, s, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", rec.Code)
	}
	var st struct {
		APIVersion     string `json:"api_version"`
		SnapshotFormat string `json:"snapshot_format"`
		Residency      string `json:"residency"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.APIVersion != APIVersion {
		t.Errorf("api_version = %q, want %q", st.APIVersion, APIVersion)
	}
	if st.Residency != "heap" {
		t.Errorf("residency = %q, want heap for a built map", st.Residency)
	}
	if st.SnapshotFormat != "" {
		t.Errorf("snapshot_format = %q, want empty for a built map", st.SnapshotFormat)
	}
}

// TestMappedSnapshotServesAndReports saves a registry (format v2 by
// default), reloads it, and asserts the restored map is served off the
// mapped snapshot — /stats says so — with reads identical to the original.
// A subsequent mutation promotes it to the heap without changing served
// bytes outside the dirty region.
func TestMappedSnapshotServesAndReports(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tilePaths := []string{"/tiles/0/0/0.png", "/tiles/2/1/2.png"}
	wantVersion, wantTiles := tileAndStats(t, a, tilePaths)
	if err := a.SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}

	b, err := New(Config{Mutable: true, TileSize: 32, SnapshotDir: dir, Load: true})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	rec := get(t, b, "/v1/stats")
	var st struct {
		SnapshotFormat string `json:"snapshot_format"`
		Residency      string `json:"residency"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.SnapshotFormat != "v2" {
		t.Errorf("snapshot_format = %q, want v2", st.SnapshotFormat)
	}
	if st.Residency != "mapped" {
		t.Errorf("residency = %q, want mapped right after load", st.Residency)
	}
	gotVersion, gotTiles := tileAndStats(t, b, tilePaths)
	if gotVersion != wantVersion {
		t.Errorf("restored version = %d, want %d", gotVersion, wantVersion)
	}
	for _, p := range tilePaths {
		if !bytes.Equal(gotTiles[p], wantTiles[p]) {
			t.Errorf("tile %s differs between original and mapped restore", p)
		}
	}

	// Mutating the mapped map goes through ApplyDelta's copy-on-write
	// promotion: the new snapshot is a heap map.
	if rec := do(t, b, http.MethodPost, "/v1/clients", `{"points":[{"x":42,"y":17}]}`); rec.Code != http.StatusOK {
		t.Fatalf("mutation on mapped map = %d (body %s)", rec.Code, rec.Body)
	}
	rec = get(t, b, "/v1/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.Residency != "heap" {
		t.Errorf("residency after mutation = %q, want heap", st.Residency)
	}
}
