package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// v1Error is the structured error envelope, as clients decode it.
type v1Error struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// TestV1ErrorEnvelope drives real error paths through the /v1 mount and
// asserts every one answers the structured envelope with the documented
// machine code and a message.
func TestV1ErrorEnvelope(t *testing.T) {
	t.Parallel()
	// Read-only server, registry capped at one map: that makes the 403
	// read_only, 409 map_exists and 429 registry_full paths reachable
	// deterministically.
	s, err := New(Config{Map: buildMap(t, 1), TileSize: 64, MaxMaps: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Paths are relative to the /v1 mount.
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
		{"read-only mutation", http.MethodPost, "/mutations", `{"ops":[{"add_clients":[{"x":1,"y":1}]}]}`, http.StatusForbidden, "read_only"},
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
		})
	}
}

// TestWriteErrorCodeShapes covers the envelope directly, including statuses
// (429 queue_full, 503 unavailable) that need load or fault injection to
// reach through a live handler.
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
		writeError(rec, tc.status, "boom %d", tc.status)
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
		if want := fmt.Sprintf("boom %d", tc.status); env.Error.Message != want {
			t.Errorf("status %d message = %q, want %q", tc.status, env.Error.Message, want)
		}
	}
}

// unrouted decodes rec as the answer to a request no route matches: the
// error envelope, with the catch-all's message, which no handler writes.
func unrouted(rec *httptest.ResponseRecorder) (v1Error, bool) {
	var env v1Error
	if rec.Header().Get("Content-Type") != "application/json" || json.Unmarshal(rec.Body.Bytes(), &env) != nil {
		return env, false
	}
	return env, strings.HasPrefix(env.Error.Message, "no route matches ")
}

// TestOnlyV1RoutesServed pins the single mount: every registered route lives
// under /v1 and is routed there, the same path without the prefix answers
// 404, and the per-op write endpoints answer 404 in both forms — POST
// .../mutations is the one write endpoint. A request no route matches gets
// the error envelope: 404 not_found for an unknown path, 405
// method_not_allowed with the Allow header for a known path under another
// method.
func TestOnlyV1RoutesServed(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fill := strings.NewReplacer("{map}", DefaultMapName, "{z}", "0", "{x}", "0", "{y}", "0.png")
	for _, r := range s.Routes() {
		method, path := r[0], fill.Replace(r[1])
		rest, ok := strings.CutPrefix(path, "/"+APIVersion+"/")
		if !ok {
			t.Errorf("route %s %s is not under /%s", method, r[1], APIVersion)
			continue
		}
		// Every handler answers JSON or a PNG tile, never the catch-all's
		// envelope.
		rec := do(t, s, method, path, "")
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" && ct != "image/png" {
			t.Errorf("%s %s = %d %q, want an answer from its handler", method, path, rec.Code, ct)
		}
		if env, ok := unrouted(rec); ok {
			t.Errorf("%s %s = %d %+v, want an answer from its handler, not the catch-all's", method, path, rec.Code, env)
		}
		if rec := do(t, s, method, "/"+rest, ""); rec.Code != http.StatusNotFound {
			t.Errorf("%s /%s = %d, want 404: only /%s is served", method, rest, rec.Code, APIVersion)
		}
	}
	for _, path := range []string{"/v1/clients", "/v1/facilities", "/v1/maps/default/clients", "/v1/maps/default/facilities"} {
		for _, method := range []string{http.MethodPost, http.MethodDelete} {
			if rec := do(t, s, method, path, `{"points":[{"x":1,"y":1}],"indexes":[0]}`); rec.Code != http.StatusNotFound {
				t.Errorf("%s %s = %d, want 404: the per-op endpoints are gone", method, path, rec.Code)
			}
		}
	}
	for _, tc := range []struct {
		method, path string
		status       int
		code, allow  string
	}{
		{http.MethodGet, "/v1/nope", http.StatusNotFound, "not_found", ""},
		{http.MethodGet, "/heat", http.StatusNotFound, "not_found", ""},
		{http.MethodGet, "/v1/heat/batch", http.StatusMethodNotAllowed, "method_not_allowed", "POST"},
		{http.MethodPost, "/v1/maps/default", http.StatusMethodNotAllowed, "method_not_allowed", "DELETE, GET, HEAD"},
	} {
		rec := do(t, s, tc.method, tc.path, "")
		env, ok := unrouted(rec)
		if rec.Code != tc.status || !ok || env.Error.Code != tc.code || rec.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s = %d %q (Allow %q) %s, want %d with the catch-all's %s envelope (Allow %q)",
				tc.method, tc.path, rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Allow"),
				rec.Body.String(), tc.status, tc.code, tc.allow)
		}
	}
	if got := s.Version(); got != 1 {
		t.Errorf("probing the route table moved the default map to version %d", got)
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
	tilePaths := []string{"/v1/tiles/0/0/0.png", "/v1/tiles/2/1/2.png"}
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
	if rec := do(t, b, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":42,"y":17}]}]}`); rec.Code != http.StatusOK {
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
