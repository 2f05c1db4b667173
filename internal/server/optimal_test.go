package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/snapshot"
)

// optimalBody is the GET /optimal response shape used by these tests.
type optimalBody struct {
	Map      string `json:"map"`
	Version  uint64 `json:"version"`
	K        int    `json:"k"`
	Count    int    `json:"count"`
	Geometry string `json:"geometry"`
	Regions  []struct {
		Heat  float64 `json:"heat"`
		Point struct {
			X float64 `json:"x"`
			Y float64 `json:"y"`
		} `json:"point"`
		RNN    []int     `json:"rnn"`
		Area   float64   `json:"area"`
		Cells  int       `json:"cells"`
		Bounds *struct{} `json:"bounds"`
	} `json:"regions"`
}

// optimizeBody is the POST /optimize response shape used by these tests.
type optimizeBody struct {
	Map       string  `json:"map"`
	Version   uint64  `json:"version"`
	K         int     `json:"k"`
	Placed    int     `json:"placed"`
	Committed bool    `json:"committed"`
	TotalGain float64 `json:"total_gain"`
	Steps     []struct {
		Point struct {
			X float64 `json:"x"`
			Y float64 `json:"y"`
		} `json:"point"`
		Heat         float64 `json:"heat"`
		RNN          []int   `json:"rnn"`
		MaxHeatAfter float64 `json:"max_heat_after"`
	} `json:"steps"`
}

// TestOptimalEndpoint checks the unconstrained argmax answer against the
// map's own Optimal() on both route forms, plus the stats counter.
func TestOptimalEndpoint(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 1)
	want, err := s.def().state().m.Optimal()
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	for _, path := range []string{"/v1/optimal", "/v1/maps/default/optimal"} {
		rec := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
		}
		var body optimalBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("decoding body: %v", err)
		}
		if body.K != 1 || body.Count != 1 || len(body.Regions) != 1 {
			t.Fatalf("GET %s: k=%d count=%d regions=%d, want 1/1/1", path, body.K, body.Count, len(body.Regions))
		}
		if body.Geometry != "slab" {
			t.Fatalf("geometry = %q, want slab on a default-built map", body.Geometry)
		}
		got := body.Regions[0]
		if got.Heat != want.Heat || got.Point.X != want.Point.X || got.Point.Y != want.Point.Y {
			t.Fatalf("GET %s: argmax (%v at %v,%v) != Map.Optimal (%v at %v)", path,
				got.Heat, got.Point.X, got.Point.Y, want.Heat, want.Point)
		}
		if got.Area <= 0 || got.Cells <= 0 || got.Bounds == nil {
			t.Fatalf("GET %s: missing geometry: area=%v cells=%d bounds=%v", path, got.Area, got.Cells, got.Bounds)
		}
	}
	var stats struct {
		Optimal struct {
			Queries int64 `json:"queries"`
		} `json:"optimal"`
	}
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if stats.Optimal.Queries != 2 {
		t.Fatalf("optimal.queries = %d, want 2", stats.Optimal.Queries)
	}
}

// TestOptimalTopKEndpoint checks ordering and the constraint parameters.
func TestOptimalTopKEndpoint(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 1)
	rec := get(t, s, "/v1/optimal?k=5")
	var body optimalBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if body.Count != 5 || len(body.Regions) != 5 {
		t.Fatalf("k=5 answered %d regions", len(body.Regions))
	}
	for i := 1; i < len(body.Regions); i++ {
		if body.Regions[i].Heat > body.Regions[i-1].Heat {
			t.Fatalf("heat not non-increasing at %d", i)
		}
	}
	// A bbox covering nothing filters everything: count 0, not an error.
	rec = get(t, s, "/v1/optimal?k=5&bbox=2000,2000,3000,3000")
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if rec.Code != http.StatusOK || body.Count != 0 || len(body.Regions) != 0 {
		t.Fatalf("empty bbox: code=%d count=%d, want 200/0", rec.Code, body.Count)
	}
	// min_dist excludes regions near existing facilities. Use the small
	// hand-built map so k never caps the counts being compared.
	small, err := New(Config{Map: handMap(t)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec = get(t, small, "/v1/optimal?k=1000&min_dist=30")
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("min_dist query = %d: %s", rec.Code, rec.Body.String())
	}
	unfiltered := get(t, small, "/v1/optimal?k=1000")
	var all optimalBody
	if err := json.Unmarshal(unfiltered.Body.Bytes(), &all); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if body.Count >= all.Count {
		t.Fatalf("min_dist=30 dropped nothing (%d vs %d)", body.Count, all.Count)
	}
}

// TestOptimizeDryRunAndCommit drives the greedy optimizer end to end: a dry
// run leaves the served map untouched, a commit publishes the placements as
// one version bump.
func TestOptimizeDryRunAndCommit(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 64, TileCacheSize: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	baseFacilities := s.def().state().m.NumFacilities()

	rec := do(t, s, http.MethodPost, "/v1/optimize?k=3", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /optimize = %d: %s", rec.Code, rec.Body.String())
	}
	var dry optimizeBody
	if err := json.Unmarshal(rec.Body.Bytes(), &dry); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if dry.Committed || dry.Placed != 3 || len(dry.Steps) != 3 {
		t.Fatalf("dry run: committed=%v placed=%d", dry.Committed, dry.Placed)
	}
	if dry.Version != 1 || s.Version() != 1 {
		t.Fatalf("dry run bumped the version: body %d, server %d", dry.Version, s.Version())
	}
	if got := s.def().state().m.NumFacilities(); got != baseFacilities {
		t.Fatalf("dry run changed facilities: %d -> %d", baseFacilities, got)
	}
	gain := 0.0
	for i, step := range dry.Steps {
		if step.Heat <= 0 {
			t.Fatalf("step %d has non-positive gain %v", i, step.Heat)
		}
		gain += step.Heat
	}
	if gain != dry.TotalGain {
		t.Fatalf("total_gain %v != sum of step heats %v", dry.TotalGain, gain)
	}

	// Commit: same deterministic greedy run, now published.
	rec = do(t, s, http.MethodPost, "/v1/optimize?k=3&commit=true", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /optimize commit = %d: %s", rec.Code, rec.Body.String())
	}
	var committed optimizeBody
	if err := json.Unmarshal(rec.Body.Bytes(), &committed); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if !committed.Committed || committed.Version != 2 || s.Version() != 2 {
		t.Fatalf("commit: committed=%v version=%d server=%d, want true/2/2", committed.Committed, committed.Version, s.Version())
	}
	if got := s.def().state().m.NumFacilities(); got != baseFacilities+3 {
		t.Fatalf("commit placed %d facilities, want 3", got-baseFacilities)
	}
	// The greedy steps defer their slab index patches; the published map
	// has its index, patched once when its state was built.
	if built, _, _ := s.def().state().m.SlabIndexStats(); !built {
		t.Fatal("the committed placement published a map without its slab index")
	}
	// The committed sequence equals the dry run's (deterministic greedy).
	for i := range dry.Steps {
		if dry.Steps[i].Point != committed.Steps[i].Point {
			t.Fatalf("step %d: dry %v != committed %v", i, dry.Steps[i].Point, committed.Steps[i].Point)
		}
	}
}

// TestOptimizeStopsWhenClientGoesAway: an /optimize whose request context is
// done stops before its first step. A cancelled commit releases the writer
// lock and neither publishes nor writes to the WAL.
func TestOptimizeStopsWhenClientGoesAway(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []string{"/v1/optimize?k=3&commit=true", "/v1/optimize?k=3"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil).WithContext(ctx))
		if rec.Code == http.StatusOK {
			t.Fatalf("POST %s with a cancelled context = 200: %s", path, rec.Body)
		}
	}
	if v := s.Version(); v != 1 {
		t.Fatalf("a cancelled commit bumped the version to %d", v)
	}
	if fi, err := os.Stat(snapshot.WALPath(dir, DefaultMapName)); err != nil || fi.Size() != int64(walFileHeaderLen(t)) {
		t.Fatalf("a cancelled commit wrote to the WAL (size %v, err %v)", fi, err)
	}
	// The writer lock was released: a live commit goes through.
	if rec := do(t, s, http.MethodPost, "/v1/optimize?k=1&commit=true", ""); rec.Code != http.StatusOK || s.Version() != 2 {
		t.Fatalf("commit after the cancelled one = %d, version %d: %s", rec.Code, s.Version(), rec.Body)
	}
}

// TestOptimizeRequiresMutableForCommit: dry runs are read-side analytics and
// work everywhere; commit is a mutation and needs -mutable.
func TestOptimizeRequiresMutableForCommit(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if rec := do(t, s, http.MethodPost, "/v1/optimize?k=1", ""); rec.Code != http.StatusOK {
		t.Fatalf("dry run on read-only server = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodPost, "/v1/optimize?k=1&commit=true", ""); rec.Code != http.StatusForbidden {
		t.Fatalf("commit on read-only server = %d, want 403", rec.Code)
	}
}

// TestDegenerateMapEndpoints drives a served map into the empty-arrangement
// state (a facility opened on top of every client) and checks every
// analytics endpoint answers explicitly instead of fabricating data.
func TestDegenerateMapEndpoints(t *testing.T) {
	t.Parallel()
	m, err := heatmap.Build(heatmap.Config{
		Clients:    []heatmap.Point{heatmap.Pt(5, 5), heatmap.Pt(9, 2)},
		Facilities: []heatmap.Point{heatmap.Pt(0, 0)},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s, err := New(Config{Map: m, Mutable: true, TileSize: 64, TileCacheSize: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"add_facilities":[{"x":5,"y":5},{"x":9,"y":2}]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/mutations = %d: %s", rec.Code, rec.Body.String())
	}
	if n := s.def().state().m.NumRegions(); n != 0 {
		t.Fatalf("map still has %d regions", n)
	}

	// /optimal and /optimize: 409, there is no optimal location.
	if rec := get(t, s, "/v1/optimal"); rec.Code != http.StatusConflict {
		t.Fatalf("GET /optimal on empty arrangement = %d, want 409: %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodPost, "/v1/optimize?k=2", ""); rec.Code != http.StatusConflict {
		t.Fatalf("POST /optimize on empty arrangement = %d, want 409: %s", rec.Code, rec.Body.String())
	}
	// /topk: explicit empty list with count 0.
	rec = get(t, s, "/v1/topk?k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /topk on empty arrangement = %d: %s", rec.Code, rec.Body.String())
	}
	var topk struct {
		Count   int               `json:"count"`
		Regions []json.RawMessage `json:"regions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &topk); err != nil {
		t.Fatalf("decoding topk: %v", err)
	}
	if topk.Count != 0 || len(topk.Regions) != 0 {
		t.Fatalf("topk on empty arrangement: count=%d regions=%d, want explicit empty", topk.Count, len(topk.Regions))
	}
	// /histogram: empty edges and counts, not an error.
	rec = get(t, s, "/v1/histogram")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /histogram on empty arrangement = %d", rec.Code)
	}
	// /heat still answers (the empty-set heat everywhere).
	if rec := get(t, s, "/v1/heat?x=5&y=5"); rec.Code != http.StatusOK {
		t.Fatalf("GET /heat on empty arrangement = %d", rec.Code)
	}
}

// TestTopKClampsToMaxRegions pins the k > NumRegions behavior: clamped to
// the available regions with the count made explicit, never an error and
// never padding.
func TestTopKClampsToMaxRegions(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), MaxRegions: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := get(t, s, "/v1/topk?k=100000")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /topk?k=100000 = %d", rec.Code)
	}
	var body struct {
		K       int               `json:"k"`
		Count   int               `json:"count"`
		Regions []json.RawMessage `json:"regions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if body.K != 4 || body.Count != len(body.Regions) || body.Count > 4 {
		t.Fatalf("k=%d count=%d regions=%d, want k clamped to 4 and an honest count", body.K, body.Count, len(body.Regions))
	}
}

// TestAnalyticsParamValidation is the satellite bugfix matrix: every
// malformed query parameter across the analytics endpoints must answer 400
// with a JSON error body — not 200 with garbage, not 500.
func TestAnalyticsParamValidation(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Paths are relative to the /v1 mount.
	cases := []struct {
		method, path string
	}{
		// /topk: k must be a positive integer.
		{http.MethodGet, "/topk?k=0"},
		{http.MethodGet, "/topk?k=-3"},
		{http.MethodGet, "/topk?k=abc"},
		{http.MethodGet, "/topk?k=2.5"},
		{http.MethodGet, "/topk?k=1e3"},
		// /regions: min must be present and finite.
		{http.MethodGet, "/regions"},
		{http.MethodGet, "/regions?min=NaN"},
		{http.MethodGet, "/regions?min=Inf"},
		{http.MethodGet, "/regions?min=-Inf"},
		{http.MethodGet, "/regions?min=abc"},
		// /histogram: bins must be an integer in [1, 1000].
		{http.MethodGet, "/histogram?bins=0"},
		{http.MethodGet, "/histogram?bins=-1"},
		{http.MethodGet, "/histogram?bins=1001"},
		{http.MethodGet, "/histogram?bins=ten"},
		{http.MethodGet, "/histogram?bins=3.5"},
		// /optimal: k positive, constraints finite and non-negative, bbox
		// well-formed.
		{http.MethodGet, "/optimal?k=0"},
		{http.MethodGet, "/optimal?k=junk"},
		{http.MethodGet, "/optimal?min_area=NaN"},
		{http.MethodGet, "/optimal?min_area=-1"},
		{http.MethodGet, "/optimal?min_dist=Inf"},
		{http.MethodGet, "/optimal?min_dist=x"},
		{http.MethodGet, "/optimal?bbox=1,2,3"},
		{http.MethodGet, "/optimal?bbox=1,2,3,4,5"},
		{http.MethodGet, "/optimal?bbox=a,b,c,d"},
		{http.MethodGet, "/optimal?bbox=5,5,1,9"},
		{http.MethodGet, "/optimal?bbox=1,2,3,NaN"},
		// /optimize: same constraint rules plus k cap and boolean commit.
		{http.MethodPost, "/optimize?k=0"},
		{http.MethodPost, "/optimize?k=65"},
		{http.MethodPost, "/optimize?commit=maybe"},
		{http.MethodPost, "/optimize?min_dist=-2"},
		{http.MethodPost, "/optimize?bbox=oops"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			rec := do(t, s, tc.method, "/v1"+tc.path, "")
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %s = %d, want 400 (body %s)", tc.method, tc.path, rec.Code, rec.Body.String())
			}
			var env v1Error
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s %s: non-JSON error body %q", tc.method, tc.path, rec.Body.String())
			}
			if env.Error.Code != codeInvalidArgument || env.Error.Message == "" {
				t.Fatalf("%s %s: want an invalid_argument envelope with a message, got %q", tc.method, tc.path, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s %s: Content-Type %q", tc.method, tc.path, ct)
			}
		})
	}

	// The valid edges of the same parameters stay accepted.
	for _, path := range []string{
		"/v1/topk?k=1",
		"/v1/regions?min=0",
		"/v1/histogram?bins=1",
		"/v1/histogram?bins=1000",
		"/v1/optimal?k=1&min_area=0&min_dist=0",
		"/v1/optimal?bbox=0,0,100,100",
	} {
		if rec := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200: %s", path, rec.Code, rec.Body.String())
		}
	}
}
