package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/dataset"
)

// buildMap computes a small deterministic heat map.
func buildMap(t *testing.T, workers int) *heatmap.Map {
	t.Helper()
	ds := dataset.Uniform(600, datasetBounds(), 42)
	clients, facilities := ds.SampleClientsFacilities(400, 120, 7)
	m, err := heatmap.Build(heatmap.Config{
		Clients:    clients,
		Facilities: facilities,
		Metric:     heatmap.L2,
		Workers:    workers,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func datasetBounds() (r heatmap.Rect) {
	r.MaxX, r.MaxY = 1000, 1000
	return r
}

func newTestServer(t *testing.T, workers int) *Server {
	t.Helper()
	s, err := New(Config{Map: buildMap(t, workers), TileSize: 64, TileCacheSize: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 1)
	rec := get(t, s, "/v1/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", rec.Code)
	}
	var body struct {
		Status  string `json:"status"`
		Regions int    `json:"regions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if body.Status != "ok" || body.Regions <= 0 {
		t.Fatalf("body = %+v, want status ok and regions > 0", body)
	}
}

// TestTileByteDeterminism asserts the acceptance criterion: the same tile is
// byte-identical no matter how many workers swept the map.
func TestTileByteDeterminism(t *testing.T) {
	t.Parallel()
	s1 := newTestServer(t, 1)
	s4 := newTestServer(t, 4)
	paths := []string{
		"/v1/tiles/0/0/0.png",
		"/v1/tiles/1/0/1.png",
		"/v1/tiles/2/1/2.png",
		"/v1/tiles/3/5/3.png",
	}
	for _, path := range paths {
		r1 := get(t, s1, path)
		r4 := get(t, s4, path)
		if r1.Code != http.StatusOK || r4.Code != http.StatusOK {
			t.Fatalf("GET %s = %d (workers=1), %d (workers=4), want 200", path, r1.Code, r4.Code)
		}
		if ct := r1.Header().Get("Content-Type"); ct != "image/png" {
			t.Fatalf("GET %s Content-Type = %q, want image/png", path, ct)
		}
		if !bytes.Equal(r1.Body.Bytes(), r4.Body.Bytes()) {
			t.Errorf("GET %s differs between workers=1 and workers=4", path)
		}
	}
}

// TestTileCacheWarm asserts that a warm tile request does not re-render.
func TestTileCacheWarm(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 1)
	const path = "/v1/tiles/2/1/1.png"

	cold := get(t, s, path)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold GET %s = %d, want 200", path, cold.Code)
	}
	if got := s.RenderCalls(); got != 1 {
		t.Fatalf("after cold request RenderCalls = %d, want 1", got)
	}

	warm := get(t, s, path)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm GET %s = %d, want 200", path, warm.Code)
	}
	if got := s.RenderCalls(); got != 1 {
		t.Errorf("warm request re-rendered: RenderCalls = %d, want 1", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Errorf("warm tile bytes differ from cold tile bytes")
	}
	hits, misses, _ := s.def().cache.stats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache hits=%d misses=%d, want 1 and 1", hits, misses)
	}

	// A conditional request with the tile's ETag is answered 304.
	etag := cold.Header().Get("ETag")
	if etag == "" {
		t.Fatal("tile response has no ETag")
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("If-None-Match", etag)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Errorf("conditional GET = %d, want 304", rec.Code)
	}
}

// TestTileSingleFlight asserts that concurrent cold requests for one tile
// render it exactly once.
func TestTileSingleFlight(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 1)
	const path = "/v1/tiles/3/2/4.png"
	const n = 16
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := get(t, s, path)
			if rec.Code == http.StatusOK {
				bodies[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	if got := s.RenderCalls(); got != 1 {
		t.Errorf("%d concurrent requests rendered %d times, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
}

// TestBatchMatchesHeatAt asserts POST /heat/batch agrees with Map.HeatAt.
func TestBatchMatchesHeatAt(t *testing.T) {
	t.Parallel()
	m := buildMap(t, 2)
	s, err := New(Config{Map: m})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	points := []heatmap.Point{
		heatmap.Pt(500, 500), heatmap.Pt(10, 990), heatmap.Pt(250.5, 730.25),
		heatmap.Pt(-50, -50), // outside every circle: empty RNN set
		heatmap.Pt(333, 333),
	}
	var payload struct {
		Points []map[string]float64 `json:"points"`
	}
	for _, p := range points {
		payload.Points = append(payload.Points, map[string]float64{"x": p.X, "y": p.Y})
	}
	body, _ := json.Marshal(payload)
	req := httptest.NewRequest(http.MethodPost, "/v1/heat/batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /heat/batch = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
	var resp struct {
		Results []struct {
			X    float64 `json:"x"`
			Y    float64 `json:"y"`
			Heat float64 `json:"heat"`
			RNN  []int   `json:"rnn"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if len(resp.Results) != len(points) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(points))
	}
	for i, p := range points {
		wantHeat, wantRNN := m.HeatAt(p)
		got := resp.Results[i]
		if got.Heat != wantHeat {
			t.Errorf("point %v: heat = %v, want %v", p, got.Heat, wantHeat)
		}
		if len(got.RNN) != len(wantRNN) {
			t.Errorf("point %v: RNN = %v, want %v", p, got.RNN, wantRNN)
			continue
		}
		for j := range wantRNN {
			if got.RNN[j] != wantRNN[j] {
				t.Errorf("point %v: RNN = %v, want %v", p, got.RNN, wantRNN)
				break
			}
		}
	}
}

// TestHeatMatchesHeatAt asserts GET /heat agrees with Map.HeatAt.
func TestHeatMatchesHeatAt(t *testing.T) {
	t.Parallel()
	m := buildMap(t, 1)
	s, err := New(Config{Map: m})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := heatmap.Pt(421.5, 610.25)
	rec := get(t, s, fmt.Sprintf("/v1/heat?x=%v&y=%v", p.X, p.Y))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /heat = %d, want 200", rec.Code)
	}
	var got struct {
		Heat float64 `json:"heat"`
		RNN  []int   `json:"rnn"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	wantHeat, wantRNN := m.HeatAt(p)
	if got.Heat != wantHeat || len(got.RNN) != len(wantRNN) {
		t.Fatalf("heat=%v rnn=%v, want heat=%v rnn=%v", got.Heat, got.RNN, wantHeat, wantRNN)
	}
}

func TestTopKAndRegions(t *testing.T) {
	t.Parallel()
	m := buildMap(t, 1)
	s, err := New(Config{Map: m})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := get(t, s, "/v1/topk?k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /topk = %d, want 200", rec.Code)
	}
	var topk struct {
		K       int `json:"k"`
		Regions []struct {
			Heat float64 `json:"heat"`
		} `json:"regions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &topk); err != nil {
		t.Fatalf("decoding topk: %v", err)
	}
	want := m.TopK(3)
	if len(topk.Regions) != len(want) {
		t.Fatalf("topk returned %d regions, want %d", len(topk.Regions), len(want))
	}
	for i := range want {
		if topk.Regions[i].Heat != want[i].Heat {
			t.Errorf("topk[%d].Heat = %v, want %v", i, topk.Regions[i].Heat, want[i].Heat)
		}
	}

	maxHeat, _ := m.MaxHeat()
	rec = get(t, s, fmt.Sprintf("/v1/regions?min=%v", maxHeat))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /regions = %d, want 200", rec.Code)
	}
	var regions struct {
		Total   int               `json:"total"`
		Regions []json.RawMessage `json:"regions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &regions); err != nil {
		t.Fatalf("decoding regions: %v", err)
	}
	if wantN := len(m.AboveThreshold(maxHeat)); regions.Total != wantN || len(regions.Regions) != wantN {
		t.Errorf("regions total=%d len=%d, want %d", regions.Total, len(regions.Regions), wantN)
	}
}

// TestBadRequests covers the 4xx paths.
func TestBadRequests(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 1)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"heat missing x", http.MethodGet, "/v1/heat?y=2", "", http.StatusBadRequest},
		{"heat malformed x", http.MethodGet, "/v1/heat?x=abc&y=2", "", http.StatusBadRequest},
		{"heat non-finite x", http.MethodGet, "/v1/heat?x=NaN&y=2", "", http.StatusBadRequest},
		{"batch malformed json", http.MethodPost, "/v1/heat/batch", "{", http.StatusBadRequest},
		{"batch empty points", http.MethodPost, "/v1/heat/batch", `{"points":[]}`, http.StatusBadRequest},
		{"batch unknown field", http.MethodPost, "/v1/heat/batch", `{"pts":[{"x":1,"y":2}]}`, http.StatusBadRequest},
		{"batch wrong method", http.MethodGet, "/v1/heat/batch", "", http.StatusMethodNotAllowed},
		{"topk zero k", http.MethodGet, "/v1/topk?k=0", "", http.StatusBadRequest},
		{"topk malformed k", http.MethodGet, "/v1/topk?k=five", "", http.StatusBadRequest},
		{"regions missing min", http.MethodGet, "/v1/regions", "", http.StatusBadRequest},
		{"regions malformed min", http.MethodGet, "/v1/regions?min=hot", "", http.StatusBadRequest},
		{"tile malformed z", http.MethodGet, "/v1/tiles/a/0/0.png", "", http.StatusBadRequest},
		{"tile malformed y", http.MethodGet, "/v1/tiles/0/0/zero.png", "", http.StatusBadRequest},
		{"tile missing extension", http.MethodGet, "/v1/tiles/0/0/0", "", http.StatusBadRequest},
		{"tile negative zoom", http.MethodGet, "/v1/tiles/-1/0/0.png", "", http.StatusNotFound},
		{"tile x out of range", http.MethodGet, "/v1/tiles/1/2/0.png", "", http.StatusNotFound},
		{"tile zoom too deep", http.MethodGet, fmt.Sprintf("/v1/tiles/%d/0/0.png", MaxZoom+1), "", http.StatusNotFound},
		{"unknown path", http.MethodGet, "/v1/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req := httptest.NewRequest(tc.method, tc.path, body)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Errorf("%s %s = %d, want %d (body %s)", tc.method, tc.path, rec.Code, tc.want, rec.Body)
			}
		})
	}
}

// TestStatsCounters asserts /stats reflects tile cache activity.
func TestStatsCounters(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 1)
	get(t, s, "/v1/tiles/1/0/0.png")
	get(t, s, "/v1/tiles/1/0/0.png")
	rec := get(t, s, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats = %d, want 200", rec.Code)
	}
	var stats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if stats.Measure != "size" {
		t.Errorf("stats.Measure = %q, want size", stats.Measure)
	}
	if stats.Tiles.CacheMisses != 1 || stats.Tiles.CacheHits != 1 || stats.Tiles.Renders != 1 {
		t.Errorf("tile stats = %+v, want 1 miss, 1 hit, 1 render", stats.Tiles)
	}
	if stats.Regions <= 0 || stats.MaxHeat <= 0 {
		t.Errorf("stats = %+v, want positive regions and max heat", stats)
	}
}

// TestStatsTileTimes asserts /stats sums where tile misses spend their
// time: after N misses renders is N and the rasterize and encode sums are
// positive, and cache hits add to none of the three.
func TestStatsTileTimes(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, 1)
	tiles := func() tileStats {
		t.Helper()
		var stats statsResponse
		if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
			t.Fatalf("decoding stats: %v", err)
		}
		return stats.Tiles
	}
	const n = 3
	for x := 0; x < n; x++ {
		if rec := get(t, s, fmt.Sprintf("/v1/tiles/2/%d/1.png", x)); rec.Code != http.StatusOK {
			t.Fatalf("tile %d = %d", x, rec.Code)
		}
	}
	missed := tiles()
	if missed.Renders != n || !(missed.RenderMS > 0) || !(missed.EncodeMS > 0) {
		t.Fatalf("after %d misses tile stats = %+v, want %d renders and positive render_ms and encode_ms", n, missed, n)
	}
	for x := 0; x < n; x++ {
		get(t, s, fmt.Sprintf("/v1/tiles/2/%d/1.png", x))
	}
	hit := tiles()
	if hit.CacheHits != missed.CacheHits+n {
		t.Fatalf("cache hits %d -> %d, want %d more", missed.CacheHits, hit.CacheHits, n)
	}
	if hit.Renders != missed.Renders || hit.RenderMS != missed.RenderMS || hit.EncodeMS != missed.EncodeMS {
		t.Fatalf("cache hits moved the render stats: %+v -> %+v", missed, hit)
	}
}

// TestTileCacheEviction asserts the LRU stays within capacity.
func TestTileCacheEviction(t *testing.T) {
	t.Parallel()
	m := buildMap(t, 1)
	s, err := New(Config{Map: m, TileSize: 32, TileCacheSize: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for x := 0; x < 8; x++ {
		rec := get(t, s, fmt.Sprintf("/v1/tiles/3/%d/0.png", x))
		if rec.Code != http.StatusOK {
			t.Fatalf("tile %d = %d, want 200", x, rec.Code)
		}
	}
	if got := s.def().cache.len(); got != 4 {
		t.Errorf("cache holds %d tiles, want capacity 4", got)
	}
	// The oldest tile was evicted: re-requesting it renders again.
	before := s.RenderCalls()
	get(t, s, "/v1/tiles/3/0/0.png")
	if got := s.RenderCalls(); got != before+1 {
		t.Errorf("evicted tile did not re-render: RenderCalls %d -> %d", before, got)
	}
}

// TestHistogram asserts GET /histogram agrees with Map.HeatHistogram.
func TestHistogram(t *testing.T) {
	t.Parallel()
	m := buildMap(t, 1)
	s, err := New(Config{Map: m})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := get(t, s, "/v1/histogram?bins=8")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /histogram = %d, want 200", rec.Code)
	}
	var got struct {
		Bins   int       `json:"bins"`
		Edges  []float64 `json:"edges"`
		Counts []int     `json:"counts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decoding histogram: %v", err)
	}
	wantEdges, wantCounts := m.HeatHistogram(8)
	if got.Bins != 8 || len(got.Edges) != len(wantEdges) || len(got.Counts) != len(wantCounts) {
		t.Fatalf("histogram shape = %d edges, %d counts; want %d and %d",
			len(got.Edges), len(got.Counts), len(wantEdges), len(wantCounts))
	}
	for i := range wantCounts {
		if got.Counts[i] != wantCounts[i] {
			t.Errorf("count[%d] = %d, want %d", i, got.Counts[i], wantCounts[i])
		}
	}
	for _, bad := range []string{"/v1/histogram?bins=0", "/v1/histogram?bins=1001", "/v1/histogram?bins=many"} {
		if rec := get(t, s, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", bad, rec.Code)
		}
	}
}
