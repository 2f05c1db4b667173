package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
)

// do sends one request with an optional JSON body.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// handMap builds a deterministic map by hand: a hot five-client cluster near
// (10, 10) and lone clients near the other corners, so a mutation in one
// corner dirties only that corner, never the map bounds or the heat range.
func handMap(t *testing.T) *heatmap.Map {
	t.Helper()
	facilities := []heatmap.Point{
		heatmap.Pt(10, 10), heatmap.Pt(90, 10), heatmap.Pt(10, 90), heatmap.Pt(90, 90), heatmap.Pt(50, 50),
	}
	clients := []heatmap.Point{
		// The cluster: all five within distance ~3 of facility 0, so their
		// NN-circles overlap heavily (max heat 5 lives here).
		heatmap.Pt(7, 7), heatmap.Pt(13, 7), heatmap.Pt(7, 13), heatmap.Pt(13, 13), heatmap.Pt(10, 13),
		// Wide corner circles that pin the map bounds well outside any later
		// small addition.
		heatmap.Pt(97, 3), heatmap.Pt(3, 97), heatmap.Pt(95, 95), heatmap.Pt(50, 58),
	}
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: heatmap.L2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// TestMutationRequiresMutable asserts the read-only default rejects every
// kind of mutation op with 403, on both forms of the write endpoint.
func TestMutationRequiresMutable(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/mutations", "/v1/maps/default/mutations"} {
		for _, op := range []string{
			`{"add_clients":[{"x":1,"y":1}]}`,
			`{"remove_clients":[0]}`,
			`{"add_facilities":[{"x":1,"y":1}]}`,
			`{"remove_facilities":[0]}`,
		} {
			rec := do(t, s, http.MethodPost, path, `{"ops":[`+op+`]}`)
			if rec.Code != http.StatusForbidden {
				t.Errorf("POST %s %s = %d on a read-only server, want 403", path, op, rec.Code)
			}
		}
	}
}

// TestMutationRejectsIndexContextMeasure asserts a per-map immutability:
// a capacity-measure map on a mutable server answers 409 with the reason,
// not a 500 — the case a snapshot-restored capacity map would hit.
func TestMutationRejectsIndexContextMeasure(t *testing.T) {
	t.Parallel()
	clients := []heatmap.Point{heatmap.Pt(1, 1), heatmap.Pt(5, 5), heatmap.Pt(9, 1)}
	facilities := []heatmap.Point{heatmap.Pt(0, 0), heatmap.Pt(10, 10)}
	assignment, err := heatmap.NearestAssignment(clients, facilities, heatmap.L2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := heatmap.Build(heatmap.Config{
		Clients: clients, Facilities: facilities, Metric: heatmap.L2,
		Measure: heatmap.Capacity(assignment, []float64{2, 2}, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Map: m, Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":2,"y":2}]}]}`)
	if rec.Code != http.StatusConflict {
		t.Errorf("mutation of a capacity-measure map = %d, want 409 (body %s)", rec.Code, rec.Body)
	}
	if got := s.Version(); got != 1 {
		t.Errorf("rejected mutation bumped the version to %d", got)
	}
}

// TestMutationBadRequests covers the 4xx paths of the write endpoint for
// one-op requests: each is refused whole, with no version bump.
func TestMutationBadRequests(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, body string }{
		{"post malformed", "{"},
		{"post no points", `{"ops":[{"add_clients":[]}]}`},
		{"post over batch", `{"ops":[{"add_clients":[{"x":1,"y":1},{"x":2,"y":2},{"x":3,"y":3},{"x":4,"y":4},{"x":5,"y":5}]}]}`},
		{"delete no indexes", `{"ops":[{"remove_clients":[]}]}`},
		{"delete out of range", `{"ops":[{"remove_clients":[99]}]}`},
		{"delete facility out of range", `{"ops":[{"remove_facilities":[-1]}]}`},
		{"unknown field", `{"ops":[{"pts":[{"x":1,"y":1}]}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, http.MethodPost, "/v1/mutations", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("POST /v1/mutations %s = %d, want 400 (body %s)", tc.body, rec.Code, rec.Body)
			}
		})
	}
	if got := s.Version(); got != 1 {
		t.Errorf("rejected mutations bumped the version to %d", got)
	}
}

// TestMutationDirtyRectCache is the dirty-rect invalidation contract: after a
// localized update, tiles outside the dirty rectangle survive the swap (same
// bytes, same ETag, no re-render) while tiles covering the update re-render.
func TestMutationDirtyRectCache(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32, TileCacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	st := s.def().state()

	// Pick, at zoom 2, the tile containing the hot cluster (far from the
	// update) and the tile containing the update site near (90, 90).
	farTile, nearTile := "", ""
	update := heatmap.Pt(91, 91)
	cluster := heatmap.Pt(10, 10)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			b := st.grid.tileBounds(2, x, y)
			if b.Contains(cluster) && farTile == "" {
				farTile = fmt.Sprintf("/v1/tiles/2/%d/%d.png", x, y)
			}
			if b.Contains(update) && nearTile == "" {
				nearTile = fmt.Sprintf("/v1/tiles/2/%d/%d.png", x, y)
			}
		}
	}
	if farTile == "" || nearTile == "" || farTile == nearTile {
		t.Fatalf("bad tile choice: far %q near %q", farTile, nearTile)
	}

	farCold := do(t, s, http.MethodGet, farTile, "")
	nearCold := do(t, s, http.MethodGet, nearTile, "")
	if farCold.Code != 200 || nearCold.Code != 200 {
		t.Fatalf("cold tiles: %d, %d", farCold.Code, nearCold.Code)
	}
	if got := s.RenderCalls(); got != 2 {
		t.Fatalf("after two cold tiles RenderCalls = %d", got)
	}

	// Add one client near facility (90, 90): a small NN-circle wholly inside
	// the old bounds, far cooler than the cluster, so neither the tile grid
	// nor the normalization range moves.
	rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":91,"y":91}]}]}`)
	if rec.Code != 200 {
		t.Fatalf("POST /v1/mutations = %d (body %s)", rec.Code, rec.Body)
	}
	var resp mutationsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding mutation response: %v", err)
	}
	if resp.Version != 2 || resp.Clients != 10 {
		t.Fatalf("mutation response %+v, want version 2 and 10 clients", resp)
	}
	if resp.Rebuilt {
		t.Fatalf("a one-client corner update should not trigger a full rebuild: %+v", resp)
	}
	// The server applied exactly this one-delta batch to st's map; its stats
	// show the update stayed local.
	_, stats, err := st.m.ApplyDeltaBatch([]heatmap.Delta{{AddClients: []heatmap.Point{update}}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsReswept >= stats.EventsTotal {
		t.Fatalf("localized update reswept everything: %+v", stats)
	}
	if !stats.DirtyRect.Contains(update) || stats.DirtyRect.Contains(cluster) {
		t.Fatalf("dirty rect %v should cover the update site but not the cluster", stats.DirtyRect)
	}
	if ns := s.def().state(); ns.grid != st.grid || ns.heatLo != st.heatLo || ns.heatHi != st.heatHi {
		t.Fatalf("grid or heat range moved; the retention assertions below would be vacuous")
	}

	// The far tile survived the swap: identical bytes, no new render.
	farWarm := do(t, s, http.MethodGet, farTile, "")
	if farWarm.Code != 200 || !bytes.Equal(farWarm.Body.Bytes(), farCold.Body.Bytes()) {
		t.Fatalf("far tile changed across an unrelated update")
	}
	if got := s.RenderCalls(); got != 2 {
		t.Errorf("far tile re-rendered after unrelated update: RenderCalls = %d", got)
	}
	req := httptest.NewRequest(http.MethodGet, farTile, nil)
	req.Header.Set("If-None-Match", farCold.Header().Get("ETag"))
	cond := httptest.NewRecorder()
	s.ServeHTTP(cond, req)
	if cond.Code != http.StatusNotModified {
		t.Errorf("conditional far tile = %d, want 304", cond.Code)
	}

	// The near tile was invalidated: it re-renders and its bytes change.
	nearWarm := do(t, s, http.MethodGet, nearTile, "")
	if nearWarm.Code != 200 {
		t.Fatalf("near tile = %d", nearWarm.Code)
	}
	if got := s.RenderCalls(); got != 3 {
		t.Errorf("near tile should re-render: RenderCalls = %d, want 3", got)
	}
	if bytes.Equal(nearWarm.Body.Bytes(), nearCold.Body.Bytes()) {
		t.Errorf("near tile bytes unchanged although a client was added inside it")
	}
}

// TestMutationMatchesRebuildThroughAPI asserts the served answers after a
// sequence of mutations equal a server built from scratch on the final sets.
func TestMutationMatchesRebuildThroughAPI(t *testing.T) {
	t.Parallel()
	ds := dataset.Uniform(400, geom.Rect{MaxX: 1000, MaxY: 1000}, 99)
	clients, facilities := ds.SampleClientsFacilities(120, 40, 3)
	build := func(cs, fs []heatmap.Point) *Server {
		m, err := heatmap.Build(heatmap.Config{Clients: cs, Facilities: fs, Metric: heatmap.L2})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		s, err := New(Config{Map: m, Mutable: true, TileSize: 32})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}
	s := build(clients, facilities)

	// Mirror the documented swap-remove semantics while mutating via HTTP.
	cs := append([]heatmap.Point(nil), clients...)
	fs := append([]heatmap.Point(nil), facilities...)
	if rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":250,"y":250},{"x":700,"y":300}]}]}`); rec.Code != 200 {
		t.Fatalf("add clients: %d %s", rec.Code, rec.Body)
	}
	cs = append(cs, heatmap.Pt(250, 250), heatmap.Pt(700, 300))
	if rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"remove_clients":[5]}]}`); rec.Code != 200 {
		t.Fatalf("remove client: %d %s", rec.Code, rec.Body)
	}
	cs[5] = cs[len(cs)-1]
	cs = cs[:len(cs)-1]
	if rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"add_facilities":[{"x":500,"y":480}]}]}`); rec.Code != 200 {
		t.Fatalf("add facility: %d %s", rec.Code, rec.Body)
	}
	fs = append(fs, heatmap.Pt(500, 480))
	if rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"remove_facilities":[2]}]}`); rec.Code != 200 {
		t.Fatalf("remove facility: %d %s", rec.Code, rec.Body)
	}
	fs[2] = fs[len(fs)-1]
	fs = fs[:len(fs)-1]

	if got := s.Version(); got != 5 {
		t.Fatalf("version = %d after 4 mutations, want 5", got)
	}
	fresh := build(cs, fs)
	for _, path := range []string{
		"/v1/tiles/0/0/0.png", "/v1/tiles/2/1/1.png", "/v1/tiles/3/5/2.png",
		"/v1/heat?x=500&y=500", "/v1/topk?k=5", "/v1/histogram?bins=10",
	} {
		mu := do(t, s, http.MethodGet, path, "")
		fr := do(t, fresh, http.MethodGet, path, "")
		if mu.Code != 200 || fr.Code != 200 {
			t.Fatalf("GET %s: %d (mutated) vs %d (fresh)", path, mu.Code, fr.Code)
		}
		if !bytes.Equal(mu.Body.Bytes(), fr.Body.Bytes()) {
			t.Errorf("GET %s differs between the mutated server and a from-scratch one", path)
		}
	}
}

// TestConcurrentReadsAndWrites hammers a mutable server with interleaved
// tile, batch-heat and stats reads while a writer applies updates: every
// response must be well-formed (parseable PNG / JSON), the reported version
// must increase monotonically, and the run must be race-clean under -race.
func TestConcurrentReadsAndWrites(t *testing.T) {
	t.Parallel()
	ds := dataset.Uniform(300, geom.Rect{MaxX: 1000, MaxY: 1000}, 7)
	clients, facilities := ds.SampleClientsFacilities(90, 30, 11)
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: heatmap.LInf})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Map: m, Mutable: true, TileSize: 16, TileCacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	writes, readers, reads := 24, 4, 60
	if testing.Short() {
		writes, readers, reads = 8, 2, 20
	}

	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: alternate adding a client at a random in-bounds point and
	// removing client 0 (always valid; the set size stays within ±1).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(123))
		for i := 0; i < writes; i++ {
			op := `{"remove_clients":[0]}`
			if i%2 == 0 {
				op = fmt.Sprintf(`{"add_clients":[{"x":%f,"y":%f}]}`, rng.Float64()*1000, rng.Float64()*1000)
			}
			resp, err := ts.Client().Post(ts.URL+"/v1/mutations", "application/json", strings.NewReader(`{"ops":[`+op+`]}`))
			if err != nil {
				fail("write %d: %v", i, err)
				return
			}
			var mr mutationsResponse
			if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
				fail("write %d: decoding: %v", i, err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				fail("write %d: status %d", i, resp.StatusCode)
				return
			}
			if want := uint64(i + 2); mr.Version != want {
				fail("write %d: version %d, want %d", i, mr.Version, want)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			lastVersion := uint64(0)
			for i := 0; i < reads; i++ {
				select {
				case <-stop:
					if i > 0 {
						return
					}
				default:
				}
				switch i % 3 {
				case 0: // tile: must always be a parseable PNG
					z := rng.Intn(3)
					path := fmt.Sprintf("/v1/tiles/%d/%d/%d.png", z, rng.Intn(1<<z), rng.Intn(1<<z))
					resp, err := ts.Client().Get(ts.URL + path)
					if err != nil {
						fail("reader %d: %v", r, err)
						return
					}
					if resp.StatusCode != 200 {
						fail("reader %d: GET %s = %d", r, path, resp.StatusCode)
					} else if _, err := png.Decode(resp.Body); err != nil {
						fail("reader %d: torn tile %s: %v", r, path, err)
					}
					resp.Body.Close()
				case 1: // batch heat
					body := fmt.Sprintf(`{"points":[{"x":%f,"y":%f},{"x":%f,"y":%f}]}`,
						rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000)
					resp, err := ts.Client().Post(ts.URL+"/v1/heat/batch", "application/json", strings.NewReader(body))
					if err != nil {
						fail("reader %d: %v", r, err)
						return
					}
					var out struct {
						Results []heatResponse `json:"results"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Results) != 2 {
						fail("reader %d: torn batch response: %v", r, err)
					}
					resp.Body.Close()
				default: // stats: version must be monotone from any one reader's view
					resp, err := ts.Client().Get(ts.URL + "/v1/stats")
					if err != nil {
						fail("reader %d: %v", r, err)
						return
					}
					var stats statsResponse
					if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
						fail("reader %d: decoding stats: %v", r, err)
					}
					resp.Body.Close()
					if stats.Version < lastVersion {
						fail("reader %d: version went backwards: %d after %d", r, stats.Version, lastVersion)
					}
					lastVersion = stats.Version
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := s.Version(), uint64(writes+1); got != want {
		t.Errorf("final version = %d, want %d", got, want)
	}
}
