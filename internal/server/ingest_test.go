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
	"time"
)

func decodeMutations(t *testing.T, rec *httptest.ResponseRecorder) mutationsResponse {
	t.Helper()
	var resp mutationsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding mutations response %q: %v", rec.Body, err)
	}
	return resp
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMutationsEndpoint covers the happy path of POST /mutations: a multi-op
// batch lands atomically under a single version bump, and the named form
// behaves like the alias.
func TestMutationsEndpoint(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"ops":[
		{"add_clients":[{"x":20,"y":20},{"x":80,"y":20}]},
		{"remove_clients":[3],"add_facilities":[{"x":40,"y":60}]},
		{"remove_facilities":[5]}
	]}`
	rec := do(t, s, http.MethodPost, "/v1/mutations", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /mutations = %d (body %s)", rec.Code, rec.Body)
	}
	resp := decodeMutations(t, rec)
	// handMap: 9 clients, 5 facilities. Net: +2 -1 clients, +1 -1 facilities.
	if resp.Version != 2 || resp.Ops != 5 || resp.Clients != 10 || resp.Facilities != 5 {
		t.Fatalf("response %+v, want version 2, 5 ops, 10 clients, 5 facilities", resp)
	}
	if resp.GroupBatches != 1 {
		t.Fatalf("lone batch reports %d group batches", resp.GroupBatches)
	}
	if s.Version() != 2 {
		t.Fatalf("one batch moved the version to %d, want 2", s.Version())
	}
	if rec := do(t, s, http.MethodPost, "/v1/maps/default/mutations", `{"ops":[{"add_clients":[{"x":50,"y":50}]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("named form = %d (body %s)", rec.Code, rec.Body)
	}
	if s.Version() != 3 {
		t.Fatalf("version = %d after two batches, want 3", s.Version())
	}
	st := do(t, s, http.MethodGet, "/v1/stats", "")
	var stats statsResponse
	if err := json.Unmarshal(st.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if in := stats.Ingest; in.BatchesGathered != 2 || in.BatchesCommitted != 2 || in.OpsCommitted != 6 || in.GroupCommits != 2 {
		t.Fatalf("ingest stats %+v, want 2 batches gathered and committed / 6 ops / 2 group commits", stats.Ingest)
	}
	if stats.Ingest.QueueCap <= 0 || stats.Ingest.CoalesceOps <= 0 {
		t.Fatalf("ingest stats %+v missing configuration", stats.Ingest)
	}
}

// TestMutationsValidation covers the refusal paths: read-only servers,
// malformed bodies, empty batches, and — via the writer's prevalidation —
// out-of-range indexes, which must leave the map untouched.
func TestMutationsValidation(t *testing.T) {
	t.Parallel()
	ro, err := New(Config{Map: handMap(t)})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, ro, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":1,"y":1}]}]}`); rec.Code != http.StatusForbidden {
		t.Errorf("read-only POST /mutations = %d, want 403", rec.Code)
	}

	s, err := New(Config{Map: handMap(t), Mutable: true, MaxBatch: 6})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed", "{", http.StatusBadRequest},
		{"no ops", `{"ops":[]}`, http.StatusBadRequest},
		{"all empty ops", `{"ops":[{},{}]}`, http.StatusBadRequest},
		{"unknown field", `{"operations":[]}`, http.StatusBadRequest},
		{"client index out of range", `{"ops":[{"remove_clients":[99]}]}`, http.StatusBadRequest},
		{"negative facility index", `{"ops":[{"add_clients":[{"x":1,"y":1}]},{"remove_facilities":[-1]}]}`, http.StatusBadRequest},
		{"index valid only mid-batch", `{"ops":[{"remove_clients":[8,8]}]}`, http.StatusBadRequest},
		{"over op budget", `{"ops":[{"add_clients":[{"x":1,"y":1},{"x":2,"y":2},{"x":3,"y":3},{"x":4,"y":4}]},{"remove_clients":[0,1,2]}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, http.MethodPost, "/v1/mutations", tc.body)
			if rec.Code != tc.want {
				t.Errorf("POST /mutations %s = %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body)
			}
		})
	}
	if s.Version() != 1 {
		t.Errorf("rejected batches bumped the version to %d", s.Version())
	}
	// A batch whose removal index is only valid because an earlier op of the
	// same batch added the point: indexes are sequential across the array.
	rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"add_facilities":[{"x":70,"y":30}]},{"remove_facilities":[5]}]}`)
	if rec.Code != http.StatusOK {
		t.Errorf("add-then-remove batch = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
}

// TestMutationsMatchSequentialThroughAPI: one server ingests a batch through
// POST /mutations, another applies the same ops as four one-op batches; every
// read answer — tile bytes included — must be identical.
func TestMutationsMatchSequentialThroughAPI(t *testing.T) {
	t.Parallel()
	build := func() *Server {
		s, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	batched, sequential := build(), build()

	rec := do(t, batched, http.MethodPost, "/v1/mutations", `{"ops":[
		{"add_clients":[{"x":25,"y":25},{"x":75,"y":70}]},
		{"remove_clients":[4]},
		{"add_facilities":[{"x":30,"y":70}]},
		{"remove_facilities":[2]}
	]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batched ingest = %d (body %s)", rec.Code, rec.Body)
	}
	for _, op := range []string{
		`{"add_clients":[{"x":25,"y":25},{"x":75,"y":70}]}`,
		`{"remove_clients":[4]}`,
		`{"add_facilities":[{"x":30,"y":70}]}`,
		`{"remove_facilities":[2]}`,
	} {
		if rec := do(t, sequential, http.MethodPost, "/v1/mutations", `{"ops":[`+op+`]}`); rec.Code != http.StatusOK {
			t.Fatalf("one-op batch %s = %d (body %s)", op, rec.Code, rec.Body)
		}
	}
	for _, path := range []string{
		"/v1/tiles/0/0/0.png", "/v1/tiles/2/0/0.png", "/v1/tiles/2/3/3.png",
		"/v1/heat?x=10&y=10", "/v1/heat?x=75&y=70", "/v1/topk?k=5", "/v1/histogram?bins=8",
	} {
		b := do(t, batched, http.MethodGet, path, "")
		q := do(t, sequential, http.MethodGet, path, "")
		if b.Code != 200 || q.Code != 200 {
			t.Fatalf("GET %s: %d (batched) vs %d (sequential)", path, b.Code, q.Code)
		}
		if !bytes.Equal(b.Body.Bytes(), q.Body.Bytes()) {
			t.Errorf("GET %s differs between batched and sequential ingestion", path)
		}
	}
}

// TestPublishDurableBeforeVisible fails the WAL under a durable server:
// both writers that publish through it — a mutations batch and a committed
// optimizer run — answer 503 and leave the served map, its version, its
// snapshot-dirty mark and its cached tiles as they were.
func TestPublishDurableBeforeVisible(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 32, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const tile = "/v1/tiles/0/0/0.png"
	cold := do(t, s, http.MethodGet, tile, "")
	if cold.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", tile, cold.Code)
	}
	inst := s.def()
	before := inst.state()
	// A closed log file fails the append before it writes a byte.
	inst.writeMu.Lock()
	if err := inst.wal.Close(); err != nil {
		t.Fatal(err)
	}
	inst.writeMu.Unlock()
	for _, wr := range []struct{ path, body string }{
		{"/v1/mutations", `{"ops":[{"add_clients":[{"x":91,"y":91}]}]}`},
		{"/v1/optimize?k=1&commit=true", ""},
	} {
		if rec := do(t, s, http.MethodPost, wr.path, wr.body); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("POST %s with a failing WAL = %d, want 503 (body %s)", wr.path, rec.Code, rec.Body)
		}
	}
	if inst.state() != before || inst.dirty.Load() {
		t.Errorf("a failed append published: version %d, dirty %v", inst.state().version, inst.dirty.Load())
	}
	renders := s.RenderCalls()
	warm := do(t, s, http.MethodGet, tile, "")
	if !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) || s.RenderCalls() != renders {
		t.Errorf("the cached tile did not survive a failed publish (renders %d -> %d)", renders, s.RenderCalls())
	}
}

// TestMutationsBackpressure pins the 429 contract deterministically: with the
// writer wedged on the map's writer lock and the admission queue full, the
// next batch is refused immediately with Retry-After — and is guaranteed not
// applied.
func TestMutationsBackpressure(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, CoalesceWindow: -1, IngestQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst := s.def()

	// Wedge the writer: its next commit blocks on writeMu. Every exit path
	// releases the lock and then waits for the admitted requests, so a
	// failure leaves no goroutine blocked behind the writer.
	var posts sync.WaitGroup
	defer posts.Wait()
	inst.writeMu.Lock()
	var unlocked sync.Once
	unlock := func() { unlocked.Do(inst.writeMu.Unlock) }
	defer unlock()
	results := make(chan mutationsResponse, 2)
	post := func(x, y float64) {
		rec := do(t, s, http.MethodPost, "/v1/mutations", fmt.Sprintf(`{"ops":[{"add_clients":[{"x":%g,"y":%g}]}]}`, x, y))
		if rec.Code != http.StatusOK {
			t.Errorf("admitted batch = %d (body %s)", rec.Code, rec.Body)
		}
		var resp mutationsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("decoding mutations response %q: %v", rec.Body, err)
		}
		results <- resp
	}
	posts.Add(1)
	go func() { defer posts.Done(); post(20, 20) }()
	// The writer takes the first batch into a group and blocks committing
	// it. Waiting on the gathered counter, not on an empty queue: the queue
	// is empty before A is admitted too, and a batch that arrives while the
	// writer is still gathering joins A's group instead of queueing.
	waitFor(t, "writer to gather batch A", func() bool { return inst.ing.gathered.Load() == 1 })
	posts.Add(1)
	go func() { defer posts.Done(); post(21, 21) }()
	// The second batch fills the (capacity 1) queue.
	waitFor(t, "batch B to queue", func() bool { return len(inst.ing.queue) == 1 })

	rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[{"add_clients":[{"x":22,"y":22}]}]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch against a full queue = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}

	unlock()
	versions := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		versions[(<-results).Version] = true
	}
	if !versions[2] || !versions[3] {
		t.Errorf("admitted batches got versions %v, want {2, 3}", versions)
	}
	// The throttled batch left no trace: two batches, two clients added.
	if got := s.Version(); got != 3 {
		t.Errorf("final version = %d, want 3", got)
	}
	if got := s.def().state().m.NumClients(); got != 11 {
		t.Errorf("final clients = %d, want 11 (the 429'd add must not apply)", got)
	}
	if got := inst.ing.throttled.Load(); got != 1 {
		t.Errorf("throttled counter = %d, want 1", got)
	}
}

// TestMutationsCoalescing proves the group commit: batches admitted within
// one coalescing window share a single commit (and a single WAL fsync) while
// keeping their own versions — and an invalid batch in the group is refused
// alone, without poisoning its companions.
func TestMutationsCoalescing(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, CoalesceWindow: 500 * time.Millisecond, IngestQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		resp mutationsResponse
	}
	results := make(chan result, 4)
	var wg sync.WaitGroup
	for i, body := range []string{
		`{"ops":[{"add_clients":[{"x":20,"y":20}]}]}`,
		`{"ops":[{"add_clients":[{"x":21,"y":22}]},{"add_facilities":[{"x":60,"y":20}]}]}`,
		`{"ops":[{"remove_clients":[4444]}]}`, // invalid whatever its position in the group
		`{"ops":[{"add_clients":[{"x":23,"y":24}]}]}`,
	} {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			rec := do(t, s, http.MethodPost, "/v1/mutations", body)
			var resp mutationsResponse
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("batch %d: decoding response %q: %v", i, rec.Body, err)
				}
			}
			results <- result{code: rec.Code, resp: resp}
		}(i, body)
	}
	wg.Wait()
	close(results)

	versions := map[uint64]bool{}
	var rejected, groupCommits int
	for res := range results {
		switch res.code {
		case http.StatusOK:
			versions[res.resp.Version] = true
			if res.resp.GroupBatches > 1 {
				groupCommits++
			}
		case http.StatusBadRequest:
			rejected++
		default:
			t.Errorf("unexpected status %d", res.code)
		}
	}
	if rejected != 1 {
		t.Errorf("%d batches rejected, want exactly the invalid one", rejected)
	}
	if !versions[2] || !versions[3] || !versions[4] {
		t.Errorf("accepted versions %v, want {2, 3, 4}", versions)
	}
	if groupCommits == 0 {
		t.Error("no batch reported sharing a group commit; coalescing never happened")
	}
	if got := s.Version(); got != 4 {
		t.Errorf("final version = %d, want 4", got)
	}
	g := s.def().ing
	if got := g.groups.Load(); got < 1 || got > 3 {
		t.Errorf("group commits = %d, want between 1 and 3", got)
	}
	if got := g.batches.Load(); got != 3 {
		t.Errorf("batches committed = %d, want 3", got)
	}
}

// TestIngestSoak hammers the ingestion path under -race: concurrent batch
// writers against a deliberately tiny queue and sub-millisecond coalescing
// window, interleaved with readers. Invariants: versions are monotone, the
// queue depth never exceeds its capacity, a 429'd batch is never partially
// applied, and the final state accounts exactly for the acked batches.
func TestIngestSoak(t *testing.T) {
	t.Parallel()
	s, err := New(Config{
		Map: handMap(t), Mutable: true, TileSize: 16, TileCacheSize: 16,
		CoalesceWindow: 500 * time.Microsecond, CoalesceOps: 16, IngestQueue: 4,
		SnapshotDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	writers, perWriter, readers := 4, 30, 3
	if testing.Short() {
		writers, perWriter, readers = 2, 10, 2
	}
	var acked, throttledSeen atomic.Int64
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: every batch is net-zero on the client count (one add, one
	// remove of index 0) — so any partially applied batch shows up as a
	// drifted final count.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < perWriter; i++ {
				body := fmt.Sprintf(`{"ops":[{"add_clients":[{"x":%f,"y":%f}]},{"remove_clients":[0]}]}`,
					rng.Float64()*100, rng.Float64()*100)
				for {
					resp, err := ts.Client().Post(ts.URL+"/v1/mutations", "application/json", strings.NewReader(body))
					if err != nil {
						fail("writer %d: %v", w, err)
						return
					}
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusOK {
						acked.Add(1)
						break
					}
					if code != http.StatusTooManyRequests {
						fail("writer %d: status %d", w, code)
						return
					}
					throttledSeen.Add(1)
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := uint64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					resp, err := ts.Client().Get(ts.URL + "/v1/stats")
					if err != nil {
						fail("reader %d: %v", r, err)
						return
					}
					var stats statsResponse
					if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
						fail("reader %d: stats decode: %v", r, err)
					}
					resp.Body.Close()
					if stats.Version < last {
						fail("reader %d: version went backwards: %d after %d", r, stats.Version, last)
					}
					last = stats.Version
					if stats.Ingest.QueueDepth > stats.Ingest.QueueCap {
						fail("reader %d: queue depth %d exceeds cap %d", r, stats.Ingest.QueueDepth, stats.Ingest.QueueCap)
					}
				} else {
					resp, err := ts.Client().Get(ts.URL + "/v1/tiles/1/0/0.png")
					if err != nil {
						fail("reader %d: %v", r, err)
						return
					}
					if resp.StatusCode != 200 {
						fail("reader %d: tile = %d", r, resp.StatusCode)
					} else if _, err := png.Decode(resp.Body); err != nil {
						fail("reader %d: torn tile: %v", r, err)
					}
					resp.Body.Close()
				}
			}
		}(r)
	}
	// Let the writers finish, then release the readers.
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	waitFor(t, "writers to drain", func() bool {
		return acked.Load() == int64(writers*perWriter) || failed.Load()
	})
	close(stop)
	<-done

	total := int64(writers * perWriter)
	if got := acked.Load(); got != total && !failed.Load() {
		t.Fatalf("acked %d of %d batches", got, total)
	}
	if got, want := s.Version(), uint64(total+1); got != want {
		t.Errorf("final version = %d, want %d (one bump per acked batch)", got, want)
	}
	st := s.def().state()
	if got := st.m.NumClients(); got != 9 {
		t.Errorf("final clients = %d, want 9: some batch applied partially", got)
	}
	if got := st.m.NumFacilities(); got != 5 {
		t.Errorf("final facilities = %d, want 5", got)
	}
	g := s.def().ing
	if got := g.batches.Load(); got != uint64(total) {
		t.Errorf("batches committed = %d, want %d", got, total)
	}
	if got := g.ops.Load(); got != uint64(2*total) {
		t.Errorf("ops committed = %d, want %d", got, 2*total)
	}
	t.Logf("soak: %d batches acked, %d throttled (429), %d group commits",
		acked.Load(), throttledSeen.Load(), g.groups.Load())
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestIngestShutdownDuringLoad: deleting a map (or closing the server) with
// batches still queued must answer every one of them — none may hang — and
// the writer goroutine must exit.
func TestIngestShutdownDrains(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, CoalesceWindow: -1, IngestQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Create a second map to delete out from under queued batches.
	body := `{"name":"victim",
		"clients":[{"x":7,"y":7},{"x":13,"y":7},{"x":7,"y":13},{"x":13,"y":13},{"x":10,"y":13}],
		"facilities":[{"x":10,"y":10},{"x":90,"y":90}]}`
	if rec := do(t, s, http.MethodPost, "/v1/maps", body); rec.Code != http.StatusCreated {
		t.Fatalf("creating victim map: %d (body %s)", rec.Code, rec.Body)
	}
	inst := s.lookup("victim")
	inst.writeMu.Lock()
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			rec := do(t, s, http.MethodPost, "/v1/maps/victim/mutations",
				fmt.Sprintf(`{"ops":[{"add_clients":[{"x":%d,"y":30}]}]}`, 30+i))
			codes <- rec.Code
		}(i)
	}
	// Give both batches time to be admitted; the writer wedges on the lock
	// we hold, so they sit in commit or in the queue.
	time.Sleep(50 * time.Millisecond)
	delDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { delDone <- do(t, s, http.MethodDelete, "/v1/maps/victim", "") }()
	// DELETE removes the name from the registry, then waits for the writer —
	// which is blocked on the lock we hold. Release it.
	waitFor(t, "victim to leave the registry", func() bool { return s.lookup("victim") == nil })
	inst.writeMu.Unlock()
	if rec := <-delDone; rec.Code != http.StatusOK {
		t.Fatalf("DELETE /maps/victim = %d (body %s)", rec.Code, rec.Body)
	}
	for i := 0; i < 2; i++ {
		code := <-codes
		// Batches that committed before the delete linearized get 200; the
		// rest see 404 (membership check) or 503 (drained). Never a hang,
		// never a torn application.
		if code != http.StatusOK && code != http.StatusNotFound && code != http.StatusServiceUnavailable {
			t.Errorf("queued batch resolved with %d", code)
		}
	}
	select {
	case <-inst.ing.exited:
	case <-time.After(5 * time.Second):
		t.Fatal("ingestion writer did not exit after delete")
	}
}
