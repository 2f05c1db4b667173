package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// The mutable-server soak test: N goroutines of mixed /heat, /heat/batch,
// tile and /topk reads interleaved with a serialized mutation stream, run
// under -race by the CI short suite. Assertions:
//
//  1. every response succeeds;
//  2. versions are monotone — globally for /stats polls and per-tile via the
//     version-keyed ETags;
//  3. every read is consistent with some published map state: a read
//     sandwiched between two /stats polls reporting the same version must
//     equal the ground-truth response the writer recorded for that version
//     (readers never see a torn or intermediate state);
//  4. after the writer finishes, every endpoint converges byte-for-byte to
//     the final version's ground truth.

// soakTruth is the ground-truth response set for one published version.
type soakTruth struct {
	heat  []byte
	batch []byte
	topk  []byte
	tile  []byte
	etag  string
}

const (
	soakHeatPath  = "/v1/heat?x=10&y=10"
	soakBatchBody = `{"points":[{"x":10,"y":10},{"x":50,"y":50},{"x":90,"y":10},{"x":-3,"y":200}]}`
	soakTopKPath  = "/v1/topk?k=3"
	soakTilePath  = "/v1/tiles/2/0/3.png"
)

// captureTruth snapshots every read endpoint at the server's current state.
// Only the writer calls it, between its own mutations, so the state cannot
// move underneath it.
func captureTruth(t *testing.T, s *Server) soakTruth {
	t.Helper()
	heat := do(t, s, http.MethodGet, soakHeatPath, "")
	batch := do(t, s, http.MethodPost, "/v1/heat/batch", soakBatchBody)
	topk := do(t, s, http.MethodGet, soakTopKPath, "")
	tile := do(t, s, http.MethodGet, soakTilePath, "")
	for _, rec := range []int{heat.Code, batch.Code, topk.Code, tile.Code} {
		if rec != http.StatusOK {
			t.Fatalf("truth capture failed with status %d", rec)
		}
	}
	return soakTruth{
		heat:  heat.Body.Bytes(),
		batch: batch.Body.Bytes(),
		topk:  topk.Body.Bytes(),
		tile:  tile.Body.Bytes(),
		etag:  tile.Header().Get("ETag"),
	}
}

func statsVersion(t *testing.T, s *Server) uint64 {
	t.Helper()
	rec := do(t, s, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Errorf("/v1/stats = %d", rec.Code)
		return 0
	}
	var st struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Errorf("decoding /stats: %v", err)
		return 0
	}
	return st.Version
}

func TestMutableServerSoak(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Map: handMap(t), Mutable: true, TileSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers   = 6
		mutations = 18
	)
	readLoops := 40
	if testing.Short() {
		readLoops = 12
	}

	var (
		mu    sync.Mutex
		truth = map[uint64]soakTruth{}
		done  atomic.Bool
	)
	record := func(version uint64) {
		tr := captureTruth(t, s)
		mu.Lock()
		truth[version] = tr
		mu.Unlock()
	}
	lookup := func(version uint64) (soakTruth, bool) {
		mu.Lock()
		defer mu.Unlock()
		tr, ok := truth[version]
		return tr, ok
	}
	record(s.Version())

	var wg sync.WaitGroup
	// The writer: serialized add/remove mutations, ground truth captured
	// after every publish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(91))
		for i := 0; i < mutations; i++ {
			var op string
			switch i % 3 {
			case 0:
				op = fmt.Sprintf(`{"add_clients":[{"x":%.3f,"y":%.3f}]}`, rng.Float64()*100, rng.Float64()*100)
			case 1:
				op = fmt.Sprintf(`{"add_facilities":[{"x":%.3f,"y":%.3f}]}`, rng.Float64()*100, rng.Float64()*100)
			case 2:
				op = `{"remove_clients":[0]}`
			}
			rec := do(t, s, http.MethodPost, "/v1/mutations", `{"ops":[`+op+`]}`)
			if rec.Code != http.StatusOK {
				t.Errorf("mutation %d (%s) = %d: %s", i, op, rec.Code, rec.Body)
				return
			}
			var resp struct {
				Version uint64 `json:"version"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Errorf("decoding mutation response %d %s (code %d, body %q): %v", i, op, rec.Code, rec.Body.String(), err)
				return
			}
			if want := uint64(i + 2); resp.Version != want {
				t.Errorf("mutation %d published version %d, want %d", i, resp.Version, want)
			}
			record(resp.Version)
		}
	}()

	// The readers: mixed endpoint reads with sandwich consistency checks.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + int64(r)))
			var lastVersion uint64
			for i := 0; i < readLoops || !done.Load(); i++ {
				v1 := statsVersion(t, s)
				if v1 < lastVersion {
					t.Errorf("reader %d: /stats version went backwards: %d after %d", r, v1, lastVersion)
					return
				}
				lastVersion = v1

				kind := rng.Intn(4)
				var body []byte
				var etag string
				switch kind {
				case 0:
					w := do(t, s, http.MethodGet, soakHeatPath, "")
					if w.Code != http.StatusOK {
						t.Errorf("reader %d: /heat = %d", r, w.Code)
						return
					}
					body = w.Body.Bytes()
				case 1:
					w := do(t, s, http.MethodPost, "/v1/heat/batch", soakBatchBody)
					if w.Code != http.StatusOK {
						t.Errorf("reader %d: /heat/batch = %d", r, w.Code)
						return
					}
					body = w.Body.Bytes()
				case 2:
					w := do(t, s, http.MethodGet, soakTopKPath, "")
					if w.Code != http.StatusOK {
						t.Errorf("reader %d: /topk = %d", r, w.Code)
						return
					}
					body = w.Body.Bytes()
				case 3:
					w := do(t, s, http.MethodGet, soakTilePath, "")
					if w.Code != http.StatusOK {
						t.Errorf("reader %d: tile = %d", r, w.Code)
						return
					}
					body = w.Body.Bytes()
					etag = w.Header().Get("ETag")
				}
				v2 := statsVersion(t, s)
				if v2 < v1 {
					t.Errorf("reader %d: /stats version went backwards: %d after %d", r, v2, v1)
					return
				}
				lastVersion = v2
				if v1 != v2 {
					continue // state moved mid-read; no single version to pin against
				}
				tr, ok := lookup(v1)
				if !ok {
					continue // ground truth for v1 not recorded yet
				}
				var want []byte
				switch kind {
				case 0:
					want = tr.heat
				case 1:
					want = tr.batch
				case 2:
					want = tr.topk
				case 3:
					want = tr.tile
					if etag != tr.etag {
						t.Errorf("reader %d: tile ETag %s at stable version %d, want %s", r, etag, v1, tr.etag)
						return
					}
				}
				if !bytes.Equal(body, want) {
					t.Errorf("reader %d: read kind %d at stable version %d differs from the published state", r, kind, v1)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Convergence: the final served state equals the last recorded truth.
	final := statsVersion(t, s)
	if want := uint64(mutations + 1); final != want {
		t.Fatalf("final version = %d, want %d", final, want)
	}
	tr, ok := lookup(final)
	if !ok {
		t.Fatalf("no ground truth for final version %d", final)
	}
	got := captureTruth(t, s)
	if !bytes.Equal(got.heat, tr.heat) || !bytes.Equal(got.batch, tr.batch) ||
		!bytes.Equal(got.topk, tr.topk) || !bytes.Equal(got.tile, tr.tile) {
		t.Fatal("final state does not match the last published ground truth")
	}
}
