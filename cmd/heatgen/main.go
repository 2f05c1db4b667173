// Command heatgen is a load generator for heatmapd's streaming ingestion
// path. It replays a synthetic city-scale feed against a live server —
// Zipfian-skewed facility churn (openings cluster on popular sites, as store
// chains do) and uniform client churn — while concurrent readers sample
// point queries, then reports sustained mutation throughput and read
// latency percentiles as one JSON summary.
//
// Every mutation travels through POST /v1/maps/{map}/mutations. In the default
// batch mode each request carries -batch ops, exercising the server's
// coalescing group commit; -mode perop sends one op per request, the
// baseline the batched path is measured against. Backpressure (429) is
// honored by waiting and retrying, and is counted in the summary.
//
// The feed is balanced — every add is paired with a remove — so the map's
// set sizes stay near their starting point for the whole run, and it is
// deterministic for a fixed -seed and -writers.
//
// Examples:
//
//	heatmapd -dataset NYC -mutable &
//	heatgen -addr localhost:8080 -duration 10s
//	heatgen -addr localhost:8080 -duration 10s -mode perop   # unbatched baseline
//
// heatgen exits non-zero if the run acknowledges no mutations at all, so a
// CI smoke step fails loudly when the write path is broken.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatgen: ")

	var (
		addr     = flag.String("addr", "localhost:8080", "heatmapd address (host:port)")
		mapName  = flag.String("map", "default", "target map name")
		duration = flag.Duration("duration", 10*time.Second, "how long to generate load")
		writers  = flag.Int("writers", 4, "concurrent mutation streams")
		batch    = flag.Int("batch", 16, "ops per request in batch mode")
		mode     = flag.String("mode", "batch", "batch (one request carries -batch ops) or perop (one op per request)")
		readers  = flag.Int("readers", 2, "concurrent point-query readers (0 = none)")
		skew     = flag.Float64("skew", 1.2, "Zipfian skew of the facility site pool")
		seed     = flag.Int64("seed", 1, "random seed; the feed is deterministic per (seed, writers)")
	)
	flag.Parse()

	if err := run(*addr, *mapName, *duration, *writers, *batch, *mode, *readers, *skew, *seed); err != nil {
		log.Fatal(err)
	}
}

// serverStats is the slice of GET /v1/maps/{map}/stats heatgen needs: the data bounds to
// aim the feed at, and set sizes to keep removals valid.
type serverStats struct {
	Clients    int  `json:"clients"`
	Facilities int  `json:"facilities"`
	Mutable    bool `json:"mutable"`
	Bounds     struct {
		MinX float64 `json:"min_x"`
		MinY float64 `json:"min_y"`
		MaxX float64 `json:"max_x"`
		MaxY float64 `json:"max_y"`
	} `json:"bounds"`
}

// summary is the JSON report printed at the end of a run.
type summary struct {
	Map             string  `json:"map"`
	Mode            string  `json:"mode"`
	DurationSeconds float64 `json:"duration_seconds"`
	Writers         int     `json:"writers"`
	BatchOps        int     `json:"batch_ops"`
	Requests        uint64  `json:"requests"`
	BatchesAcked    uint64  `json:"batches_acked"`
	OpsAcked        uint64  `json:"ops_acked"`
	Throttled       uint64  `json:"throttled_429"`
	Errors          uint64  `json:"errors"`
	MutationsPerSec float64 `json:"mutations_per_sec"`
	Reads           uint64  `json:"reads"`
	ReadP50MS       float64 `json:"read_p50_ms"`
	ReadP99MS       float64 `json:"read_p99_ms"`
}

func run(addr, mapName string, duration time.Duration, writers, batch int, mode string, readers int, skew float64, seed int64) error {
	if mode != "batch" && mode != "perop" {
		return fmt.Errorf("-mode must be batch or perop, got %q", mode)
	}
	if writers < 1 || batch < 1 {
		return fmt.Errorf("-writers and -batch must be positive")
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}

	st, err := fetchStats(client, base, mapName)
	if err != nil {
		return err
	}
	if !st.Mutable {
		return fmt.Errorf("server at %s is read-only; restart heatmapd with -mutable", addr)
	}
	bounds := geom.Rect{MinX: st.Bounds.MinX, MinY: st.Bounds.MinY, MaxX: st.Bounds.MaxX, MaxY: st.Bounds.MaxY}
	if bounds.MaxX <= bounds.MinX || bounds.MaxY <= bounds.MinY {
		return fmt.Errorf("map %q reports degenerate bounds %+v", mapName, st.Bounds)
	}
	// The facility site pool: Zipfian-clustered locations that openings draw
	// from, so churn concentrates on popular sites.
	sites := dataset.Zipfian(512, bounds, skew, seed).Points
	log.Printf("target %s map %q: %d clients, %d facilities, bounds [%.6g %.6g %.6g %.6g]",
		addr, mapName, st.Clients, st.Facilities, bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY)
	log.Printf("mode=%s writers=%d batch=%d readers=%d duration=%v", mode, writers, batch, readers, duration)

	var (
		requests, batchesAcked, opsAcked, throttled, errs, reads atomic.Uint64
		wg                                                       sync.WaitGroup
	)
	stop := make(chan struct{})
	time.AfterFunc(duration, func() { close(stop) })
	started := time.Now()

	url := base + "/v1/maps/" + mapName + "/mutations"
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ops := makeOps(rng, bounds, sites, batch)
				var bodies []string
				if mode == "batch" {
					bodies = []string{`{"ops":[` + strings.Join(ops, ",") + `]}`}
				} else {
					bodies = make([]string, len(ops))
					for i, op := range ops {
						bodies[i] = `{"ops":[` + op + `]}`
					}
				}
				for _, body := range bodies {
					nops := batch
					if mode == "perop" {
						nops = 1
					}
					if !send(client, url, body, nops, stop, &requests, &batchesAcked, &opsAcked, &throttled, &errs) {
						return
					}
				}
			}
		}(w)
	}

	latencies := make([][]time.Duration, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 104729 + int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				x := bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX)
				y := bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY)
				q := fmt.Sprintf("%s/v1/maps/%s/heat?x=%g&y=%g", base, mapName, x, y)
				t0 := time.Now()
				resp, err := client.Get(q)
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
					continue
				}
				latencies[r] = append(latencies[r], time.Since(t0))
				reads.Add(1)
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(started)

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Millisecond)
	}
	out := summary{
		Map:             mapName,
		Mode:            mode,
		DurationSeconds: elapsed.Seconds(),
		Writers:         writers,
		BatchOps:        batch,
		Requests:        requests.Load(),
		BatchesAcked:    batchesAcked.Load(),
		OpsAcked:        opsAcked.Load(),
		Throttled:       throttled.Load(),
		Errors:          errs.Load(),
		MutationsPerSec: float64(opsAcked.Load()) / elapsed.Seconds(),
		Reads:           reads.Load(),
		ReadP50MS:       pct(0.50),
		ReadP99MS:       pct(0.99),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if out.OpsAcked == 0 {
		return fmt.Errorf("no mutations were acknowledged — the write path is broken")
	}
	return nil
}

// makeOps builds one balanced batch of mutation ops: mostly client churn
// (uniform add + remove pairs), a Zipfian facility open/close pair every few
// ops. Removals target index 0, which is always valid while the sets stay
// non-empty — heatgen never has to track server-side indexes.
func makeOps(rng *rand.Rand, bounds geom.Rect, sites []geom.Point, n int) []string {
	ops := make([]string, 0, n)
	for len(ops) < n {
		if rng.Intn(8) == 0 && n-len(ops) >= 2 {
			site := sites[rng.Intn(len(sites))]
			ops = append(ops,
				fmt.Sprintf(`{"add_facilities":[{"x":%g,"y":%g}]}`, site.X, site.Y),
				`{"remove_facilities":[0]}`)
			continue
		}
		if len(ops)%2 == 0 {
			x := bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX)
			y := bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY)
			ops = append(ops, fmt.Sprintf(`{"add_clients":[{"x":%g,"y":%g}]}`, x, y))
		} else {
			ops = append(ops, `{"remove_clients":[0]}`)
		}
	}
	return ops
}

// send posts one mutations request, honoring 429 backpressure with a
// bounded wait. It returns false when the run is over.
func send(client *http.Client, url, body string, nops int, stop chan struct{}, requests, batchesAcked, opsAcked, throttled, errs *atomic.Uint64) bool {
	for {
		select {
		case <-stop:
			return false
		default:
		}
		requests.Add(1)
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			errs.Add(1)
			return true
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			batchesAcked.Add(1)
			opsAcked.Add(uint64(nops))
			return true
		case http.StatusTooManyRequests:
			throttled.Add(1)
			// Honor Retry-After, capped so a conservative server hint does
			// not idle the generator.
			wait := 50 * time.Millisecond
			if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok && d < wait {
				wait = d
			}
			select {
			case <-stop:
				return false
			case <-time.After(wait):
			}
		default:
			errs.Add(1)
			return true
		}
	}
}

// parseRetryAfter interprets a Retry-After header value in either of the two
// shapes RFC 9110 allows: a non-negative integer delay in seconds, or an
// HTTP-date after which to retry (reported relative to now, floored at zero
// — a date in the past means "retry immediately", not "never"). ok is false
// for an absent or malformed header.
func parseRetryAfter(h string, now time.Time) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(h); err == nil {
		d := at.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// fetchStats reads the target map's /stats.
func fetchStats(client *http.Client, base, mapName string) (*serverStats, error) {
	resp, err := client.Get(base + "/v1/maps/" + mapName + "/stats")
	if err != nil {
		return nil, fmt.Errorf("reaching heatmapd: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/maps/%s/stats = %d: %s", mapName, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var st serverStats
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("decoding stats: %w", err)
	}
	return &st, nil
}
