package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/server"
	"rnnheatmap/internal/snapshot"
)

// The explore and feed workloads serve heatmapd's default map (NYC-like, L2,
// 2000 clients / 600 facilities), prepared untimed as a v2 snapshot.
//
// explore: two closed-loop read streams on a read-only server loaded from
// the snapshot, so reads go through the mmap'd slab index.
//
// feed: the same map and snapshot, copied fresh for every set-up, on a
// durable mutable server (WAL fsync per group commit). Stream 1 sends
// POST /v1/mutations of four balanced ops; stream 2 replays explore's read
// mix. The first commit, part of set-up, promotes the mapped map to heap.

// prepareServed builds the served map and saves it as a v2 snapshot at
// path. With a tracer, the build is traced with the create replay (input
// preparation makes the same layer calls as POST /v1/maps).
func prepareServed(sz *scale, path string, tr *tracer) error {
	in, err := newMapInput(sz.served, sz.servedSeed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if tr != nil {
		_, err := replayCreate(tr, -1, -1, in, path)
		return err
	}
	m, err := heatmap.Build(in.config())
	if err != nil {
		return err
	}
	return m.SaveSnapshot(path, 1)
}

// prepare makes the served map's snapshot at path: in a child process for
// untraced runs, so preparation stays out of the serving process's peak
// RSS, else in this process.
func prepare(cfg *runConfig, path string, tr *tracer) error {
	if cfg.prepInProcess {
		return prepareServed(cfg.sz, path, tr)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--prepare-map", path)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The child must not outlive an interrupted run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd.Run()
}

func copyFile(dst, src string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// serverStats is the part of the default map's /v1/stats the benchmark
// reads: the region count and the tile-cache counters.
type serverStats struct {
	Regions int `json:"regions"`
	Tiles   struct {
		Hits    float64 `json:"cache_hits"`
		Misses  float64 `json:"cache_misses"`
		Renders float64 `json:"renders"`
	} `json:"tiles"`
}

func readStats(srv *server.Server) (serverStats, error) {
	var st serverStats
	resp := send(srv, &request{method: "GET", path: "/v1/stats", keep: true})
	if !resp.ok() {
		return st, fmt.Errorf("GET /v1/stats answered %d", resp.status)
	}
	err := json.Unmarshal(resp.body, &st)
	return st, err
}

// hitRatio is the tile-cache hit ratio between two /v1/stats readings.
func hitRatio(a, b serverStats) (float64, int) {
	hits, misses := b.Tiles.Hits-a.Tiles.Hits, b.Tiles.Misses-a.Tiles.Misses
	if hits+misses == 0 {
		return 0, 0
	}
	return hits / (hits + misses), int(hits + misses)
}

// markSamples keeps the bodies of every n-th request of each read class:
// the sampled outputs the checks compare.
func markSamples(sz *scale, scripts ...[]*request) {
	every := map[string]int{"heat": sz.heatEvery, "batch": sz.batchEvery, "tile": sz.tileEvery}
	seen := map[string]int{}
	for _, s := range scripts {
		for _, rq := range s {
			if n, ok := every[rq.class]; ok {
				seen[rq.class]++
				if seen[rq.class]%n == 0 {
					rq.keep = true
				}
			}
		}
	}
}

// heatAnswer is one /heat answer (also one element of a batch answer).
type heatAnswer struct {
	Heat float64 `json:"heat"`
	RNN  []int   `json:"rnn"`
}

// checkReads compares the sampled read answers of the explore map: /heat
// and /heat/batch against the enclosure-path oracle, and tile bytes against
// a server over a fresh heap build.
func checkReads(chk *checker, oracle *heatmap.Map, heap *server.Server, scripts [][]*request, res [][]response) {
	for i, script := range scripts {
		for j, rq := range script {
			r := res[i][j]
			if !rq.keep || !r.ok() {
				continue
			}
			switch rq.class {
			case "heat":
				const name = "explore.heat"
				var got heatAnswer
				err := json.Unmarshal(r.body, &got)
				heat, rnn := oracle.HeatAt(rq.pt)
				heat, rnn = chk.wantFloat(name, heat), chk.wantInts(name, rnn)
				chk.check(name, err == nil && got.Heat == heat && sameSet(got.RNN, rnn),
					"%v: got %v %v, want %v %v (%v)", rq.pt, got.Heat, got.RNN, heat, rnn, err)
			case "batch":
				const name = "explore.batch"
				var got struct {
					Results []heatAnswer `json:"results"`
				}
				err := json.Unmarshal(r.body, &got)
				if err == nil && len(got.Results) != len(rq.pts) {
					err = fmt.Errorf("%d results for %d points", len(got.Results), len(rq.pts))
				}
				bad := -1
				if err == nil {
					heats, rnns := oracle.HeatAtBatch(rq.pts)
					for k := range rq.pts {
						if got.Results[k].Heat != chk.wantFloat(name, heats[k]) || !sameSet(got.Results[k].RNN, chk.wantInts(name, rnns[k])) {
							bad = k
							break
						}
					}
				}
				chk.check(name, err == nil && bad < 0, "point %d of %d differs from the oracle (%v)", bad, len(rq.pts), err)
			case "tile":
				const name = "explore.tile"
				want := send(heap, &request{method: "GET", path: rq.path, keep: true})
				chk.check(name, want.ok() && bytes.Equal(r.body, chk.wantBytes(name, want.body)),
					"%s: %d bytes served, the heap build's server answered %d with %d bytes", rq.path, len(r.body), want.status, len(want.body))
			}
		}
	}
}

// readMetrics reports the read classes' latencies and throughput.
func readMetrics(scripts [][]*request, res [][]response, elapsed time.Duration) []metric {
	by := map[string][]float64{}
	reads := 0
	for i, script := range scripts {
		for j, rq := range script {
			if rq.isRead() {
				by[rq.class] = append(by[rq.class], ms(res[i][j].latency))
				reads++
			}
		}
	}
	return []metric{
		{"reads_per_s", float64(reads) / elapsed.Seconds(), "1/s", reads},
		{"tile_p50_ms", quantile(by["tile"], 0.5), "ms", len(by["tile"])},
		{"tile_p99_ms", quantile(by["tile"], 0.99), "ms", len(by["tile"])},
		{"heat_p50_ms", quantile(by["heat"], 0.5), "ms", len(by["heat"])},
		{"heat_p99_ms", quantile(by["heat"], 0.99), "ms", len(by["heat"])},
		{"batch_p50_ms", quantile(by["batch"], 0.5), "ms", len(by["batch"])},
	}
}

// allLatencies returns the latency (ms) of every timed request.
func allLatencies(scripts [][]*request, res [][]response) []float64 {
	var all []float64
	for i, script := range scripts {
		for j, rq := range script {
			if rq.timed() {
				all = append(all, ms(res[i][j].latency))
			}
		}
	}
	return all
}

// exploreServer loads the snapshot directory read-only and runs the
// untimed warm-up.
func exploreServer(dir string, warm [][]*request) (*server.Server, error) {
	srv, err := server.New(server.Config{SnapshotDir: dir, Load: true})
	if err != nil {
		return nil, err
	}
	if err := warmUp(srv, warm); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

func warmUp(srv *server.Server, warm [][]*request) error {
	res, _ := runStreams(srv, warm)
	for i, s := range warm {
		for j, rq := range s {
			if !res[i][j].ok() {
				return fmt.Errorf("warm-up %s %s answered %d", rq.method, rq.path, res[i][j].status)
			}
		}
	}
	return nil
}

// readScripts draws the two read streams and their warm-up scripts.
func readScripts(sz *scale, spec mapSpec, seed int64, n int, salt int64) (scripts, warm [][]*request, err error) {
	for i := int64(0); i < 2; i++ {
		g, err := newReadGen(spec, subSeed(seed, salt+i), sz)
		if err != nil {
			return nil, nil, err
		}
		scripts = append(scripts, g.script(n))
		w, err := newReadGen(spec, subSeed(seed, salt+10+i), sz)
		if err != nil {
			return nil, nil, err
		}
		warm = append(warm, w.script(sz.warmReads))
	}
	return scripts, warm, nil
}

func runExplore(cfg *runConfig) (*outcome, error) {
	sz := cfg.sz
	in, err := newMapInput(sz.served, sz.servedSeed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "explore")
	path := snapshot.MapPath(dir, server.DefaultMapName)
	perStream := sized(cfg.seconds, sz.readsPS, 20)
	if cfg.trace {
		perStream = sized(cfg.seconds, sz.readsPS*sz.traceShare, 20)
	}
	scripts, warm, err := readScripts(sz, sz.served, cfg.seed, perStream, 30)
	if err != nil {
		return nil, err
	}
	markSamples(sz, scripts...)
	out := &outcome{report: []string{fmt.Sprintf(
		"  explore: map %s (v2 snapshot, read-only, mmap'd slab index); 2 closed-loop streams x %d reads: 50%% tiles (256 px, Zipf s=%g over zooms %d-%d), 45%% heat, 5%% batch of %d; warm-up %d reads/stream",
		sz.served, perStream, sz.tileSkew, sz.minZoom, sz.maxZoom, sz.batchPoints, sz.warmReads)}}
	if cfg.trace {
		return traceServed(cfg, out, in, path, false, nil, nil, interleave(scripts), warm)
	}
	if err := prepare(cfg, path, nil); err != nil {
		return nil, err
	}

	srv, setups, err := setUp(sz.setups, func(int) (*server.Server, error) { return exploreServer(dir, warm) })
	if err != nil {
		return nil, err
	}
	before, err := readStats(srv)
	if err != nil {
		return nil, err
	}
	res, wall := runStreams(srv, scripts)
	peak, err := vmHWM()
	if err != nil {
		return nil, err
	}
	after, err := readStats(srv)
	if err != nil {
		return nil, err
	}
	srv.Close()

	chk := newChecker(cfg.wrong)
	out.chk = chk
	if err := checkExploreReads(chk, in, scripts, res); err != nil {
		return nil, err
	}
	attempted, failed, classes := statusFailures(scripts, res)
	out.attempted = attempted
	out.failed = failed + chk.mismatches()
	all := allLatencies(scripts, res)
	out.metrics = []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"requests_per_s", float64(len(all)) / wall.Seconds(), "1/s", len(all)},
		{"p50_ms", quantile(all, 0.50), "ms", len(all)},
		{"p99_ms", quantile(all, 0.99), "ms", len(all)},
		{"peak_rss_mb", peak, "MB", 1},
	}
	out.metrics = append(out.metrics, readMetrics(scripts, res, wall)...)
	ratio, n := hitRatio(before, after)
	out.metrics = append(out.metrics, metric{"tile_hit_ratio", ratio, "share", n})
	out.report = append(out.report, chk.summary())
	if note := failureNote(classes); note != "" {
		out.report = append(out.report, note)
	}
	return out, nil
}

// checkExploreReads builds the oracles of the served map's input — the
// enclosure path (Config.NoSlabIndex) for point and batch answers, a server
// over a fresh heap build for tile bytes — and checks the sampled reads.
func checkExploreReads(chk *checker, in *mapInput, scripts [][]*request, res [][]response) error {
	ocfg := in.config()
	ocfg.NoSlabIndex = true
	oracle, err := heatmap.Build(ocfg)
	if err != nil {
		return err
	}
	m, err := heatmap.Build(in.config())
	if err != nil {
		return err
	}
	heap, err := server.New(server.Config{Map: m})
	if err != nil {
		return err
	}
	defer heap.Close()
	checkReads(chk, oracle, heap, scripts, res)
	return nil
}

// feedServer copies the prepared snapshot into dir, loads it on a durable
// mutable server, sends the first commit (which promotes the mapped map to
// heap) and runs the untimed read warm-up.
func feedServer(dir, master string, first *request, warm [][]*request) (*server.Server, error) {
	if err := copyFile(snapshot.MapPath(dir, server.DefaultMapName), master); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{SnapshotDir: dir, Load: true, Mutable: true})
	if err != nil {
		return nil, err
	}
	if resp := send(srv, first); !resp.ok() {
		srv.Close()
		return nil, fmt.Errorf("feed first commit answered %d: %s", resp.status, resp.body)
	}
	if err := warmUp(srv, warm); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// writeSeed generates feed's write stream.
const writeSeed = 1

// feedScripts draws the writer stream (the set-up's first commit, then
// `writes` requests), the reader stream and the reader's warm-up.
func feedScripts(sz *scale, in *mapInput, seed int64, writes, reads int) (first *request, scripts, warm [][]*request, err error) {
	// The write stream is the same in every run, like the map it mutates:
	// whether a commit moves the heat range (and so flushes the whole tile
	// cache) depends on exactly which clients it adds, and with a handful of
	// commits per run that would make read throughput swing from seed to
	// seed. The seed draws the read traffic.
	wg := newWriteGen(in.bounds(), writeSeed, sz.facilityEvery)
	first = wg.next()
	writer := make([]*request, writes)
	for i := range writer {
		writer[i] = wg.next()
	}
	g, err := newReadGen(in.spec, subSeed(seed, 31), sz)
	if err != nil {
		return nil, nil, nil, err
	}
	w, err := newReadGen(in.spec, subSeed(seed, 41), sz)
	if err != nil {
		return nil, nil, nil, err
	}
	return first, [][]*request{writer, g.script(reads)}, [][]*request{w.script(sz.warmReads)}, nil
}

func runFeed(cfg *runConfig) (*outcome, error) {
	sz := cfg.sz
	in, err := newMapInput(sz.served, sz.servedSeed)
	if err != nil {
		return nil, err
	}
	writes, reads := sized(cfg.seconds, sz.feedWrites, 2), sized(cfg.seconds, sz.feedReads, 20)
	if cfg.trace {
		writes, reads = sized(cfg.seconds, sz.feedWrites*sz.traceShare, 2), sized(cfg.seconds, sz.feedReads*sz.traceShare, 20)
	}
	first, scripts, warm, err := feedScripts(sz, in, cfg.seed, writes, reads)
	if err != nil {
		return nil, err
	}
	out := &outcome{report: []string{fmt.Sprintf(
		"  feed: map %s (v2 snapshot copied per set-up, durable mutable server, WAL fsync per group commit); closed-loop writer: %d POST /v1/mutations x 4 ops (facility open/close every %d-th); closed-loop reader: %d reads of explore's mix",
		sz.served, writes, sz.facilityEvery, reads)}}
	master := filepath.Join(cfg.work, "feed-master", server.DefaultMapName+".snap")
	if cfg.trace {
		return traceServed(cfg, out, in, master, true, first, scripts[0], interleave(scripts), warm)
	}
	if err := prepare(cfg, master, nil); err != nil {
		return nil, err
	}

	srv, setups, err := setUp(sz.setups, func(i int) (*server.Server, error) {
		return feedServer(filepath.Join(cfg.work, fmt.Sprintf("feed-setup-%d", i)), master, first, warm)
	})
	if err != nil {
		return nil, err
	}
	before, err := readStats(srv)
	if err != nil {
		return nil, err
	}
	res, wall := runStreams(srv, scripts)
	peak, err := vmHWM()
	if err != nil {
		return nil, err
	}
	after, err := readStats(srv)
	if err != nil {
		return nil, err
	}

	chk := newChecker(cfg.wrong)
	out.chk = chk
	probes, err := checkFeedFinal(chk, cfg, in, srv, first, scripts[0])
	srv.Close()
	if err != nil {
		return nil, err
	}
	attempted, failed, classes := statusFailures(scripts, res)
	out.attempted = attempted + probes
	out.failed = failed + chk.mismatches()

	// The reader's script outlasts the writer's, so every commit runs under
	// read load; the metrics cover both streams, as on explore.
	all := allLatencies(scripts, res)
	var writeLat []float64
	var writeTime, readTime time.Duration
	ops := 0
	for j, w := range res[0] {
		writeLat = append(writeLat, ms(w.latency))
		writeTime += w.latency
		if w.ok() {
			ops += scripts[0][j].ops
		}
	}
	for _, r := range res[1] {
		readTime += r.latency
	}
	out.metrics = []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"requests_per_s", float64(len(all)) / wall.Seconds(), "1/s", len(all)},
		{"p50_ms", quantile(all, 0.50), "ms", len(all)},
		{"p99_ms", quantile(all, 0.99), "ms", len(all)},
		{"peak_rss_mb", peak, "MB", 1},
		{"write_p50_ms", quantile(writeLat, 0.5), "ms", len(writeLat)},
		{"mutations_per_s", float64(ops) / writeTime.Seconds(), "1/s", ops},
	}
	// The reader is a closed loop, so its own busy time is its elapsed time.
	out.metrics = append(out.metrics, readMetrics(scripts[1:], res[1:], readTime)...)
	ratio, n := hitRatio(before, after)
	out.metrics = append(out.metrics, metric{"tile_hit_ratio", ratio, "share", n})
	out.report = append(out.report, chk.summary())
	if note := failureNote(classes); note != "" {
		out.report = append(out.report, note)
	}
	return out, nil
}

// checkFeedFinal checks the end state of a feed server against a
// from-scratch build over the client and facility sets the benchmark's own
// model of the write script predicts: the region count (feed.regions), and
// /heat answers at 64 sampled points (feed.heat). It returns the number of
// requests it sent.
func checkFeedFinal(chk *checker, cfg *runConfig, in *mapInput, srv *server.Server, first *request, writes []*request) (int, error) {
	clients := append([]geom.Point(nil), in.clients...)
	facilities := append([]geom.Point(nil), in.facilities...)
	clients, facilities = applyModel(clients, facilities, first.deltas)
	for _, rq := range writes {
		clients, facilities = applyModel(clients, facilities, rq.deltas)
	}
	ocfg := in.config()
	ocfg.Clients, ocfg.Facilities, ocfg.NoSlabIndex = clients, facilities, true
	oracle, err := heatmap.Build(ocfg)
	if err != nil {
		return 0, err
	}
	st, err := readStats(srv)
	if err != nil {
		return 0, err
	}
	want := chk.wantInt("feed.regions", oracle.NumRegions())
	chk.check("feed.regions", st.Regions == want, "%d regions, want %d", st.Regions, want)
	g, err := newReadGen(in.spec, subSeed(cfg.seed, 60), cfg.sz)
	if err != nil {
		return 0, err
	}
	const probes = 64
	for i := 0; i < probes; i++ {
		p := g.point()
		resp := send(srv, &request{method: "GET", path: "/v1/heat?x=" + fmtFloat(p.X) + "&y=" + fmtFloat(p.Y), keep: true})
		var got heatAnswer
		err := json.Unmarshal(resp.body, &got)
		heat, rnn := oracle.HeatAt(p)
		heat, rnn = chk.wantFloat("feed.heat", heat), chk.wantInts("feed.heat", rnn)
		chk.check("feed.heat", resp.ok() && err == nil && got.Heat == heat && sameSet(got.RNN, rnn),
			"%v: answered %d with %v %v, want %v %v", p, resp.status, got.Heat, got.RNN, heat, rnn)
	}
	return 1 + probes, nil
}
