// Command e2ebench is the repository's end-to-end benchmark. It generates
// seeded traffic from internal/dataset and drives server.Server.ServeHTTP
// in-process — no sockets — so it measures the program rather than the
// loopback stack, with at most two request streams. It checks the answers
// against independently built oracles outside the timed region, and prints
// every metric by name with its unit and sample count. The last line of its
// standard output is one JSON object with the metrics BENCHMARK.json lists.
//
// With --trace 1 it makes a separate, traced run: the same inputs, on one
// stream, are sent through the handler and then replayed into the exported
// call of each layer the handler makes, in the handler's order. Each call
// is a span with its allocation count; per-layer metrics are median self
// times. The spans are written to a JSON-lines file when the run ends.
//
// Run it from the repository root (see README.md in this directory):
//
//	bash e2ebench/run.sh --workload plan|explore|feed --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// runConfig is one invocation of a workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sz       *scale
	work     string // scratch directory of this run, removed at exit
	traceOut string // where a traced run writes its spans
	// prepInProcess builds the served map in this process instead of a child
	// process. Traced runs and the self-test use it; untraced runs keep
	// input preparation out of the serving process's peak RSS.
	prepInProcess bool
	// wrong names a check to hand a deliberately wrong expected answer
	// (self-test only).
	wrong string
}

// outcome is what a run reports.
type outcome struct {
	attempted int // requests sent: the scripts' and the final-state probes'
	failed    int // non-2xx responses plus answers that failed a check
	metrics   []metric
	report    []string
	chk       *checker
}

// The metric names BENCHMARK.json lists. Every workload reports every one:
// endToEnd on untraced runs, perLayer on traced runs.
var (
	endToEnd = []string{"setup_s", "requests_per_s", "p50_ms", "p99_ms", "peak_rss_mb"}
	perLayer = []string{
		"nncircle.compute_ms", "core.sweep_ms", "core.sweep_allocs", "core.events", "core.labelings",
		"pointloc.build_ms", "pointloc.build_allocs", "pointloc.cells",
		"postprocess.summarize_ms", "postprocess.summarize_allocs", "snapshot.save_ms", "snapshot.save_mb",
		"server.self_ms",
	}
)

func run(cfg *runConfig) (*outcome, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	switch cfg.workload {
	case "plan":
		return runPlan(cfg)
	case "explore":
		return runExplore(cfg)
	case "feed":
		return runFeed(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want plan, explore or feed)", cfg.workload)
	}
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult selects the metrics BENCHMARK.json lists for this mode and
// fails if any is missing or not a finite number.
func contractResult(cfg *runConfig, out *outcome) (*result, error) {
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	byName := make(map[string]metric, len(out.metrics))
	for _, m := range out.metrics {
		byName[m.name] = m
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]jsonMetric, len(names))}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", n, m.value)
		}
		res.Metrics[n] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// printReport writes the human-readable report: every metric with its unit
// and sample count, then the run's notes.
func printReport(cfg *runConfig, out *outcome) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("e2ebench workload=%s seed=%d seconds=%d (%s run)\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, line := range out.report {
		fmt.Println(line)
	}
	for _, m := range out.metrics {
		fmt.Printf("  %-30s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	share := 0.0
	if out.attempted > 0 {
		share = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("  %-30s %14.6g %-6s n=%d (%d failed)\n", "error_share", share, "share", out.attempted, out.failed)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: plan, explore or feed")
		seed     = flag.Int64("seed", 1, "seed every input of the run is generated from")
		seconds  = flag.Int("seconds", 10, "nominal measured seconds; sizes each stream's fixed request script")
		traceOn  = flag.Int("trace", 0, "1 makes the traced per-layer run instead of the end-to-end run")
		prepare  = flag.String("prepare-map", "", "internal: build the served map, save it to this path as a v2 snapshot, and exit")
	)
	flag.Parse()
	if *prepare != "" {
		if err := prepareServed(&fullScale, *prepare, nil); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: preparing map:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	cfg := &runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceOn == 1,
		sz:       &fullScale,
		work:     filepath.Join(base, "e2ebench", fmt.Sprintf("run-%d", os.Getpid())),
		traceOut: filepath.Join(base, "e2ebench", "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)),
	}
	cfg.prepInProcess = cfg.trace
	// An interrupted run still removes its scratch directory (the served
	// snapshots are large).
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		os.RemoveAll(cfg.work)
		os.Exit(1)
	}()
	out, err := run(cfg)
	os.RemoveAll(cfg.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res, err := contractResult(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	printReport(cfg, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// sized turns --seconds into a fixed script length: perSecond items per
// nominal second, at least min.
func sized(seconds int, perSecond float64, min int) int {
	n := int(math.Round(float64(seconds) * perSecond))
	if n < min {
		n = min
	}
	return n
}

// statusFailures counts the non-2xx responses among timed and check
// requests; every one is a failed request (a 429 refusal included — the
// benchmark never retries).
func statusFailures(scripts [][]*request, res [][]response) (attempted, failed int, classes map[string]int) {
	classes = map[string]int{}
	for i, script := range scripts {
		for j := range script {
			attempted++
			if !res[i][j].ok() {
				failed++
				classes[script[j].class]++
			}
		}
	}
	return attempted, failed, classes
}

func failureNote(classes map[string]int) string {
	if len(classes) == 0 {
		return ""
	}
	parts := make([]string, 0, len(classes))
	for c, n := range classes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, n))
	}
	return "  failed requests by class: " + strings.Join(parts, " ")
}
