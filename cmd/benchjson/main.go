// Command benchjson converts `go test -bench` text output (read from stdin)
// into a stable JSON document (written to stdout), so benchmark runs can be
// committed and diffed across PRs. Every metric pair the Go benchmark
// harness emits — ns/op, B/op, allocs/op and custom b.ReportMetric units —
// is preserved under its unit name, and the raw benchmark line is kept
// verbatim so `benchstat` can be fed a reconstruction at any time:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson > BENCH.json
//	jq -r '.benchmarks[].line' BENCH.json | benchstat /dev/stdin
//
// With -compare it instead gates performance regressions between two such
// documents: benchmarks (matched by -bench) whose ns/op grew by more than
// -max-regress percent, whose allocs/op grew by more than -max-alloc-regress
// percent (checked only when both documents report it, i.e. the benchmark
// ran with -benchmem), or that disappeared, fail the comparison and exit
// nonzero. CI runs it against the committed baseline on every PR:
//
//	go run ./cmd/benchjson -compare -bench 'ApplyDelta|TileServe' -max-regress 20 OLD.json NEW.json
//
// With -ab it summarizes the log of scripts/e2e_ab.sh — alternating
// end-to-end benchmark runs of a parent and a change checkout — against the
// metric declarations of BENCHMARK.json: per metric each side's median and
// quartiles, the change's pair wins and the range of its pair ratios,
// whether the medians differ by more than the parent's interquartile range,
// and whether the change's median stays within the metric's bound. It exits
// nonzero when a bound or a run's checks failed:
//
//	go run ./cmd/benchjson -ab BENCHMARK.json ab.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// result is one benchmark line.
type result struct {
	// Name is the benchmark name including sub-benchmark path and the -cpu
	// suffix (e.g. "BenchmarkApplyDelta/n=20000/add-client-8").
	Name string `json:"name"`
	// Runs is the iteration count the harness settled on.
	Runs int64 `json:"runs"`
	// Metrics maps unit -> value for every reported metric (ns/op, B/op,
	// allocs/op, custom units).
	Metrics map[string]float64 `json:"metrics"`
	// Line is the raw benchmark line, benchstat-ready.
	Line string `json:"line"`
}

type document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	var (
		compareMode = flag.Bool("compare", false, "compare two benchjson documents (args: OLD.json NEW.json) instead of converting stdin")
		abMode      = flag.Bool("ab", false, "summarize an e2e_ab.sh log (args: BENCHMARK.json LOG) instead of converting stdin")
		benchRE     = flag.String("bench", ".", "in -compare mode, regexp selecting the benchmarks the gate applies to")
		maxRegress  = flag.Float64("max-regress", 20, "in -compare mode, fail when ns/op grew by more than this percentage")
		maxAlloc    = flag.Float64("max-alloc-regress", 20, "in -compare mode, fail when allocs/op grew by more than this percentage (skipped for benchmarks without allocation metrics)")
	)
	flag.Parse()

	if *abMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -ab takes exactly two arguments: BENCHMARK.json LOG")
			os.Exit(2)
		}
		ok, err := abFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare takes exactly two arguments: OLD.json NEW.json")
			os.Exit(2)
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), *benchRE, *maxRegress, *maxAlloc, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if err := convert(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// convert parses `go test -bench` output from r and writes the JSON
// document to w.
func convert(r io.Reader, w io.Writer) error {
	doc := document{Benchmarks: []result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading input: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// parseLine parses one benchmark result line: a name, an iteration count,
// then value/unit pairs.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Runs: runs, Metrics: map[string]float64{}, Line: line}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// readDocument loads one benchjson document from disk.
func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &doc, nil
}

// procsSuffixRE matches the "-<GOMAXPROCS>" suffix the Go benchmark harness
// appends to every benchmark name when GOMAXPROCS != 1.
var procsSuffixRE = regexp.MustCompile(`-\d+$`)

// normalizeName strips the -GOMAXPROCS suffix so runs from machines with
// different core counts (a 1-CPU baseline box vs a 4-vCPU CI runner) compare
// by the benchmark's identity rather than its hardware. Sub-benchmark path
// components like "/workers=4" are untouched (no leading dash).
func normalizeName(name string) string {
	return procsSuffixRE.ReplaceAllString(name, "")
}

// compareFiles gates new against old: every old benchmark matching pattern
// must still exist in new, its ns/op must not have grown by more than
// maxRegress percent, and — when both runs recorded allocation metrics — its
// allocs/op must not have grown by more than maxAlloc percent. Names are
// compared modulo the -GOMAXPROCS suffix. It prints one line per compared
// metric and returns whether the gate passed.
func compareFiles(oldPath, newPath, pattern string, maxRegress, maxAlloc float64, w io.Writer) (bool, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return false, fmt.Errorf("bad -bench pattern: %w", err)
	}
	oldDoc, err := readDocument(oldPath)
	if err != nil {
		return false, err
	}
	newDoc, err := readDocument(newPath)
	if err != nil {
		return false, err
	}
	newByName := make(map[string]result, len(newDoc.Benchmarks))
	for _, r := range newDoc.Benchmarks {
		newByName[normalizeName(r.Name)] = r
	}
	ok := true
	compared := 0
	oldNames := make(map[string]bool, len(oldDoc.Benchmarks))
	for _, old := range oldDoc.Benchmarks {
		name := normalizeName(old.Name)
		oldNames[name] = true
		if !re.MatchString(name) {
			continue
		}
		oldNs, has := old.Metrics["ns/op"]
		if !has {
			continue
		}
		cur, exists := newByName[name]
		if !exists {
			fmt.Fprintf(w, "FAIL  %-60s missing from %s\n", name, newPath)
			ok = false
			continue
		}
		newNs, has := cur.Metrics["ns/op"]
		if !has {
			fmt.Fprintf(w, "FAIL  %-60s has no ns/op in %s\n", name, newPath)
			ok = false
			continue
		}
		compared++
		deltaPct := (newNs - oldNs) / oldNs * 100
		status := "ok  "
		if deltaPct > maxRegress {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s  %-60s %14.0f -> %14.0f ns/op  %+7.1f%% (limit +%.0f%%)\n",
			status, name, oldNs, newNs, deltaPct, maxRegress)
		// Allocation gate: only when both runs measured it — the old
		// baseline may predate -benchmem on this benchmark, and a run
		// without allocations reports no allocs/op at all.
		oldAllocs, hasOld := old.Metrics["allocs/op"]
		newAllocs, hasNew := cur.Metrics["allocs/op"]
		if !hasOld || !hasNew || oldAllocs == 0 {
			continue
		}
		allocPct := (newAllocs - oldAllocs) / oldAllocs * 100
		status = "ok  "
		if allocPct > maxAlloc {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s  %-60s %14.0f -> %14.0f allocs/op  %+3.1f%% (limit +%.0f%%)\n",
			status, name, oldAllocs, newAllocs, allocPct, maxAlloc)
	}
	// A gated benchmark present only in the new run has no baseline to be
	// judged against — it would stay unguarded forever if the gate passed
	// silently. Fail loudly so the baseline gets refreshed alongside it.
	for _, cur := range newDoc.Benchmarks {
		name := normalizeName(cur.Name)
		if oldNames[name] || !re.MatchString(name) {
			continue
		}
		if _, has := cur.Metrics["ns/op"]; !has {
			continue
		}
		fmt.Fprintf(w, "FAIL  %-60s not in baseline %s: refresh the baseline to gate it\n", name, oldPath)
		ok = false
	}
	if compared == 0 && ok {
		// A gate that silently matched nothing would pass forever; make the
		// misconfiguration loud instead.
		fmt.Fprintf(w, "FAIL  pattern %q matched no benchmark with ns/op in %s\n", pattern, oldPath)
		ok = false
	}
	return ok, nil
}
