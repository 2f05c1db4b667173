package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyRun runs one workload at the self-test's scale, in-process.
func tinyRun(t *testing.T, workload string, trace bool, wrong string) *outcome {
	t.Helper()
	dir := t.TempDir()
	cfg := &runConfig{
		workload:      workload,
		seed:          3,
		seconds:       1,
		trace:         trace,
		sz:            &tinyScale,
		work:          filepath.Join(dir, "work"),
		traceOut:      filepath.Join(dir, "trace.jsonl"),
		prepInProcess: true,
		wrong:         wrong,
	}
	out, err := run(cfg)
	if err != nil {
		t.Fatalf("%s (trace=%v, wrong=%q): %v", workload, trace, wrong, err)
	}
	if trace {
		if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
			t.Errorf("%s: traced run wrote no spans (%v)", workload, err)
		}
	}
	return out
}

// wantMetrics lists, per workload and mode, every metric the benchmark
// promises with its unit: the end-to-end metrics of the untraced run and
// the per-layer metrics and tracing overhead of the traced run.
var wantMetrics = map[string]map[bool]map[string]string{
	"plan": {
		false: {"setup_s": "s", "create_s": "s", "optimal_s": "s", "optimize_s": "s", "peak_rss_mb": "MB"},
		true: {
			"nncircle.compute_ms": "ms", "core.sweep_ms": "ms", "core.sweep_allocs": "count", "core.events": "count",
			"core.labelings": "count", "pointloc.build_ms": "ms", "pointloc.build_allocs": "count", "pointloc.cells": "count",
			"postprocess.summarize_ms": "ms", "postprocess.summarize_allocs": "count", "snapshot.save_ms": "ms",
			"snapshot.save_mb": "MB", "delta.apply_ms": "ms", "delta.apply_allocs": "count", "delta.resweep_share": "share",
			"optimal.geometry_ms": "ms", "optimal.rank_ms": "ms", "optimal.rank_allocs": "count",
			"server.self_ms": "ms", "trace.overhead_ms": "ms",
		},
	},
	"explore": {
		false: {"setup_s": "s", "reads_per_s": "1/s", "tile_p50_ms": "ms", "tile_p99_ms": "ms", "heat_p50_ms": "ms",
			"heat_p99_ms": "ms", "batch_p50_ms": "ms", "peak_rss_mb": "MB"},
		true: {"snapshot.open_ms": "ms", "pointloc.query_us": "us", "pointloc.batch_us": "us", "render.raster_ms": "ms",
			"render.png_ms": "ms", "server.tile_hit_ratio": "share", "server.self_ms": "ms", "trace.overhead_ms": "ms"},
	},
	"feed": {
		false: {"setup_s": "s", "reads_per_s": "1/s", "tile_p50_ms": "ms", "tile_p99_ms": "ms", "heat_p50_ms": "ms",
			"heat_p99_ms": "ms", "batch_p50_ms": "ms", "write_p50_ms": "ms", "mutations_per_s": "1/s", "peak_rss_mb": "MB"},
		true: {"pointloc.build_ms": "ms", "pointloc.build_allocs": "count", "pointloc.cells": "count", "pointloc.patch_share": "share",
			"postprocess.summarize_ms": "ms", "postprocess.summarize_allocs": "count", "snapshot.open_ms": "ms",
			"snapshot.wal_append_ms": "ms", "delta.apply_ms": "ms", "delta.apply_allocs": "count", "delta.resweep_share": "share",
			"pointloc.query_us": "us", "pointloc.batch_us": "us", "render.raster_ms": "ms", "render.png_ms": "ms",
			"server.tile_hit_ratio": "share", "server.queue_ms": "ms", "server.commit_ms": "ms", "server.self_ms": "ms",
			"trace.overhead_ms": "ms"},
	},
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	for _, workload := range []string{"plan", "explore", "feed"} {
		for _, trace := range []bool{false, true} {
			out := tinyRun(t, workload, trace, "")
			if out.failed != 0 || out.chk.mismatches() != 0 {
				t.Errorf("%s trace=%v: %d of %d failed\n%s", workload, trace, out.failed, out.attempted, out.chk.summary())
			}
			got := map[string]metric{}
			for _, m := range out.metrics {
				got[m.name] = m
			}
			for name, unit := range wantMetrics[workload][trace] {
				m, ok := got[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", workload, trace, name)
				case m.unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", workload, trace, name, m.unit, unit)
				case m.n == 0:
					t.Errorf("%s trace=%v: metric %s has no samples", workload, trace, name)
				}
			}

			// The last line is the contract's JSON object, with every
			// metric BENCHMARK.json lists for the mode.
			cfg := &runConfig{workload: workload, trace: trace}
			res, err := contractResult(cfg, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workload, trace, err)
			}
			names := endToEnd
			if trace {
				names = perLayer
			}
			if len(res.Metrics) != len(names) || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: result %+v", workload, trace, res)
			}
			report := captureStdout(t, func() { printReport(cfg, out) })
			if !strings.Contains(report, "error_share") {
				t.Errorf("%s trace=%v: report lacks error_share:\n%s", workload, trace, report)
			}
		}
	}
}

// TestChecksFailOnWrongAnswers hands each output check a deliberately wrong
// expected answer and requires the run to report it as failed.
func TestChecksFailOnWrongAnswers(t *testing.T) {
	cases := []struct {
		workload string
		trace    bool
		check    string
	}{
		{"plan", false, "plan.create"},
		{"plan", false, "plan.optimal"},
		{"plan", false, "plan.optimize"},
		{"explore", false, "explore.heat"},
		{"explore", false, "explore.batch"},
		{"explore", false, "explore.tile"},
		{"explore", true, "trace.tile_replay"},
		{"feed", false, "feed.heat"},
		{"feed", false, "feed.regions"},
	}
	for _, c := range cases {
		out := tinyRun(t, c.workload, c.trace, c.check)
		if out.chk.checked[c.check] == 0 {
			t.Errorf("%s: check never ran", c.check)
			continue
		}
		if out.chk.failed[c.check] == 0 || out.failed == 0 {
			t.Errorf("%s: a wrong expected answer went unnoticed (failed=%d)", c.check, out.failed)
		}
		for name, n := range out.chk.failed {
			if name != c.check && n > 0 {
				t.Errorf("%s: unrelated check %s failed too", c.check, name)
			}
		}
	}
}

func TestInterleaveKeepsEveryStreamInOrder(t *testing.T) {
	a := []*request{{path: "a0"}, {path: "a1"}, {path: "a2"}, {path: "a3"}}
	b := []*request{{path: "b0"}, {path: "b1"}}
	merged := interleave([][]*request{a, b})
	if len(merged) != len(a)+len(b) {
		t.Fatalf("interleave kept %d of %d requests", len(merged), len(a)+len(b))
	}
	next := map[byte]int{}
	for _, rq := range merged {
		stream, idx := rq.path[0], int(rq.path[1]-'0')
		if idx != next[stream] {
			t.Fatalf("interleave reordered stream %c: %v", stream, merged)
		}
		next[stream]++
	}
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.Bytes()
	}()
	fn()
	os.Stdout = saved
	w.Close()
	return string(<-done)
}
