GO ?= go

# BENCH_OUT is where `make bench` writes its JSON snapshot; each PR bumps the
# default instead of editing the recipe. Override per run:
#   make bench BENCH_OUT=/tmp/bench.json
BENCH_OUT ?= BENCH_PR13.json
# BENCH_BASELINE is the committed baseline `make bench-regress` gates against.
BENCH_BASELINE ?= BENCH_PR13.json
# GATE_BENCH selects the hot-path benchmarks the regression gate watches;
# MAX_REGRESS is the time/op growth (percent) that fails it, and
# MAX_ALLOC_REGRESS the allocs/op growth (only checked for benchmarks whose
# baseline recorded allocation metrics). CI reuses all three via
# `make bench-compare`, so the gate is defined exactly once.
GATE_BENCH ?= BenchmarkApplyDelta|BenchmarkTileServe|BenchmarkCRESTParallel|BenchmarkCRESTScaling|BenchmarkHeatAt|BenchmarkIngestBatch|BenchmarkReadUnderWriteLoad|BenchmarkOptimal|BenchmarkGreedyPlace|BenchmarkSnapshotLoad|BenchmarkWALShip
MAX_REGRESS ?= 20
MAX_ALLOC_REGRESS ?= 20
# BENCH_NEW is the fresh run bench-compare gates against the baseline.
BENCH_NEW ?= /tmp/bench_pr.json

.PHONY: ci fmt-check vet lint build test-short-race test cover bench bench-gate bench-compare bench-regress bench-parallel bench-rss bench-e2e fuzz-smoke serve

# ci is the gate every change must pass: formatting, vet, build, the fast
# suite under the race detector (the strip-parallel sweep and the mutable
# server are the main concurrency surfaces), then the full suite.
ci: fmt-check vet build test-short-race test

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs golangci-lint (config in .golangci.yml). CI installs the binary;
# locally, install it from https://golangci-lint.run/ or skip — vet still
# runs as part of `make ci`.
lint:
	@command -v golangci-lint >/dev/null 2>&1 || { \
		echo "golangci-lint not found; see https://golangci-lint.run/usage/install/"; exit 1; }
	golangci-lint run ./...

build:
	$(GO) build ./...

test-short-race:
	$(GO) test -short -race ./...

test:
	$(GO) test ./...

# cover enforces the per-package coverage floors (scripts/check_coverage.sh);
# CI runs it as its own job. Raise the floors there when real coverage grows.
cover:
	./scripts/check_coverage.sh

# bench snapshots the repo-level benchmark suite to $(BENCH_OUT) so the perf
# trajectory is tracked in-repo. The benchmarks that gate this repo's own hot
# paths (ApplyDelta, TileServe, the strip-parallel sweep, the ablations) run
# 3 iterations for stable numbers; the paper-figure reproductions — which
# deliberately include the paper's slow baselines — run once. Reconstruct
# benchstat input with:
#   jq -r '.benchmarks[].line' $(BENCH_OUT) | benchstat /dev/stdin
bench:
	$(GO) test -run '^$$' -bench '$(GATE_BENCH)|BenchmarkAblation' \
		-benchmem -benchtime 3x -timeout 30m . | tee /tmp/bench_out.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFig|BenchmarkTable' \
		-benchmem -benchtime 1x -timeout 30m . | tee -a /tmp/bench_out.txt
	$(GO) run ./cmd/benchjson < /tmp/bench_out.txt > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# bench-gate runs only the gated hot-path benchmarks (no paper-figure
# reproductions, whose deliberately slow baselines would add many minutes
# the gate never reads) and snapshots them to $(BENCH_OUT).
bench-gate:
	$(GO) test -run '^$$' -bench '$(GATE_BENCH)' \
		-benchmem -benchtime 3x -timeout 30m . | tee /tmp/bench_gate.txt
	$(GO) run ./cmd/benchjson < /tmp/bench_gate.txt > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# bench-compare gates $(BENCH_NEW) against $(BENCH_BASELINE): fail when a
# gated benchmark regressed by more than $(MAX_REGRESS)% time/op or
# disappeared.
bench-compare:
	$(GO) run ./cmd/benchjson -compare -bench '$(GATE_BENCH)' -max-regress $(MAX_REGRESS) \
		-max-alloc-regress $(MAX_ALLOC_REGRESS) $(BENCH_BASELINE) $(BENCH_NEW)

# bench-regress is the full CI perf gate: re-run the gated benchmarks, then
# compare.
bench-regress:
	$(MAKE) bench-gate BENCH_OUT=$(BENCH_NEW)
	$(MAKE) bench-compare

# bench-parallel runs the sequential-vs-parallel CREST benchmark that tracks
# the partition layer's speedup (see bench_test.go).
bench-parallel:
	$(GO) test -run '^$$' -bench BenchmarkCRESTParallel -benchtime 2x .

# bench-rss measures serving RSS of a dense L2 map built in memory (heap)
# against the same map opened from its snapshot (mmap); the mapped number
# tracks the zero-copy claim — resident pages are the touched sections, not
# the arrangement. Informational alongside bench-regress (RSS is too
# machine-sensitive to hard-gate).
bench-rss:
	./scripts/measure_rss.sh

# bench-e2e runs one workload of the end-to-end benchmark (e2ebench/, its own
# module; see e2ebench/README.md for the workloads and the metrics it prints):
#   make bench-e2e WORKLOAD=explore SEED=7
WORKLOAD ?= explore
SEED ?= 1
bench-e2e:
	bash e2ebench/run.sh --workload $(WORKLOAD) --seed $(SEED)

# fuzz-smoke replays the committed corpora and fuzzes the five differential
# harnesses — Region Coloring vs the grid baseline, slab point-location vs
# the enclosure oracle, batched delta application vs the sequential and
# rebuild oracles, POST /heat/batch vs its encoding/json handler, and the
# indexed PNG writer vs image/png — for 30s each (the CI budget); counterexamples land under the packages'
# testdata/fuzz/ directories as regression seeds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRegionColoring -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzPointLocation -fuzztime 30s ./internal/pointloc
	$(GO) test -run '^$$' -fuzz FuzzApplyDeltaBatch -fuzztime 30s ./internal/delta
	$(GO) test -run '^$$' -fuzz FuzzHeatBatchBody -fuzztime 30s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzIndexedPNG -fuzztime 30s ./internal/render

# serve starts heatmapd on a small seeded NYC workload with durable maps
# (-load makes repeated `make serve` resume the previous session instead of
# refusing to overwrite it); see the README's endpoint reference for what to
# curl.
serve:
	$(GO) run ./cmd/heatmapd -dataset NYC -clients 5000 -facilities 1500 -addr :8080 \
		-mutable -snapshot-dir /tmp/heatmapd-snapshots -save-every 30s -load
