#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload plan|explore|feed --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache and its
# temporary files, the binary, the per-run scratch files and the trace files
# of traced runs.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/e2ebench/tmp"

export GOCACHE=$build/e2ebench/gocache
export GOTMPDIR=$build/e2ebench/tmp
export GOMODCACHE=$build/e2ebench/gomodcache
export XDG_CONFIG_HOME=$build/e2ebench/config
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off
export CARGO_TARGET_DIR=$build

(cd "$root/e2ebench" && go build -o "$build/e2ebench/e2ebench" .)
exec "$build/e2ebench/e2ebench" "$@"
