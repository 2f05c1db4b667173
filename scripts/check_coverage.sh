#!/bin/sh
# Per-package coverage floor gate (make cover; CI job "cover").
#
# Runs `go test -cover` over the module and fails when any package listed in
# the floors table below reports less statement coverage than its floor, or
# stops reporting coverage at all. Floors are set a few points under the
# levels measured when they were last revised, so organic drift does not
# flake the gate but a change that lands meaningful untested code fails it.
# When a floor fails honestly, add tests; raise floors when real coverage
# has grown. internal/postprocess, internal/oset and internal/dataset are
# pinned at >= 80% by policy.
set -eu

floors='
rnnheatmap/cmd/benchjson 72
rnnheatmap/heatmap 84
rnnheatmap/internal/core 92
rnnheatmap/internal/dataset 90
rnnheatmap/internal/delta 95
rnnheatmap/internal/enclosure 92
rnnheatmap/internal/experiment 78
rnnheatmap/internal/geom 96
rnnheatmap/internal/influence 78
rnnheatmap/internal/kdtree 96
rnnheatmap/internal/nncircle 94
rnnheatmap/internal/oset 95
rnnheatmap/internal/pointloc 88
rnnheatmap/internal/postprocess 95
rnnheatmap/internal/render 83
rnnheatmap/internal/rtree 94
rnnheatmap/internal/server 80
rnnheatmap/internal/snapshot 85
'

out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test -cover ./... > "$out" || { cat "$out"; exit 1; }
cat "$out"

fail=0
echo "$floors" | while read -r pkg floor; do
    [ -n "$pkg" ] || continue
    line=$(grep -E "[[:space:]]$pkg[[:space:]]" "$out" || true)
    cov=$(printf '%s' "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$cov" ]; then
        echo "FAIL: no coverage reported for $pkg (floor ${floor}%)"
        exit 1
    fi
    if [ "$(printf '%s %s\n' "$cov" "$floor" | awk '{print ($1 < $2) ? 1 : 0}')" = "1" ]; then
        echo "FAIL: $pkg coverage ${cov}% is below its floor of ${floor}%"
        exit 1
    fi
done || fail=1

if [ "$fail" != 0 ]; then
    exit 1
fi
echo "coverage floors: all packages at or above their floors"
