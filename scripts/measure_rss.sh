#!/usr/bin/env bash
# measure_rss.sh — serving-RSS comparison: a map built in memory against the
# same map opened from its snapshot.
#
# Builds a dense L2 map once (10 clients per facility, the densest L2
# regime whose slab decomposition fits the cell cap, so the snapshot embeds
# the point-location index) and saves it, then reports each process's peak
# and anonymous resident set (VmHWM and RssAnon, via crest -mem-stats) for:
#
#   build   a fresh crest run over the same workload: the arrangement, its
#           labels and interned sets live on the heap.
#   mmap    crest -load-snapshot: the one load path, OpenSnapshot's zero-copy
#           mapping — resident pages are the touched sections plus the Go
#           runtime, not the arrangement.
#
# Both answer the same stats/max-heat queries (-topk 0 keeps the mapped path
# from materializing), so the numbers compare like for like. The result is
# informational: RSS depends on the allocator, the page size and what the
# kernel keeps resident, so CI prints it next to bench-regress instead of
# hard-gating on it (run via `make bench-rss`).
#
# Usage: scripts/measure_rss.sh [clients] [facilities]
set -euo pipefail
cd "$(dirname "$0")/.."

CLIENTS=${1:-1000}
FACILITIES=${2:-100}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "building crest..."
go build -o "$workdir/crest" ./cmd/crest

build=(-dataset Uniform -clients "$CLIENTS" -facilities "$FACILITIES" -metric l2)
echo "building dense L2 map (${CLIENTS} clients, ${FACILITIES} facilities)..."
"$workdir/crest" "${build[@]}" -topk 0 -save-snapshot "$workdir/map.snap" >/dev/null
ls -l "$workdir/map.snap" | awk '{print "  " $NF ": " $5 " bytes"}'

# Peak RSS (VmHWM) alone flatters neither side: the mmap loader's CRC pass
# faults in every file page, so its peak is roughly the file size — but those
# pages are file-backed and reclaimable. RssAnon is the unreclaimable heap,
# and that is where a built map pays and a mapped one doesn't.
measure() { # name, crest args...
    local name=$1
    shift
    local out hwm anon took
    out=$("$workdir/crest" "$@" -topk 0 -mem-stats)
    hwm=$(awk '/^VmHWM:/ {print $2 " " $3}' <<<"$out")
    anon=$(awk '/^RssAnon:/ {print $2 " " $3}' <<<"$out")
    took=$(sed -n 's/.*loaded in \([^:]*\):.*/load \1/p; s/.*  time: \(.*\)$/sweep \1/p' <<<"$out" | head -1)
    if [ -z "$hwm" ]; then
        echo "  $name: VmHWM unavailable (non-Linux?)"
        return
    fi
    printf '  %-6s peak RSS %-12s heap (RssAnon) %-12s %s\n' \
        "$name" "$hwm" "${anon:-n/a}" "$took"
}

echo "peak resident set, built vs mapped:"
measure build "${build[@]}"
measure mmap -load-snapshot "$workdir/map.snap"
