#!/usr/bin/env bash
# Runs an A/B comparison of the end-to-end benchmark between two checkouts
# (for example the parent commit, extracted with `git archive`, and the
# working tree), the way a performance claim is checked:
#
#   bash scripts/e2e_ab.sh PARENT_DIR CHANGE_DIR WORKLOAD FIRST_SEED PAIRS > ab.jsonl
#   go run ./cmd/benchjson -ab BENCHMARK.json ab.jsonl
#
# Pair i uses seed FIRST_SEED+i for both sides and alternates the two
# checkouts' e2ebench/run.sh, flipping which side goes first every pair, so
# host speed drift lands on both sides alike. Each side builds into its own
# directory: $CARGO_TARGET_DIR/parent and $CARGO_TARGET_DIR/change when
# CARGO_TARGET_DIR is set, else each checkout's default (.bench_build).
#
# Every run prints one JSON line on stdout:
#
#   {"side":"parent","seed":11,"steal":42,"run":{...e2ebench's JSON line...}}
#
# steal is the host CPU steal over the run, in jiffies (the 8th field of the
# cpu line of /proc/stat): a run with high steal is slow on either side, so
# it tells a slow run from a slow change. "run" is null when the run printed
# no JSON line. Progress goes to stderr.
set -euo pipefail

if [ $# -ne 5 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD FIRST_SEED PAIRS" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
first=$4
pairs=$5

steal() {
	awk '$1 == "cpu" { print $9; exit }' /proc/stat
}

run_side() {
	local side=$1 seed=$2 dir build line before after
	dir=$parent
	[ "$side" = change ] && dir=$change
	build=
	[ -n "${CARGO_TARGET_DIR:-}" ] && build=$CARGO_TARGET_DIR/$side
	echo "e2e_ab: $workload seed $seed $side" >&2
	before=$(steal)
	line=$(cd "$dir" && CARGO_TARGET_DIR=$build bash e2ebench/run.sh \
		--workload "$workload" --seed "$seed" --seconds 10 | tail -n 1) || true
	after=$(steal)
	case $line in
	'{'*) ;;
	*) line=null ;;
	esac
	printf '{"side":"%s","seed":%d,"steal":%d,"run":%s}\n' \
		"$side" "$seed" $((after - before)) "$line"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((first + i))
	if ((i % 2 == 0)); then
		run_side parent "$seed"
		run_side change "$seed"
	else
		run_side change "$seed"
		run_side parent "$seed"
	fi
done
