#!/bin/sh
# CI bench ratchet: run the benchmark suite fresh and compare every
# ns/op against the committed baseline (the newest BENCH_<n>.json).
# A benchmark running slower than TOLERANCE x its baseline fails the
# build, so hot-path regressions surface in the PR that caused them
# instead of accumulating silently between baseline rolls.
#
# -benchtime=1x numbers are noisy and CI runners are shared, hence the
# deliberately loose default tolerance of 2.0x; override it with
# BENCH_TOLERANCE (e.g. BENCH_TOLERANCE=3.0 on a very slow runner, or
# 1.2 for a quiet dedicated box).
#
# Usage: bench_compare.sh [baseline.json] [fresh.json]
#   baseline defaults to the newest committed BENCH_<n>.json
#   fresh defaults to a temp file filled by scripts/bench_json.sh
set -eu

cd "$(dirname "$0")/.."

baseline=${1:-$(git ls-files 'BENCH_*.json' | sort -t_ -k2 -n | tail -1)}
if [ -z "$baseline" ] || [ ! -f "$baseline" ]; then
	echo "bench_compare: no committed BENCH_*.json baseline found" >&2
	exit 1
fi

fresh=${2:-}
if [ -z "$fresh" ]; then
	fresh=$(mktemp)
	trap 'rm -f "$fresh"' EXIT
	sh scripts/bench_json.sh "$fresh" >/dev/null
fi

tol=${BENCH_TOLERANCE:-2.0}

awk -v tol="$tol" -v base="$baseline" -v freshfile="$fresh" '
# Both files are written by bench_json.sh: one "BenchmarkName": ns line
# per benchmark, which keeps the parse independent of a JSON tool. A
# name runs to the closing quote, so sub-benchmarks such as
# "BenchmarkX/cold" or "BenchmarkY/n=4,k=2.5#01" are gated too.
function parse(file, map,   line, name, val) {
	while ((getline line < file) > 0) {
		if (line ~ /"Benchmark[^"]*": *[0-9]/) {
			name = line; sub(/^ *"/, "", name); sub(/".*/, "", name)
			val = line; sub(/.*: */, "", val); sub(/,.*/, "", val)
			map[name] = val + 0
		}
	}
	close(file)
}
BEGIN {
	tol += 0
	parse(base, b)
	parse(freshfile, f)
	if (length(b) == 0) {
		printf "bench_compare: no benchmarks parsed from %s\n", base
		exit 1
	}
	bad = 0
	for (name in b) {
		if (!(name in f)) {
			printf "FAIL %-34s in %s but missing from the fresh run\n", name, base
			bad = 1
			continue
		}
		ratio = f[name] / b[name]
		status = (ratio > tol) ? "FAIL" : "ok"
		printf "%-4s %-34s %12d -> %12d ns/op  (%.2fx of baseline, limit %.2fx)\n", \
			status, name, b[name], f[name], ratio, tol
		if (ratio > tol) bad = 1
	}
	for (name in f)
		if (!(name in b))
			printf "new  %-34s %25d ns/op  (no baseline; not gated)\n", name, f[name]
	if (bad) {
		printf "bench_compare: benchmark regression beyond %.2fx of %s\n", tol, base
		exit 1
	}
	printf "bench_compare: all benchmarks within %.2fx of %s\n", tol, base
}'
