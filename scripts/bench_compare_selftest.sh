#!/bin/sh
# Self-test of the bench ratchet's parser on hand-made baseline/fresh
# files: sub-benchmark names (with '/', '=', ',', '.', '#') must be gated
# like top-level ones. Run by the CI bench job; runs in well under a
# second and needs no benchmarks.
#
# Usage: bench_compare_selftest.sh
set -eu

cd "$(dirname "$0")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# bench_file FILE NAME=NS... writes FILE in bench_json.sh's layout; NS
# follows the last '=', so a name may hold '=' itself.
bench_file() {
	file=$1
	shift
	{
		printf '{\n  "schema": 1,\n  "unit": "ns/op",\n  "benchmarks": {\n'
		sep=''
		for kv in "$@"; do
			printf '%s    "%s": %s' "$sep" "${kv%=*}" "${kv##*=}"
			sep=',
'
		done
		printf '\n  }\n}\n'
	} >"$file"
}

fail() {
	echo "bench_compare_selftest: $*" >&2
	exit 1
}

bench_file "$dir/base.json" "BenchmarkTop=1000" "BenchmarkX/cold=1000" "BenchmarkY/k=4,r=2.5#01=2000"

bench_file "$dir/slow.json" "BenchmarkTop=1000" "BenchmarkX/cold=100000000" "BenchmarkY/k=4,r=2.5#01=2000"
if out=$(BENCH_TOLERANCE=2.0 sh scripts/bench_compare.sh "$dir/base.json" "$dir/slow.json"); then
	fail "a sub-benchmark at 100,000x its baseline passed"
fi
echo "$out" | grep -q '^FAIL BenchmarkX/cold ' || fail "no FAIL line for BenchmarkX/cold:
$out"

bench_file "$dir/missing.json" "BenchmarkTop=1000" "BenchmarkX/cold=1000"
if out=$(BENCH_TOLERANCE=2.0 sh scripts/bench_compare.sh "$dir/base.json" "$dir/missing.json"); then
	fail "a baseline sub-benchmark missing from the fresh run passed"
fi
echo "$out" | grep -q '^FAIL BenchmarkY/k=4,r=2.5#01 .*missing' || fail "no missing line for BenchmarkY:
$out"

bench_file "$dir/ok.json" "BenchmarkTop=1100" "BenchmarkX/cold=1100" "BenchmarkY/k=4,r=2.5#01=2200" "BenchmarkZ/new=5"
out=$(BENCH_TOLERANCE=2.0 sh scripts/bench_compare.sh "$dir/base.json" "$dir/ok.json") ||
	fail "every benchmark at 1.1x its baseline failed the gate:
$out"
echo "$out" | grep -q '^ok   BenchmarkX/cold ' || fail "BenchmarkX/cold was not compared:
$out"
echo "$out" | grep -q '^new  BenchmarkZ/new ' || fail "BenchmarkZ/new was not reported as new:
$out"

echo "bench_compare_selftest: sub-benchmark names gated as expected"
