#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash xrbench/run.sh --workload grid-net-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, disk caches, spans) stays under .bench_build.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/xrbench" && go build -o "$out/xrbench" .) >&2
exec "$out/xrbench" --spans "$out/spans.jsonl" "$@"
