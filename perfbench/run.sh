#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout, including the Go build cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" --dir "$out" "$@"
