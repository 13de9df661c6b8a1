#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload mixed-bin --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the repository root, so the build reads and writes
# nothing outside the checkout. The benchmark module depends only on the
# repository's own module, so the build needs no network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
