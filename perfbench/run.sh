#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/ and
# runs it from the checkout's root, passing every argument through:
#
#   bash perfbench/run.sh --workload stencil-testbed --seed 1 --seconds 20 --trace 0
#
# The Go build and module caches live in .bench_build/ too, so a run reads
# and writes nothing outside the checkout and needs no network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
