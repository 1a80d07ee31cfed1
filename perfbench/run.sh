#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with the
# given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload intra --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the trace files all live under
# .bench_build/ in the checkout, so nothing is read or written outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
