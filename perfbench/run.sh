#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs one workload:
#
#   bash perfbench/run.sh --workload campaign-s14 --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the binary, and
# the per-run records (host context, cell digests, spans).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/cobrabench" .
exec "$out/cobrabench" "$@"
