#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it
# with the given arguments. Every build artifact, the Go build cache and
# the benchmark's scratch files stay under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload sim-stfm-16c --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
