#!/usr/bin/env bash
# Builds the benchmark and pvserve from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash pvperf/run.sh --workload read-uniform --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the run's stores stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOWORK=off
export TMPDIR="$out/tmp"

go build -C pvperf -o "$out/pvperf" .
# Only serve-mixed, which BENCHMARK.json does not gate, runs pvserve.
case " $* " in
*serve-mixed*) go build -C pvperf -o "$out/pvserve" pvoronoi/cmd/pvserve ;;
esac
exec "$out/pvperf" -pvserve "$out/pvserve" -workdir "$out/pvperf-runs" "$@"
