#!/usr/bin/env bash
# Builds perfbench from source and runs it from the checkout root:
#   bash _perfbench/run.sh --workload mine-resident --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C _perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
