#!/usr/bin/env bash
# Builds the ladder from source and runs it with the given arguments. This is
# the command BENCHMARK.json names; run it from the root of a checkout:
#
#   bash bench/ladder/run.sh --workload truck-cmc --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write — Go's build cache and temporary
# files, the binary, each run's scratch directory — stays under .bench_build
# in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

go build -C bench/ladder -o "$build/ladder" .
exec "$build/ladder" -workdir "$build" "$@"
