#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments, for example:
#
#   bash bench/run.sh --workload churn-mem --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache,
# journals and span files all stay under .bench_build in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/peerlearn-bench" .
TMPDIR="$out/tmp" exec "$out/peerlearn-bench" --spans "$out/spans" "$@"
