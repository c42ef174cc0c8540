#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload estimate --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and run scratch stay under .bench_build.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
