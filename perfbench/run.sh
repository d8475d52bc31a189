#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload small-open --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact, the Go build cache and
# the trace files stay under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
