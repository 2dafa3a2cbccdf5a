#!/usr/bin/env bash
# Builds the perf ledger from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every build and run artifact (Go
# build cache, binary, temp dirs, trace files) stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
