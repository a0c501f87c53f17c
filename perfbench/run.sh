#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#   bash perfbench/run.sh --workload tree-storm --seed 1998 --seconds 20 --trace 0
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files here too,
# GOTMPDIR and TMPDIR its scratch directories.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -C perfbench -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
