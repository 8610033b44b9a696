#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root. Build outputs, the Go build
# cache and every file a run writes stay under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go build -C perfbench -o "$root/.bench_build/perfbench" . >&2
exec "$root/.bench_build/perfbench" "$@"
