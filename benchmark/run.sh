#!/usr/bin/env bash
# BENCHMARK.json's command: build popbench from source inside the checkout,
# then exec it with the driver's flags. Everything the toolchain writes —
# build cache, temp files, its telemetry directory (which follows
# XDG_CONFIG_HOME) and the binary — stays under .bench_build/.
#
# Telemetry is switched off in that private config directory before `go` runs:
# with a fresh directory the go command otherwise finds no upload.token, takes
# that for "first run today" and forks a detached `go` child to process
# reports. The child outlives `go build` — even a `go build` that fails, as in
# a directory without the program — and the benchmark must leave no process
# behind.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/popbench" ./benchmark
exec "$build/popbench" "$@"
