#!/bin/sh
# The contract's command (BENCHMARK.json): build the benchmark from source
# into .bench_build/ at the root of the checkout, then run it with the
# driver's arguments. Everything the Go toolchain writes (build cache,
# module cache, telemetry) is pointed into .bench_build/ too, so a run
# touches nothing outside the checkout. In a directory without the rest of
# the repository the build fails and the script exits non-zero, printing
# no result.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -tmp "$build" "$@"
