#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# BENCHMARK.json's command is `bash bench/run.sh`; the driver appends
# --workload/--seed/--seconds/--trace. Everything the build writes (the
# binary, Go's build cache) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/caesar-bench" ./bench
exec "$build/caesar-bench" "$@"
