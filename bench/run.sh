#!/usr/bin/env bash
# Builds the benchmark into the checkout's .bench_build directory (Go
# build cache included, so nothing is written outside the checkout) and
# runs it with the given arguments. The first call compiles; later calls
# find the binary up to date and start at once.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$build_dir"
export GOCACHE="$build_dir/gocache" GOTOOLCHAIN=local
go build -C "$bench_dir" -o "$build_dir/rsubench" . >&2
exec "$build_dir/rsubench" -outdir "$bench_dir/out" "$@"
