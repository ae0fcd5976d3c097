#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source with
# Go's build cache inside the checkout, so nothing is written outside it, and
# runs it with the driver's arguments.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache"
mkdir -p "$root/.bench_build/bin"
go build -C "$root/bench" -o "$root/.bench_build/bin/bench" .
cd "$root"
exec "$root/.bench_build/bin/bench" "$@"
