#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command of
# BENCHMARK.json. Run from anywhere in the checkout:
#   bash benchmark/run.sh --workload resnet20-single --seed 1 --seconds 20 --trace 0
# Everything the build writes stays under .bench_build in the checkout:
# the binary, Go's build cache and temporary files, and, through GOPATH
# and XDG_CONFIG_HOME, whatever else the go command keeps (its telemetry
# counters).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/go" XDG_CONFIG_HOME="$build/config" \
  GOFLAGS=-buildvcs=false GOTOOLCHAIN=local go build -o "$build/benchmark" ./benchmark >&2
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
export BENCH_COMMIT
exec "$build/benchmark" "$@"
