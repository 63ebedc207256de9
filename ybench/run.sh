#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash ybench/run.sh --workload pairs-wire --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "ybench: run from the repository root (no go.mod or internal/core here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
go -C "$root/ybench" build -o "$build/ybench" .
exec "$build/ybench" "$@"
