#!/usr/bin/env bash
# The driver's entry point: build ./bench from source inside the checkout
# and run it with the arguments given. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build in
# the checkout; the program itself writes only under bench/out.
#
#   bash bench/run.sh --workload sim-wide --seed 1 --seconds 10 --trace 0
#
# By hand, `go run ./bench ...` from the repository root does the same
# with the toolchain's default cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "bench/run.sh: $root is not the chiaroscuro module (no go.mod): nothing to build" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
go build -o "$build/chiaroscuro-bench" ./bench
exec "$build/chiaroscuro-bench" "$@"
