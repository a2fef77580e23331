#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload zipf-hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady -k 10 -seconds 10
#
# The Go build cache, temporary files, the binary and traced-run spans all
# stay under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
