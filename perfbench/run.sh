#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it:
#
#   bash perfbench/run.sh --workload flow-match --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build and run artifact (the Go build
# cache, the binary, the traced run's Chrome trace) stays under .bench_build/
# in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
