#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper_grid --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the traced run's spans
# and CPU profile.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --out "$build/trace" "$@"
