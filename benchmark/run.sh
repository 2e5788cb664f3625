#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root.
# Everything the build leaves behind stays under .bench_build/ in the
# checkout; nothing is written outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOFLAGS= GOTOOLCHAIN=local GOENV=off
(cd benchmark && go build -buildvcs=false -o "$build/sisg-benchmark" .)
# The stamp on every result names the commit, where there is one to name.
export BENCH_COMMIT=${BENCH_COMMIT:-$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)}
exec "$build/sisg-benchmark" "$@"
