#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# checkout root, passing every argument through (see README.md). The Go build
# cache, GOPATH and module cache are pointed inside .bench_build/ too, so
# nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off
go -C benchmark build -o "$build/dxbar-benchmark" .
exec "$build/dxbar-benchmark" "$@"
