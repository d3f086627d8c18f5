#!/usr/bin/env bash
# Builds the ledger program from the checkout it is run in and runs it.
# Everything the build writes (Go build cache, temp files, the binary) stays
# under .bench_build/ in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/ledger" ./benchmark
exec "$build/ledger" "$@"
