#!/usr/bin/env bash
# Builds repobench from source and runs it with the given arguments.
# Everything the build writes stays in the checkout: the Go build cache
# and the binary live in .bench_build/ at the repository root.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$bench" && go build -o "$build/repobench" ./cmd/repobench)
exec "$build/repobench" -out "$bench/out" "$@"
