#!/usr/bin/env bash
# Builds cmd/anonymizer and the benchmark harness from the checkout this
# script sits in, then runs the harness with the given arguments. Build
# outputs, Go's caches and every server data directory stay inside the
# checkout, under .bench_build/.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/work"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
export GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod" # never filled: no dependencies
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly # nothing is fetched

(cd "$root" && go build -o "$build/bin/anonymizer" ./cmd/anonymizer)
(cd "$bench_dir" && go build -o "$build/bin/benchmark" .)

cd "$root"
exec "$build/bin/benchmark" -bin "$build/bin/anonymizer" -bench-dir "$bench_dir" -work-dir "$build/work" "$@"
