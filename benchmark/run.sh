#!/bin/sh
# Builds the benchmark (a Go module of its own, so the repository's
# build and tests do not see it) and runs it from the checkout root.
# Everything written, the Go build cache included, lands in
# .bench_build there. Arguments pass through to the benchmark.
set -eu
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd benchmark && go build -buildvcs=false -o ../.bench_build/benchmark .)
exec .bench_build/benchmark "$@"
