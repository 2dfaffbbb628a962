#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments, e.g.
#
#	bash perfbench/run.sh --workload tc-cyclic-2n --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/out" "$@"
