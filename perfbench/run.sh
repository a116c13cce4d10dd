#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload lib-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the run's scratch state.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
