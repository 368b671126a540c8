#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout it sits in,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload solve-exact --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every file the benchmark writes stay
# under .bench_build/ at the checkout root. The build fails, and so does
# this script, when the cosched module it measures is not beside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/results" "$@"
