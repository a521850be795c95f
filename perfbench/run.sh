#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig7_pagein --seed 1 --seconds 20 --trace 0
#
# Every build product (the Go build cache included) stays under .bench_build
# in the repository root, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Build under a private name, then rename: a concurrent run keeps its binary.
(cd "$root/perfbench" && go build -o "$out/perfbench.$$" .)
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
