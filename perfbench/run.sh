#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary) stays under .bench_build/ there, and
# the toolchain is never allowed to reach the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
