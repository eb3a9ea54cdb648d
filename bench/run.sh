#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh -workload serve-100k -seed 7 [-trace 1]
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, scratch files and span files. The build is offline: the
# benchmark module needs nothing beyond this repository and the Go
# toolchain.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -workdir "$out" "$@"
