#!/usr/bin/env bash
# Builds the abcperf benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash abcperf/run.sh --workload checked-full --seed 1 --seconds 15 --trace 0
#
# Every file the build writes (compiler cache, toolchain settings, the
# binary) goes under .bench_build in the current directory.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/abcperf" && go build -o "$out/abcperf" .)
exec "$out/abcperf" "$@"
