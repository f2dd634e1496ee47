#!/usr/bin/env bash
# Builds the benchmark and the accelsimd daemon from this checkout, then
# runs the benchmark with the arguments given, for example
#
#   bash bench/run.sh --workload sim-serial --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the Go build cache, temporary files, binaries,
# and the go command's user configuration (its telemetry counters).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/bench"
go build -o "$out/bench" .
go build -o "$out/accelsimd" accelflow/cmd/accelsimd
cd "$root"
exec "$out/bench" -accelsimd "$out/accelsimd" "$@"
