#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 15 --trace 0
#
# Every build product, including the Go build cache and the go command's
# config directory (telemetry counters), stays under .bench_build/ in the
# checkout, so the first run compiles from scratch and later runs reuse the
# cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
