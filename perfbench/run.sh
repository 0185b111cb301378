#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the go command's own files
# (telemetry counters live under the user config directory) stay under
# .bench_build/.
set -euo pipefail
root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The engine reads these at start-up; the benchmark measures its defaults.
unset FILTERJOIN_BATCH FILTERJOIN_KERNELS
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
