#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build
# cache, temp files, the binary, result records) stays under the build
# directory, $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
out=$out/perfbench
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

# HOME and XDG_CONFIG_HOME keep the go command's telemetry counters and
# any tool settings inside the build directory too.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
export PPROF_TMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=

# Builds fail (and the run exits nonzero without a result) when the
# repository around the benchmark is missing.
go -C "$root/perfbench" build -o "$out/nfperf" . >&2
exec "$out/nfperf" -out "$out" "$@"
