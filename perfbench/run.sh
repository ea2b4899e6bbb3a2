#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it. Run from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload learn --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run scratch space all live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
