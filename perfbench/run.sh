#!/usr/bin/env bash
# Builds the benchmark from the source tree in the working directory and
# runs one workload; every argument is passed on:
#
#   bash perfbench/run.sh --workload call-direct --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and span dumps stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the working directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
