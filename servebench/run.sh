#!/usr/bin/env bash
# Builds the serve benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash servebench/run.sh --workload spill-mixed --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so the
# benchmark reads and writes nothing outside it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/servebench"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C servebench build -o "$out/servebench/servebench" .
exec "$out/servebench/servebench" --spans-dir "$out/servebench" "$@"
