#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload pool-steal --seed 1 --seconds 10 --trace 0
# Run from the repository root. Every build artifact, the Go build cache
# and the span files stay under the build directory ($CARGO_TARGET_DIR if
# set, else .bench_build), so the run writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-traces" "$@"
