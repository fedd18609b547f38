#!/usr/bin/env bash
# Builds sqbench from this checkout's source and runs it with the given
# arguments, e.g.
#
#   bash sqbench/run.sh --workload boot-warm --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache go under
# $CARGO_TARGET_DIR (default .bench_build) at the checkout root, so the
# run reads and writes nothing outside the checkout. The build needs the
# repository's own module one level up; without it the build, and so the
# run, fails.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/sqbench" && go build -o "$out/sqbench" .)
exec "$out/sqbench" "$@"
