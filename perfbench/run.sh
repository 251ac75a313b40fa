#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the root of
# the checkout; arguments pass through:
#
#   bash perfbench/run.sh --workload route-14k --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and trace files stay under
# $CARGO_TARGET_DIR (default .bench_build). The build needs the module at
# the checkout root, so outside a full checkout it fails and nothing runs.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
