#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload armed-scale --seed 1 --seconds 10 --trace 0
#
# Every build artefact, Go cache and scratch store stays under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp \
	TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOFLAGS=-mod=mod \
	GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -dir "$build/run" "$@"
