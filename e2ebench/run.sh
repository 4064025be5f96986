#!/usr/bin/env bash
# Builds the end-to-end trainer benchmark from source and runs it with
# the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload local-multitask --seed 1 --seconds 25 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write goes under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
# Keep the toolchain's caches, config and temporary files in the checkout,
# and never fetch anything: the module has no dependencies.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C "$root/e2ebench" build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
