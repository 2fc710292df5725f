#!/usr/bin/env bash
# Builds the truthrouted daemon and the benchmark from source, then
# runs one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-binary --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (binaries, the Go
# build cache, topology files, trace spans) goes under .bench_build in
# the current directory. Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (the default "local" mode) the go command forks a
# detached sidecar process that outlives it; turning telemetry off for
# this config directory keeps every go command a single process.
go telemetry off

cd "$here"
go build -o "$out/truthrouted" truthroute/cmd/truthrouted
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -daemon "$out/truthrouted" -workdir "$out" "$@"
