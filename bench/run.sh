#!/usr/bin/env bash
# Builds the benchmark from source and runs it at the repository root:
#
#   bash bench/run.sh -workload crashmc -seed 1 -seconds 60 -trace 0
#   bash bench/run.sh -workload all
#   bash bench/run.sh compare a/*.json -- b/*.json
#
# The binary, the Go build cache, temporary files and the runs' scratch and
# trace output all stay under .bench_build/ in the repository.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
