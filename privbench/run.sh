#!/bin/sh
# Builds privbench from this checkout and runs it with the given flags:
#   sh privbench/run.sh --workload small-seq --seed 1 --seconds 15 --trace 0
# Run from the repository root. The build cache and binary live under
# .bench_build/, so nothing is written outside the working tree.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C "$root/privbench" build -buildvcs=false -o "$out/privbench-bin" .
exec "$out/privbench-bin" "$@"
