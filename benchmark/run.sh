#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash benchmark/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the source tree. Everything the build and the
# run write stays in ./.bench_build: the Go build cache, temporary files,
# the binary, scratch result stores and span files.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go -C benchmark build -buildvcs=false -o "$out/straight-benchmark" .
exec "$out/straight-benchmark" -work "$out" "$@"
