#!/usr/bin/env bash
# Builds the canonical benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash canonbench/run.sh --workload feed-read --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch files all stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
(cd "$root/canonbench" && go build -buildvcs=false -o "$build/canonbench" .)
exec "$build/canonbench" --workdir "$build/run" "$@"
