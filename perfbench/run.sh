#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload node-writemix --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# temporary files stay under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOSUMDB=off
# Build under a private name and rename, so a binary another run is
# executing is never rewritten in place.
(cd perfbench && go build -o "$out/perfbench.$$" .)
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
