#!/usr/bin/env bash
# Builds gridbench from the checkout it is run in and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload analyze-lp --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, journals, run records, spans) stays under
# .bench_build in that root; nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd "$root/bench" && go build -o "$out/gridbench" ./gridbench)
exec "$out/gridbench" -workdir "$out/work" "$@"
