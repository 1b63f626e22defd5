#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark program from
# source and runs it with the caller's arguments. Everything the build
# and the run write (Go build cache, binaries, corpora, data
# directories, reports) stays under bench/out/ in this checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out/tmp"
export GOCACHE="$here/out/gocache" GOTMPDIR="$here/out/tmp" GOTOOLCHAIN=local
go build -C "$here" -o out/bin/bench .
exec "$here/out/bin/bench" "$@"
