#!/usr/bin/env bash
# Builds the samrbench driver from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash samrbench/run.sh --workload shockpool-data --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the run's scratch files
# stay under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$here" && go build -o "$out/samrbench" .)
export CARGO_TARGET_DIR="$out"
exec "$out/samrbench" "$@"
