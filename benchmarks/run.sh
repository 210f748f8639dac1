#!/usr/bin/env bash
# Builds cmperf from source inside the checkout and runs it with the
# arguments given.  Everything the build writes (the binary, Go's build
# cache) stays under benchmarks/.build; everything a run writes stays under
# benchmarks/out.  Run it from the root of the checkout:
#
#   bash benchmarks/run.sh --workload mesh_tcp_sat --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOPROXY=off

# The toolchain rebuilds only what changed, so this is quick after the
# first run of a checkout.
(cd "$here" && go build -o "$build/cmperf" ./cmperf)

exec "$build/cmperf" "$@"
