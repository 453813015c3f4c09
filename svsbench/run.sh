#!/usr/bin/env bash
# Builds the SVS runtime benchmark from the enclosing checkout's sources
# and runs it with the given arguments, e.g.
#
#   bash svsbench/run.sh --workload game-slow --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/svsbench" .) >&2
cd "$root"
exec "$out/svsbench" "$@"
