#!/usr/bin/env bash
# Builds bench_e2e from this checkout (a full build on the first run, a
# no-op check afterwards) and runs it from the repo root with the given
# arguments, writing BENCH_e2e.json and the rendezvous sockets into the
# build directory. Build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
#
#   bash bench/e2e/run.sh --workload bert25-w4 --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"
# Relative to the root: unix-socket paths derived from it must stay short.
build=".bench_build/e2e"

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2
exec "$build/bench_e2e" --out "$build" "$@"
