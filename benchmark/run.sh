#!/usr/bin/env bash
# Build the benchmark when needed, then run it (see benchmark/README.md).
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds N]
#                    [--trace 0|1 | --traced] [--out DIR]
#   benchmark/run.sh --smoke
#   benchmark/run.sh --compare DIR_A DIR_B
#
# Without --workload every workload runs, each in its own process, so peak
# memory is per workload. Results go to DIR/<workload>.json (default
# build-benchmark/results); the exit status is non-zero when any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"

# The library reads P2PVOD_* knobs (sparse engine, grain, ...) from the
# environment; none may change what a run measures.
while IFS= read -r name; do
  unset "$name"
done < <(compgen -e | grep '^P2PVOD_' || true)

jobs="$(nproc 2>/dev/null || echo 4)"
if (( jobs > 4 )); then jobs=4; fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target p2pvod_benchmark -j "$jobs" >&2
bin="$build/p2pvod_benchmark"

args=("$@")
has() {
  local arg
  for arg in ${args[@]+"${args[@]}"}; do
    if [[ "$arg" == "$1" || "$arg" == "$1="* ]]; then return 0; fi
  done
  return 1
}
if has --compare; then exec "$bin" ${args[@]+"${args[@]}"}; fi
has --out || args+=(--out "$build/results")
if has --workload || has --smoke; then exec "$bin" "${args[@]}"; fi

status=0
for workload in sparse_5k churn_5k zone_caps threshold_trials; do
  "$bin" --workload "$workload" "${args[@]}" || status=1
done
exit "$status"
