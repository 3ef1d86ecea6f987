#!/usr/bin/env bash
# Builds bench_e2e from this checkout, runs its unit tests, then runs the
# benchmark: one workload, or all four (each in its own process).
#
#   bash bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace 0|1] [--out PATH]
#
# Options also accept the --name=value form. Defaults: all workloads, seed
# 2004 (the paper trace), 25 s of measured replays, tracing off, records
# appended to build-e2e/results.jsonl. The build lives in build-e2e/ at the
# repository root. Build and test output goes to stderr; stdout carries the
# metric table and, as its last line, the result JSON of the (last)
# workload. Exits non-zero when the build, a unit test or the verification
# pass fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

workloads=(paper-radial flash-crowd-4c tiered-small-cache flaky-origin)
workload=""
seed=2004
seconds=25
trace=0
out="$build/results.jsonl"
command_line="bench/e2e/run.sh $*"

while [ $# -gt 0 ]; do
  case "$1" in
    --*=*) name="${1%%=*}"; value="${1#*=}"; shift ;;
    --*)
      name="$1"
      if [ $# -lt 2 ]; then echo "run.sh: $name needs a value" >&2; exit 2; fi
      value="$2"; shift 2 ;;
    *) echo "run.sh: unexpected argument $1" >&2; exit 2 ;;
  esac
  case "$name" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --out) out="$value" ;;
    *) echo "run.sh: unknown option $name" >&2; exit 2 ;;
  esac
done

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src" ]; then
  echo "run.sh: $root holds no function-proxy sources to build" >&2
  exit 2
fi

generator=()
if command -v ninja > /dev/null 2>&1; then generator=(-G Ninja); fi
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target bench_e2e bench_e2e_test \
  -j"$(nproc 2> /dev/null || echo 4)" >&2
"$build/bench_e2e_test" --gtest_brief=1 >&2

git_sha=unknown
git_dirty=0
if [ "$(git -C "$root" rev-parse --show-toplevel 2> /dev/null)" = "$root" ]; then
  git_sha="$(git -C "$root" rev-parse HEAD)"
  if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    git_dirty=1
  fi
fi

mkdir -p "$(dirname "$out")"
if [ -n "$workload" ]; then workloads=("$workload"); fi
for w in "${workloads[@]}"; do
  "$build/bench_e2e" --workload="$w" --seed="$seed" --seconds="$seconds" \
    --trace="$trace" --out="$out" \
    --command="$command_line" --git-sha="$git_sha" --git-dirty="$git_dirty"
done
