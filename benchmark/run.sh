#!/usr/bin/env bash
# End-to-end benchmark of llmfi (benchmark/README.md).
#
#   bash benchmark/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
#   bash benchmark/run.sh --seed N [--seconds S] [--trace 0|1]   # all four
#   bash benchmark/run.sh --prepare
#
# Builds benchmark/ (which pulls in the repository as a subproject) into
# the build directory, trains the model once into the cache pinned
# there, then runs each workload in a fresh process. A single-workload
# run ends its stdout with the result JSON line; every metric is also
# printed as `name workload value unit`. Exit status 1 means an output
# was wrong, 2 a usage or build error.
set -uo pipefail

start_ns=$(date +%s%N)
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root" || exit 2

if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: $root has no llmfi sources (CMakeLists.txt, src/)" >&2
  exit 2
fi

workload="" seed="" seconds=10 trace=0 prepare_only=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:-}"; shift 2 ;;
    --seed) seed="${2:-}"; shift 2 ;;
    --seconds) seconds="${2:-}"; shift 2 ;;
    --trace) trace="${2:-}"; shift 2 ;;
    --prepare) prepare_only=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ $prepare_only == 0 && -z "$seed" ]]; then
  echo "run.sh: --seed is required" >&2
  exit 2
fi

# Both commits must run the same program on the same inputs: no LLMFI_*
# knob leaks in from the caller, and the model cache is pinned. OpenMP
# is pinned to one thread: the workloads' own threads (campaign workers,
# server, load generator) already fill the cores, and a default team per
# core on top of them oversubscribes the machine, so one extra busy
# thread halved campaign-detect throughput (see README.md).
for v in $(compgen -e); do
  [[ $v == LLMFI_* || $v == OMP_* || $v == GOMP_* ]] && unset "$v"
done
export OMP_NUM_THREADS=1
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/results" || exit 2
build="$(cd "$build" && pwd)"
export LLMFI_MODEL_CACHE="$build/model_cache"
bin="$build/cmake/llmfi_bench"

elapsed() {
  awk -v ns="$(( $(date +%s%N) - start_ns ))" \
    'BEGIN { printf "%.1f", ns / 1e9 }'
}

# Build and prepare under a lock, so concurrent runs in one checkout
# share one build and one trained model.
{
  flock 9
  log="$build/build.log"
  if [[ ! -f "$build/cmake/CMakeCache.txt" ]]; then
    if ! cmake -S benchmark -B "$build/cmake" -DCMAKE_BUILD_TYPE=Release \
        >"$log" 2>&1; then
      tail -n 30 "$log" >&2
      echo "run.sh: configure failed (log: $log)" >&2
      exit 2
    fi
  fi
  if ! cmake --build "$build/cmake" --target llmfi_bench -j "$(nproc)" \
      >>"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "run.sh: build failed (log: $log)" >&2
    exit 2
  fi
  # Trains the model on first use (minutes, with OpenMP on every core);
  # afterwards a cache load.
  env -u OMP_NUM_THREADS "$bin" --prepare >&2 || exit 2
} 9>"$build/lock"
[[ $prepare_only == 1 ]] && exit 0

run_one() {
  timeout -k 5 170 "$bin" --workload "$1" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" --out "$build/results"
}

if [[ -n "$workload" ]]; then
  run_one "$workload"
  status=$?
  echo "run.sh: total wall time $(elapsed) s" >&2
  exit $status
fi

status=0
for w in campaign-batched campaign-detect serve-chat serve-longctx; do
  run_one "$w" | grep -v '^{'
  [[ ${PIPESTATUS[0]} == 0 ]] || status=1
done
echo "result files: $build/results"
echo "total wall time $(elapsed) s"
exit $status
