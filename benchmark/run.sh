#!/usr/bin/env bash
# The repository benchmark. Run it from anywhere inside a tiresias checkout;
# it builds benchmark/ (and the library it pulls in) under .bench_build/.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--smoke]
#       One measured run of one workload. The last line on stdout is the
#       JSON result; everything readable goes to stderr. Exits non-zero if
#       an output check fails.
#   bash benchmark/run.sh [--seed S] [--runs N] [--seconds S] [--smoke] [--out DIR]
#       The suite: every workload N times with trace off (seeds S..S+N-1),
#       then once with trace on. Saves each JSON result under DIR (default
#       .bench_build/results/seed<S>) and prints the median and quartiles of
#       every metric. --smoke cuts sizes and time so the suite takes seconds.
#   bash benchmark/run.sh --self-test
#       Corrupts one engine result per workload and shows the output check
#       catches it.
#
# Compare two suites (two commits, same seeds) with
#   python3 benchmark/compare.py BEFORE_DIR AFTER_DIR
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
work="$root/.bench_build"
build="$work/cmake"
cache="$work/inputs"
bin="$build/tiresias_benchmark"
workloads=(tsrb_replay csv_replay socket_live fleet_hibernate)

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root holds no tiresias sources to build" >&2
  exit 2
fi

workload="" seed=1 seconds="" trace=0 runs="" smoke="" out="" selftest=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --runs) runs=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --smoke) smoke=--smoke; shift ;;
    --self-test) selftest=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

mkdir -p "$work"
jobs=$(nproc 2>/dev/null || echo 2)
(( jobs > 4 )) && jobs=4

# Invocations sharing a checkout take turns to build and to write inputs.
locked() {
  (
    if command -v flock >/dev/null; then flock 9; fi
    "$@"
  ) 9>"$work/lock"
}

build() {
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  fi
  cmake --build "$build" -j "$jobs" >&2
}

locked build

if (( selftest )); then
  exec "$bin" self-test --cache "$cache"
fi

if [[ -n "$workload" ]]; then
  locked "$bin" prepare --workload "$workload" --seed "$seed" $smoke \
    --cache "$cache" >&2
  exec "$bin" run --workload "$workload" --seed "$seed" \
    --seconds "${seconds:?--seconds is required with --workload}" \
    --trace "$trace" $smoke --cache "$cache"
fi

# ---- the suite ----
if [[ -n "$smoke" ]]; then
  seconds=${seconds:-1}
  runs=${runs:-1}
else
  seconds=${seconds:-20}  # BENCHMARK.json run_seconds
  runs=${runs:-5}
fi
out=${out:-$work/results/seed$seed}
mkdir -p "$out"
status=0

one() {  # workload seed trace
  local file="$out/$1.seed$2.trace$3.json"
  if locked "$bin" prepare --workload "$1" --seed "$2" $smoke \
       --cache "$cache" >&2 &&
     "$bin" run --workload "$1" --seed "$2" --seconds "$seconds" \
       --trace "$3" $smoke --cache "$cache" >"$file.tmp"; then
    tail -n 1 "$file.tmp" >"$file"
  else
    echo "run.sh: $1 seed $2 trace $3 FAILED" >&2
    status=1
  fi
  rm -f "$file.tmp"
}

for ((i = 0; i < runs; i++)); do
  for w in "${workloads[@]}"; do one "$w" $((seed + i)) 0; done
done
for w in "${workloads[@]}"; do one "$w" "$seed" 1; done

python3 "$here/compare.py" --summary "$out" || status=1
exit $status
