#!/usr/bin/env bash
# The repo benchmark's one command. Builds the harness in release and
# runs each workload in a fresh process; every metric is printed by
# name with its unit, and the exit code is non-zero if a correctness
# check fails. See benchmark/README.md.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#   benchmark/run.sh --smoke          # tiny sizes, one rep each, plus the harness's unit tests
#   benchmark/run.sh --check-repeat   # two full sets, compared against the bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# cargo resolves a relative CARGO_TARGET_DIR against the directory it
# runs in, so everything runs from the root of the checkout
cd "$here/.."

workloads=(batch-calibrated batch-fleet wh-append wh-scan live-replay live-fleet)
workload=""
seed=42
seconds=""
trace=0
out="benchmark/out"
mode="run"

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) mode="smoke"; shift ;;
    --check-repeat) mode="check-repeat"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ ! -d crates ] || [ ! -d vendor ]; then
  echo "run.sh: crates/ and vendor/ are not here; the harness builds against a checkout of the repository" >&2
  exit 2
fi

manifest="benchmark/harness/Cargo.toml"
bin="${CARGO_TARGET_DIR:-benchmark/harness/target}/release/harness"
# cargo's progress goes to stderr; stdout stays the benchmark's own
cargo build --release --offline --manifest-path "$manifest" >&2

git_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
rustc_version="$(rustc --version 2>/dev/null || echo unknown)"

# Every scratch file lives under this directory, which goes away on
# success, on failure and on a signal.
tmp="$out/tmp-$$"
child=""
cleanup() { rm -rf "$tmp"; }
interrupted() {
  if [ -n "$child" ]; then
    kill "$child" 2>/dev/null || true
    wait "$child" 2>/dev/null || true
  fi
  exit 130
}
trap cleanup EXIT
trap interrupted INT TERM

# run_one WORKLOAD OUT_DIR [extra harness flags]: one workload, one
# fresh process, waited for (in the background so a signal is handled
# at once and the child is stopped before this script exits).
run_one() {
  local w="$1" dir="$2"
  shift 2
  mkdir -p "$tmp"
  "$bin" run --workload "$w" --seed "$seed" --trace "$trace" \
    ${seconds:+--seconds "$seconds"} \
    --tmp "$tmp" --out "$dir" --git-sha "$git_sha" --rustc "$rustc_version" "$@" &
  child=$!
  local rc=0
  wait "$child" || rc=$?
  child=""
  rm -rf "$tmp"
  return "$rc"
}

run_set() {
  local dir="$1" w
  shift
  for w in "${workloads[@]}"; do
    run_one "$w" "$dir" "$@"
  done
}

case "$mode" in
  run)
    if [ -n "$workload" ]; then
      run_one "$workload" "$out"
    else
      run_set "$out"
    fi
    ;;
  smoke)
    cargo test --release --offline --manifest-path "$manifest" >&2
    "$bin" describe | diff - BENCHMARK.json >&2 \
      || { echo "run.sh: BENCHMARK.json is not what 'harness describe' prints" >&2; exit 1; }
    run_set "$out/smoke" --smoke
    ;;
  check-repeat)
    run_set "$out/repeat-a"
    run_set "$out/repeat-b"
    "$bin" compare "$out/repeat-a" "$out/repeat-b"
    ;;
esac
