#!/usr/bin/env bash
# Build, lint, check and run the WHIPS pipeline benchmark.
#
#   benchmark/run.sh [--seed S] [--workload NAME|all] [--seconds N]
#                    [--check] [--repeat-sets K]
#
# Always first (untimed): cargo fmt --check, clippy -D warnings and the
# unit tests of this package (the root CI does not see it), then the
# --check pass (every selected workload through both drivers under the
# full oracle). `--check` stops there. Otherwise each workload runs in
# fresh processes, once with tracing off (end-to-end metrics) and once
# traced (per-layer metrics); every metric is printed as
# `name value unit`, results land in benchmark/out/. `--repeat-sets K`
# runs the whole set K times (benchmark/out/set1 ...) and compares every
# later set against the first, metric by metric, against the bounds in
# BENCHMARK.json; it exits non-zero if any bound is exceeded.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
workload=all
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
check_only=0
sets=1
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --workload) workload=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --check) check_only=1; shift ;;
    --repeat-sets) sets=$2; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
manifest=benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/mvc-benchmark"
BENCH_RUSTC=$(rustc -V)
BENCH_GIT_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_RUSTC BENCH_GIT_COMMIT

echo "== build + lint + unit tests (benchmark package) =="
cargo build --release --offline --manifest-path $manifest
cargo fmt --check --manifest-path $manifest
cargo clippy --release --offline --manifest-path $manifest --all-targets -- -D warnings
cargo test --release --offline --quiet --manifest-path $manifest

echo "== check pass (untimed, full oracle) =="
"$bin" --check --workload "$workload" --seed "$seed"
[ "$check_only" = 1 ] && exit 0

if [ "$workload" = all ]; then
  workloads="spa_wide pa_queryback spa_readers durable_recover"
else
  workloads=$workload
fi
for set in $(seq 1 "$sets"); do
  out=benchmark/out
  [ "$sets" -gt 1 ] && out=benchmark/out/set$set
  for w in $workloads; do
    for trace in 0 1; do
      echo "== set $set: $w --trace $trace (seed $seed, $seconds s) =="
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace $trace --out "$out"
    done
  done
done

status=0
for set in $(seq 2 "$sets"); do
  echo "== set 1 vs set $set =="
  "$bin" --compare benchmark/out/set1 "benchmark/out/set$set" || status=1
done
exit $status
