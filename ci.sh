#!/usr/bin/env bash
# Repo CI gate: build + tests (tier-1 plus the full workspace), format,
# lint. Run from the repo root; any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== rustfmt =="
cargo fmt --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== protocol lint (deny) =="
cargo run -q --release -p mvc-analysis --bin protocol_lint -- .

echo "== hb-audit tests (vector-clock instrumentation on) =="
cargo test -q -p mvc-whips --features hb-audit

echo "== lock audit (manifest lint deny + lockdep/hb threaded smoke) =="
# Static half: every lock construction and statically visible acquisition
# nesting in whips/readpath/warehouse must match analysis/locks.toml.
cargo run -q --release -p mvc-analysis --bin lock_lint -- .
# Runtime half: lockdep + vector-clock instrumentation on, negative
# tests included (inverted order -> cycle, stale cut -> read-path hb).
cargo test -q -p mvc-core --features lock-audit
cargo test -q -p mvc-whips --features "lock-audit hb-audit"
# Smoke: a mixed reader/writer threaded run must certify with zero
# lock-order cycles and zero read-path hb violations.
cargo run -q --release -p mvc-bench --features "lock-audit hb-audit" --bin lock_smoke

echo "== explorer smoke (SPA + PA interleaving census, oracle-certified) =="
cargo run -q --release -p mvc-bench --bin explore_smoke

echo "== durable smoke (explorer x durability: every crash point of every schedule) =="
# Both recovery classes (watermark + delivery replay): every complete
# schedule of the pinned census replayed durably, crash-recovered at every
# WAL-record prefix, and the stitched history oracle-certified. 100% or fail.
cargo run -q --release -p mvc-bench --bin durable_smoke

echo "== durability bench gate (fsync sweep monotone + vs committed artifact) =="
# Deterministic sim sweep: effective commit rate must rise monotonically
# across fsync_every 1 -> 8 -> 32 (asserted inside the bin) and must not
# regress >20% against the committed BENCH_pipeline.json durability rows.
cargo run -q --release -p mvc-bench --bin bench_pipeline -- \
  --only durability --out target/bench_durability.json \
  --check BENCH_pipeline.json

echo "== read smoke (MVCC reader workloads, every cut certified) =="
# Sim leg is deterministic and gated against the committed artifact's
# mixed_readers numbers; threaded leg races 4 reader threads against
# real commits and certifies every observed cut.
cargo run -q --release -p mvc-bench --bin read_smoke -- --check BENCH_pipeline.json

echo "== shard smoke (sharded commit plane: sim gated, threaded certified) =="
# Sim leg is deterministic: same-seed reproduction, full shard-plane
# certification, and emulated-parallel commit throughput scaling with the
# group count. Threaded leg runs G>=2 groups over S=2 shards with reader
# threads active and certifies (no wall-clock assertion on 1 CPU).
cargo run -q --release -p mvc-bench --bin shard_smoke

echo "== bench smoke (mixed scenario vs committed baseline, 20% tolerance) =="
# Writes to a scratch path so the committed BENCH_pipeline.json artifact is
# never clobbered. The rows are deterministic sim runs, so the gate is
# noise-free. BENCH_SMOKE=0 skips.
if [[ "${BENCH_SMOKE:-1}" == "1" ]]; then
  cargo run -q --release -p mvc-bench --bin bench_pipeline -- \
    --only mixed --out target/bench_smoke.json \
    --check BENCH_pipeline.json
else
  echo "== bench smoke skipped (BENCH_SMOKE=0) =="
fi

echo "== benchmark package (build vs the public API, lint, unit tests, oracle-certified check pass) =="
# benchmark/ is a package of its own ([workspace] is empty), so nothing
# above compiles it. `--check` stops before any timed run: build, fmt,
# clippy -D warnings, unit tests, then all four BENCHMARK.json workloads
# through both drivers under the full oracle (reader certification,
# crash-recover stitching), about a minute. BENCH_SMOKE=0 skips.
if [[ "${BENCH_SMOKE:-1}" == "1" ]]; then
  benchmark/run.sh --check
else
  echo "== benchmark check skipped (BENCH_SMOKE=0) =="
fi

# Optional deep checks: opt in with MIRI=1 / TSAN=1. Both need extra
# toolchain components, so they skip gracefully when unavailable.
if [[ "${MIRI:-0}" == "1" ]]; then
  if rustup component list 2>/dev/null | grep -q "^miri.*(installed)"; then
    echo "== miri (mvc-core unit tests) =="
    cargo miri test -p mvc-core
  else
    echo "== miri requested but not installed; skipping =="
  fi
fi
if [[ "${TSAN:-0}" == "1" ]]; then
  if rustup component list 2>/dev/null | grep -q "^rust-src.*(installed)"; then
    echo "== thread sanitizer (mvc-whips threaded tests) =="
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -p mvc-whips --target x86_64-unknown-linux-gnu -Zbuild-std threaded || {
      echo "== thread sanitizer run failed (nightly/toolchain issue); skipping =="
    }
  else
    echo "== thread sanitizer requested but rust-src not installed; skipping =="
  fi
fi

echo "CI OK"
