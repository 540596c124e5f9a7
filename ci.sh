#!/usr/bin/env bash
# Full local CI gate: formatting, lints (compiler + workspace lint pass),
# and the tier-1 test suite. See docs/CORRECTNESS.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets: tests, benches and examples are linted too.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo run -p ses-lint"
cargo run -q -p ses-lint

echo "== cargo run -p ses-verify (static tape-IR + partition gate)"
cargo run -q -p ses-verify
# The verifier must also still *reject* known-bad inputs: each seeded
# defect run is required to exit non-zero.
for defect in shape-mismatch backward-gap broken-partitioner; do
  if cargo run -q -p ses-verify -- --seed-defect "$defect" >/dev/null 2>&1; then
    echo "ci: ses-verify failed to reject seeded defect '$defect'" >&2
    exit 1
  fi
done

echo "== cargo test -q"
cargo test -q

echo "== sesbench builds and passes its self-tests (release)"
# The end-to-end benchmark is its own cargo workspace and compiles against
# the library crates' public items; a benchmark that no longer builds fails
# every run, so build it (and run its self-tests) on every change.
cargo test -q --release --offline --manifest-path sesbench/Cargo.toml

echo "== crate tests (tensor, core, verify, lint, obs, serve, explain, graph, data, metrics, gnn, resilience, race, bench; release)"
# Tier-1 above runs only the facade package; the kernel, tape-op, verifier,
# telemetry, serving, explainer, graph, dataset, metric, encoder,
# checkpoint, model-checker and bench-harness suites live in their own
# crates. Release: the core training tests run whole fits, which take
# minutes under the debug sanitizer.
cargo test -q --release -p ses-tensor -p ses-core -p ses-verify -p ses-lint -p ses-obs -p ses-serve -p ses-explain \
  -p ses-graph -p ses-data -p ses-metrics -p ses-gnn -p ses-resilience -p ses-race -p ses-bench

echo "== race-check (model-checked interleavings, <60s budget)"
# The clean suite must explore >=10k schedules and exit 0; each seeded
# concurrency defect (a real bug compiled into the checked code) must be
# caught, i.e. exit non-zero with a minimal failing schedule. Dev profile:
# the checker is branchy interpreter-style code, release buys nothing here.
cargo run -q -p ses-race-suite --features race --bin ses-race
for defect in lost-increment torn-snapshot double-lease dropped-task; do
  if cargo run -q -p ses-race-suite --features race --bin ses-race -- \
      --seed-defect "$defect" >/dev/null 2>&1; then
    echo "ci: ses-race failed to catch seeded concurrency defect '$defect'" >&2
    exit 1
  fi
done

echo "== telemetry pipeline (traced quickstarts, exporters, noise-aware diff)"
# Two identical instrumented runs: JSONL + Prometheus + Chrome-trace outputs
# must all validate, and `ses-obs diff` must call them unchanged.
for run in a b; do
  SES_OBS=1 \
  SES_OBS_FILE="$PWD/target/obs_ci_$run.jsonl" \
  SES_OBS_PROM_FILE="$PWD/target/obs_ci_$run.prom" \
  SES_OBS_CHROME="$PWD/target/obs_ci_$run.chrome.json" \
  SES_QUICKSTART_EPOCHS=3 \
  cargo run -q --example quickstart >/dev/null
  cargo run -q -p ses-obs --bin obs-validate -- "$PWD/target/obs_ci_$run.jsonl"
  cargo run -q -p ses-obs --bin obs-validate -- --prom "$PWD/target/obs_ci_$run.prom"
  cargo run -q -p ses-obs --bin obs-validate -- --chrome "$PWD/target/obs_ci_$run.chrome.json"
done
cargo run -q -p ses-obs --bin ses-obs -- trend "$PWD/target/obs_ci_a.jsonl" >/dev/null
# Identical runs: no regression verdict allowed (generous thresholds keep
# shared-runner noise out; a metric must double AND move 50ms to regress).
cargo run -q -p ses-obs --bin ses-obs -- diff \
  "$PWD/target/obs_ci_a.jsonl" "$PWD/target/obs_ci_b.jsonl" \
  --threshold 1.0 --abs-floor-ms 50
# …and the regression path must actually fire: a seeded 4x slowdown on run B
# has to produce a regression verdict (exit 1).
if cargo run -q -p ses-obs --bin ses-obs -- diff \
    "$PWD/target/obs_ci_a.jsonl" "$PWD/target/obs_ci_b.jsonl" \
    --threshold 1.0 --abs-floor-ms 50 --drill-slowdown 4 >/dev/null; then
  echo "ci: ses-obs diff failed to flag a seeded 4x slowdown" >&2
  exit 1
fi

echo "== fault-injection drills (seeded faults recover; fatal with recovery off)"
# Each fault mode must be absorbed by the recovery layer under the standard
# policy (exit 0, recovery counters non-zero — the drill binary checks them),
# and the *same* fault must be fatal when recovery is disabled, proving the
# recovery path is what saved the run.
for fault in "nan-grad@3,seed=7" "worker-panic@3,seed=7" "ckpt-io@3,seed=7"; do
  echo "   -- $fault (recovery on: must recover)"
  SES_FAULT="$fault" cargo run -q -p ses-gnn --bin fault-drill
  echo "   -- $fault (recovery off: must be fatal)"
  if SES_FAULT="$fault" SES_RECOVERY=off cargo run -q -p ses-gnn --bin fault-drill \
      >/dev/null 2>&1; then
    echo "ci: fault '$fault' was survived with recovery disabled" >&2
    exit 1
  fi
done

echo "== serve drills (serve-path faults degrade gracefully; fatal with recovery off)"
# Each serve-path fault must be absorbed by the runtime's nets under the
# standard policy — the process stays up, every request completes (possibly
# degraded), the matching serve.* counter moves, and the overload burst
# sheds — and the *same* fault must be fatal with recovery disabled. The
# emitted serve_counters record is validated so the telemetry contract
# (serve.shed / serve.degraded.* / serve.deadline.breach / serve.cache.*)
# holds end to end.
for fault in "slow-stage@encode" "panic@request-3" "cache-poison"; do
  echo "   -- $fault (recovery on: must degrade and recover)"
  SES_FAULT="$fault" \
  SES_OBS=1 \
  SES_OBS_FILE="$PWD/target/serve_drill.jsonl" \
  cargo run -q -p ses-serve --bin serve-drill
  cargo run -q -p ses-obs --bin obs-validate -- "$PWD/target/serve_drill.jsonl" \
    --require serve_counters
  echo "   -- $fault (recovery off: must be fatal)"
  if SES_FAULT="$fault" SES_RECOVERY=off cargo run -q -p ses-serve --bin serve-drill \
      >/dev/null 2>&1; then
    echo "ci: serve fault '$fault' was survived with recovery disabled" >&2
    exit 1
  fi
done

echo "== bench smoke (quick mode, regression gate)"
# Absolute paths: cargo runs the bench binary from the package root.
SES_BENCH_QUICK=1 \
SES_BENCH_OUT="$PWD/BENCH_kernels.json" \
SES_BENCH_BASELINE="$PWD/crates/tensor/benches/BENCH_baseline.json" \
cargo bench -q -p ses-tensor --bench kernels

echo "ci: all gates green"
