//! `ses-obs` — the observability substrate of the SES workspace: a span-based
//! tracer, a lock-free metrics registry, and a JSONL telemetry sink.
//!
//! Zero external dependencies (consistent with the offline vendored-stub
//! policy); everything is built on `std` atomics, [`std::time::Instant`] and
//! plain file IO.
//!
//! # Components
//!
//! * [`spans`] — RAII [`span!`] guards with nesting and wall-clock timing.
//!   Aggregation is a fixed table of atomics keyed by the span's static
//!   name, so guards dropped concurrently from the `par` fork/join workers
//!   never take a lock.
//! * [`metrics`] — typed [`Counter`]s and [`Gauge`]s behind relaxed
//!   atomics, plus the well-known instruments the tensor/gnn/core crates
//!   increment (kernel invocations, nnz processed, allocation churn, tape
//!   nodes, sanitizer events).
//! * [`sink`] + [`Record`] — JSONL event records (per-epoch training
//!   telemetry, explanation latency, timing rows) written to the file named
//!   by `SES_OBS_FILE`.
//! * [`log`] — the routing layer for human-oriented lines. Library crates
//!   must not call `println!`/`eprintln!` directly (enforced by the
//!   `no-println-in-lib` lint rule); they call [`info!`]/[`outln!`], which
//!   write to stderr/stdout and mirror to the sink when it is active.
//! * [`summary`] — the human-readable end-of-run table over everything the
//!   registry and tracer collected.
//! * [`json`] — a minimal JSON parser used by the schema validator
//!   (`obs-validate`) and the telemetry integration tests.
//! * [`trace`] — request-scoped trace contexts: `TraceId`/`SpanId`/parent
//!   propagation through `span!` guards and across scoped worker threads,
//!   reconstructing one tree per request.
//! * [`hist`] — log-linear (HDR-style) latency histograms with
//!   p50/p90/p99/p99.9 estimation at a documented relative-error bound.
//! * [`export`] — Prometheus text-format snapshots (`SES_OBS_PROM_FILE`)
//!   and Chrome trace-event JSON (`SES_OBS_CHROME`).
//! * [`analyze`] — JSONL telemetry analysis (top spans, trends, run
//!   diffing) behind the `ses-obs` CLI.
//! * [`time`] — the [`Stopwatch`] library code must use instead of raw
//!   `std::time::Instant` (enforced by the `no-raw-instant-in-lib` lint).
//!
//! # Activation
//!
//! * `SES_OBS=1` (any value other than `0`/`off`) — telemetry on;
//! * `SES_OBS=0` / `SES_OBS=off` — telemetry off;
//! * unset — on when `SES_OBS_FILE` is set, off otherwise.
//!
//! The decision is cached after first use; one relaxed atomic load guards
//! every instrumentation site, so the disabled path costs a load and a
//! predictable branch (verified to stay under 2% of an spmm call by the
//! kernel bench gate — see `docs/OBSERVABILITY.md`).

pub mod analyze;
pub mod export;
pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod record;
pub mod sink;
pub mod spans;
pub mod summary;
pub(crate) mod sync;
pub mod time;
pub mod trace;

pub use hist::{HistSnapshot, LogHistogram};
pub use metrics::{Counter, Gauge};
pub use record::Record;
pub use spans::{SpanGuard, SpanStat};
pub use summary::{print_summary, summary_string};
pub use time::Stopwatch;
pub use trace::{SpanId, TraceContext, TraceId};

use std::sync::atomic::Ordering;

use crate::sync::AtomicU8;

/// Tri-state atomic: 0 = undecided, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);
/// Programmatic override (tests, the disabled-path probe): 0 none, 1 off,
/// 2 on. Takes priority over the cached environment decision.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// True when telemetry collection is active for this process.
///
/// Hot-path cost when disabled: one relaxed atomic load and a branch.
#[inline]
pub fn enabled() -> bool {
    // ordering: independent on/off flag; no data guarded
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => return false,
        2 => return true,
        _ => {}
    }
    // ordering: independent on/off flag; no data guarded
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

/// Resolves the environment decision once and caches it.
fn init_from_env() -> bool {
    let on = match std::env::var("SES_OBS") {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off")),
        Err(_) => std::env::var_os("SES_OBS_FILE").is_some(),
    };
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed); // ordering: independent on/off flag; no data guarded
    on
}

/// Forces telemetry on/off (`Some`) or restores the environment decision
/// (`None`). For tests and the disabled-path probe; takes effect for all
/// subsequent instrumentation in this process.
pub fn set_enabled_override(state: Option<bool>) {
    let v = match state {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed); // ordering: independent on/off flag; no data guarded
}

/// Serialises [`force_enabled`] guards across the process.
static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Telemetry forced on or off for as long as this guard lives; see
/// [`force_enabled`].
pub struct EnabledGuard {
    prev: u8,
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        OVERRIDE.store(self.prev, Ordering::Relaxed); // ordering: independent on/off flag; no data guarded
    }
}

/// Forces telemetry on (`true`) or off until the returned guard drops,
/// then restores the override that was in place before.
///
/// The switch is one process-wide flag, and the test harness runs tests on
/// parallel threads, so a test that toggles it or asserts a telemetry delta
/// holds this guard: guards take a process-wide lock, so no sibling can
/// flip the flag mid-test. The lock ignores poisoning, so one failed test
/// does not fail every later one. Inside the guard's lifetime a test may
/// still call [`set_enabled_override`]; dropping the guard undoes it.
pub fn force_enabled(on: bool) -> EnabledGuard {
    let lock = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = OVERRIDE.load(Ordering::Relaxed); // ordering: independent on/off flag; no data guarded
    set_enabled_override(Some(on));
    EnabledGuard { prev, _lock: lock }
}

/// Measures the per-iteration wall-clock cost of the *disabled*
/// instrumentation preamble an spmm call pays (one span guard plus two
/// counter bumps), in nanoseconds. Used by the kernel bench gate to assert
/// the disabled path stays under 2% of an spmm invocation.
pub fn disabled_path_cost_ns(iters: u64) -> f64 {
    let iters = iters.max(1);
    set_enabled_override(Some(false));
    let start = std::time::Instant::now();
    for i in 0..iters {
        let g = spans::span(std::hint::black_box("obs.probe"));
        metrics::SPMM_CALLS.add(1);
        metrics::SPMM_NNZ.add(std::hint::black_box(i & 1));
        drop(g);
    }
    let ns = start.elapsed().as_nanos();
    set_enabled_override(None);
    // lint:allow(no-f64-in-kernels): not a tensor kernel — timing arithmetic
    ns as f64 / iters as f64
}

/// Measures the per-iteration cost of the same instrumentation preamble
/// with telemetry *enabled* (span-table aggregation plus counter bumps; no
/// trace active, matching a kernel call inside a training epoch), in
/// nanoseconds. Used by the bench gate asserting enabled-tracing overhead
/// stays under 2% of a serial epoch.
pub fn enabled_path_cost_ns(iters: u64) -> f64 {
    let iters = iters.max(1);
    set_enabled_override(Some(true));
    let start = std::time::Instant::now();
    for i in 0..iters {
        let g = spans::span(std::hint::black_box("obs.probe"));
        metrics::SPMM_CALLS.add(1);
        metrics::SPMM_NNZ.add(std::hint::black_box(i & 1));
        drop(g);
    }
    let ns = start.elapsed().as_nanos();
    set_enabled_override(None);
    // lint:allow(no-f64-in-kernels): not a tensor kernel — timing arithmetic
    ns as f64 / iters as f64
}

/// Creates a named RAII span guard: `let _g = ses_obs::span!("phase");`.
/// Timing is recorded when the guard drops; a disabled tracer returns an
/// inert guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::spans::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_controls_enabled() {
        let _obs = force_enabled(true);
        assert!(enabled());
        set_enabled_override(Some(false));
        assert!(!enabled());
        set_enabled_override(None);
        let _ = enabled(); // env decision; just must not panic
    }

    #[test]
    fn guard_restores_the_previous_override() {
        let first = force_enabled(true);
        let prev = first.prev;
        set_enabled_override(Some(false));
        drop(first);
        let second = force_enabled(true);
        assert_eq!(second.prev, prev);
    }

    #[test]
    fn guard_survives_a_panicking_holder() {
        let panicked = std::thread::spawn(|| {
            let _obs = force_enabled(true);
            panic!("test body failed while holding the guard");
        })
        .join();
        assert!(panicked.is_err());
        let _obs = force_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn disabled_probe_is_cheap_and_positive() {
        let _obs = force_enabled(false);
        let ns = disabled_path_cost_ns(10_000);
        assert!(ns >= 0.0);
        // A relaxed load + branch costs nanoseconds, not microseconds.
        assert!(ns < 10_000.0, "disabled path suspiciously slow: {ns} ns");
    }
}
