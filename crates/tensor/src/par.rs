//! Deterministic scoped-thread parallel execution layer.
//!
//! The workspace is offline (no rayon — only vendored stubs exist), so this
//! module hand-rolls the little scheduling the kernels need on top of
//! [`std::thread::scope`]:
//!
//! * [`run_tasks`] — run a vector of closures on up to `threads` worker
//!   threads and return their results **in task order**, so any merge over
//!   the results is deterministic;
//! * [`even_ranges`] / [`nnz_balanced_ranges`] — contiguous, disjoint
//!   partitions of row spaces (uniform, or balanced by CSR entry counts);
//! * [`split_rows_mut`] — carve one flat output buffer into per-partition
//!   mutable slices so workers write disjoint memory without locks;
//! * [`run_isolated`] — fault containment for the kernel wrappers: the
//!   parallel attempt runs under `catch_unwind`, and a poisoned worker
//!   degrades the op to a fresh serial computation (bit-identical by the
//!   determinism contract below) instead of aborting the process. This is
//!   the only sanctioned `catch_unwind` outside `crates/resilience` (the
//!   `no-catch-unwind-outside-resilience` lint rule enforces it).
//!
//! # Determinism contract
//!
//! Every kernel built on this layer (see [`crate::kernels`]) produces output
//! that is **bit-identical at any thread count**, including 1. The rules that
//! make this hold:
//!
//! 1. work is partitioned over *output* elements, never over reduction
//!    domains, so each output element is computed by exactly one task with a
//!    serial, fixed accumulation order; or
//! 2. where output elements collide across tasks (`spmm_transpose`), the
//!    partition geometry is a pure function of the problem shape — never of
//!    the thread count — and per-block partial outputs are merged in block
//!    order on the calling thread.
//!
//! # Thread-count configuration
//!
//! [`configured_threads`] resolves, in priority order: the process-local
//! programmatic override ([`set_thread_override`], used by tests and
//! benches), the `SES_THREADS` environment variable (a positive integer; `0`
//! or unset means "auto"), then [`std::thread::available_parallelism`].
//! The environment lookup is cached once per process.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Once, OnceLock};

use crate::sync::{AtomicBool, AtomicUsize};

pub mod dispatch;

/// Process-local thread-count override; 0 means "no override". Written by
/// [`set_thread_override`] (tests/benches), read by [`configured_threads`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (n ≥ 1) or clears (n = 0) the programmatic thread-count override.
///
/// Exists so tests and benches can exercise specific thread counts without
/// mutating process environment (the `SES_THREADS` lookup is cached). Takes
/// effect for all subsequent kernel wrapper calls in this process.
pub fn set_thread_override(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed); // ordering: standalone config knob; readers only need the value
}

/// The thread count every kernel wrapper uses: override, else `SES_THREADS`,
/// else the machine's available parallelism (min 1).
pub fn configured_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed); // ordering: standalone config knob; readers only need the value
    if o > 0 {
        return o;
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        match std::env::var("SES_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

// The old single-constant serial fallback (`SPARSE_SERIAL_NNZ = 8_192`,
// `size_aware_threads`) is gone: every kernel wrapper now consults the
// measured per-kernel crossover table in [`dispatch`] instead.

/// When `false`, [`run_isolated`] stops catching worker panics and lets them
/// propagate (and abort the process). Only the fault-injection drill should
/// ever flip this — it is how CI proves an injected worker panic is fatal
/// without the isolation layer.
static ISOLATION_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables (default) or disables the panic-isolation layer in
/// [`run_isolated`].
pub fn set_isolation_enabled(on: bool) {
    ISOLATION_ENABLED.store(on, Ordering::Relaxed); // ordering: standalone config knob; readers only need the value
}

/// True when [`run_isolated`] degrades panicking parallel ops to serial.
pub fn isolation_enabled() -> bool {
    ISOLATION_ENABLED.load(Ordering::Relaxed) // ordering: standalone config knob; readers only need the value
}

thread_local! {
    /// Fault-injection countdown: `-1` disarmed; `n ≥ 0` means the `n`-th
    /// subsequent *spawning* [`run_tasks`] call on this thread poisons one
    /// worker. Thread-local so concurrent tests (and unrelated training
    /// threads) cannot consume each other's armed faults.
    static WORKER_PANIC_COUNTDOWN: Cell<isize> = const { Cell::new(-1) };
}

/// Arms the seeded worker-panic fault: the `nth` (0-based) subsequent
/// parallel op on this thread panics one spawned worker. Used by the
/// `SES_FAULT=worker-panic@…` harness; see `docs/ROBUSTNESS.md`.
pub fn arm_worker_panic(nth: usize) {
    // lint:allow(no-narrowing-cast): fault ordinals are tiny by construction
    WORKER_PANIC_COUNTDOWN.with(|c| c.set(nth as isize));
}

/// Disarms a pending worker-panic fault on this thread.
pub fn disarm_worker_panic() {
    WORKER_PANIC_COUNTDOWN.with(|c| c.set(-1));
}

/// Ticks the countdown; true when this parallel op should poison a worker.
fn take_worker_panic() -> bool {
    WORKER_PANIC_COUNTDOWN.with(|c| {
        let v = c.get();
        if v < 0 {
            return false;
        }
        c.set(v - 1);
        v == 0
    })
}

/// Runs `tasks` on up to `threads` OS threads (scoped; borrows allowed) and
/// returns the results **in task order**.
///
/// Tasks are assigned to workers in contiguous chunks; the calling thread
/// executes the first chunk itself, so `threads == 1` (or a single task)
/// degenerates to a plain in-order loop with no spawning at all. A panicking
/// task is resumed on the calling thread.
pub fn run_tasks<T, F>(threads: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if threads <= 1 || n <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let inject_panic = take_worker_panic();
    // Capture the submitting thread's trace context (if a request is open)
    // so worker spans land in the same trace tree as the caller's.
    let trace_ctx = ses_obs::trace::current();
    let workers = threads.min(n);
    // Contiguous chunks, sizes differing by at most one.
    let mut chunks: Vec<Vec<F>> = Vec::with_capacity(workers);
    let mut rest = tasks;
    for w in 0..workers {
        let remaining = rest.len();
        let take = remaining.div_ceil(workers - w);
        let tail = rest.split_off(take);
        chunks.push(rest);
        rest = tail;
    }
    debug_assert!(rest.is_empty());

    let mut chunk_results: Vec<Vec<T>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let mut iter = chunks.into_iter();
        let first = iter.next();
        let handles: Vec<_> = iter
            .enumerate()
            .map(|(w, chunk)| {
                let poison = inject_panic && w == 0;
                s.spawn(move || {
                    let _trace = trace_ctx.map(ses_obs::trace::TraceContext::adopt);
                    assert!(!poison, "ses-fault: injected worker panic");
                    chunk.into_iter().map(|f| f()).collect::<Vec<T>>()
                })
            })
            .collect();
        if let Some(chunk) = first {
            chunk_results.push(chunk.into_iter().map(|f| f()).collect());
        }
        for h in handles {
            match h.join() {
                Ok(v) => chunk_results.push(v),
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    });
    chunk_results.into_iter().flatten().collect()
}

/// Runs a parallel op under panic isolation: the `parallel` attempt executes
/// under `catch_unwind`, and if any worker panics the whole attempt — its
/// partially written buffers included — is discarded and `serial` recomputes
/// the result from the untouched inputs. Because every kernel is
/// bit-identical at any thread count, the degraded result is exactly the one
/// the parallel attempt would have produced.
///
/// `serial` runs outside the catch: deterministic failures (shape asserts,
/// index panics) must still fail loudly rather than loop. With `threads <= 1`
/// the parallel attempt is skipped outright; with isolation disabled
/// ([`set_isolation_enabled`]) worker panics propagate and abort.
pub fn run_isolated<T>(
    op: &'static str,
    threads: usize,
    parallel: impl FnOnce() -> T,
    serial: impl FnOnce() -> T,
) -> T {
    if threads <= 1 {
        return serial();
    }
    if !isolation_enabled() {
        return parallel();
    }
    // AssertUnwindSafe is sound here: on panic the closure's partial outputs
    // are owned by the closure and dropped wholesale; the fallback recomputes
    // from inputs the attempt never mutated.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(parallel)) {
        Ok(v) => v,
        Err(payload) => {
            ses_obs::metrics::KERNEL_PANIC_DEGRADED.incr();
            warn_degraded_once(op, &payload);
            serial()
        }
    }
}

/// One-shot warning the first time any parallel op degrades to serial.
fn warn_degraded_once(op: &'static str, payload: &(dyn std::any::Any + Send)) {
    static WARNED: Once = Once::new();
    WARNED.call_once(|| {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        ses_obs::info!(
            "ses-tensor: worker panic in `{op}` ({msg}); op degraded to the serial path \
             (bit-identical). Further degradations are counted, not logged."
        );
    });
}

/// Splits `0..n` into at most `parts` contiguous non-empty ranges with sizes
/// differing by at most one. Deterministic; returns fewer ranges when
/// `n < parts` and none when `n == 0`.
pub fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let take = (n - start).div_ceil(parts - p);
        out.push(start..start + take);
        start += take;
    }
    out
}

/// Splits the rows of a CSR structure (described by its `indptr` array) into
/// at most `parts` contiguous ranges holding roughly equal entry counts, so
/// row-parallel sparse kernels stay balanced on skewed degree distributions.
/// Empty ranges are dropped; deterministic for fixed inputs.
pub fn nnz_balanced_ranges(indptr: &[usize], parts: usize) -> Vec<Range<usize>> {
    assert!(!indptr.is_empty(), "nnz_balanced_ranges: empty indptr");
    let n_rows = indptr.len() - 1;
    if n_rows == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n_rows);
    let total = indptr[n_rows];
    if parts == 1 || total == 0 {
        return std::iter::once(0..n_rows).collect();
    }
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 1..=parts {
        // Row index whose cumulative nnz first reaches the p-th quantile.
        // The product runs in u128 so the quantile stays exact even when
        // `total` approaches usize::MAX (verified by ses-verify's
        // beyond-the-bound partition sweep).
        // lint:allow(no-narrowing-cast): quotient ≤ total, which is a usize
        let target = ((total as u128 * p as u128) / parts as u128) as usize;
        let mut end = indptr.partition_point(|&x| x < target).max(start);
        if p == parts {
            end = n_rows;
        }
        let end = end.min(n_rows);
        if end > start {
            out.push(start..end);
            start = end;
        }
    }
    if start < n_rows {
        out.push(start..n_rows);
    }
    out
}

/// Carves a flat row-major buffer of `cols`-wide rows into one mutable slice
/// per range. `ranges` must be contiguous, ascending and start at row 0
/// (exactly what [`even_ranges`]/[`nnz_balanced_ranges`] produce).
pub fn split_rows_mut<'a>(
    mut data: &'a mut [f32],
    cols: usize,
    ranges: &[Range<usize>],
) -> Vec<&'a mut [f32]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut row = 0;
    for r in ranges {
        assert_eq!(r.start, row, "split_rows_mut: ranges must be contiguous");
        let (head, tail) = data.split_at_mut((r.end - r.start) * cols);
        out.push(head);
        data = tail;
        row = r.end;
    }
    out
}

/// Carves a flat per-entry buffer (one value per CSR entry) into one mutable
/// slice per row range, using `indptr` to find the entry boundaries.
pub fn split_entries_mut<'a>(
    mut data: &'a mut [f32],
    indptr: &[usize],
    ranges: &[Range<usize>],
) -> Vec<&'a mut [f32]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut pos = 0;
    for r in ranges {
        assert_eq!(
            indptr[r.start], pos,
            "split_entries_mut: ranges must be contiguous"
        );
        let (head, tail) = data.split_at_mut(indptr[r.end] - pos);
        out.push(head);
        data = tail;
        pos = indptr[r.end];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_preserves_order_at_any_thread_count() {
        for threads in [1, 2, 3, 4, 8, 33] {
            let tasks: Vec<_> = (0..17).map(|i| move || i * 10).collect();
            let out = run_tasks(threads, tasks);
            assert_eq!(out, (0..17).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_tasks_empty_and_single() {
        let none: Vec<fn() -> usize> = Vec::new();
        assert!(run_tasks(4, none).is_empty());
        assert_eq!(run_tasks(4, vec![|| 7usize]), vec![7]);
    }

    #[test]
    fn run_tasks_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            run_tasks(
                2,
                vec![Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>, {
                    Box::new(|| panic!("worker boom"))
                }],
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn even_ranges_cover_and_balance() {
        for (n, parts) in [(10, 3), (3, 10), (1, 1), (16, 4), (7, 2)] {
            let rs = even_ranges(n, parts);
            assert!(rs.len() <= parts);
            assert_eq!(rs.first().map(|r| r.start), Some(0));
            assert_eq!(rs.last().map(|r| r.end), Some(n));
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let sizes: Vec<_> = rs.iter().map(|r| r.len()).collect();
            let (mn, mx) = (sizes.iter().min(), sizes.iter().max());
            assert!(mx.zip(mn).is_some_and(|(a, b)| a - b <= 1));
        }
        assert!(even_ranges(0, 4).is_empty());
    }

    #[test]
    fn nnz_balanced_ranges_cover_rows() {
        // indptr for 6 rows with degrees 10, 0, 0, 1, 9, 2
        let indptr = [0usize, 10, 10, 10, 11, 20, 22];
        for parts in [1, 2, 3, 6, 9] {
            let rs = nnz_balanced_ranges(&indptr, parts);
            assert_eq!(rs.first().map(|r| r.start), Some(0));
            assert_eq!(rs.last().map(|r| r.end), Some(6));
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
        // all-empty rows collapse to a single range
        assert_eq!(nnz_balanced_ranges(&[0, 0, 0], 4), vec![0..2]);
    }

    #[test]
    fn split_rows_mut_disjoint_cover() {
        let mut buf = vec![0.0f32; 12];
        let ranges = even_ranges(4, 3); // rows of width 3
        let slices = split_rows_mut(&mut buf, 3, &ranges);
        let total: usize = slices.iter().map(|s| s.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn split_entries_mut_follows_indptr() {
        let indptr = [0usize, 2, 2, 5];
        let mut buf = vec![0.0f32; 5];
        let ranges = vec![0..1, 1..3];
        let slices = split_entries_mut(&mut buf, &indptr, &ranges);
        assert_eq!(slices[0].len(), 2);
        assert_eq!(slices[1].len(), 3);
    }

    #[test]
    fn dispatch_clamps_below_crossover() {
        let x = dispatch::crossover("spmm");
        assert_eq!(dispatch::threads_for("spmm", x - 1, 8), 1);
        assert_eq!(dispatch::threads_for("spmm", x, 8), 8);
        assert_eq!(dispatch::threads_for("spmm", 0, 4), 1);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn run_isolated_degrades_to_serial_on_worker_panic() {
        let expect: Vec<i32> = (0..8).map(|i| i * 2).collect();
        arm_worker_panic(0);
        let out = run_isolated(
            "test-op",
            4,
            || run_tasks(4, (0..8).map(|i| move || i * 2).collect::<Vec<_>>()),
            || (0..8).map(|i| i * 2).collect::<Vec<_>>(),
        );
        disarm_worker_panic();
        assert_eq!(out, expect);
    }

    #[test]
    fn run_isolated_counts_degradations() {
        let _obs = ses_obs::force_enabled(true);
        let before = ses_obs::metrics::KERNEL_PANIC_DEGRADED.get();
        arm_worker_panic(0);
        let out = run_isolated(
            "test-op-counted",
            4,
            || run_tasks(4, (0..8).map(|i| move || i + 1).collect::<Vec<_>>()),
            || (0..8).map(|i| i + 1).collect::<Vec<_>>(),
        );
        disarm_worker_panic();
        assert_eq!(out.len(), 8);
        assert!(ses_obs::metrics::KERNEL_PANIC_DEGRADED.get() > before);
    }

    #[test]
    fn run_isolated_serial_failures_still_propagate() {
        let r = std::panic::catch_unwind(|| {
            run_isolated("test-op-serial", 1, || 1, || -> i32 { panic!("shape") })
        });
        assert!(r.is_err());
    }

    #[test]
    fn disarmed_countdown_never_fires() {
        disarm_worker_panic();
        let tasks: Vec<_> = (0..6).map(|i| move || i).collect();
        assert_eq!(run_tasks(3, tasks), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn armed_countdown_fires_on_the_nth_parallel_op() {
        arm_worker_panic(1);
        // op 0: survives (countdown ticks 1 -> 0)
        let ok = run_tasks(2, (0..4).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(ok, (0..4).collect::<Vec<_>>());
        // op 1: fires
        let r = std::panic::catch_unwind(|| {
            run_tasks(2, (0..4).map(|i| move || i).collect::<Vec<_>>())
        });
        assert!(r.is_err());
        disarm_worker_panic();
    }
}
