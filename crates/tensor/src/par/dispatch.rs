//! Measured per-kernel crossover dispatch: serial below the size where
//! parallelism starts paying, parallel above it.
//!
//! The old policy was a single constant (`SPARSE_SERIAL_NNZ = 8_192`)
//! applied to the sparse kernels only. It had two defects: one number for
//! five kernels with very different per-entry costs, and nothing at all for
//! the dense family (which also loses to serial on small shapes — a 32×32
//! matmul forks threads for ~4µs of work). This module keeps a **per-kernel
//! crossover table**:
//!
//! * each kernel reports its *work size* — stored entries (`nnz`) for the
//!   sparse family, `m·k·n` multiply-adds for the matmul family — and
//!   [`threads_for`] clamps the thread count to 1 below the kernel's
//!   crossover;
//! * the compiled-in defaults are **calibrated at bench time**: the bench
//!   suite measures raw serial vs raw parallel per kernel per size (with
//!   [`set_bypass`] so the clamp doesn't hide the losing region), derives
//!   the crossover, installs it with [`set_crossover`], and records it in
//!   `BENCH_kernels.json` under a `crossover` section.
//!
//! Bit-identity at any thread count makes all of this pure scheduling: the
//! dispatch decision can never change a result, only its latency.

use std::sync::atomic::Ordering;

use crate::sync::{AtomicBool, AtomicUsize};

/// `(kernel, crossover work size)` — at or above the crossover the kernel
/// runs at the caller's thread count, below it the clamp forces serial.
/// Defaults calibrated by `cargo bench -p ses-tensor --bench kernels` on the
/// reference 4-core container (see BENCH_kernels.json `crossover` section);
/// the bench recalibrates on the hardware it runs on and installs its own
/// table with [`set_crossover`] for the rest of its run.
static TABLE: [(&str, AtomicUsize); 8] = [
    // Sparse family: work = stored entries (nnz).
    ("spmm", AtomicUsize::new(12_288)),
    ("spmm_transpose", AtomicUsize::new(12_288)),
    ("spmm_values_grad", AtomicUsize::new(12_288)),
    ("edge_softmax", AtomicUsize::new(65_536)),
    ("edge_softmax_backward", AtomicUsize::new(65_536)),
    // Dense family: work = m·k·n multiply-adds.
    ("matmul", AtomicUsize::new(1_048_576)),
    ("t_matmul", AtomicUsize::new(1_048_576)),
    ("matmul_t", AtomicUsize::new(1_048_576)),
];

/// When set, [`threads_for`] returns the caller's thread count unchanged.
/// The bench calibrator needs raw parallel timings in exactly the region
/// the clamp exists to protect, and the worker-panic fault drills need
/// small problems to spawn workers at all.
static BYPASS: AtomicBool = AtomicBool::new(false);

/// Enables or disables the crossover clamp (bench calibration, fault
/// drills and parity tests only; it changes scheduling, never bits).
pub fn set_bypass(on: bool) {
    BYPASS.store(on, Ordering::Relaxed); // ordering: standalone calibration flag; no data guarded
}

/// The kernel names this table knows, in table order.
pub fn kernels() -> Vec<&'static str> {
    TABLE.iter().map(|(k, _)| *k).collect()
}

fn slot(kernel: &str) -> Option<&'static AtomicUsize> {
    TABLE.iter().find(|(k, _)| *k == kernel).map(|(_, v)| v)
}

/// Current crossover work size for `kernel` (`usize::MAX` ⇒ always serial).
///
/// # Panics
/// Panics on an unknown kernel name — a typo in a call site should fail in
/// the first test that runs it, not silently never clamp.
pub fn crossover(kernel: &str) -> usize {
    slot(kernel)
        // lint:allow(no-unwrap): documented panic — a typo'd kernel name
        // must fail the first test that runs it, not silently never clamp
        .unwrap_or_else(|| panic!("dispatch: unknown kernel `{kernel}`"))
        .load(Ordering::Relaxed) // ordering: standalone threshold value; no data guarded
}

/// Installs a crossover for `kernel`. Unknown names panic (same rationale
/// as [`crossover`]).
pub fn set_crossover(kernel: &str, work: usize) {
    slot(kernel)
        // lint:allow(no-unwrap): documented panic, same rationale as
        // `crossover`
        .unwrap_or_else(|| panic!("dispatch: unknown kernel `{kernel}`"))
        .store(work, Ordering::Relaxed); // ordering: standalone threshold value; no data guarded
}

/// The thread count `kernel` should actually run at for a problem of size
/// `work`: 1 below the kernel's crossover, the caller's `threads` at or
/// above it. This is what replaced `par::size_aware_threads`.
pub fn threads_for(kernel: &str, work: usize, threads: usize) -> usize {
    // ordering: standalone calibration flag; no data guarded
    if BYPASS.load(Ordering::Relaxed) {
        return threads;
    }
    if work < crossover(kernel) {
        1
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_for_clamps_below_crossover() {
        let x = crossover("spmm");
        assert_eq!(threads_for("spmm", x - 1, 8), 1);
        assert_eq!(threads_for("spmm", x, 8), 8);
        assert_eq!(threads_for("spmm", 0, 4), 1);
    }

    #[test]
    fn bypass_disables_the_clamp() {
        set_bypass(true);
        assert_eq!(threads_for("spmm", 0, 4), 4);
        set_bypass(false);
        assert_eq!(threads_for("spmm", 0, 4), 1);
    }

    #[test]
    fn every_kernel_has_an_entry() {
        for k in [
            "spmm",
            "spmm_transpose",
            "spmm_values_grad",
            "edge_softmax",
            "edge_softmax_backward",
            "matmul",
            "t_matmul",
            "matmul_t",
        ] {
            assert!(crossover(k) > 0, "{k}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn unknown_kernel_panics() {
        crossover("not-a-kernel");
    }
}
