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
//!   the crossover, and persists it into `BENCH_kernels.json` under a
//!   `crossover` section;
//! * a persisted table can be loaded at runtime by pointing
//!   `SES_CROSSOVER_FILE` at a `BENCH_kernels.json`, or installed
//!   programmatically with [`set_crossover`].
//!
//! Bit-identity at any thread count makes all of this pure scheduling: the
//! dispatch decision can never change a result, only its latency.

use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use crate::sync::{AtomicBool, AtomicUsize};

/// `(kernel, crossover work size)` — at or above the crossover the kernel
/// runs at the caller's thread count, below it the clamp forces serial.
/// Defaults calibrated by `cargo bench -p ses-tensor --bench kernels` on the
/// reference 4-core container (see BENCH_kernels.json `crossover` section);
/// a run on different hardware can recalibrate and load its own table via
/// `SES_CROSSOVER_FILE`.
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
    ensure_env_table_loaded();
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

/// Loads a persisted crossover table from `SES_CROSSOVER_FILE` (a
/// `BENCH_kernels.json` with a `crossover` section) exactly once per
/// process. Unreadable files and unknown kernels are skipped — a stale
/// table must never break dispatch, only leave the defaults in place.
fn ensure_env_table_loaded() {
    static LOADED: OnceLock<()> = OnceLock::new();
    LOADED.get_or_init(|| {
        let Ok(path) = std::env::var("SES_CROSSOVER_FILE") else {
            return;
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            ses_obs::info!("ses-tensor: SES_CROSSOVER_FILE `{path}` unreadable; using defaults");
            return;
        };
        let applied = load_from_json(&text);
        ses_obs::info!("ses-tensor: loaded {applied} crossover entries from `{path}`");
    });
}

/// Applies every `crossover_work` entry found in a BENCH_kernels.json text;
/// returns how many were applied. Line-oriented (the bench writer emits one
/// entry per line); tolerant of anything it doesn't recognise.
pub fn load_from_json(text: &str) -> usize {
    let mut applied = 0;
    for line in text.lines() {
        let Some(work) = json_field(line, "crossover_work").and_then(|v| v.parse::<usize>().ok())
        else {
            continue;
        };
        let Some(kernel) = json_field(line, "kernel") else {
            continue;
        };
        if let Some(s) = slot(&kernel) {
            s.store(work, Ordering::Relaxed); // ordering: standalone threshold value; no data guarded
            applied += 1;
        }
    }
    applied
}

/// Extracts the value of `"key": <value>` from a single JSON line, with or
/// without quotes around the value. Mirrors the bench suite's parser — the
/// workspace is offline, so no JSON dependency exists to share.
fn json_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start();
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
    let v = rest[..end].trim();
    (!v.is_empty()).then(|| v.to_string())
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

    #[test]
    fn json_table_round_trips() {
        let before = crossover("t_matmul");
        let text = concat!(
            "  {\"kernel\": \"t_matmul\", \"crossover_work\": 777, \"unit\": \"flops\"},\n",
            "  {\"kernel\": \"spmm\", \"size\": \"ba_shapes\", \"threads\": 2, \"mean_ns\": 5},\n",
            "  {\"kernel\": \"no-such-kernel\", \"crossover_work\": 1},\n",
        );
        let applied = load_from_json(text);
        assert_eq!(applied, 1);
        assert_eq!(crossover("t_matmul"), 777);
        set_crossover("t_matmul", before);
    }
}
