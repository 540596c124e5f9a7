//! Dense matmul family: row-parallel, register-blocked lane kernels.
//!
//! All three variants run the same `matmul` body — `t_matmul` and `matmul_t`
//! first copy the operand they read transposed into a pooled scratch
//! buffer — which partitions the *output* rows across threads, so each
//! output element is produced by exactly one task accumulating over `k` in
//! ascending order — bit-identical at any thread count, and bit-identical to
//! the scalar reference bodies in [`super::reference`] (the lane structure
//! only regroups independent output elements; see [`super::lane`]).
//!
//! The hot loop is a `matmul` micro-panel: [`PANEL_ROWS`] output rows ×
//! `2·LANES` output columns accumulate in registers across the whole `k`
//! sweep. Each loaded row of `b` feeds all [`PANEL_ROWS`] accumulator rows
//! (the scalar loop reloaded it per row), and the output is stored once per
//! panel instead of read-modified-written per `k` step.
//!
//! Each public wrapper validates shapes up front, consults the measured
//! crossover table ([`par::dispatch`]) to decide serial vs parallel, then
//! runs its compute body through [`par::run_isolated`]: a worker panic
//! discards the parallel attempt and recomputes serially (same bits),
//! instead of killing the process. Output buffers are leased from the
//! per-thread scratch pool ([`crate::scratch`]).

use std::ops::Range;

use super::lane::{F32x8, LANES};
use crate::matrix::Matrix;
use crate::par;

/// Output rows per matmul micro-panel. Four rows × two lane columns is ten
/// live 8-wide registers (8 accumulators, 2 loads) — comfortably inside the
/// 16 architectural vector registers of x86-64/AArch64.
const PANEL_ROWS: usize = 4;

/// Bumps the matmul-family telemetry counters for an `m×k × k×n` product.
fn record_matmul(m: usize, k: usize, n: usize) {
    ses_obs::metrics::MATMUL_CALLS.incr();
    ses_obs::metrics::MATMUL_FLOPS.add((m as u64) * (k as u64) * (n as u64));
}

/// `a × b`: register-blocked lane micro-panels (see the module docs).
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    let _span = ses_obs::span!("kernel.matmul");
    record_matmul(a.rows(), a.cols(), b.cols());
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: shape mismatch {}x{} × {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    matmul_dispatch("matmul", a, b, threads)
}

/// Runs `a × b` at the thread count the crossover table gives `kernel` (the
/// name each matmul-family entry point is calibrated under), degrading to
/// the serial body if a worker panics.
fn matmul_dispatch(kernel: &'static str, a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    let work = a.rows() * a.cols() * b.cols();
    let threads = par::dispatch::threads_for(kernel, work, threads);
    par::run_isolated(
        kernel,
        threads,
        || matmul_impl(a, b, threads),
        || matmul_impl(a, b, 1),
    )
}

/// Compute body of [`matmul`] at an explicit thread count.
fn matmul_impl(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    let n = b.cols();
    let mut out = Matrix::zeros_pooled(a.rows(), n);
    let ranges = par::even_ranges(a.rows(), threads);
    let slices = par::split_rows_mut(out.as_mut_slice(), n, &ranges);
    let tasks: Vec<_> = ranges
        .into_iter()
        .zip(slices)
        .map(|(rows, slice)| move || matmul_rows(a, b, rows, slice))
        .collect();
    par::run_tasks(threads, tasks);
    out
}

/// Lane body of [`matmul`] for one output row block: full panels of
/// [`PANEL_ROWS`] rows, then a 1-row panel per leftover row.
fn matmul_rows(a: &Matrix, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
    let n = b.cols();
    let base = rows.start;
    let mut i = rows.start;
    while i + PANEL_ROWS <= rows.end {
        let (lo, hi) = (i - base, i - base + PANEL_ROWS);
        matmul_panel::<PANEL_ROWS>(a, b, i, &mut out[lo * n..hi * n]);
        i += PANEL_ROWS;
    }
    while i < rows.end {
        let lo = i - base;
        matmul_panel::<1>(a, b, i, &mut out[lo * n..(lo + 1) * n]);
        i += 1;
    }
}

/// One `R`-row matmul micro-panel: `out[r, :] += Σ_k a[i0+r, k] · b[k, :]`.
///
/// Column blocks of `2·LANES`, then `LANES`, then a scalar tail; every
/// element accumulates in ascending `k` with separate mul+add, exactly like
/// `reference::matmul`.
fn matmul_panel<const R: usize>(a: &Matrix, b: &Matrix, i0: usize, out: &mut [f32]) {
    let n = b.cols();
    let kk = a.cols();
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| a.row(i0 + r));
    let mut j = 0;
    while j + 2 * LANES <= n {
        let mut acc0 = [F32x8::zero(); R];
        let mut acc1 = [F32x8::zero(); R];
        #[allow(clippy::needless_range_loop)] // k indexes both a_rows[r] and b.row(k)
        for k in 0..kk {
            let b_seg = &b.row(k)[j..j + 2 * LANES];
            let vb0 = F32x8::load(&b_seg[0..LANES]);
            let vb1 = F32x8::load(&b_seg[LANES..2 * LANES]);
            for r in 0..R {
                let a_ik = a_rows[r][k];
                acc0[r] = acc0[r].add_scaled(a_ik, vb0);
                acc1[r] = acc1[r].add_scaled(a_ik, vb1);
            }
        }
        for r in 0..R {
            acc0[r].store(&mut out[r * n + j..r * n + j + LANES]);
            acc1[r].store(&mut out[r * n + j + LANES..r * n + j + 2 * LANES]);
        }
        j += 2 * LANES;
    }
    while j + LANES <= n {
        let mut acc = [F32x8::zero(); R];
        #[allow(clippy::needless_range_loop)] // k indexes both a_rows[r] and b.row(k)
        for k in 0..kk {
            let vb = F32x8::load(&b.row(k)[j..j + LANES]);
            for r in 0..R {
                acc[r] = acc[r].add_scaled(a_rows[r][k], vb);
            }
        }
        for r in 0..R {
            acc[r].store(&mut out[r * n + j..r * n + j + LANES]);
        }
        j += LANES;
    }
    if j < n {
        for (r, a_row) in a_rows.iter().enumerate() {
            let out_row = &mut out[r * n..(r + 1) * n];
            for (k, &a_ik) in a_row.iter().enumerate() {
                let b_row = b.row(k);
                for jj in j..n {
                    out_row[jj] += a_ik * b_row[jj];
                }
            }
        }
    }
}

/// `aᵀ × b`: `matmul(aᵀ, b)` on the lane panels, with `aᵀ` leased from the
/// scratch pool and recycled. Each output element still sums `k` (rows of
/// `a`/`b`) in ascending order with separate multiply and add, so the bits
/// match the axpy-per-row formulation of [`super::reference::t_matmul`].
///
/// # Panics
/// Panics if `a.rows() != b.rows()`.
pub fn t_matmul(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    let _span = ses_obs::span!("kernel.t_matmul");
    record_matmul(a.cols(), a.rows(), b.cols());
    assert_eq!(
        a.rows(),
        b.rows(),
        "t_matmul: shape mismatch {}x{}ᵀ × {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let at = a.transpose();
    let out = matmul_dispatch("t_matmul", &at, b, threads);
    at.recycle();
    out
}

/// `a × bᵀ`: `matmul(a, bᵀ)` on the lane panels, with `bᵀ` leased from the
/// scratch pool and recycled. Each output element is one ascending-`k`
/// chain from a zero accumulator, exactly the dot product of
/// [`super::reference::matmul_t`].
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_t(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    let _span = ses_obs::span!("kernel.matmul_t");
    record_matmul(a.rows(), a.cols(), b.rows());
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_t: shape mismatch {}x{} × {}x{}ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let bt = b.transpose();
    let out = matmul_dispatch("matmul_t", a, &bt, threads);
    bt.recycle();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference;

    fn mat(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Small deterministic pseudo-random fill, no RNG needed.
        let mut state = seed;
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 16) % 1000) as f32 / 250.0 - 2.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn matmul_thread_counts_bit_identical() {
        let a = mat(17, 9, 1);
        let b = mat(9, 13, 2);
        let ref1 = matmul(&a, &b, 1);
        for t in [2, 4, 8] {
            assert_eq!(matmul(&a, &b, t).as_slice(), ref1.as_slice());
        }
    }

    #[test]
    fn t_matmul_thread_counts_bit_identical() {
        let a = mat(11, 7, 3);
        let b = mat(11, 5, 4);
        let ref1 = t_matmul(&a, &b, 1);
        for t in [2, 4, 8] {
            assert_eq!(t_matmul(&a, &b, t).as_slice(), ref1.as_slice());
        }
    }

    #[test]
    fn matmul_t_thread_counts_bit_identical() {
        let a = mat(10, 6, 5);
        let b = mat(8, 6, 6);
        let ref1 = matmul_t(&a, &b, 1);
        for t in [2, 4, 8] {
            assert_eq!(matmul_t(&a, &b, t).as_slice(), ref1.as_slice());
        }
    }

    /// The lane panels must match the scalar reference *bit for bit* on
    /// shapes that exercise every tail: ragged columns (lane tails), row
    /// counts not divisible by the panel height, single rows, empties.
    #[test]
    fn lane_paths_bit_identical_to_scalar_reference() {
        for (m, k, n, seed) in [
            (17, 9, 13, 1), // ragged everything
            (16, 8, 16, 2), // exact lanes and panels
            (4, 3, 7, 3),   // single panel, scalar col tail
            (1, 5, 9, 4),   // single row
            (3, 1, 23, 5),  // k = 1
            (0, 4, 6, 6),   // empty output
            (5, 4, 1, 7),   // single output column
            (6, 4, 31, 8),  // one short of 2*2*LANES
        ] {
            let a = mat(m, k, seed);
            let b = mat(k, n, seed + 100);
            assert_eq!(
                matmul(&a, &b, 1).as_slice(),
                reference::matmul(&a, &b).as_slice(),
                "matmul {m}x{k}x{n}"
            );
            let at = mat(k, m, seed + 200);
            assert_eq!(
                t_matmul(&at, &b, 1).as_slice(),
                reference::t_matmul(&at, &b).as_slice(),
                "t_matmul {m}x{k}x{n}"
            );
            let bt = mat(n, k, seed + 300);
            assert_eq!(
                matmul_t(&a, &bt, 1).as_slice(),
                reference::matmul_t(&a, &bt).as_slice(),
                "matmul_t {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn variants_agree_with_explicit_transpose() {
        let a = mat(6, 4, 7);
        let b = mat(6, 5, 8);
        let fast = t_matmul(&a, &b, 4);
        let slow = matmul(&a.transpose(), &b, 1);
        assert!(fast.max_abs_diff(&slow) < 1e-5);

        let c = mat(5, 4, 9);
        let d = mat(7, 4, 10);
        let fast = matmul_t(&c, &d, 4);
        let slow = matmul(&c, &d.transpose(), 1);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn matmul_worker_panic_degrades_to_identical_serial_result() {
        // Shapes above the matmul crossover so the parallel path really runs.
        let a = mat(120, 96, 21);
        let b = mat(96, 128, 22);
        assert!(a.rows() * a.cols() * b.cols() >= par::dispatch::crossover("matmul"));
        let reference = matmul(&a, &b, 1);
        par::arm_worker_panic(0);
        let degraded = matmul(&a, &b, 4);
        par::disarm_worker_panic();
        assert_eq!(degraded.as_slice(), reference.as_slice());
    }

    #[test]
    fn small_dense_shapes_run_serially_despite_thread_count() {
        // Below the crossover the dispatch clamps to one thread, so an armed
        // worker-panic fault is never consumed: no parallel op runs.
        let a = mat(17, 9, 23);
        let b = mat(9, 13, 24);
        assert!(a.rows() * a.cols() * b.cols() < par::dispatch::crossover("matmul"));
        let reference = matmul(&a, &b, 1);
        par::arm_worker_panic(0);
        let out = matmul(&a, &b, 4);
        let fault_still_armed = std::panic::catch_unwind(|| {
            par::run_tasks(2, (0..4).map(|i| move || i).collect::<Vec<_>>())
        })
        .is_err();
        par::disarm_worker_panic();
        assert!(fault_still_armed, "small matmul must not spawn workers");
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    #[test]
    fn empty_and_single_row_shapes() {
        let a = Matrix::zeros(0, 3);
        let b = mat(3, 2, 11);
        assert_eq!(matmul(&a, &b, 4).shape(), (0, 2));
        let a1 = mat(1, 3, 12);
        assert_eq!(matmul(&a1, &b, 4).shape(), (1, 2));
    }
}
