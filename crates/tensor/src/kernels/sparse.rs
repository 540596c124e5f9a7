//! Sparse kernels: CSR × dense products (forward, transpose, value-gradient)
//! and the per-row edge softmax, all row-parallel and deterministic.
//!
//! The spmm inner loop is hand-laned (see [`super::lane`]): the entry stream
//! is interleaved into a [`CsrLanes`] layout once per call, and each row's
//! output accumulates in **registers** across the whole entry sweep — four
//! independent 8-wide accumulators per 32-column block — instead of
//! read-modify-writing the output row per entry as the scalar body did.
//! Per-element accumulation order is still exact CSR entry order, so the
//! result is bit-identical to [`super::reference::spmm`].
//!
//! Each public wrapper validates shapes up front, consults the measured
//! crossover table ([`par::dispatch`]) to decide serial vs parallel, then
//! runs its compute body through [`par::run_isolated`]: a worker panic
//! discards the parallel attempt and recomputes serially (same bits),
//! instead of killing the process. Outputs and `spmm_transpose` partials are
//! leased from the per-thread scratch pool ([`crate::scratch`]).

use std::ops::Range;

use super::lane::{self, CsrLanes, F32x8, ENTRY_UNROLL, LANES};
use crate::matrix::Matrix;
use crate::par;
use crate::sparse::CsrStructure;

/// Entry budget per `spmm_transpose` partial block. A pure function of the
/// problem (never of the thread count) so block geometry — and therefore the
/// merge order and the output bits — is thread-count invariant.
const TRANSPOSE_BLOCK_NNZ: usize = 32_768;

/// Cap on `spmm_transpose` partial blocks: each block owns a full
/// `n_cols × f` partial buffer, so this bounds the memory overhead.
const TRANSPOSE_MAX_BLOCKS: usize = 8;

/// Lane-blocked sparse × dense product:
/// `out[r, :] = Σ_p values[p] * dense[col(p), :]` over row `r`'s entries.
///
/// Rows are partitioned into nnz-balanced contiguous blocks, one task per
/// block, each writing a disjoint slice of the output. Within a row the
/// entries accumulate in CSR order for every output element, so the result
/// is bit-identical at any `threads`.
///
/// # Panics
/// Panics if `structure.n_cols() != dense.rows()` or
/// `values.len() != structure.nnz()`.
pub fn spmm(structure: &CsrStructure, values: &[f32], dense: &Matrix, threads: usize) -> Matrix {
    let _span = ses_obs::span!("kernel.spmm");
    ses_obs::metrics::SPMM_CALLS.incr();
    ses_obs::metrics::SPMM_NNZ.add(structure.nnz() as u64);
    assert_eq!(
        structure.n_cols(),
        dense.rows(),
        "spmm: sparse cols {} != dense rows {}",
        structure.n_cols(),
        dense.rows()
    );
    assert_eq!(values.len(), structure.nnz(), "spmm: values len != nnz");
    let threads = par::dispatch::threads_for("spmm", structure.nnz(), threads);
    par::run_isolated(
        "spmm",
        threads,
        || spmm_impl(structure, values, dense, threads),
        || spmm_impl(structure, values, dense, 1),
    )
}

/// Compute body of [`spmm`] at an explicit thread count. The interleaved
/// entry stream is built once here and shared (read-only) by every task.
fn spmm_impl(structure: &CsrStructure, values: &[f32], dense: &Matrix, threads: usize) -> Matrix {
    let lanes = CsrLanes::build(structure.indices(), values, structure.n_cols());
    lanes_product(structure.indptr(), &lanes, dense, threads)
}

/// `out[r, :] = Σ_p v_p · dense[c_p, :]` over row `r`'s entries of the
/// packed stream (`indptr` delimits the rows): the [`spmm`] body, shared
/// with the matmul family's sparse-operand path. Rows are cut into
/// nnz-balanced blocks, one task each, so the bits do not depend on
/// `threads`.
pub(super) fn lanes_product(
    indptr: &[usize],
    lanes: &CsrLanes,
    dense: &Matrix,
    threads: usize,
) -> Matrix {
    let f = dense.cols();
    let mut out = Matrix::zeros_pooled(indptr.len() - 1, f);
    let ranges = par::nnz_balanced_ranges(indptr, threads);
    let slices = par::split_rows_mut(out.as_mut_slice(), f, &ranges);
    let tasks: Vec<_> = ranges
        .into_iter()
        .zip(slices)
        .map(|(rows, slice)| move || spmm_rows(indptr, lanes, dense, rows, slice))
        .collect();
    par::run_tasks(threads, tasks);
    out
}

/// Lane body of [`spmm`] for one contiguous row block, writing into the
/// block's slice of the output buffer.
///
/// Column blocks of `4·LANES` hold four independent accumulators in
/// registers (independent *output elements* — the four chains interleave to
/// hide FP add latency without touching any element's reduction order),
/// then single-lane blocks consume the entry stream in [`ENTRY_UNROLL`]
/// groups, then a scalar tail finishes ragged feature counts. Entry groups
/// are never zero-padded (see [`CsrLanes`]).
fn spmm_rows(
    indptr: &[usize],
    lanes: &CsrLanes,
    dense: &Matrix,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let f = dense.cols();
    let base = rows.start;
    for r in rows {
        let out_row = &mut out[(r - base) * f..(r - base + 1) * f];
        let pairs = lanes.range(indptr[r]..indptr[r + 1]);
        let mut j = 0;
        while j + 4 * LANES <= f {
            // Four independent accumulator chains (distinct output
            // elements), all fed from one fixed-length slice of the dense
            // row so every load lowers to a single vector instruction.
            let mut a0 = F32x8::zero();
            let mut a1 = F32x8::zero();
            let mut a2 = F32x8::zero();
            let mut a3 = F32x8::zero();
            for &(c, v) in pairs {
                let d = &dense.row(lane::col(c))[j..j + 4 * LANES];
                a0 = a0.add_scaled(v, F32x8::load(&d[0..LANES]));
                a1 = a1.add_scaled(v, F32x8::load(&d[LANES..2 * LANES]));
                a2 = a2.add_scaled(v, F32x8::load(&d[2 * LANES..3 * LANES]));
                a3 = a3.add_scaled(v, F32x8::load(&d[3 * LANES..4 * LANES]));
            }
            a0.store(&mut out_row[j..j + LANES]);
            a1.store(&mut out_row[j + LANES..j + 2 * LANES]);
            a2.store(&mut out_row[j + 2 * LANES..j + 3 * LANES]);
            a3.store(&mut out_row[j + 3 * LANES..j + 4 * LANES]);
            j += 4 * LANES;
        }
        while j + LANES <= f {
            let mut acc = F32x8::zero();
            let mut groups = pairs.chunks_exact(ENTRY_UNROLL);
            for q in groups.by_ref() {
                for &(c, v) in q {
                    acc = acc.add_scaled(v, F32x8::load(&dense.row(lane::col(c))[j..j + LANES]));
                }
            }
            for &(c, v) in groups.remainder() {
                acc = acc.add_scaled(v, F32x8::load(&dense.row(lane::col(c))[j..j + LANES]));
            }
            acc.store(&mut out_row[j..j + LANES]);
            j += LANES;
        }
        if j < f {
            for &(c, v) in pairs {
                let d = dense.row(lane::col(c));
                for jj in j..f {
                    out_row[jj] += v * d[jj];
                }
            }
        }
    }
}

/// Transposed sparse × dense product:
/// `out[c, :] += values[p] * dense[row(p), :]` — the backward of [`spmm`]
/// with respect to its dense operand.
///
/// Output rows collide across source rows, so the rows are cut into blocks
/// whose geometry depends only on `nnz` ([`TRANSPOSE_BLOCK_NNZ`], capped at
/// [`TRANSPOSE_MAX_BLOCKS`]); each block accumulates into its own partial
/// output (leased from the scratch pool, recycled after the merge), and
/// partials are merged in block order on the calling thread. Thread count
/// affects scheduling only, never the bits.
///
/// # Panics
/// Panics if `structure.n_rows() != dense.rows()` or
/// `values.len() != structure.nnz()`.
pub fn spmm_transpose(
    structure: &CsrStructure,
    values: &[f32],
    dense: &Matrix,
    threads: usize,
) -> Matrix {
    let _span = ses_obs::span!("kernel.spmm_transpose");
    ses_obs::metrics::SPMM_CALLS.incr();
    ses_obs::metrics::SPMM_NNZ.add(structure.nnz() as u64);
    assert_eq!(
        structure.n_rows(),
        dense.rows(),
        "spmm_transpose: sparse rows {} != dense rows {}",
        structure.n_rows(),
        dense.rows()
    );
    assert_eq!(
        values.len(),
        structure.nnz(),
        "spmm_transpose: values len != nnz"
    );
    let threads = par::dispatch::threads_for("spmm_transpose", structure.nnz(), threads);
    par::run_isolated(
        "spmm_transpose",
        threads,
        || spmm_transpose_impl(structure, values, dense, threads),
        || spmm_transpose_impl(structure, values, dense, 1),
    )
}

/// Compute body of [`spmm_transpose`] at an explicit thread count. Block
/// geometry depends only on `nnz`, so the serial fallback merges the exact
/// same partials in the exact same order.
fn spmm_transpose_impl(
    structure: &CsrStructure,
    values: &[f32],
    dense: &Matrix,
    threads: usize,
) -> Matrix {
    let f = dense.cols();
    let n_blocks = (structure.nnz() / TRANSPOSE_BLOCK_NNZ + 1).min(TRANSPOSE_MAX_BLOCKS);
    let ranges = par::nnz_balanced_ranges(structure.indptr(), n_blocks);
    let tasks: Vec<_> = ranges
        .into_iter()
        .map(|rows| {
            move || {
                let mut partial = Matrix::zeros_pooled(structure.n_cols(), f);
                let indices = structure.indices();
                for r in rows {
                    let d_row = dense.row(r);
                    for p in structure.row_range(r) {
                        lane::axpy(partial.row_mut(indices[p]), d_row, values[p]);
                    }
                }
                partial
            }
        })
        .collect();
    let mut partials = par::run_tasks(threads, tasks).into_iter();
    let mut out = partials
        .next()
        .unwrap_or_else(|| Matrix::zeros_pooled(structure.n_cols(), f));
    for p in partials {
        out.add_assign(&p);
        p.recycle();
    }
    out
}

/// Gradient of [`spmm`] with respect to its edge values:
/// `dv[p] = ⟨grad_out[row(p), :], dense[col(p), :]⟩`, as an `nnz × 1`
/// matrix. Each entry belongs to exactly one row, so row-parallelism gives
/// disjoint entry slices and bit-identical output at any thread count.
pub fn spmm_values_grad(
    structure: &CsrStructure,
    dense: &Matrix,
    grad_out: &Matrix,
    threads: usize,
) -> Matrix {
    let _span = ses_obs::span!("kernel.spmm_values_grad");
    ses_obs::metrics::SPMM_CALLS.incr();
    ses_obs::metrics::SPMM_NNZ.add(structure.nnz() as u64);
    assert_eq!(
        grad_out.rows(),
        structure.n_rows(),
        "spmm_values_grad: grad rows != sparse rows"
    );
    let threads = par::dispatch::threads_for("spmm_values_grad", structure.nnz(), threads);
    par::run_isolated(
        "spmm_values_grad",
        threads,
        || spmm_values_grad_impl(structure, dense, grad_out, threads),
        || spmm_values_grad_impl(structure, dense, grad_out, 1),
    )
}

/// Compute body of [`spmm_values_grad`] at an explicit thread count.
fn spmm_values_grad_impl(
    structure: &CsrStructure,
    dense: &Matrix,
    grad_out: &Matrix,
    threads: usize,
) -> Matrix {
    let mut dv = Matrix::zeros_pooled(structure.nnz(), 1);
    let ranges = par::nnz_balanced_ranges(structure.indptr(), threads);
    let slices = par::split_entries_mut(dv.as_mut_slice(), structure.indptr(), &ranges);
    let indices = structure.indices();
    let tasks: Vec<_> = ranges
        .into_iter()
        .zip(slices)
        .map(|(rows, slice)| {
            move || {
                let base = structure.indptr()[rows.start];
                for r in rows {
                    let g_row = grad_out.row(r);
                    for p in structure.row_range(r) {
                        let d_row = dense.row(indices[p]);
                        let mut acc = 0.0;
                        for (&gj, &dj) in g_row.iter().zip(d_row) {
                            acc += gj * dj;
                        }
                        slice[p - base] = acc;
                    }
                }
            }
        })
        .collect();
    par::run_tasks(threads, tasks);
    dv
}

/// Per-row (destination-segment) softmax over CSR entries. `scores` holds
/// one value per entry; the result has the same layout. Rows are
/// independent, so row-parallelism is trivially bit-identical.
///
/// The max and denominator reductions are order-sensitive and stay scalar;
/// only the final normalize sweep is laned (element-wise division by the
/// denominator — *division*, not multiplication by a reciprocal, which
/// would round differently).
pub fn edge_softmax(structure: &CsrStructure, scores: &[f32], threads: usize) -> Vec<f32> {
    let _span = ses_obs::span!("kernel.edge_softmax");
    ses_obs::metrics::EDGE_SOFTMAX_CALLS.incr();
    assert_eq!(
        scores.len(),
        structure.nnz(),
        "edge_softmax: scores len != nnz"
    );
    let threads = par::dispatch::threads_for("edge_softmax", structure.nnz(), threads);
    par::run_isolated(
        "edge_softmax",
        threads,
        || edge_softmax_impl(structure, scores, threads),
        || edge_softmax_impl(structure, scores, 1),
    )
}

/// Compute body of [`edge_softmax`] at an explicit thread count.
fn edge_softmax_impl(structure: &CsrStructure, scores: &[f32], threads: usize) -> Vec<f32> {
    let mut out = crate::scratch::take(scores.len());
    let ranges = par::nnz_balanced_ranges(structure.indptr(), threads);
    let slices = par::split_entries_mut(&mut out, structure.indptr(), &ranges);
    let tasks: Vec<_> = ranges
        .into_iter()
        .zip(slices)
        .map(|(rows, slice)| {
            move || {
                let base = structure.indptr()[rows.start];
                for r in rows {
                    let entries = structure.row_range(r);
                    if entries.is_empty() {
                        continue;
                    }
                    let max = scores[entries.clone()]
                        .iter()
                        .copied()
                        .fold(f32::NEG_INFINITY, f32::max);
                    let mut denom = 0.0;
                    for p in entries.clone() {
                        let e = (scores[p] - max).exp();
                        slice[p - base] = e;
                        denom += e;
                    }
                    lane::div_scalar_slice(
                        &mut slice[entries.start - base..entries.end - base],
                        denom,
                    );
                }
            }
        })
        .collect();
    par::run_tasks(threads, tasks);
    out
}

/// Backward of [`edge_softmax`]: for each row segment,
/// `d[p] = y[p] * (g[p] - Σ_q y[q] g[q])`. Same row partitioning (and the
/// same determinism argument) as the forward pass.
pub fn edge_softmax_backward(
    structure: &CsrStructure,
    softmax: &Matrix,
    grad: &Matrix,
    threads: usize,
) -> Matrix {
    let _span = ses_obs::span!("kernel.edge_softmax_bwd");
    ses_obs::metrics::EDGE_SOFTMAX_CALLS.incr();
    assert_eq!(
        softmax.rows(),
        structure.nnz(),
        "edge_softmax_backward: softmax len != nnz"
    );
    let threads = par::dispatch::threads_for("edge_softmax_backward", structure.nnz(), threads);
    par::run_isolated(
        "edge_softmax_backward",
        threads,
        || edge_softmax_backward_impl(structure, softmax, grad, threads),
        || edge_softmax_backward_impl(structure, softmax, grad, 1),
    )
}

/// Compute body of [`edge_softmax_backward`] at an explicit thread count.
fn edge_softmax_backward_impl(
    structure: &CsrStructure,
    softmax: &Matrix,
    grad: &Matrix,
    threads: usize,
) -> Matrix {
    let mut d = Matrix::zeros_pooled(softmax.rows(), 1);
    let ranges = par::nnz_balanced_ranges(structure.indptr(), threads);
    let slices = par::split_entries_mut(d.as_mut_slice(), structure.indptr(), &ranges);
    let y = softmax.as_slice();
    let g = grad.as_slice();
    let tasks: Vec<_> = ranges
        .into_iter()
        .zip(slices)
        .map(|(rows, slice)| {
            move || {
                let base = structure.indptr()[rows.start];
                for r in rows {
                    let entries = structure.row_range(r);
                    if entries.is_empty() {
                        continue;
                    }
                    let mut dot = 0.0;
                    for p in entries.clone() {
                        dot += y[p] * g[p];
                    }
                    for p in entries {
                        slice[p - base] = y[p] * (g[p] - dot);
                    }
                }
            }
        })
        .collect();
    par::run_tasks(threads, tasks);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference;
    use std::sync::Arc;

    fn sample() -> (Arc<CsrStructure>, Vec<f32>, Matrix) {
        let s = Arc::new(CsrStructure::from_edges(
            4,
            3,
            &[(0, 1), (0, 2), (1, 0), (2, 2), (3, 0), (3, 1), (3, 2)],
        ));
        let vals = vec![2.0, -3.0, 4.0, 0.0, 1.5, -0.5, 2.5];
        let dense = Matrix::from_vec(3, 2, vec![1.0, 2.0, -3.0, 4.0, 5.0, -6.0]);
        (s, vals, dense)
    }

    #[test]
    fn spmm_thread_counts_bit_identical() {
        let (s, vals, dense) = sample();
        let ref1 = spmm(&s, &vals, &dense, 1);
        for t in [2, 3, 4, 8] {
            let out = spmm(&s, &vals, &dense, t);
            assert_eq!(out.as_slice(), ref1.as_slice(), "threads={t}");
        }
    }

    #[test]
    fn spmm_transpose_thread_counts_bit_identical() {
        let (s, vals, _) = sample();
        let dense = Matrix::from_vec(4, 2, vec![1.0, -1.0, 2.0, 0.5, -3.0, 4.0, 0.0, 7.0]);
        let ref1 = spmm_transpose(&s, &vals, &dense, 1);
        for t in [2, 4, 8] {
            let out = spmm_transpose(&s, &vals, &dense, t);
            assert_eq!(out.as_slice(), ref1.as_slice(), "threads={t}");
        }
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let (s, vals, dense) = sample();
        let full = crate::sparse::CsrMatrix::new(s.clone(), vals.clone()).to_dense();
        let expect = full.matmul(&dense);
        let got = spmm(&s, &vals, &dense, 4);
        assert!(got.max_abs_diff(&expect) < 1e-5);
    }

    /// Deterministic pseudo-random CSR structure + operands covering ragged
    /// feature widths, empty rows, single rows, and dense rows.
    fn ragged_case(
        rows: usize,
        cols: usize,
        f: usize,
        seed: u32,
    ) -> (CsrStructure, Vec<f32>, Matrix) {
        let mut state = seed;
        let mut step = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            state >> 16
        };
        let mut edges = Vec::new();
        for r in 0..rows {
            let deg = (step() % 7) as usize; // rows of degree 0..=6
            for _ in 0..deg {
                edges.push((r, (step() as usize) % cols.max(1)));
            }
        }
        let s = CsrStructure::from_edges(rows, cols, &edges);
        let vals: Vec<f32> = (0..s.nnz())
            .map(|_| ((step() % 1000) as f32) / 250.0 - 2.0)
            .collect();
        let dense = Matrix::from_vec(
            cols,
            f,
            (0..cols * f)
                .map(|_| ((step() % 1000) as f32) / 250.0 - 2.0)
                .collect(),
        );
        (s, vals, dense)
    }

    /// The lane spmm / edge_softmax must match the scalar reference *bit for
    /// bit* on every tail shape: ragged feature counts (scalar column
    /// tails), f below/at/above each lane block width, empty rows,
    /// single-row structures, zero-column structures.
    #[test]
    fn lane_paths_bit_identical_to_scalar_reference() {
        for (rows, cols, f, seed) in [
            (13, 9, 1, 1),  // single feature: pure scalar tail
            (13, 9, 7, 2),  // below one lane
            (13, 9, 8, 3),  // exactly one lane
            (13, 9, 13, 4), // lane + scalar tail
            (13, 9, 32, 5), // exactly the 4-lane block
            (13, 9, 45, 6), // 4-lane block + lane + tail
            (1, 4, 9, 7),   // single row
            (6, 1, 8, 8),   // single dense row to gather
            (0, 3, 8, 9),   // empty structure
        ] {
            let (s, vals, dense) = ragged_case(rows, cols, f, seed);
            assert_eq!(
                spmm(&s, &vals, &dense, 1).as_slice(),
                reference::spmm(&s, &vals, &dense).as_slice(),
                "spmm rows={rows} cols={cols} f={f}"
            );
            if s.nnz() > 0 {
                let scores: Vec<f32> = (0..s.nnz()).map(|i| ((i % 11) as f32) - 5.0).collect();
                let lane_sm = edge_softmax(&s, &scores, 1);
                let ref_sm = reference::edge_softmax(&s, &scores);
                for (p, (a, b)) in lane_sm.iter().zip(&ref_sm).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "softmax entry {p} (f={f})");
                }
            }
        }
    }

    #[test]
    fn edge_softmax_rows_normalise() {
        let (s, _, _) = sample();
        let scores = vec![0.3, -1.0, 2.0, 0.0, 1.0, 1.0, -2.0];
        for t in [1, 2, 4] {
            let out = edge_softmax(&s, &scores, t);
            let r0: f32 = out[0..2].iter().sum();
            let r3: f32 = out[4..7].iter().sum();
            assert!((r0 - 1.0).abs() < 1e-6 && (r3 - 1.0).abs() < 1e-6);
        }
    }

    /// A structure large enough (nnz above the spmm crossover) that the
    /// dispatch clamp does not force it serial — needed by tests that must
    /// actually exercise the parallel path.
    fn large_sample() -> (Arc<CsrStructure>, Vec<f32>, Matrix) {
        let rows = 160;
        let cols = 96;
        let mut edges = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                edges.push((r, c));
            }
        }
        let s = Arc::new(CsrStructure::from_edges(rows, cols, &edges));
        assert!(s.nnz() >= par::dispatch::crossover("spmm"));
        let vals: Vec<f32> = (0..s.nnz()).map(|i| ((i % 13) as f32) - 6.0).collect();
        let dense = Matrix::from_vec(
            cols,
            3,
            (0..cols * 3)
                .map(|i| ((i % 7) as f32) * 0.5 - 1.5)
                .collect(),
        );
        (s, vals, dense)
    }

    #[test]
    fn spmm_worker_panic_degrades_to_identical_serial_result() {
        let (s, vals, dense) = large_sample();
        let reference = spmm(&s, &vals, &dense, 1);
        par::arm_worker_panic(0);
        let degraded = spmm(&s, &vals, &dense, 4);
        par::disarm_worker_panic();
        assert_eq!(degraded.as_slice(), reference.as_slice());
    }

    #[test]
    fn small_shapes_run_serially_despite_thread_count() {
        // With nnz below the crossover the wrapper clamps to one thread, so
        // an armed worker-panic fault is never consumed: no parallel op runs.
        let (s, vals, dense) = sample();
        assert!(s.nnz() < par::dispatch::crossover("spmm"));
        let reference = spmm(&s, &vals, &dense, 1);
        par::arm_worker_panic(0);
        let out = spmm(&s, &vals, &dense, 4);
        let fault_still_armed = std::panic::catch_unwind(|| {
            par::run_tasks(2, (0..4).map(|i| move || i).collect::<Vec<_>>())
        })
        .is_err();
        par::disarm_worker_panic();
        assert!(fault_still_armed, "small spmm must not spawn workers");
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    #[test]
    fn values_grad_matches_manual() {
        let (s, _, dense) = sample();
        let g = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5]);
        let dv = spmm_values_grad(&s, &dense, &g, 3);
        // entry 0 is (0,1): <g[0,:], dense[1,:]> = 1*-3 + 0*4 = -3
        assert!((dv.as_slice()[0] - -3.0).abs() < 1e-6);
        // entry 2 is (1,0): <g[1,:], dense[0,:]> = 0*1 + 1*2 = 2
        assert!((dv.as_slice()[2] - 2.0).abs() < 1e-6);
    }
}
