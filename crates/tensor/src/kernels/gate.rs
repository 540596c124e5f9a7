//! Feature gate on a sparse input's support (SES Eq. 3 as an SDDMM): for
//! every kept entry `(i, f)` of `X`,
//! `out[i, f] = σ(m[i, :] · w[:, f] + bias[f]) · X[i, f]`, and `+0.0`
//! everywhere else.
//!
//! The dense chain it replaces — `matmul(m, w)`, `add_row_broadcast`,
//! `sigmoid`, `mul(·, X)` — evaluates all `n × f` gates and multiplies
//! most of them by zero. Off the support that product is `σ · (+0.0) =
//! +0.0` exactly (`σ ≥ 0` and finite), so computing only the kept entries
//! loses nothing.
//!
//! # Bit-identity with the dense chain
//!
//! Both kernels evaluate the chain's float expressions in the chain's
//! order (see `docs/PERF.md`, "Sparse feature path"):
//!
//! * forward, per kept entry: one accumulator from `0.0` adding
//!   `m[i, h]·w[h, f]` for ascending `h` (the `matmul` panel's chain), then
//!   `+ bias[f]`, `1 / (1 + e^{-x})`, and `· X[i, f]`;
//! * backward, per kept entry in CSR order: `g' = (g·X)·s·(1 − s)` (the
//!   `mul` and `sigmoid` rules, left to right); `db[f] += g'` and
//!   `dw[h, f] += m[i, h]·g'` over rows in ascending order from `0.0` (the
//!   `add_row_broadcast` and `t_matmul` rules); `dm[i, h] += g'·w[h, f]`
//!   over the row's columns in ascending order from `0.0` (the `matmul_t`
//!   rule). The dense chain's extra terms are all `±0.0` and cannot move
//!   those sums (the argument in [`super::support`]).
//!
//! Only independent entries share lanes: each entry's dot product stays one
//! serial chain, the lane rule of [`super::lane`]. Both kernels are serial.

use super::lane::{self, LANES};
use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;

/// Validates the operand shapes and returns the hidden width `h`.
fn check_shapes(m: &Matrix, w: &Matrix, bias_len: usize, x: &CsrMatrix) -> usize {
    let (n, h) = m.shape();
    assert!(
        w.rows() == h && w.cols() == x.n_cols() && bias_len == x.n_cols() && x.n_rows() == n,
        "feature_gate: m is {n}x{h}, w {}x{}, bias 1x{bias_len}, X {}x{}",
        w.rows(),
        w.cols(),
        x.n_rows(),
        x.n_cols()
    );
    h
}

/// Row of every kept entry, in CSR order.
fn entry_rows(x: &CsrMatrix) -> impl Iterator<Item = usize> + '_ {
    let s = x.structure();
    (0..s.n_rows()).flat_map(move |r| std::iter::repeat_n(r, s.row_nnz(r)))
}

/// `σ(m · w + bias) ⊙ X` on `X`'s kept entries, as a dense `n × f` matrix
/// with `+0.0` off the support, plus the gate `σ(·)` of every kept entry in
/// CSR order (what the backward needs).
///
/// # Panics
/// Panics if `m` is not `n × h`, `w` not `h × f`, or `bias` not `f` long,
/// for `X` of shape `n × f`.
pub fn feature_gate(m: &Matrix, w: &Matrix, bias: &[f32], x: &CsrMatrix) -> (Matrix, Vec<f32>) {
    let _span = ses_obs::span!("kernel.feature_gate");
    check_shapes(m, w, bias.len(), x);
    let f = x.n_cols();
    let nnz = x.nnz();
    let cols = x.structure().indices();
    let vals = x.values();
    let wt = w.transpose();
    let mut out = Matrix::zeros_pooled(x.n_rows(), f);
    let mut gate = vec![0.0f32; nnz];
    let mut rows = entry_rows(x);
    // LANES entries per step, possibly from several rows: independent
    // chains the core can overlap, where one entry's chain is latency-bound.
    let mut p = 0;
    while p + LANES <= nnz {
        let r: [usize; LANES] = std::array::from_fn(|_| rows.next().unwrap_or(0));
        gate_block::<LANES>(m, &wt, &r, &cols[p..], bias, &mut gate[p..]);
        p += LANES;
    }
    for (p, r) in (p..nnz).zip(rows) {
        gate_block::<1>(m, &wt, &[r], &cols[p..], bias, &mut gate[p..]);
    }
    wt.recycle();
    let o = out.as_mut_slice();
    for ((r, &c), (&s, &v)) in entry_rows(x).zip(cols).zip(gate.iter().zip(vals)) {
        o[r * f + c] = s * v;
    }
    (out, gate)
}

/// Gates of the first `N` entries (rows `r`, columns `cols`) into
/// `gate[..N]`, one accumulator chain per entry. `wt` is `wᵀ`, so both dot
/// product operands are contiguous rows.
#[inline(always)]
fn gate_block<const N: usize>(
    m: &Matrix,
    wt: &Matrix,
    r: &[usize; N],
    cols: &[usize],
    bias: &[f32],
    gate: &mut [f32],
) {
    let mr: [&[f32]; N] = std::array::from_fn(|l| m.row(r[l]));
    let wr: [&[f32]; N] = std::array::from_fn(|l| wt.row(cols[l]));
    let mut acc = [0.0f32; N];
    for k in 0..m.cols() {
        for l in 0..N {
            acc[l] += mr[l][k] * wr[l][k];
        }
    }
    for l in 0..N {
        gate[l] = 1.0 / (1.0 + (-(acc[l] + bias[cols[l]])).exp());
    }
}

/// Gradients of one [`feature_gate`] call.
#[derive(Debug)]
pub(crate) struct FeatureGateGrads {
    /// `dL/dm` (`n × h`), present when `m` needs a gradient.
    pub(crate) m: Option<Matrix>,
    /// `dL/dw` (`h × f`).
    pub(crate) w: Matrix,
    /// `dL/dbias` (`1 × f`).
    pub(crate) bias: Matrix,
}

/// Backward of [`feature_gate`] in one pass over the kept entries, given
/// the forward's gates and the upstream gradient `g` (`n × f`, read on the
/// support only). `dm` is only built when `need_m` is set.
///
/// # Panics
/// Panics on the shape violations [`feature_gate`] rejects, when `gate` is
/// not one value per kept entry, or when `g` is not `n × f`.
pub(crate) fn feature_gate_backward(
    m: &Matrix,
    w: &Matrix,
    x: &CsrMatrix,
    gate: &[f32],
    g: &Matrix,
    need_m: bool,
) -> FeatureGateGrads {
    let _span = ses_obs::span!("kernel.feature_gate_bwd");
    let f = x.n_cols();
    let h = check_shapes(m, w, f, x);
    assert!(
        gate.len() == x.nnz() && g.shape() == (x.n_rows(), f),
        "feature_gate_backward: {} kept entries but {} gates and a {}x{} gradient",
        x.nnz(),
        gate.len(),
        g.rows(),
        g.cols()
    );
    let wt = w.transpose();
    // dw accumulates transposed (row f is w's column f), so each update is
    // a contiguous axpy; transposing back at the end moves no bits.
    let mut dwt = Matrix::zeros_pooled(f, h);
    let mut db = Matrix::zeros_pooled(1, f);
    let mut dm = need_m.then(|| Matrix::zeros_pooled(m.rows(), h));
    let cols = x.structure().indices();
    let gs = g.as_slice();
    let dbs = db.as_mut_slice();
    let entries = entry_rows(x).zip(cols).zip(gate.iter().zip(x.values()));
    for ((r, &c), (&s, &v)) in entries {
        let gp = gs[r * f + c] * v * s * (1.0 - s);
        dbs[c] += gp;
        lane::axpy(dwt.row_mut(c), m.row(r), gp);
        if let Some(dm) = dm.as_mut() {
            lane::axpy(dm.row_mut(r), wt.row(c), gp);
        }
    }
    wt.recycle();
    let dw = dwt.transpose();
    dwt.recycle();
    FeatureGateGrads {
        m: dm,
        w: dw,
        bias: db,
    }
}
