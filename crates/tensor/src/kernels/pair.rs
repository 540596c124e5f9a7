//! Fused structure-mask pair scorer (SES Eq. 4): for every pair `p`,
//! `y[p] = σ([h_a ; h_b ; h_a ⊙ h_b] · w + bias)` with `h_a = H[a[p]]` and
//! `h_b = H[b[p]]`, read in place.
//!
//! The unfused tape chain (two row gathers, two column concatenations, a
//! Hadamard product, a one-column linear layer and a sigmoid) materialised
//! an `m × 3d` buffer per call and another per backward; these kernels
//! allocate nothing per pair. The weight's row count selects the variant:
//! `3d × 1` scores `[h_a ; h_b ; h_a ⊙ h_b]`, `2d × 1` the paper's additive
//! `[h_a ; h_b]`.
//!
//! # Bit-identity with the unfused chain
//!
//! Both passes evaluate exactly the float expressions the chain evaluated,
//! in the same order (see `docs/PERF.md`, "Fused pair scorer"):
//!
//! * forward: one accumulator per pair starting at `0.0`, adding
//!   `h_a[k]·w[k]`, then `h_b[k]·w[d+k]`, then `(h_a[k]·h_b[k])·w[2d+k]` in
//!   ascending `k` with separate multiply and add (the `matmul` panel's
//!   scalar tail), then `+ bias` and `1 / (1 + e^{-s})`;
//! * backward: `g' = g·y·(1−y)` left to right; `db` and `dw` sum over pairs
//!   in ascending order from `0.0` (the `add_row_broadcast` and `t_matmul`
//!   rules); each endpoint's row gradient is
//!   `((0 + g'·w[2d+k])·h_other[k]) + (0 + g'·w[k])`, the `0 +` being
//!   `matmul_t`'s zero-initialised accumulator (it turns a `-0.0` product
//!   into `+0.0`, so every intermediate equals the chain's); rows scatter
//!   into separate `D_b` and `D_a` buffers in pair order (the two
//!   `gather_rows` rules).
//!
//! Only independent pairs share lanes: each pair's reduction stays one
//! serial chain, the lane rule of [`super::lane`]. Both kernels are serial.

use super::lane::LANES;
use crate::matrix::Matrix;

/// Validates the operand shapes and returns `(d, interaction)`.
fn check_shapes(h: &Matrix, a_idx: &[usize], b_idx: &[usize], w: &Matrix) -> (usize, bool) {
    let d = h.cols();
    assert_eq!(
        a_idx.len(),
        b_idx.len(),
        "pair_score: {} anchors but {} partners",
        a_idx.len(),
        b_idx.len()
    );
    assert!(
        w.cols() == 1 && (w.rows() == 2 * d || w.rows() == 3 * d),
        "pair_score: weight must be {}x1 or {}x1 for {d}-wide rows, found {}x{}",
        2 * d,
        3 * d,
        w.rows(),
        w.cols()
    );
    let n = h.rows();
    assert!(
        a_idx.iter().chain(b_idx).all(|&i| i < n),
        "pair_score: pair endpoint out of bounds (rows={n})"
    );
    (d, w.rows() == 3 * d)
}

/// Bumps the FMA counter for `pairs` pairs of `width` weights each.
fn record_fmas(pairs: usize, width: usize) {
    ses_obs::metrics::PAIR_SCORE_FMAS.add((pairs as u64) * (width as u64));
}

/// `σ([h_a ; h_b ; h_a ⊙ h_b] · w + bias)` for every pair, as an `m × 1`
/// column (see the module docs for the exact expression order).
///
/// # Panics
/// Panics if the index lists differ in length, an index is out of range, or
/// `w` is not `2d × 1` or `3d × 1` for `d = h.cols()`.
pub fn pair_score(h: &Matrix, a_idx: &[usize], b_idx: &[usize], w: &Matrix, bias: f32) -> Matrix {
    let _span = ses_obs::span!("kernel.pair_score");
    check_shapes(h, a_idx, b_idx, w);
    let m = a_idx.len();
    record_fmas(m, w.rows());
    let mut out = Matrix::zeros_pooled(m, 1);
    let y = out.as_mut_slice();
    // LANES pairs per step: independent accumulation chains the core can
    // overlap, where one pair's chain is latency-bound.
    let mut p = 0;
    while p + LANES <= m {
        score_block::<LANES>(h, &a_idx[p..], &b_idx[p..], w.as_slice(), bias, &mut y[p..]);
        p += LANES;
    }
    for p in p..m {
        score_block::<1>(h, &a_idx[p..], &b_idx[p..], w.as_slice(), bias, &mut y[p..]);
    }
    out
}

/// Scores the first `N` pairs of `a_idx`/`b_idx` into `y[..N]`, one
/// accumulator chain per pair.
#[inline(always)]
fn score_block<const N: usize>(
    h: &Matrix,
    a_idx: &[usize],
    b_idx: &[usize],
    w: &[f32],
    bias: f32,
    y: &mut [f32],
) {
    let d = h.cols();
    let ha: [&[f32]; N] = std::array::from_fn(|l| h.row(a_idx[l]));
    let hb: [&[f32]; N] = std::array::from_fn(|l| h.row(b_idx[l]));
    let mut acc = [0.0f32; N];
    for k in 0..d {
        for l in 0..N {
            acc[l] += ha[l][k] * w[k];
        }
    }
    for k in 0..d {
        for l in 0..N {
            acc[l] += hb[l][k] * w[d + k];
        }
    }
    if w.len() == 3 * d {
        for k in 0..d {
            for l in 0..N {
                acc[l] += (ha[l][k] * hb[l][k]) * w[2 * d + k];
            }
        }
    }
    for l in 0..N {
        y[l] = sigmoid(acc[l] + bias);
    }
}

/// The tape's logistic sigmoid, `1 / (1 + e^{-x})`.
#[inline(always)]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Gradients of one [`pair_score`] call.
#[derive(Debug)]
pub(crate) struct PairScoreGrads {
    /// `(D_b, D_a)`: the partner and anchor row gradients scattered into
    /// two `n × d` buffers, present when `H` needs a gradient. Adding `D_b`
    /// then `D_a` into `H`'s gradient reproduces the unfused chain.
    pub(crate) h: Option<(Matrix, Matrix)>,
    /// `dL/dw`, same shape as `w`.
    pub(crate) w: Matrix,
    /// `dL/dbias`.
    pub(crate) bias: f32,
}

/// Backward of [`pair_score`] in one pass over the pairs, given its output
/// `y` and upstream gradient `g` (both `m` long). `D_b`/`D_a` are only
/// built when `need_h` is set.
///
/// # Panics
/// Panics on the shape violations [`pair_score`] rejects, or when `y`/`g`
/// are not one entry per pair.
pub(crate) fn pair_score_backward(
    h: &Matrix,
    a_idx: &[usize],
    b_idx: &[usize],
    w: &Matrix,
    y: &[f32],
    g: &[f32],
    need_h: bool,
) -> PairScoreGrads {
    let _span = ses_obs::span!("kernel.pair_score_bwd");
    let (d, interaction) = check_shapes(h, a_idx, b_idx, w);
    let m = a_idx.len();
    assert!(
        y.len() == m && g.len() == m,
        "pair_score_backward: {m} pairs but {} outputs and {} gradients",
        y.len(),
        g.len()
    );
    record_fmas(m, w.rows() * (1 + usize::from(need_h)));
    let ws = w.as_slice();
    let mut dw = Matrix::zeros_pooled(w.rows(), 1);
    let mut dh = need_h.then(|| {
        (
            Matrix::zeros_pooled(h.rows(), d),
            Matrix::zeros_pooled(h.rows(), d),
        )
    });
    let mut db = 0.0f32;
    for p in 0..m {
        let gp = g[p] * y[p] * (1.0 - y[p]);
        db += gp;
        let (ha, hb) = (h.row(a_idx[p]), h.row(b_idx[p]));
        let dws = dw.as_mut_slice();
        for k in 0..d {
            dws[k] += ha[k] * gp;
        }
        for k in 0..d {
            dws[d + k] += hb[k] * gp;
        }
        if interaction {
            for k in 0..d {
                dws[2 * d + k] += (ha[k] * hb[k]) * gp;
            }
        }
        let Some((d_b, d_a)) = dh.as_mut() else {
            continue;
        };
        let (ra, rb) = (d_a.row_mut(a_idx[p]), d_b.row_mut(b_idx[p]));
        if interaction {
            for k in 0..d {
                let dprod = 0.0 + gp * ws[2 * d + k];
                ra[k] += (dprod * hb[k]) + (0.0 + gp * ws[k]);
                rb[k] += (dprod * ha[k]) + (0.0 + gp * ws[d + k]);
            }
        } else {
            for k in 0..d {
                ra[k] += 0.0 + gp * ws[k];
                rb[k] += 0.0 + gp * ws[d + k];
            }
        }
    }
    PairScoreGrads {
        h: dh,
        w: dw,
        bias: db,
    }
}
