//! Fused triplet hinge (SES Eq. 11–12): for every triple `t`,
//! `y[t] = relu(√(Σ_k (h_a[k] − h_p[k])² + ε) − √(Σ_k (h_a[k] − h_n[k])² + ε) + margin)`
//! with `h_a = H[anchor[t]]`, `h_p = H[pos[t]]`, `h_n = H[neg[t]]` read in
//! place and `ε = 1e-8`.
//!
//! The unfused tape chain (three row gathers, two `sub` → `mul` → `row_sum`
//! → `sqrt_eps` distances, `sub`, `add_scalar`, `relu`) materialised seven
//! `T × d` buffers forward and about as many backward. These kernels keep
//! `T` outputs, `2T` distances and, backward, the three `n × d` scatter
//! buffers the chain's gathers also produced.
//!
//! # Bit-identity with the unfused chain
//!
//! Both passes evaluate exactly the float expressions the chain evaluated,
//! in the same order (see `docs/PERF.md`, "Fused triplet loss"):
//!
//! * forward: each distance is one accumulator starting at `Iterator::sum`'s
//!   start value for `f32`, adding `(h_a[k] − h_x[k])·(h_a[k] − h_x[k])` in
//!   ascending `k` (the `row_sum` of the `mul` of the `sub`), then
//!   `(acc + ε).sqrt()`; the output is `((d_p − d_n) + margin).max(0.0)`;
//! * backward: `g_r = g` where `y > 0` and `0.0` elsewhere (`y > 0` exactly
//!   where the relu's input was), `g_p = g_r / (2·d_p)` and
//!   `g_n = (g_r·(−1.0)) / (2·d_n)` (the `sub` and `sqrt_eps` rules); per
//!   `k`, `x_p = g_p·(h_a[k] − h_p[k])` and `x_n = g_n·(h_a[k] − h_n[k])`,
//!   each squared difference's gradient is `x + x` (the `mul` rule's two
//!   deltas into one operand), the positive and negative rows receive it
//!   `·(−1.0)`, and the anchor row receives `(x_n + x_n) + (x_p + x_p)`;
//!   the rows scatter into three separate `n × d` buffers in triple order
//!   (the three `gather_rows` rules).
//!
//! A triple whose `g_r` is zero and whose distances are finite only adds
//! `±0.0` terms, and a scatter buffer that starts at `+0.0` never holds
//! `-0.0`, so the backward skips it. A non-finite distance is never
//! skipped: `0·∞` and `0·NaN` are NaN in the chain too.
//!
//! Only independent triples share lanes: each distance stays one serial
//! chain, the lane rule of [`super::lane`]. Both kernels are serial.

use super::lane::LANES;
use crate::matrix::Matrix;

/// The `ε` inside each square root (the chain's `sqrt_eps(·, 1e-8)`).
const EPS: f32 = 1e-8;

/// Validates the index lists against `h` and returns the triple count.
fn check_shapes(h: &Matrix, anchor: &[usize], pos: &[usize], neg: &[usize]) -> usize {
    let t = anchor.len();
    assert!(
        pos.len() == t && neg.len() == t,
        "triplet: {t} anchors but {} positives and {} negatives",
        pos.len(),
        neg.len()
    );
    let n = h.rows();
    assert!(
        anchor.iter().chain(pos).chain(neg).all(|&i| i < n),
        "triplet: triple endpoint out of bounds (rows={n})"
    );
    t
}

/// `relu(d_p − d_n + margin)` for every triple, as a `T × 1` column, and
/// the distances `[d_p, d_n]` of each triple (`2T` long, triple order),
/// which the backward reads (see the module docs for the exact expression
/// order).
///
/// # Panics
/// Panics if the index lists differ in length or an index is out of range.
pub(crate) fn triplet(
    h: &Matrix,
    anchor: &[usize],
    pos: &[usize],
    neg: &[usize],
    margin: f32,
) -> (Matrix, Vec<f32>) {
    let _span = ses_obs::span!("kernel.triplet");
    let t = check_shapes(h, anchor, pos, neg);
    let mut out = Matrix::zeros_pooled(t, 1);
    let mut dist = vec![0.0f32; 2 * t];
    let y = out.as_mut_slice();
    // LANES triples per step: independent accumulation chains the core can
    // overlap, where one distance's chain is latency-bound.
    let mut i = 0;
    while i + LANES <= t {
        distance_block::<LANES>(h, &anchor[i..], &pos[i..], &neg[i..], &mut dist[2 * i..]);
        i += LANES;
    }
    for i in i..t {
        distance_block::<1>(h, &anchor[i..], &pos[i..], &neg[i..], &mut dist[2 * i..]);
    }
    for (yi, d) in y.iter_mut().zip(dist.chunks_exact(2)) {
        *yi = ((d[0] - d[1]) + margin).max(0.0);
    }
    (out, dist)
}

/// Writes `[d_p, d_n]` of the first `N` triples of `anchor`/`pos`/`neg`
/// into `dist[..2N]`, one accumulator chain per distance.
#[inline(always)]
fn distance_block<const N: usize>(
    h: &Matrix,
    anchor: &[usize],
    pos: &[usize],
    neg: &[usize],
    dist: &mut [f32],
) {
    let d = h.cols();
    let ha: [&[f32]; N] = std::array::from_fn(|l| &h.row(anchor[l])[..d]);
    let hp: [&[f32]; N] = std::array::from_fn(|l| &h.row(pos[l])[..d]);
    let hn: [&[f32]; N] = std::array::from_fn(|l| &h.row(neg[l])[..d]);
    let start: f32 = std::iter::empty::<f32>().sum();
    let mut sp = [start; N];
    let mut sn = [start; N];
    for k in 0..d {
        for l in 0..N {
            let xp = ha[l][k] - hp[l][k];
            let xn = ha[l][k] - hn[l][k];
            sp[l] += xp * xp;
            sn[l] += xn * xn;
        }
    }
    for l in 0..N {
        dist[2 * l] = (sp[l] + EPS).sqrt();
        dist[2 * l + 1] = (sn[l] + EPS).sqrt();
    }
}

/// Backward of [`triplet`] in one pass over the triples, given its output
/// `y`, its distances `dist` and the upstream gradient `g`. Returns
/// `[D_n, D_p, D_a]`: the negative, positive and anchor row gradients
/// scattered into three `n × d` buffers. Adding them into `H`'s gradient in
/// that order reproduces the unfused chain.
///
/// # Panics
/// Panics on the shape violations [`triplet`] rejects, or when `y`, `g` and
/// `dist` are not one (two for `dist`) entry per triple.
#[allow(clippy::neg_multiply)] // `x * -1.0` is the chain's `scale(-1.0)`, spelled as it was
pub(crate) fn triplet_backward(
    h: &Matrix,
    anchor: &[usize],
    pos: &[usize],
    neg: &[usize],
    y: &[f32],
    dist: &[f32],
    g: &[f32],
) -> [Matrix; 3] {
    let _span = ses_obs::span!("kernel.triplet_bwd");
    let t = check_shapes(h, anchor, pos, neg);
    assert!(
        y.len() == t && g.len() == t && dist.len() == 2 * t,
        "triplet_backward: {t} triples but {} outputs, {} gradients and {} distances",
        y.len(),
        g.len(),
        dist.len()
    );
    let (n, d) = h.shape();
    let [mut d_n, mut d_p, mut d_a] = std::array::from_fn(|_| Matrix::zeros_pooled(n, d));
    for i in 0..t {
        let gr = if y[i] > 0.0 { g[i] } else { 0.0 };
        let (dp, dn) = (dist[2 * i], dist[2 * i + 1]);
        // lint:allow(no-float-eq): exactly ±0.0, the case whose terms are all ±0.0
        if gr == 0.0 && dp.is_finite() && dn.is_finite() {
            continue;
        }
        let gp = gr / (2.0 * dp);
        let gn = (gr * -1.0) / (2.0 * dn);
        let (ha, hp, hn) = (
            &h.row(anchor[i])[..d],
            &h.row(pos[i])[..d],
            &h.row(neg[i])[..d],
        );
        let rn = &mut d_n.row_mut(neg[i])[..d];
        let rp = &mut d_p.row_mut(pos[i])[..d];
        let ra = &mut d_a.row_mut(anchor[i])[..d];
        for k in 0..d {
            let xp = gp * (ha[k] - hp[k]);
            let xn = gn * (ha[k] - hn[k]);
            let (dxp, dxn) = (xp + xp, xn + xn);
            rn[k] += dxn * -1.0;
            rp[k] += dxp * -1.0;
            ra[k] += dxn + dxp;
        }
    }
    [d_n, d_p, d_a]
}
