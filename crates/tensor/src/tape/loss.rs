//! Loss-oriented operations: row-wise log-softmax, masked NLL and the fused
//! triplet hinge.

use std::sync::Arc;

use super::{Op, Tape, Var};
use crate::matrix::Matrix;

impl Tape {
    /// Row-wise log-softmax (numerically stabilised by the row max).
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let (n, c) = x.shape();
        let mut out = Matrix::zeros_pooled(n, c);
        for i in 0..n {
            let row = x.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let logsum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
            let o = out.row_mut(i);
            for j in 0..c {
                o[j] = row[j] - logsum;
            }
        }
        let ng = self.needs(a);
        self.push(out, Op::LogSoftmaxRows(a), ng)
    }

    /// Mean negative log-likelihood of `labels` over the rows listed in
    /// `idx`, taking row-wise **log-probabilities** as input. Returns `1 × 1`.
    ///
    /// This is the cross-entropy loss of Eq. (6)/(8) in the paper, restricted
    /// to the labelled node set.
    pub fn nll_masked(&mut self, logp: Var, labels: Arc<Vec<usize>>, idx: Arc<Vec<usize>>) -> Var {
        assert!(!idx.is_empty(), "nll_masked: empty index set");
        let lp = self.value(logp);
        let (n, c) = lp.shape();
        assert_eq!(labels.len(), n, "nll_masked: labels length must equal rows");
        let mut acc = 0.0;
        for &i in idx.iter() {
            assert!(i < n, "nll_masked: index {i} out of bounds");
            let y = labels[i];
            assert!(y < c, "nll_masked: label {y} out of bounds for {c} classes");
            acc -= lp[(i, y)];
        }
        let v = Matrix::scalar(acc / idx.len() as f32);
        let ng = self.needs(logp);
        self.push(v, Op::NllMasked { logp, labels, idx }, ng)
    }

    /// The SES triplet hinge (Eq. 12) in one op: for every triple
    /// `(anchor[t], pos[t], neg[t])` of `h`'s rows,
    /// `relu(‖h_a − h_p‖ − ‖h_a − h_n‖ + margin)` with each distance
    /// `√(Σ_k (·)² + 1e-8)`, as a `T × 1` column. `h` is `n × d`; the three
    /// index lists have one entry per triple.
    ///
    /// Forward and backward run on the serial kernels `kernels::triplet`
    /// and `kernels::triplet_backward`, which read the rows of `h` in place. Values and
    /// gradients are bit-identical to the chain `gather_rows`×3 → two
    /// distances (`sub` → `mul` → `row_sum` → `sqrt_eps(·, 1e-8)`) → `sub` →
    /// `add_scalar(margin)` → `relu`, including repeated anchors, an anchor
    /// equal to its positive, `T = 0`, and non-finite rows (whose gradients
    /// are non-finite exactly where the chain's are).
    pub fn triplet_hinge(
        &mut self,
        h: Var,
        anchor: Arc<Vec<usize>>,
        pos: Arc<Vec<usize>>,
        neg: Arc<Vec<usize>>,
        margin: f32,
    ) -> Var {
        for idx in [&anchor, &pos, &neg] {
            self.san_gather_bounds("triplet_hinge", h, idx);
        }
        let (v, dist) = crate::kernels::triplet(self.value(h), &anchor, &pos, &neg, margin);
        let ng = self.needs(h);
        self.push(
            v,
            Op::TripletHinge {
                h,
                anchor,
                pos,
                neg,
                margin,
                dist,
            },
            ng,
        )
    }

    /// Cross-entropy (log-softmax + masked NLL) of logits against `labels`
    /// restricted to rows `idx`.
    pub fn cross_entropy_masked(
        &mut self,
        logits: Var,
        labels: Arc<Vec<usize>>,
        idx: Arc<Vec<usize>>,
    ) -> Var {
        let logp = self.log_softmax_rows(logits);
        self.nll_masked(logp, labels, idx)
    }

    /// Mean absolute error between `a` and a constant target matrix.
    /// Used by the subgraph loss (Eq. 7), where the targets are the stacked
    /// positive/negative edge labels.
    pub fn l1_to_constant(&mut self, a: Var, target: &Matrix) -> Var {
        assert_eq!(
            self.shape(a),
            target.shape(),
            "l1_to_constant: shape mismatch"
        );
        self.san_forward_finite(&Op::Leaf, target);
        let t = self.constant(target.clone());
        let d = self.sub(a, t);
        let ad = self.abs(d);
        self.mean_all(ad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_softmax_rows_normalised() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(
            2,
            3,
            vec![1.0, 2.0, 3.0, 10.0, 10.0, 10.0],
        ));
        let lp = t.log_softmax_rows(a);
        for i in 0..2 {
            let sum: f32 = t.value(lp).row(i).iter().map(|&x| x.exp()).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // uniform row -> log(1/3)
        assert!((t.value(lp)[(1, 0)] - (1.0f32 / 3.0).ln()).abs() < 1e-5);
    }

    #[test]
    fn nll_masked_hand_case() {
        let mut t = Tape::new();
        // perfect confidence on the right class for row 0, wrong for row 1
        let logits = t.leaf(Matrix::from_vec(2, 2, vec![10.0, -10.0, 10.0, -10.0]));
        let labels = Arc::new(vec![0usize, 1]);
        let all = Arc::new(vec![0usize, 1]);
        let loss = t.cross_entropy_masked(logits, labels.clone(), all);
        let v = t.value(loss).scalar_value();
        assert!(v > 5.0, "row 1 should be heavily penalised, got {v}");
        let only0 = Arc::new(vec![0usize]);
        let loss0 = t.cross_entropy_masked(logits, labels, only0);
        assert!(t.value(loss0).scalar_value() < 1e-3);
    }

    #[test]
    fn l1_to_constant_hand_case() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::col_vec(&[0.5, 1.0]));
        let target = Matrix::col_vec(&[1.0, 1.0]);
        let l = t.l1_to_constant(a, &target);
        assert!((t.value(l).scalar_value() - 0.25).abs() < 1e-6);
    }
}
