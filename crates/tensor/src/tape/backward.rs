//! Reverse-mode sweep: walks the tape from the loss back to the leaves,
//! dispatching one gradient rule per [`Op`] variant.

use super::{Op, Tape, Var};
use crate::matrix::Matrix;
use crate::sparse::spmm_transpose;

impl Tape {
    /// Runs the backward pass from the scalar variable `loss`.
    ///
    /// Every variable with `needs_grad` that (transitively) contributed to
    /// `loss` receives a gradient, readable via [`Tape::grad`].
    ///
    /// # Panics
    /// Panics when `loss` is not `1 × 1`.
    pub fn backward(&mut self, loss: Var) {
        let _span = ses_obs::span!("tape.backward");
        ses_obs::metrics::TAPE_BACKWARDS.incr();
        assert_eq!(
            self.shape(loss),
            (1, 1),
            "backward: loss must be a 1x1 scalar"
        );
        self.nodes[loss.0].grad = Some(Matrix::scalar(1.0));
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad || self.nodes[i].grad.is_none() {
                continue;
            }
            let deltas = self.node_deltas(i);
            for (var, delta) in deltas {
                if self.needs(var) {
                    self.san_grad_finite(i, var, &delta);
                    self.accumulate(var, delta);
                } else {
                    delta.recycle();
                }
            }
        }
        self.san_report_leaks(loss);
    }

    /// Computes the gradient contributions of node `i` to each of its
    /// parents. Pure read-only with respect to the tape.
    fn node_deltas(&self, i: usize) -> Vec<(Var, Matrix)> {
        let node = &self.nodes[i];
        let g = node
            .grad
            .as_ref()
            // lint:allow(no-unwrap): caller filters on grad.is_some(); a miss is a tape bug
            .expect("node_deltas called without gradient");
        let val = |v: Var| &self.nodes[v.0].value;
        match &node.op {
            Op::Leaf => Vec::new(),
            Op::Add(a, b) => vec![(*a, g.clone_pooled()), (*b, g.clone_pooled())],
            Op::Sub(a, b) => vec![(*a, g.clone_pooled()), (*b, g.scale(-1.0))],
            Op::Mul(a, b) => vec![(*a, g.hadamard(val(*b))), (*b, g.hadamard(val(*a)))],
            Op::Scale(a, c) => vec![(*a, g.scale(*c))],
            Op::AddScalar(a, _) => vec![(*a, g.clone_pooled())],
            Op::MulScalarVar { scalar, matrix } => {
                let s = val(*scalar).scalar_value();
                let ds = Matrix::scalar(g.hadamard(val(*matrix)).sum());
                vec![(*matrix, g.scale(s)), (*scalar, ds)]
            }
            Op::MatMul(a, b) => {
                // dL/dA = G Bᵀ ; dL/dB = Aᵀ G — each only for an operand that
                // needs it (every encoder's first layer multiplies the
                // constant feature matrix).
                let mut out = Vec::with_capacity(2);
                if self.needs(*a) {
                    out.push((*a, g.matmul_t(val(*b))));
                }
                if self.needs(*b) {
                    out.push((*b, val(*a).t_matmul(g)));
                }
                out
            }
            Op::Transpose(a) => vec![(*a, g.transpose())],
            Op::AddRowBroadcast { matrix, bias } => {
                let (n, f) = g.shape();
                let mut db = Matrix::zeros_pooled(1, f);
                for r in 0..n {
                    let row = g.row(r);
                    let d = db.row_mut(0);
                    for j in 0..f {
                        d[j] += row[j];
                    }
                }
                vec![(*matrix, g.clone_pooled()), (*bias, db)]
            }
            Op::MulColBroadcast { matrix, scaler } => {
                let m = val(*matrix);
                let s = val(*scaler);
                let (n, f) = m.shape();
                let mut dm = g.clone_pooled();
                let mut ds = Matrix::zeros_pooled(n, 1);
                for r in 0..n {
                    let sr = s[(r, 0)];
                    let grow = g.row(r);
                    let mrow = m.row(r);
                    let drow = dm.row_mut(r);
                    let mut acc = 0.0;
                    for j in 0..f {
                        acc += grow[j] * mrow[j];
                        drow[j] *= sr;
                    }
                    ds[(r, 0)] = acc;
                }
                vec![(*matrix, dm), (*scaler, ds)]
            }
            Op::Spmm {
                structure,
                values,
                dense,
            } => {
                // Both deltas run on the parallel kernels; sanitizer checks
                // happen on the merged matrices in the backward sweep.
                let mut out = Vec::with_capacity(2);
                if self.needs(*dense) {
                    let dd = spmm_transpose(structure, val(*values).as_slice(), g);
                    out.push((*dense, dd));
                }
                if self.needs(*values) {
                    let dv = crate::kernels::spmm_values_grad(
                        structure,
                        val(*dense),
                        g,
                        crate::par::configured_threads(),
                    );
                    out.push((*values, dv));
                }
                out
            }
            Op::Sigmoid(a) => {
                let y = &node.value;
                vec![(*a, g.zip(y, |gi, yi| gi * yi * (1.0 - yi)))]
            }
            Op::Relu(a) => vec![(*a, g.zip(val(*a), |gi, xi| if xi > 0.0 { gi } else { 0.0 }))],
            Op::LeakyRelu(a, slope) => {
                let s = *slope;
                vec![(
                    *a,
                    g.zip(val(*a), move |gi, xi| if xi > 0.0 { gi } else { s * gi }),
                )]
            }
            Op::Elu(a, alpha) => {
                let al = *alpha;
                let y = &node.value;
                let x = val(*a);
                let mut d = g.clone_pooled();
                for (k, dk) in d.as_mut_slice().iter_mut().enumerate() {
                    let xi = x.as_slice()[k];
                    if xi <= 0.0 {
                        *dk *= y.as_slice()[k] + al;
                    }
                }
                vec![(*a, d)]
            }
            Op::Tanh(a) => {
                let y = &node.value;
                vec![(*a, g.zip(y, |gi, yi| gi * (1.0 - yi * yi)))]
            }
            Op::Sqrt(a, _) => {
                let y = &node.value;
                vec![(*a, g.zip(y, |gi, yi| gi / (2.0 * yi)))]
            }
            Op::Abs(a) => vec![(
                *a,
                g.zip(val(*a), |gi, xi| {
                    gi * xi.signum() * (xi.abs().to_bits() != 0) as u8 as f32
                }),
            )],
            Op::Log(a, eps) => {
                let e = *eps;
                vec![(*a, g.zip(val(*a), move |gi, xi| gi / (xi + e)))]
            }
            Op::Exp(a) => {
                let y = &node.value;
                vec![(*a, g.hadamard(y))]
            }
            Op::LogSoftmaxRows(a) => {
                let y = &node.value;
                let (n, c) = y.shape();
                let mut d = Matrix::zeros_pooled(n, c);
                for r in 0..n {
                    let grow = g.row(r);
                    let yrow = y.row(r);
                    let gsum: f32 = grow.iter().sum();
                    let drow = d.row_mut(r);
                    for j in 0..c {
                        drow[j] = grow[j] - yrow[j].exp() * gsum;
                    }
                }
                vec![(*a, d)]
            }
            Op::NllMasked { logp, labels, idx } => {
                let gs = g.scalar_value();
                let (n, c) = self.nodes[logp.0].value.shape();
                let mut d = Matrix::zeros_pooled(n, c);
                let w = gs / idx.len() as f32;
                for &i2 in idx.iter() {
                    d[(i2, labels[i2])] -= w;
                }
                vec![(*logp, d)]
            }
            Op::EdgeSoftmax { scores, structure } => {
                let d = crate::kernels::edge_softmax_backward(
                    structure,
                    &node.value,
                    g,
                    crate::par::configured_threads(),
                );
                vec![(*scores, d)]
            }
            Op::GatherRows { src, idx } => {
                let (n, f) = self.nodes[src.0].value.shape();
                let mut d = Matrix::zeros_pooled(n, f);
                for (r, &i2) in idx.iter().enumerate() {
                    let grow = g.row(r);
                    let drow = d.row_mut(i2);
                    for j in 0..f {
                        drow[j] += grow[j];
                    }
                }
                vec![(*src, d)]
            }
            Op::PairScore {
                h,
                a_idx,
                b_idx,
                w,
                bias,
            } => {
                let grads = crate::kernels::pair_score_backward(
                    val(*h),
                    a_idx,
                    b_idx,
                    val(*w),
                    node.value.as_slice(),
                    g.as_slice(),
                    self.needs(*h),
                );
                // D_b before D_a: the order the unfused chain's two gathers
                // added into H's gradient.
                let mut out = Vec::with_capacity(4);
                if let Some((d_b, d_a)) = grads.h {
                    out.push((*h, d_b));
                    out.push((*h, d_a));
                }
                out.push((*w, grads.w));
                out.push((*bias, Matrix::full_pooled(1, 1, grads.bias)));
                out
            }
            Op::FeatureGate {
                m,
                w,
                bias,
                x,
                gate,
            } => {
                let grads = crate::kernels::feature_gate_backward(
                    val(*m),
                    val(*w),
                    x,
                    gate,
                    g,
                    self.needs(*m),
                );
                let mut out = Vec::with_capacity(3);
                if let Some(dm) = grads.m {
                    out.push((*m, dm));
                }
                out.push((*w, grads.w));
                out.push((*bias, grads.bias));
                out
            }
            Op::TripletHinge {
                h,
                anchor,
                pos,
                neg,
                dist,
                ..
            } => {
                // D_n, D_p, D_a: the order the unfused chain's three gathers
                // (recorded anchor, positive, negative) added into H's
                // gradient.
                let [d_n, d_p, d_a] = crate::kernels::triplet_backward(
                    val(*h),
                    anchor,
                    pos,
                    neg,
                    node.value.as_slice(),
                    dist,
                    g.as_slice(),
                );
                vec![(*h, d_n), (*h, d_p), (*h, d_a)]
            }
            Op::ConcatCols(a, b) => {
                let (n, fa) = self.nodes[a.0].value.shape();
                let fb = self.nodes[b.0].value.cols();
                let mut da = Matrix::zeros_pooled(n, fa);
                let mut db = Matrix::zeros_pooled(n, fb);
                for r in 0..n {
                    let grow = g.row(r);
                    da.row_mut(r).copy_from_slice(&grow[..fa]);
                    db.row_mut(r).copy_from_slice(&grow[fa..]);
                }
                vec![(*a, da), (*b, db)]
            }
            Op::ConcatRows(a, b) => {
                let (na, f) = self.nodes[a.0].value.shape();
                let nb = self.nodes[b.0].value.rows();
                let mut da = Matrix::zeros_pooled(na, f);
                let mut db = Matrix::zeros_pooled(nb, f);
                da.as_mut_slice().copy_from_slice(&g.as_slice()[..na * f]);
                db.as_mut_slice().copy_from_slice(&g.as_slice()[na * f..]);
                vec![(*a, da), (*b, db)]
            }
            Op::SumAll(a) => {
                let gs = g.scalar_value();
                let (n, f) = self.nodes[a.0].value.shape();
                vec![(*a, Matrix::full_pooled(n, f, gs))]
            }
            Op::MeanAll(a) => {
                let (n, f) = self.nodes[a.0].value.shape();
                let gs = g.scalar_value() / (n * f) as f32;
                vec![(*a, Matrix::full_pooled(n, f, gs))]
            }
            Op::RowSum(a) => {
                let (n, f) = self.nodes[a.0].value.shape();
                let mut d = Matrix::zeros_pooled(n, f);
                for r in 0..n {
                    let gr = g[(r, 0)];
                    for x in d.row_mut(r) {
                        *x = gr;
                    }
                }
                vec![(*a, d)]
            }
            Op::Dropout { src, mask } => {
                let mut d = g.clone_pooled();
                for (x, &m) in d.as_mut_slice().iter_mut().zip(mask.iter()) {
                    *x *= m;
                }
                vec![(*src, d)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_through_simple_chain() {
        // loss = mean((a * 2 + 1)^2) elementwise over 2 entries
        let mut t = Tape::new();
        let a = t.leaf(Matrix::row_vec(&[1.0, -2.0]));
        let s = t.scale(a, 2.0);
        let s1 = t.add_scalar(s, 1.0);
        let sq = t.mul(s1, s1);
        let loss = t.mean_all(sq);
        t.backward(loss);
        // d/da mean((2a+1)^2) = (1/2) * 2(2a+1)*2 = 2(2a+1)
        let g = t.grad_unwrap(a);
        assert!((g.as_slice()[0] - 2.0 * 3.0).abs() < 1e-5);
        assert!((g.as_slice()[1] - 2.0 * -3.0).abs() < 1e-5);
    }

    #[test]
    fn constants_get_no_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::scalar(2.0));
        let c = t.constant(Matrix::scalar(3.0));
        let m = t.mul(a, c);
        t.backward(m);
        assert!(t.grad(c).is_none());
        assert_eq!(t.grad_unwrap(a).scalar_value(), 3.0);
    }

    #[test]
    fn gradient_accumulates_over_reuse() {
        // loss = sum(a + a) -> da = 2
        let mut t = Tape::new();
        let a = t.leaf(Matrix::row_vec(&[1.0, 1.0]));
        let s = t.add(a, a);
        let loss = t.sum_all(s);
        t.backward(loss);
        assert_eq!(t.grad_unwrap(a).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be a 1x1 scalar")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        t.backward(a);
    }
}
