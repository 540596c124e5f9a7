//! Linear-algebra forward operations: matmul, transpose, concatenation,
//! row gathering, and the feature gate on a sparse input's support.

use std::sync::Arc;

use super::{Op, Tape, Var};
use crate::sparse::CsrMatrix;

impl Tape {
    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.san_matmul_dims("matmul", a, b);
        let v = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng)
    }

    /// Transposed copy.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        let ng = self.needs(a);
        self.push(v, Op::Transpose(a), ng)
    }

    /// Gathers rows of `src` at `idx` (repetition allowed). The backward pass
    /// scatter-adds gradients back into the gathered rows.
    pub fn gather_rows(&mut self, src: Var, idx: Arc<Vec<usize>>) -> Var {
        self.san_gather_bounds("gather_rows", src, &idx);
        let v = self.value(src).gather_rows(&idx);
        let ng = self.needs(src);
        self.push(v, Op::GatherRows { src, idx }, ng)
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        self.san_rows_match("concat_cols", a, b);
        let v = self.value(a).concat_cols(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::ConcatCols(a, b), ng)
    }

    /// Vertical concatenation (stacks `b` below `a`).
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        self.san_cols_match("concat_rows", a, b);
        let v = self.value(a).concat_rows(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::ConcatRows(a, b), ng)
    }

    /// `σ(m × w + bias) ⊙ X`, evaluated only on the kept entries of the
    /// sparse input `X` (every entry but `+0.0`) and `+0.0` elsewhere: the
    /// SES feature mask (Eq. 3) applied to the input, as one op. `m` is
    /// `n × h`, `w` is `h × f`, `bias` is `1 × f` and `X` is `n × f`; the
    /// output is `n × f`. `X` is a constant.
    ///
    /// Forward and backward run on [`crate::kernels::feature_gate`] and its
    /// backward kernel. The value and the gradients of `m`, `w` and `bias`
    /// are bit-identical to the chain `linear` → `sigmoid` → `mul(·, X)` as
    /// long as `w` and the upstream gradient are finite; the backward reads
    /// the upstream gradient on the support only.
    pub fn feature_gate(&mut self, m: Var, w: Var, bias: Var, x: Arc<CsrMatrix>) -> Var {
        self.san_feature_gate_dims("feature_gate", m, w, bias, &x);
        let (v, gate) = crate::kernels::feature_gate(
            self.value(m),
            self.value(w),
            self.value(bias).as_slice(),
            &x,
        );
        let ng = self.needs(m) || self.needs(w) || self.needs(bias);
        self.push(
            v,
            Op::FeatureGate {
                m,
                w,
                bias,
                x,
                gate,
            },
            ng,
        )
    }

    /// `x Wᵀ`-style affine layer helper: `x × w + bias` (bias row-broadcast).
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_row_broadcast(xw, bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn matmul_forward() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = t.leaf(Matrix::identity(2));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c), t.value(a));
    }

    #[test]
    fn gather_forward() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(3, 1, vec![10.0, 20.0, 30.0]));
        let g = t.gather_rows(a, Arc::new(vec![2, 2, 0]));
        assert_eq!(t.value(g).as_slice(), &[30.0, 30.0, 10.0]);
    }

    #[test]
    fn concat_forward() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let cc = t.concat_cols(a, b);
        assert_eq!(t.value(cc).as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        let cr = t.concat_rows(a, b);
        assert_eq!(t.value(cr).as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn linear_forward() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let w = t.leaf(Matrix::from_vec(2, 1, vec![2.0, 3.0]));
        let b = t.leaf(Matrix::row_vec(&[0.5]));
        let y = t.linear(x, w, b);
        assert_eq!(t.value(y).scalar_value(), 5.5);
    }
}
