//! Graph-structured operations: sparse × dense products with differentiable
//! edge values, the fused node-pair scorer, and per-destination edge softmax
//! (the GAT attention kernel).

use std::sync::Arc;

use super::{Op, Tape, Var};
use crate::matrix::Matrix;
use crate::sparse::{spmm, CsrStructure};

impl Tape {
    /// Sparse × dense product `A × dense` where the sparsity pattern comes
    /// from `structure` and the per-entry values from the `nnz × 1` variable
    /// `values`.
    ///
    /// Gradients flow into **both** operands: into `dense` via the transposed
    /// product, and into each edge value `v_p` (edge `r → c`) via
    /// `∂L/∂v_p = ⟨∂L/∂out[r, :], dense[c, :]⟩`. The latter is what allows the
    /// SES structure mask (and GAT attention) to be trained end-to-end.
    pub fn spmm(&mut self, structure: Arc<CsrStructure>, values: Var, dense: Var) -> Var {
        let (vn, vc) = self.shape(values);
        assert_eq!(vc, 1, "spmm: values must be nnz x 1");
        assert_eq!(vn, structure.nnz(), "spmm: values length must equal nnz");
        self.san_spmm_dims("spmm", &structure, dense);
        let v = spmm(&structure, self.value(values).as_slice(), self.value(dense));
        let ng = self.needs(values) || self.needs(dense);
        self.push(
            v,
            Op::Spmm {
                structure,
                values,
                dense,
            },
            ng,
        )
    }

    /// Convenience: sparse × dense with *fixed* values (records the values as
    /// a constant so no gradient is computed for them).
    pub fn spmm_fixed(&mut self, structure: Arc<CsrStructure>, values: &[f32], dense: Var) -> Var {
        let vals = self.constant(Matrix::col_vec(values));
        self.spmm(structure, vals, dense)
    }

    /// Scores node pairs in one op: `σ([h_a ; h_b ; h_a ⊙ h_b] · w + bias)`
    /// per pair `(a_idx[p], b_idx[p])`, as an `m × 1` column — the SES
    /// structure-mask scorer (Eq. 4). A `2d × 1` weight drops the
    /// `h_a ⊙ h_b` block (the paper's additive concatenation); `bias` is
    /// `1 × 1`.
    ///
    /// Forward and backward run on [`crate::kernels::pair_score`] and its
    /// backward kernel, which read the endpoint rows of `h` in place. Values and gradients are bit-identical to the chain
    /// `gather_rows`×2 → `concat_cols` → `mul` → `concat_cols` → `linear` →
    /// `sigmoid`, including duplicate pairs, self pairs and `m = 0`.
    pub fn pair_score(
        &mut self,
        h: Var,
        a_idx: Arc<Vec<usize>>,
        b_idx: Arc<Vec<usize>>,
        w: Var,
        bias: Var,
    ) -> Var {
        self.san_gather_bounds("pair_score", h, &a_idx);
        self.san_gather_bounds("pair_score", h, &b_idx);
        assert_eq!(self.shape(bias), (1, 1), "pair_score: bias must be 1x1");
        let v = crate::kernels::pair_score(
            self.value(h),
            &a_idx,
            &b_idx,
            self.value(w),
            self.value(bias).scalar_value(),
        );
        let ng = self.needs(h) || self.needs(w) || self.needs(bias);
        self.push(
            v,
            Op::PairScore {
                h,
                a_idx,
                b_idx,
                w,
                bias,
            },
            ng,
        )
    }

    /// Per-row segment softmax over CSR entries: for each row `r`, the stored
    /// entries of `r` are soft-maxed together. `scores` is `nnz × 1`; the
    /// output has the same shape.
    ///
    /// With rows as destination nodes this is exactly GAT's attention
    /// normalisation over incoming edges. Rows are processed in parallel by
    /// the [`crate::kernels::edge_softmax`] kernel (bit-identical at any
    /// thread count); sanitizer checks run on the merged output as it is
    /// pushed onto the tape.
    pub fn edge_softmax(&mut self, structure: Arc<CsrStructure>, scores: Var) -> Var {
        let (vn, vc) = self.shape(scores);
        assert_eq!(vc, 1, "edge_softmax: scores must be nnz x 1");
        assert_eq!(
            vn,
            structure.nnz(),
            "edge_softmax: scores length must equal nnz"
        );
        let out = crate::kernels::edge_softmax(
            &structure,
            self.value(scores).as_slice(),
            crate::par::configured_threads(),
        );
        let nnz = out.len();
        let ng = self.needs(scores);
        self.push(
            Matrix::from_vec(nnz, 1, out),
            Op::EdgeSoftmax { scores, structure },
            ng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_structure() -> Arc<CsrStructure> {
        // 3 nodes; row r holds incoming edges: 0<-1, 1<-0, 1<-2, 2<-1
        Arc::new(CsrStructure::from_edges(
            3,
            3,
            &[(0, 1), (1, 0), (1, 2), (2, 1)],
        ))
    }

    #[test]
    fn spmm_forward_matches_dense() {
        let mut t = Tape::new();
        let s = chain_structure();
        let vals = t.leaf(Matrix::col_vec(&[1.0, 2.0, 3.0, 4.0]));
        let x = t.leaf(Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]));
        let y = t.spmm(s.clone(), vals, x);
        let dense = crate::sparse::CsrMatrix::new(s, vec![1.0, 2.0, 3.0, 4.0]).to_dense();
        let expect = dense.matmul(t.value(x));
        assert!(t.value(y).max_abs_diff(&expect) < 1e-6);
    }

    #[test]
    fn edge_softmax_rows_sum_to_one() {
        let mut t = Tape::new();
        let s = chain_structure();
        let scores = t.leaf(Matrix::col_vec(&[0.3, -1.0, 2.0, 0.0]));
        let a = t.edge_softmax(s.clone(), scores);
        let av = t.value(a).as_slice();
        // row 0 has one entry -> 1.0; row 1 has two entries summing to 1
        assert!((av[0] - 1.0).abs() < 1e-6);
        assert!((av[1] + av[2] - 1.0).abs() < 1e-6);
        assert!(av[2] > av[1], "larger score gets larger attention");
        assert!((av[3] - 1.0).abs() < 1e-6);
        let _ = s;
    }

    #[test]
    fn edge_softmax_handles_empty_rows() {
        let mut t = Tape::new();
        let s = Arc::new(CsrStructure::from_edges(3, 3, &[(0, 1)]));
        let scores = t.leaf(Matrix::col_vec(&[5.0]));
        let a = t.edge_softmax(s, scores);
        assert_eq!(t.value(a).as_slice(), &[1.0]);
    }
}
