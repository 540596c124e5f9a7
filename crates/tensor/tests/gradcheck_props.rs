//! Property-based finite-difference gradient checks for every autodiff op.
//!
//! Each property draws random (bounded, well-scaled) inputs, builds a scalar
//! loss through the op under test, and asserts the analytic gradient matches
//! central finite differences.

use std::sync::Arc;

use proptest::prelude::*;
use ses_tensor::gradcheck::assert_gradcheck;
use ses_tensor::{CsrMatrix, CsrStructure, Matrix, Tape};

const TOL: f32 = 5e-3;

fn small_mat(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Values bounded away from the kink points of relu/abs so the finite
/// difference is valid.
fn kink_free_mat(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(prop_oneof![-1.5f32..-0.15, 0.15f32..1.5], rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_add_sub_mul(a in small_mat(3, 4), b in small_mat(3, 4)) {
        assert_gradcheck(&[a.clone(), b.clone()], TOL, |t, vs| {
            let s = t.add(vs[0], vs[1]);
            let d = t.sub(s, vs[1]);
            let m = t.mul(d, vs[1]);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_scale_add_scalar(a in small_mat(2, 5)) {
        assert_gradcheck(&[a], TOL, |t, vs| {
            let s = t.scale(vs[0], -2.5);
            let s = t.add_scalar(s, 0.7);
            let m = t.mul(s, s);
            t.sum_all(m)
        });
    }

    #[test]
    fn grad_matmul(a in small_mat(3, 4), b in small_mat(4, 2)) {
        assert_gradcheck(&[a, b], TOL, |t, vs| {
            let c = t.matmul(vs[0], vs[1]);
            let sq = t.mul(c, c);
            t.mean_all(sq)
        });
    }

    #[test]
    fn grad_transpose(a in small_mat(3, 2)) {
        assert_gradcheck(&[a], TOL, |t, vs| {
            let tr = t.transpose(vs[0]);
            let m = t.mul(tr, tr);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_sigmoid_tanh(a in small_mat(2, 4)) {
        assert_gradcheck(&[a], TOL, |t, vs| {
            let s = t.sigmoid(vs[0]);
            let h = t.tanh(s);
            t.mean_all(h)
        });
    }

    #[test]
    fn grad_relu_family(a in kink_free_mat(2, 4)) {
        assert_gradcheck(std::slice::from_ref(&a), TOL, |t, vs| {
            let r = t.relu(vs[0]);
            t.mean_all(r)
        });
        assert_gradcheck(std::slice::from_ref(&a), TOL, |t, vs| {
            let r = t.leaky_relu(vs[0], 0.2);
            t.mean_all(r)
        });
        assert_gradcheck(std::slice::from_ref(&a), TOL, |t, vs| {
            let r = t.elu(vs[0], 1.0);
            t.mean_all(r)
        });
        assert_gradcheck(&[a], TOL, |t, vs| {
            let r = t.abs(vs[0]);
            t.mean_all(r)
        });
    }

    #[test]
    fn grad_sqrt(a in proptest::collection::vec(0.3f32..2.0, 6)) {
        let m = Matrix::from_vec(2, 3, a);
        assert_gradcheck(&[m], TOL, |t, vs| {
            let s = t.sqrt_eps(vs[0], 1e-6);
            t.mean_all(s)
        });
    }

    #[test]
    fn grad_broadcast_ops(m in small_mat(3, 4), bias in small_mat(1, 4), s in small_mat(3, 1)) {
        assert_gradcheck(&[m.clone(), bias], TOL, |t, vs| {
            let o = t.add_row_broadcast(vs[0], vs[1]);
            let q = t.mul(o, o);
            t.mean_all(q)
        });
        assert_gradcheck(&[m, s], TOL, |t, vs| {
            let o = t.mul_col_broadcast(vs[0], vs[1]);
            let q = t.mul(o, o);
            t.mean_all(q)
        });
    }

    #[test]
    fn grad_mul_scalar_var(s in small_mat(1, 1), m in small_mat(2, 3)) {
        assert_gradcheck(&[s, m], TOL, |t, vs| {
            let o = t.mul_scalar_var(vs[0], vs[1]);
            let q = t.mul(o, o);
            t.sum_all(q)
        });
    }

    #[test]
    fn grad_log_softmax_nll(a in small_mat(3, 4)) {
        let labels = Arc::new(vec![0usize, 2, 3]);
        let idx = Arc::new(vec![0usize, 1, 2]);
        assert_gradcheck(&[a], TOL, move |t, vs| {
            t.cross_entropy_masked(vs[0], labels.clone(), idx.clone())
        });
    }

    #[test]
    fn grad_gather_concat(a in small_mat(4, 3)) {
        let idx = Arc::new(vec![0usize, 2, 2, 3]);
        assert_gradcheck(&[a], TOL, move |t, vs| {
            let g = t.gather_rows(vs[0], idx.clone());
            let c = t.concat_cols(g, g);
            let r = t.concat_rows(c, c);
            let m = t.mul(r, r);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_pair_score(
        h in small_mat(4, 3),
        w in small_mat(9, 1),
        w_additive in small_mat(6, 1),
        bias in small_mat(1, 1),
    ) {
        // Duplicate (2,2)/(0,1) and self (2,2)/(3,3) pairs.
        let a_idx = Arc::new(vec![0usize, 2, 2, 3, 1, 0]);
        let b_idx = Arc::new(vec![1usize, 2, 2, 3, 0, 1]);
        for w in [w, w_additive] {
            let (a_idx, b_idx) = (a_idx.clone(), b_idx.clone());
            assert_gradcheck(&[h.clone(), w, bias.clone()], TOL, move |t, vs| {
                let s = t.pair_score(vs[0], a_idx.clone(), b_idx.clone(), vs[1], vs[2]);
                let q = t.mul(s, s);
                t.mean_all(q)
            });
        }
    }

    #[test]
    fn grad_feature_gate(
        m in small_mat(4, 3),
        w in small_mat(3, 5),
        bias in small_mat(1, 5),
        xv in proptest::collection::vec(0.2f32..1.5, 6),
    ) {
        // Row 2 and column 3 have no support; row 0 carries three entries.
        let s = Arc::new(CsrStructure::from_edges(
            4, 5, &[(0, 0), (0, 2), (0, 4), (1, 1), (3, 0), (3, 2)],
        ));
        let x = Arc::new(CsrMatrix::new(s, xv));
        assert_gradcheck(&[m, w, bias], TOL, move |t, vs| {
            let y = t.feature_gate(vs[0], vs[1], vs[2], x.clone());
            let q = t.mul(y, y);
            t.mean_all(q)
        });
    }

    #[test]
    fn grad_row_sum_l2(a in small_mat(3, 4), b in small_mat(3, 4)) {
        assert_gradcheck(&[a, b], TOL, |t, vs| {
            let d = t.row_l2_distance(vs[0], vs[1]);
            t.mean_all(d)
        });
    }

    #[test]
    fn grad_spmm_both_operands(vals in small_mat(5, 1), x in small_mat(4, 3)) {
        let s = Arc::new(CsrStructure::from_edges(
            4, 4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)],
        ));
        assert_gradcheck(&[vals, x], TOL, move |t, vs| {
            let y = t.spmm(s.clone(), vs[0], vs[1]);
            let q = t.mul(y, y);
            t.mean_all(q)
        });
    }

    #[test]
    fn grad_edge_softmax(scores in small_mat(5, 1), x in small_mat(4, 2)) {
        let s = Arc::new(CsrStructure::from_edges(
            4, 4, &[(0, 1), (0, 2), (1, 0), (2, 3), (3, 0)],
        ));
        assert_gradcheck(&[scores, x], TOL, move |t, vs| {
            let att = t.edge_softmax(s.clone(), vs[0]);
            let y = t.spmm(s.clone(), att, vs[1]);
            let q = t.mul(y, y);
            t.mean_all(q)
        });
    }

    #[test]
    fn grad_dropout(a in small_mat(3, 3)) {
        // Fixed mask (0 or 2.0): gradient must be masked identically.
        let mask = Arc::new(vec![2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 2.0, 0.0]);
        assert_gradcheck(&[a], TOL, move |t, vs| {
            let d = t.dropout(vs[0], mask.clone());
            let m = t.mul(d, d);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_deep_composition(a in small_mat(4, 3), w1 in small_mat(3, 5), w2 in small_mat(5, 2)) {
        // A two-layer MLP with mixed activations — exercises accumulation
        // across reused vars and long chains.
        assert_gradcheck(&[a, w1, w2], 1e-2, |t, vs| {
            let h = t.matmul(vs[0], vs[1]);
            let h = t.tanh(h);
            let o = t.matmul(h, vs[2]);
            let o = t.sigmoid(o);
            let p = t.mul(o, o);
            t.mean_all(p)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_log_exp(a in proptest::collection::vec(0.1f32..1.5, 6)) {
        let m = Matrix::from_vec(2, 3, a);
        assert_gradcheck(std::slice::from_ref(&m), TOL, |t, vs| {
            let l = t.log_eps(vs[0], 1e-6);
            t.mean_all(l)
        });
        assert_gradcheck(&[m], TOL, |t, vs| {
            let e = t.exp(vs[0]);
            t.mean_all(e)
        });
    }

    #[test]
    fn grad_binary_entropy(a in proptest::collection::vec(0.1f32..0.9, 6)) {
        let m = Matrix::from_vec(2, 3, a);
        assert_gradcheck(&[m], 1e-2, |t, vs| {
            let h = t.binary_entropy(vs[0]);
            t.mean_all(h)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_neg(a in small_mat(2, 3)) {
        assert_gradcheck(&[a], TOL, |t, vs| {
            let n = t.neg(vs[0]);
            let m = t.mul(n, vs[0]);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_row_sum(a in small_mat(3, 4)) {
        assert_gradcheck(&[a], TOL, |t, vs| {
            let s = t.row_sum(vs[0]);
            let q = t.mul(s, s);
            t.mean_all(q)
        });
    }

    #[test]
    fn grad_linear(x in small_mat(3, 4), w in small_mat(4, 2), b in small_mat(1, 2)) {
        assert_gradcheck(&[x, w, b], TOL, |t, vs| {
            let y = t.linear(vs[0], vs[1], vs[2]);
            let q = t.mul(y, y);
            t.mean_all(q)
        });
    }

    #[test]
    fn grad_log_softmax_rows_direct(a in small_mat(3, 4)) {
        // Exercises LogSoftmaxRows' backward through a non-NLL consumer, so
        // the full Jacobian (not just the label column) is checked.
        assert_gradcheck(&[a], TOL, |t, vs| {
            let lp = t.log_softmax_rows(vs[0]);
            let q = t.mul(lp, lp);
            t.mean_all(q)
        });
    }

    #[test]
    fn grad_nll_masked_direct(a in small_mat(4, 3)) {
        let labels = Arc::new(vec![0usize, 2, 1, 0]);
        let idx = Arc::new(vec![1usize, 3]);
        assert_gradcheck(&[a], TOL, move |t, vs| {
            let lp = t.log_softmax_rows(vs[0]);
            t.nll_masked(lp, labels.clone(), idx.clone())
        });
    }

    #[test]
    fn grad_l1_to_constant(a in kink_free_mat(2, 3)) {
        // Target 0 keeps |a - target| away from the kink for kink-free inputs.
        let target = Matrix::zeros(2, 3);
        assert_gradcheck(&[a], TOL, move |t, vs| {
            t.l1_to_constant(vs[0], &target)
        });
    }

    #[test]
    fn grad_spmm_fixed_dense_operand(x in small_mat(4, 3)) {
        let s = Arc::new(CsrStructure::from_edges(
            4, 4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)],
        ));
        let vals = [0.5f32, -1.0, 0.25, 2.0, -0.75];
        assert_gradcheck(&[x], TOL, move |t, vs| {
            let y = t.spmm_fixed(s.clone(), &vals, vs[0]);
            let q = t.mul(y, y);
            t.mean_all(q)
        });
    }
}

#[test]
fn binary_entropy_maximal_at_half() {
    let mut t = Tape::new();
    let a = t.leaf(Matrix::row_vec(&[0.5, 0.01, 0.99]));
    let h = t.binary_entropy(a);
    let v = t.value(h).as_slice().to_vec();
    assert!(
        (v[0] - std::f32::consts::LN_2).abs() < 1e-4,
        "H(0.5)=ln2, got {}",
        v[0]
    );
    assert!(v[1] < v[0] && v[2] < v[0]);
}
