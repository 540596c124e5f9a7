//! Every tape op has a verifier rule.
//!
//! One real [`Tape`] records each op that `Op::name` can return, and the
//! exported IR must verify clean with the loss set and a zero leak budget.
//! The expected names are read from the `Op::name` match itself, so a new
//! op fails this test until it is recorded here, and then fails again until
//! `ses-verify` has a shape and determinism rule for it.

use std::collections::BTreeSet;
use std::sync::Arc;

use ses_tensor::{CsrMatrix, CsrStructure, LeakBudget, Matrix, Tape, TapeIr};
use ses_verify::error_count;
use ses_verify::tape_check::{verify_tape, TapeCheckConfig};

/// The string arms of `Op::name` in ses-tensor's source.
fn op_names_in_source() -> BTreeSet<&'static str> {
    let src = include_str!("../../tensor/src/tape/sanitize.rs");
    let start = src
        .find("fn name(&self) -> &'static str {")
        .expect("Op::name is defined in sanitize.rs");
    let body = &src[start..];
    let body = &body[..body.find("\n    }\n").expect("Op::name body ends")];
    body.lines()
        .filter_map(|line| line.split_once("=> \""))
        .map(|(_, rest)| rest.split('"').next().expect("closing quote"))
        .collect()
}

fn vals(n: usize, scale: f32) -> Vec<f32> {
    (0..n).map(|i| ((i % 5) as f32) * scale - 0.3).collect()
}

/// Records a tape that uses every op once or more, all feeding the loss.
fn every_op_tape() -> (TapeIr, usize) {
    let mut t = Tape::new();
    let s = Arc::new(CsrStructure::from_edges(
        3,
        3,
        &[(0, 1), (1, 0), (1, 2), (2, 0)],
    ));
    let x = t.leaf(Matrix::from_vec(3, 2, vals(6, 0.2)));
    let w = t.leaf(Matrix::from_vec(2, 2, vals(4, 0.3)));
    let bias = t.leaf(Matrix::from_vec(1, 2, vec![0.1, -0.2]));
    let scores = t.leaf(Matrix::col_vec(&[0.5, -0.1, 0.3, 0.2]));
    let pair_w = t.leaf(Matrix::col_vec(&vals(6, 0.1)));
    let pair_b = t.leaf(Matrix::scalar(0.05));

    let xw = t.matmul(x, w);
    let h = t.add_row_broadcast(xw, bias);
    let att = t.edge_softmax(Arc::clone(&s), scores);
    let agg = t.spmm(s, att, h);

    let sig = t.sigmoid(agg);
    let rel = t.relu(h);
    let leaky = t.leaky_relu(agg, 0.1);
    let elu = t.elu(agg, 1.0);
    let th = t.tanh(agg);
    let ab = t.abs(th);
    let sq = t.sqrt_eps(ab, 1e-6);
    let lg = t.log_eps(sig, 1e-6);
    let ex = t.exp(th);

    let sum = t.add(sig, rel);
    let diff = t.sub(leaky, elu);
    let prod = t.mul(sum, diff);
    let scaled = t.scale(prod, 0.5);
    let shifted = t.add_scalar(scaled, 1.0);
    let dropped = t.dropout(shifted, Arc::new(vec![1.0, 0.0, 2.0, 1.0, 2.0, 1.0]));
    let tr = t.transpose(dropped);
    let gram = t.matmul(tr, sq);
    let mean = t.mean_all(gram);

    let rows = t.row_sum(ex);
    let weighted = t.mul_col_broadcast(lg, rows);
    let wide = t.concat_cols(weighted, sq);
    let gathered = t.gather_rows(wide, Arc::new(vec![2, 0, 1]));
    let tall = t.concat_rows(wide, gathered);

    let pairs = t.pair_score(
        h,
        Arc::new(vec![0, 1]),
        Arc::new(vec![2, 0]),
        pair_w,
        pair_b,
    );
    let gate_w = t.leaf(Matrix::from_vec(2, 3, vals(6, 0.4)));
    let gate_b = t.leaf(Matrix::from_vec(1, 3, vec![0.2, -0.1, 0.0]));
    let support = Arc::new(CsrStructure::from_edges(3, 3, &[(0, 2), (2, 0), (2, 1)]));
    let x_sparse = Arc::new(CsrMatrix::new(support, vec![1.0, 0.5, -2.0]));
    let gated = t.feature_gate(h, gate_w, gate_b, x_sparse);
    let gated_sum = t.sum_all(gated);
    let hinge = t.triplet_hinge(
        h,
        Arc::new(vec![0, 2, 2]),
        Arc::new(vec![1, 0, 1]),
        Arc::new(vec![2, 1, 0]),
        1.0,
    );
    let hinge_sum = t.sum_all(hinge);
    let gated_sum = t.add(gated_sum, hinge_sum);
    let pair_sum = t.sum_all(pairs);
    let pair_sum = t.add(pair_sum, gated_sum);
    let modulated = t.mul_scalar_var(pair_sum, tall);
    let logp = t.log_softmax_rows(modulated);
    let nll = t.nll_masked(
        logp,
        Arc::new(vec![0, 3, 1, 2, 0, 1]),
        Arc::new(vec![0, 2, 3, 5]),
    );
    let loss = t.add(nll, mean);
    (t.export_ir(), loss.index())
}

#[test]
fn every_op_name_is_recorded_and_verifies_clean() {
    let expected = op_names_in_source();
    assert_eq!(expected.len(), 34, "Op::name arms: {expected:?}");

    let (ir, loss) = every_op_tape();
    let recorded: BTreeSet<&str> = ir.nodes.iter().map(|n| n.op.as_str()).collect();
    let missing: Vec<_> = expected.difference(&recorded).collect();
    assert!(missing.is_empty(), "ops never recorded: {missing:?}");

    let diags = verify_tape(
        &ir,
        &TapeCheckConfig {
            loss: Some(loss),
            leak_budget: Some(LeakBudget::zero()),
        },
    );
    assert_eq!(error_count(&diags), 0, "{diags:#?}");
}
