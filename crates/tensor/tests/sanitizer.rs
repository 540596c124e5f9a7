//! Sanitizer self-tests: inject the failures the sanitizer exists to catch
//! (NaN forward values, operand shape mismatches, out-of-bounds gathers,
//! leaked tape nodes) and assert the diagnostic names the offending op.
//!
//! These run wherever the sanitizer is active (always under
//! `debug_assertions`, or with `SES_SANITIZE=1` in release) and no-op
//! otherwise, so `cargo test --release` without the env var stays green.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ses_tensor::{sanitize_enabled, LeakKind, Matrix, Tape};

/// Runs `f`, which must panic, and returns the panic message.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a sanitizer panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload should be a string")
}

#[test]
fn injected_nan_names_the_op() {
    if !sanitize_enabled() {
        return;
    }
    let msg = panic_message(|| {
        let mut t = Tape::new();
        // ln(-10 + 1e-6) is NaN: the sanitizer must catch it as it is pushed.
        let a = t.leaf(Matrix::row_vec(&[-10.0, 1.0]));
        let _ = t.log_eps(a, 1e-6);
    });
    assert!(
        msg.contains("SES_SANITIZE"),
        "not a sanitizer diagnostic: {msg}"
    );
    assert!(
        msg.contains("log_eps"),
        "diagnostic must name the op: {msg}"
    );
    assert!(msg.contains("non-finite forward value"), "{msg}");
}

#[test]
fn shape_mismatch_names_the_op() {
    if !sanitize_enabled() {
        return;
    }
    let msg = panic_message(|| {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        let b = t.leaf(Matrix::zeros(2, 3));
        let _ = t.add(a, b);
    });
    assert!(
        msg.contains("SES_SANITIZE[add]"),
        "diagnostic must name the op: {msg}"
    );
    assert!(msg.contains("2x2") && msg.contains("2x3"), "{msg}");
}

#[test]
fn matmul_inner_dim_mismatch_names_the_op() {
    if !sanitize_enabled() {
        return;
    }
    let msg = panic_message(|| {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 3));
        let b = t.leaf(Matrix::zeros(4, 2));
        let _ = t.matmul(a, b);
    });
    assert!(msg.contains("SES_SANITIZE[matmul]"), "{msg}");
    assert!(msg.contains("inner dimensions"), "{msg}");
}

#[test]
fn gather_out_of_bounds_names_the_op() {
    if !sanitize_enabled() {
        return;
    }
    let msg = panic_message(|| {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(3, 2));
        let _ = t.gather_rows(a, Arc::new(vec![0, 5]));
    });
    assert!(msg.contains("SES_SANITIZE[gather_rows]"), "{msg}");
    assert!(msg.contains("index 5"), "{msg}");
}

#[test]
fn triplet_out_of_bounds_names_the_op() {
    if !sanitize_enabled() {
        return;
    }
    let msg = panic_message(|| {
        let mut t = Tape::new();
        let h = t.leaf(Matrix::zeros(3, 2));
        let ok = Arc::new(vec![0, 1]);
        let _ = t.triplet_hinge(h, ok.clone(), ok, Arc::new(vec![2, 3]), 1.0);
    });
    assert!(msg.contains("SES_SANITIZE[triplet_hinge]"), "{msg}");
    assert!(msg.contains("index 3"), "{msg}");
}

#[test]
fn parallel_spmm_nan_names_the_op() {
    if !sanitize_enabled() {
        return;
    }
    // The blocked kernels merge per-thread partials before `Tape::push` sees
    // the result, so the sanitizer must catch a non-finite value that only
    // exists in the merged output (every input here is a finite f32; the two
    // row-0 products overflow to +inf when accumulated) — at every
    // wrapper-level thread count.
    for threads in [2, 4] {
        ses_tensor::par::set_thread_override(threads);
        let msg = panic_message(|| {
            let mut t = Tape::new();
            let s = Arc::new(ses_tensor::CsrStructure::from_edges(
                3,
                3,
                &[(0, 1), (0, 2), (1, 2), (2, 0)],
            ));
            let vals = t.leaf(Matrix::col_vec(&[3.0e38, 3.0e38, 1.0, 2.0]));
            let x = t.leaf(Matrix::ones(3, 2));
            let _ = t.spmm(s, vals, x);
        });
        ses_tensor::par::set_thread_override(0);
        assert!(msg.contains("SES_SANITIZE"), "{msg}");
        assert!(msg.contains("spmm"), "diagnostic must name the op: {msg}");
        assert!(msg.contains("non-finite forward value"), "{msg}");
    }
}

#[test]
fn parallel_matmul_shape_mismatch_names_the_op() {
    if !sanitize_enabled() {
        return;
    }
    // Shape validation happens before the parallel kernel runs; a thread
    // override must not bypass it.
    ses_tensor::par::set_thread_override(4);
    let msg = panic_message(|| {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 3));
        let b = t.leaf(Matrix::zeros(4, 2));
        let _ = t.matmul(a, b);
    });
    ses_tensor::par::set_thread_override(0);
    assert!(msg.contains("SES_SANITIZE[matmul]"), "{msg}");
    assert!(msg.contains("inner dimensions"), "{msg}");
}

#[test]
fn backward_leak_query_classifies_nodes() {
    let mut t = Tape::new();
    let a = t.leaf(Matrix::row_vec(&[1.0, 2.0]));
    // a parameter nothing ever consumes: unused this epoch
    let orphan = t.leaf(Matrix::row_vec(&[3.0]));
    let m = t.mul(a, a);
    let loss = t.mean_all(m);
    // recorded after the loss: unreachable by the sweep
    let after = t.scale(a, 2.0);
    t.backward(loss);

    let leaks = t.leaked_nodes(loss);
    let orphan_leak = leaks
        .iter()
        .find(|l| l.node == orphan.index())
        .expect("orphan reported");
    assert_eq!(orphan_leak.kind, LeakKind::Unused);
    assert_eq!(orphan_leak.op, "leaf");
    let after_leak = leaks
        .iter()
        .find(|l| l.node == after.index())
        .expect("after-loss reported");
    assert_eq!(after_leak.kind, LeakKind::AfterLoss);
    assert_eq!(after_leak.op, "scale");
    // the live path is not reported
    assert!(leaks
        .iter()
        .all(|l| l.node != loss.index() && l.node != a.index()));
}

#[test]
fn backward_leak_query_distinguishes_pruned_from_unused() {
    let mut t = Tape::new();
    let a = t.leaf(Matrix::row_vec(&[1.0, 2.0]));
    // `wired` is consumed — but only by a node recorded after the loss, so
    // its path to the loss is cut: the reachability sweep must call it
    // Pruned, not Unused.
    let wired = t.leaf(Matrix::row_vec(&[3.0, 4.0]));
    // `unused` is never consumed by anything.
    let unused = t.leaf(Matrix::row_vec(&[5.0]));
    let m = t.mul(a, a);
    let loss = t.mean_all(m);
    let _eval = t.mul(wired, wired); // post-loss consumer of `wired`
    t.backward(loss);

    let leaks = t.leaked_nodes(loss);
    let wired_leak = leaks
        .iter()
        .find(|l| l.node == wired.index())
        .expect("wired-but-pruned reported");
    assert_eq!(wired_leak.kind, LeakKind::Pruned);
    let unused_leak = leaks
        .iter()
        .find(|l| l.node == unused.index())
        .expect("unused reported");
    assert_eq!(unused_leak.kind, LeakKind::Unused);
}

#[test]
fn clean_graph_has_no_leaks() {
    let mut t = Tape::new();
    let a = t.leaf(Matrix::row_vec(&[1.0, -1.0]));
    let m = t.mul(a, a);
    let loss = t.mean_all(m);
    t.backward(loss);
    assert!(t.leaked_nodes(loss).is_empty());
}
