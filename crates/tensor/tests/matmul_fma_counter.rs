//! `kernel.matmul.fmas` counts the multiply-adds the matmul family actually
//! does: `nnz · n` on the CSR body for a sparse left operand, `m · k · n`
//! on the dense panels. A file of its own, so no concurrent test moves the
//! global counter between the reads.

use ses_tensor::{kernels, Matrix};

#[test]
fn fma_counter_counts_work_done() {
    let _obs = ses_obs::force_enabled(true);
    let b = Matrix::from_vec(50, 16, (0..800).map(|i| (i % 7) as f32 - 3.0).collect());
    let g = Matrix::from_vec(50, 16, (0..800).map(|i| (i % 5) as f32 - 2.0).collect());
    let delta = |f: &dyn Fn() -> Matrix| {
        let before = ses_obs::metrics::MATMUL_FLOPS.get();
        let _ = f();
        ses_obs::metrics::MATMUL_FLOPS.get() - before
    };
    let eye = Matrix::identity(50);
    assert_eq!(delta(&|| kernels::matmul(&eye, &b, 1)), 50 * 16);
    assert_eq!(delta(&|| kernels::t_matmul(&eye, &g, 1)), 50 * 16);
    assert_eq!(
        delta(&|| kernels::matmul_t(&eye, &b.transpose(), 1)),
        50 * 16
    );
    let full = Matrix::full(50, 50, 0.5);
    assert_eq!(delta(&|| kernels::matmul(&full, &b, 1)), 50 * 50 * 16);
    assert_eq!(delta(&|| kernels::t_matmul(&full, &g, 1)), 50 * 50 * 16);
}
