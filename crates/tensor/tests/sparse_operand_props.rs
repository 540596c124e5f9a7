//! The matmul family's sparse-operand path against the scalar reference
//! bodies. A left operand (`a`, or `aᵀ` for `t_matmul`) whose kept share is
//! at most `kernels::support::SPARSE_SHARE_PCT` runs the CSR row body
//! instead of the dense panels; either way every output must equal
//! `kernels::reference` bit for bit, at 1, 2, 4 and 8 threads.
//!
//! Every test here disables the crossover clamp
//! (`par::dispatch::set_bypass`), so the thread counts really run in
//! parallel on these small shapes; the clamp only ever changes scheduling,
//! never bits, so sharing the switch across this binary's tests is safe.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_tensor::kernels::{self, reference, support};
use ses_tensor::{par, Matrix};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A value for a kept entry: mostly ordinary, sometimes `-0.0` (a kept
/// entry that contributes `±0.0` terms).
fn kept_value(rng: &mut StdRng) -> f32 {
    if rng.gen_range(0u32..8) == 0 {
        -0.0
    } else {
        rng.gen_range(-2.0f32..2.0)
    }
}

/// `rows × cols` with each entry kept with probability `density`, else
/// `+0.0`.
fn with_density(rng: &mut StdRng, rows: usize, cols: usize, density: f64) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(density) {
                kept_value(rng)
            } else {
                0.0
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn dense(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-1.5f32..1.5))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// All three products with `a` as the left operand (`a` itself for
/// `matmul`/`matmul_t`, `aᵀ` for `t_matmul`), against the reference bodies
/// at every thread count.
fn assert_family_matches_reference(a: &Matrix, rng: &mut StdRng, n: usize) {
    par::dispatch::set_bypass(true);
    let (m, k) = a.shape();
    let b = dense(rng, k, n);
    let bt = dense(rng, n, k);
    let g = dense(rng, m, n);
    let want = [
        bits(&reference::matmul(a, &b)),
        bits(&reference::t_matmul(a, &g)),
        bits(&reference::matmul_t(a, &bt)),
    ];
    for t in THREAD_COUNTS {
        let got = [
            bits(&kernels::matmul(a, &b, t)),
            bits(&kernels::t_matmul(a, &g, t)),
            bits(&kernels::matmul_t(a, &bt, t)),
        ];
        for ((name, w), g) in ["matmul", "t_matmul", "matmul_t"]
            .iter()
            .zip(&want)
            .zip(&got)
        {
            assert_eq!(
                w,
                g,
                "{name} on a {m}x{k} left operand at {t} threads (sparse: {})",
                support::is_sparse(a)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Densities from 0 to 100% (either side of the predicate), ragged
    /// shapes around the lane widths.
    #[test]
    fn sparse_left_operand_matches_reference(
        seed in 0u64..u64::MAX,
        m in 0usize..40,
        k in 0usize..40,
        n in 1usize..37,
        density_pct in 0u32..101,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = with_density(&mut rng, m, k, f64::from(density_pct) / 100.0);
        assert_family_matches_reference(&a, &mut rng, n);
    }
}

#[test]
fn all_zero_identity_and_empty_rows() {
    let mut rng = StdRng::seed_from_u64(1);
    let zero = Matrix::zeros(13, 9);
    assert!(support::is_sparse(&zero));
    assert_family_matches_reference(&zero, &mut rng, 11);

    let eye = Matrix::identity(21);
    assert!(support::is_sparse(&eye));
    assert_family_matches_reference(&eye, &mut rng, 17);

    // every other row empty, the rest half kept
    let mut a = with_density(&mut rng, 30, 20, 0.5);
    for r in (0..30).step_by(2) {
        a.row_mut(r).fill(0.0);
    }
    assert!(support::is_sparse(&a));
    assert_family_matches_reference(&a, &mut rng, 8);
}

#[test]
fn signed_zeros_on_both_operands() {
    // -0.0 entries are kept, +0.0 ones skipped; a right operand full of
    // signed zeros makes every product term a signed zero too.
    let mut rng = StdRng::seed_from_u64(2);
    let mut a = Matrix::zeros(12, 10);
    for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
        *v = match i % 7 {
            0 => -0.0,
            3 => 1.25,
            5 => -3.0,
            _ => 0.0,
        };
    }
    assert!(support::is_sparse(&a));
    par::dispatch::set_bypass(true);
    for n in [1usize, 8, 19] {
        let signed: Vec<f32> = (0..10 * n)
            .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
            .collect();
        let b = Matrix::from_vec(10, n, signed);
        let g = Matrix::from_vec(
            12,
            n,
            (0..12 * n).map(|i| [0.0, -0.0, 2.0][i % 3]).collect(),
        );
        for t in THREAD_COUNTS {
            assert_eq!(
                bits(&kernels::matmul(&a, &b, t)),
                bits(&reference::matmul(&a, &b))
            );
            assert_eq!(
                bits(&kernels::t_matmul(&a, &g, t)),
                bits(&reference::t_matmul(&a, &g))
            );
            let bt = b.transpose();
            assert_eq!(
                bits(&kernels::matmul_t(&a, &bt, t)),
                bits(&reference::matmul_t(&a, &bt))
            );
        }
    }
    assert_family_matches_reference(&a, &mut rng, 9);
}

#[test]
fn both_sides_of_the_predicate() {
    // Exactly at the budget is sparse, one more kept entry is dense; both
    // bodies must give the reference bits.
    let mut rng = StdRng::seed_from_u64(3);
    let (m, k) = (24, 35);
    let budget = support::sparse_budget(m * k);
    let mut a = Matrix::zeros(m, k);
    let mut order: Vec<usize> = (0..m * k).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for &i in &order[..budget] {
        a.as_mut_slice()[i] = kept_value(&mut rng);
    }
    assert!(support::is_sparse(&a));
    assert_family_matches_reference(&a, &mut rng, 13);
    a.as_mut_slice()[order[budget]] = 0.5;
    assert!(!support::is_sparse(&a));
    assert_family_matches_reference(&a, &mut rng, 13);
}

#[test]
fn workload_shapes_both_bodies() {
    // The benchmark's feature shapes (cora-like 4.4% bag of words, and the
    // polblogs-like identity), large enough that the CSR body's row blocks
    // pass the spmm crossover and split across threads.
    let mut rng = StdRng::seed_from_u64(4);
    let cora = with_density(&mut rng, 700, 140, 0.044);
    assert!(support::is_sparse(&cora));
    assert_family_matches_reference(&cora, &mut rng, 64);
    let polblogs = Matrix::identity(400);
    assert_family_matches_reference(&polblogs, &mut rng, 64);
    let relu_like = with_density(&mut rng, 300, 64, 0.45);
    assert!(support::is_sparse(&relu_like));
    assert_family_matches_reference(&relu_like, &mut rng, 40);
    let dense_op = dense(&mut rng, 300, 64);
    assert!(!support::is_sparse(&dense_op));
    assert_family_matches_reference(&dense_op, &mut rng, 40);
}
