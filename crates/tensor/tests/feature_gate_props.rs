//! `Tape::feature_gate` against the dense chain it replaces —
//! `linear` (`matmul` + `add_row_broadcast`), `sigmoid`, `mul(·, X)`, all
//! still public — on the same inputs. The forward value and the gradients
//! of `m`, `w` and `bias` (and of everything upstream and downstream) must
//! agree in every bit, signed zeros included.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_tensor::kernels::support;
use ses_tensor::{CsrMatrix, CsrStructure, Matrix, Tape, Var};

/// Inputs of one step: `h` (`n × d`), the MLP's first layer `w1` (`d × h`),
/// the gate's `w2` (`h × f`) and `b2` (`1 × f`), the sparse input `X`
/// (`n × f`) and a downstream weight `wo` (`f × 3`).
struct Inputs {
    h: Matrix,
    w1: Matrix,
    w2: Matrix,
    b2: Matrix,
    x: Matrix,
    wo: Matrix,
}

/// Every kept entry of `x` (all but `+0.0`), whatever its density: the
/// op's contract is about the support, not the predicate.
fn csr_of_kept(x: &Matrix) -> Arc<CsrMatrix> {
    let mut edges = Vec::new();
    let mut values = Vec::new();
    for r in 0..x.rows() {
        for (c, &v) in x.row(r).iter().enumerate() {
            if support::kept(v) {
                edges.push((r, c));
                values.push(v);
            }
        }
    }
    let s = CsrStructure::from_edges(x.rows(), x.cols(), &edges);
    Arc::new(CsrMatrix::new(Arc::new(s), values))
}

/// `M_f ⊙ X` recorded either as the dense chain or as the fused op.
fn masked_input(t: &mut Tape, fused: bool, m1: Var, w2: Var, b2: Var, x: &Matrix) -> Var {
    if fused {
        t.feature_gate(m1, w2, b2, csr_of_kept(x))
    } else {
        let m2 = t.linear(m1, w2, b2);
        let mask = t.sigmoid(m2);
        let xc = t.constant(x.clone());
        t.mul(mask, xc)
    }
}

/// Records the phase-1 shape of the computation — `m₁ = relu(h·w₁)`, the
/// masked input, a masked re-encoding `(M_f ⊙ X)·w_o` and a second consumer
/// of the masked input — and returns every value and gradient, as bits.
fn record(fused: bool, inp: &Inputs) -> Vec<(&'static str, Vec<u32>)> {
    let mut t = Tape::new();
    let h = t.leaf(inp.h.clone());
    let w1 = t.leaf(inp.w1.clone());
    let w2 = t.leaf(inp.w2.clone());
    let b2 = t.leaf(inp.b2.clone());
    let wo = t.leaf(inp.wo.clone());
    let pre = t.matmul(h, w1);
    let m1 = t.relu(pre);
    let xm = masked_input(&mut t, fused, m1, w2, b2, &inp.x);
    let enc = t.matmul(xm, wo);
    let sq = t.mul(enc, enc);
    let l1 = t.sum_all(sq);
    let l2 = t.mean_all(xm);
    let loss = t.add(l1, l2);
    t.backward(loss);
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect();
    vec![
        ("masked input", bits(t.value(xm))),
        ("loss", bits(t.value(loss))),
        ("dh", bits(t.grad_unwrap(h))),
        ("dw1", bits(t.grad_unwrap(w1))),
        ("dw2", bits(t.grad_unwrap(w2))),
        ("db2", bits(t.grad_unwrap(b2))),
        ("dwo", bits(t.grad_unwrap(wo))),
    ]
}

fn assert_bit_identical(inp: &Inputs) {
    let want = record(false, inp);
    let got = record(true, inp);
    for ((name, w), (_, g)) in want.iter().zip(&got) {
        assert_eq!(w, g, "{name} differs from the dense chain");
    }
}

/// Values with exact zeros of both signs mixed in.
fn value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-1.5f32..1.5),
    }
}

fn mat(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    Matrix::from_vec(r, c, (0..r * c).map(|_| value(rng)).collect())
}

/// `n × f` with each entry kept with probability `density` (a tenth of the
/// kept ones `-0.0`), and the listed rows and columns left without support.
fn sparse_x(
    rng: &mut StdRng,
    n: usize,
    f: usize,
    density: f64,
    empty_rows: &[usize],
    empty_cols: &[usize],
) -> Matrix {
    let mut x = Matrix::zeros(n, f);
    for r in 0..n {
        for c in 0..f {
            if empty_rows.contains(&r) || empty_cols.contains(&c) || !rng.gen_bool(density) {
                continue;
            }
            x[(r, c)] = if rng.gen_range(0u32..10) == 0 {
                -0.0
            } else {
                rng.gen_range(0.1f32..2.0)
            };
        }
    }
    x
}

fn random_inputs(rng: &mut StdRng, n: usize, d: usize, hd: usize, f: usize, x: Matrix) -> Inputs {
    Inputs {
        h: mat(rng, n, d),
        w1: mat(rng, d, hd),
        w2: mat(rng, hd, f),
        b2: mat(rng, 1, f),
        x,
        wo: mat(rng, f, 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hidden sizes 1–12 and feature counts 1–19 around the lane width,
    /// densities 0–100%, one row and one column without support.
    #[test]
    fn feature_gate_matches_dense_chain_bit_for_bit(
        seed in 0u64..u64::MAX,
        n in 1usize..9,
        hd in 1usize..13,
        f in 1usize..20,
        density_pct in 0u32..101,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = sparse_x(&mut rng, n, f, f64::from(density_pct) / 100.0, &[n / 2], &[f / 3]);
        let inp = random_inputs(&mut rng, n, 4, hd, f, x);
        assert_bit_identical(&inp);
    }
}

#[test]
fn empty_support_and_hidden_size_one() {
    let mut rng = StdRng::seed_from_u64(1);
    for hd in [1usize, 8, 9] {
        let empty = Matrix::zeros(5, 7);
        assert_bit_identical(&random_inputs(&mut rng, 5, 3, hd, 7, empty));
        let eye = Matrix::identity(6);
        assert_bit_identical(&random_inputs(&mut rng, 6, 3, hd, 6, eye));
    }
}

#[test]
fn signed_zero_inputs_match() {
    // X holds -0.0 entries (kept: σ · (-0.0) is -0.0 on the dense path),
    // and zero weights of both signs make signed-zero products and gates
    // of exactly 0.5.
    let x = Matrix::from_vec(
        3,
        4,
        vec![
            -0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, -0.0, 0.0, -1.0,
        ],
    );
    let inp = Inputs {
        h: Matrix::from_vec(3, 2, vec![1.0, -0.0, 0.0, 0.0, -1.0, 0.5]),
        w1: Matrix::from_vec(2, 2, vec![0.0, -0.0, 1.0, -1.0]),
        w2: Matrix::from_vec(2, 4, vec![0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 1.0]),
        b2: Matrix::from_vec(1, 4, vec![0.0, -0.0, 0.0, 0.0]),
        x,
        wo: Matrix::from_vec(4, 3, (0..12).map(|i| [0.0, -0.0, 0.75][i % 3]).collect()),
    };
    assert_bit_identical(&inp);
}

#[test]
fn workload_shape_matches() {
    // cora-like: 700 × 140 at 4.4%, hidden 64.
    let mut rng = StdRng::seed_from_u64(2);
    let x = sparse_x(&mut rng, 700, 140, 0.044, &[], &[]);
    assert!(support::is_sparse(&x));
    let inp = random_inputs(&mut rng, 700, 16, 64, 140, x);
    assert_bit_identical(&inp);
}
