//! `Tape::pair_score` against the unfused chain it replaces — two
//! `gather_rows`, `concat_cols`, `mul`, `concat_cols`, `linear`, `sigmoid`,
//! all still public — on the same inputs. Forward values and the gradients
//! of `h`, `w` and `bias` must agree in every bit, signed zeros included.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_tensor::{Matrix, Tape, Var};

type Pairs = (Arc<Vec<usize>>, Arc<Vec<usize>>);

/// The unfused scorer, as recorded before `pair_score` existed.
fn chain(t: &mut Tape, h: Var, (a, b): &Pairs, w: Var, bias: Var) -> Var {
    let ha = t.gather_rows(h, a.clone());
    let hb = t.gather_rows(h, b.clone());
    let mut cat = t.concat_cols(ha, hb);
    if t.shape(w).0 == 3 * t.shape(h).1 {
        let prod = t.mul(ha, hb);
        cat = t.concat_cols(cat, prod);
    }
    let s = t.linear(cat, w, bias);
    t.sigmoid(s)
}

fn fused(t: &mut Tape, h: Var, (a, b): &Pairs, w: Var, bias: Var) -> Var {
    t.pair_score(h, a.clone(), b.clone(), w, bias)
}

type Scorer = fn(&mut Tape, Var, &Pairs, Var, Var) -> Var;

/// Scores a positive and a negative pair set the way `MaskGenerator` does,
/// with a second consumer of `h` recorded first so `h`'s gradient
/// accumulates across all of them. Returns every value and gradient, bits.
fn record(
    scorer: Scorer,
    inputs: &[Matrix; 3],
    pos: &Pairs,
    neg: &Pairs,
) -> Vec<(&'static str, Vec<u32>)> {
    let mut t = Tape::new();
    let [h, w, bias] = inputs.each_ref().map(|m| t.leaf(m.clone()));
    let sq = t.mul(h, h);
    let other = t.mean_all(sq);
    let sp = scorer(&mut t, h, pos, w, bias);
    let sn = scorer(&mut t, h, neg, w, bias);
    // Eq. 7's L1 against [1 ; 0], plus a squared term so upstream gradients
    // vary in magnitude as well as sign.
    let stacked = t.concat_rows(sp, sn);
    let mut targets = Matrix::zeros(t.shape(stacked).0, 1);
    for i in 0..pos.0.len() {
        targets[(i, 0)] = 1.0;
    }
    let l1 = t.l1_to_constant(stacked, &targets);
    let q = t.mul(stacked, stacked);
    let l2 = t.sum_all(q);
    let l = t.add(l1, l2);
    let loss = t.add(l, other);
    t.backward(loss);
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect();
    vec![
        ("pos", bits(t.value(sp))),
        ("neg", bits(t.value(sn))),
        ("loss", bits(t.value(loss))),
        ("dh", bits(t.grad_unwrap(h))),
        ("dw", bits(t.grad_unwrap(w))),
        ("dbias", bits(t.grad_unwrap(bias))),
    ]
}

fn assert_bit_identical(inputs: &[Matrix; 3], pos: &Pairs, neg: &Pairs) {
    let want = record(chain, inputs, pos, neg);
    let got = record(fused, inputs, pos, neg);
    for ((name, w), (_, g)) in want.iter().zip(&got) {
        assert_eq!(w, g, "{name} differs from the unfused chain");
    }
}

/// Values with exact zeros of both signs mixed in, so `g'·w` and `h_a·h_b`
/// produce `-0.0` terms.
fn value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-1.5f32..1.5),
    }
}

fn random_inputs(rng: &mut StdRng, n: usize, d: usize, additive: bool) -> [Matrix; 3] {
    let rows = if additive { 2 * d } else { 3 * d };
    let mut mat =
        |r: usize, c: usize| Matrix::from_vec(r, c, (0..r * c).map(|_| value(rng)).collect());
    [mat(n, d), mat(rows, 1), mat(1, 1)]
}

fn random_pairs(rng: &mut StdRng, n: usize, m: usize) -> Pairs {
    let a = (0..m).map(|_| rng.gen_range(0..n)).collect();
    let b = (0..m).map(|_| rng.gen_range(0..n)).collect();
    (Arc::new(a), Arc::new(b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hidden sizes 1–13 (mostly not multiples of 8), pair counts 0–19
    /// (below and above the kernel's eight-pair groups), few rows (so
    /// duplicate and self pairs are common), both scorer variants.
    #[test]
    fn pair_score_matches_unfused_chain_bit_for_bit(
        seed in 0u64..u64::MAX,
        n in 1usize..7,
        d in 1usize..14,
        m_pos in 0usize..20,
        m_neg in 0usize..20,
        additive in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = random_inputs(&mut rng, n, d, additive == 1);
        let pos = random_pairs(&mut rng, n, m_pos);
        let neg = random_pairs(&mut rng, n, m_neg);
        assert_bit_identical(&inputs, &pos, &neg);
    }
}

#[test]
fn empty_pair_sets_match_in_both_variants() {
    let mut rng = StdRng::seed_from_u64(3);
    let empty: Pairs = (Arc::new(Vec::new()), Arc::new(Vec::new()));
    for additive in [false, true] {
        let inputs = random_inputs(&mut rng, 4, 5, additive);
        let some = random_pairs(&mut rng, 4, 9);
        assert_bit_identical(&inputs, &empty, &empty);
        assert_bit_identical(&inputs, &some, &empty);
        assert_bit_identical(&inputs, &empty, &some);
    }
}

#[test]
fn duplicate_and_self_pairs_match() {
    let mut rng = StdRng::seed_from_u64(4);
    let pos: Pairs = (
        Arc::new(vec![0, 0, 2, 2, 1, 1, 1, 3, 0, 2]),
        Arc::new(vec![0, 1, 2, 2, 1, 3, 1, 3, 1, 0]),
    );
    let neg: Pairs = (Arc::new(vec![3, 3, 3]), Arc::new(vec![3, 0, 3]));
    for additive in [false, true] {
        let inputs = random_inputs(&mut rng, 4, 9, additive);
        assert_bit_identical(&inputs, &pos, &neg);
    }
}

#[test]
fn signed_zero_weights_and_rows_match() {
    // g'·w[k] is -0.0 wherever w[k] is +0.0 and g' < 0, and zero rows give
    // zero products of both signs.
    let d = 3;
    let h = Matrix::from_vec(2, d, vec![1.0, -0.0, 0.5, 0.0, 2.0, -1.0]);
    let w = Matrix::from_vec(
        3 * d,
        1,
        vec![0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0],
    );
    let bias = Matrix::scalar(0.0);
    let pairs: Pairs = (Arc::new(vec![0, 1]), Arc::new(vec![1, 1]));
    assert_bit_identical(&[h, w, bias], &pairs, &pairs);
}
