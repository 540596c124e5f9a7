//! `Tape::triplet_hinge` against the unfused chain it replaces — three
//! `gather_rows`, two `sub` → `mul` → `row_sum` → `sqrt_eps` distances,
//! `sub`, `add_scalar`, `relu`, all still public — on the same inputs. The
//! hinge, the loss and the gradients of `H`, of the weight that scales `H`
//! and of a second consumer's weight must agree in every bit, signed zeros
//! included; with a non-finite row in `H`, every output must be non-finite
//! exactly where the chain's is.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_tensor::{sanitize_enabled, Matrix, Tape, Var};

/// Anchor, positive and negative row indices, one entry per triple.
type Triples = [Arc<Vec<usize>>; 3];

/// The unfused hinge, as recorded before `triplet_hinge` existed.
fn chain(t: &mut Tape, h: Var, [a, p, n]: &Triples, margin: f32) -> Var {
    let ha = t.gather_rows(h, a.clone());
    let hp = t.gather_rows(h, p.clone());
    let hn = t.gather_rows(h, n.clone());
    let mut dist = |other: Var| {
        let d = t.sub(ha, other);
        let sq = t.mul(d, d);
        let s = t.row_sum(sq);
        t.sqrt_eps(s, 1e-8)
    };
    let (d_pos, d_neg) = (dist(hp), dist(hn));
    let gap = t.sub(d_pos, d_neg);
    let gap = t.add_scalar(gap, margin);
    t.relu(gap)
}

fn fused(t: &mut Tape, h: Var, [a, p, n]: &Triples, margin: f32) -> Var {
    t.triplet_hinge(h, a.clone(), p.clone(), n.clone(), margin)
}

type Hinge = fn(&mut Tape, Var, &Triples, f32) -> Var;

/// Inputs of one step: `H₀` (`n × d`), the per-row scale `s` (`n × 1`)
/// with `H = H₀ ⊙ s` (positive, so `H` keeps `H₀`'s signed zeros and
/// non-finite entries), and a second consumer's weight `w_o` (`d × 3`).
struct Inputs {
    h0: Matrix,
    s: Matrix,
    wo: Matrix,
}

/// Records the EPL shape of the computation — `H = H₀ ⊙ s`, a second
/// consumer `mean((H·w_o)²)` recorded first (the encoder's logits), then
/// `β·mean(hinge)` — and returns every value and gradient, as bits. Without
/// `second_consumer` the loss is the triplet term alone.
fn record(
    hinge: Hinge,
    inp: &Inputs,
    tr: &Triples,
    margin: f32,
    second_consumer: bool,
) -> Vec<(&'static str, Vec<u32>)> {
    let mut t = Tape::new();
    let h0 = t.leaf(inp.h0.clone());
    let s = t.leaf(inp.s.clone());
    let wo = t.leaf(inp.wo.clone());
    let h = t.mul_col_broadcast(h0, s);
    let other = second_consumer.then(|| {
        let logits = t.matmul(h, wo);
        let sq = t.mul(logits, logits);
        t.mean_all(sq)
    });
    let y = hinge(&mut t, h, tr, margin);
    let l_triplet = t.mean_all(y);
    let mut loss = t.scale(l_triplet, 0.7);
    if let Some(other) = other {
        loss = t.add(loss, other);
    }
    t.backward(loss);
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect();
    let mut out = vec![
        ("hinge", bits(t.value(y))),
        ("loss", bits(t.value(loss))),
        ("dH", bits(t.grad_unwrap(h))),
        ("dH0", bits(t.grad_unwrap(h0))),
        ("ds", bits(t.grad_unwrap(s))),
    ];
    if second_consumer {
        out.push(("dwo", bits(t.grad_unwrap(wo))));
    }
    out
}

fn assert_bit_identical(inp: &Inputs, tr: &Triples, margin: f32) {
    let want = record(chain, inp, tr, margin, true);
    let got = record(fused, inp, tr, margin, true);
    for ((name, w), (_, g)) in want.iter().zip(&got) {
        assert_eq!(w, g, "{name} differs from the unfused chain");
    }
}

/// Values with exact zeros of both signs mixed in, so differences, products
/// and scatter terms produce `-0.0`.
fn value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-1.5f32..1.5),
    }
}

fn random_inputs(rng: &mut StdRng, n: usize, d: usize) -> Inputs {
    let mut mat =
        |r: usize, c: usize| Matrix::from_vec(r, c, (0..r * c).map(|_| value(rng)).collect());
    let (h0, wo) = (mat(n, d), mat(d, 3));
    let s = Matrix::from_vec(n, 1, (0..n).map(|_| rng.gen_range(0.5f32..2.0)).collect());
    Inputs { h0, s, wo }
}

fn random_triples(rng: &mut StdRng, n: usize, count: usize) -> Triples {
    std::array::from_fn(|_| Arc::new((0..count).map(|_| rng.gen_range(0..n)).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hidden sizes 1–13 (mostly not multiples of 8), triple counts 0–19
    /// (below and above the kernel's eight-triple groups), few rows (so
    /// repeated anchors and coinciding endpoints are common), margins that
    /// switch anywhere from none to all of the hinges off.
    #[test]
    fn triplet_hinge_matches_unfused_chain_bit_for_bit(
        seed in 0u64..u64::MAX,
        n in 1usize..7,
        d in 1usize..14,
        count in 0usize..20,
        margin in -2.0f32..2.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = random_inputs(&mut rng, n, d);
        let triples = random_triples(&mut rng, n, count);
        assert_bit_identical(&inputs, &triples, margin);
    }
}

#[test]
fn hidden_size_64_matches() {
    let mut rng = StdRng::seed_from_u64(5);
    for count in [0, 1, 7, 8, 9, 19] {
        let inputs = random_inputs(&mut rng, 11, 64);
        let triples = random_triples(&mut rng, 11, count);
        for margin in [1.0, 0.0, -1.0] {
            assert_bit_identical(&inputs, &triples, margin);
        }
    }
}

#[test]
fn polblogs_like_shape_matches() {
    // serve-polblogs' EPL shape: 400 nodes, 64 hidden units, 71,508
    // triples; the default margin.
    let mut rng = StdRng::seed_from_u64(6);
    let inputs = random_inputs(&mut rng, 400, 64);
    let triples = random_triples(&mut rng, 400, 71_508);
    assert_bit_identical(&inputs, &triples, 1.0);
}

#[test]
fn repeated_anchors_and_anchor_equal_to_positive_match() {
    // Triples 1 and 4 have anchor = positive (distance √1e-8); anchors 0
    // and 2 repeat; triple 5 is fully degenerate.
    let mut rng = StdRng::seed_from_u64(7);
    let triples: Triples = [
        Arc::new(vec![0, 0, 2, 2, 3, 1, 0, 2]),
        Arc::new(vec![1, 0, 3, 0, 3, 1, 2, 1]),
        Arc::new(vec![2, 3, 1, 3, 0, 1, 3, 0]),
    ];
    for d in [1, 5, 64] {
        let inputs = random_inputs(&mut rng, 4, d);
        for margin in [1.0, 0.0, -0.5] {
            assert_bit_identical(&inputs, &triples, margin);
        }
    }
}

#[test]
fn hinge_exactly_at_zero_matches() {
    // d_p = 5 and d_n = 2 up to the ε inside each root, so the gap
    // `(d_p − d_n) + margin` is exactly 0 at margin = −(d_p − d_n): the
    // relu's input is `+0.0`, its output too, and its gradient is 0.
    let h0 = Matrix::from_vec(3, 2, vec![0.0, 0.0, 3.0, 4.0, 0.0, 2.0]);
    let inputs = Inputs {
        s: Matrix::full(3, 1, 1.0),
        wo: Matrix::from_vec(2, 3, vec![0.5, -1.0, 0.25, 1.0, 0.0, -0.5]),
        h0,
    };
    let triples: Triples = [Arc::new(vec![0]), Arc::new(vec![1]), Arc::new(vec![2])];
    let d_p = (25.0f32 + 1e-8).sqrt();
    let d_n = (4.0f32 + 1e-8).sqrt();
    let margin = -(d_p - d_n);
    assert_eq!((d_p - d_n) + margin, 0.0);
    assert_bit_identical(&inputs, &triples, margin);
    let mut t = Tape::new();
    let h = t.leaf(inputs.h0.clone());
    let y = fused(&mut t, h, &triples, margin);
    assert_eq!(t.value(y).as_slice(), &[0.0]);
}

#[test]
fn signed_zero_rows_match() {
    // Rows of signed zeros: every difference is ±0, every distance √1e-8,
    // and the gradient terms are signed zeros.
    let h0 = Matrix::from_vec(
        4,
        3,
        vec![
            0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 1.0, -0.0, 0.5,
        ],
    );
    let inputs = Inputs {
        s: Matrix::full(4, 1, 1.0),
        wo: Matrix::from_vec(3, 3, vec![0.0, -0.0, 1.0, 0.5, 0.0, -1.0, -0.0, 2.0, 0.0]),
        h0,
    };
    let triples: Triples = [
        Arc::new(vec![0, 1, 2, 3, 0]),
        Arc::new(vec![1, 2, 0, 0, 3]),
        Arc::new(vec![2, 0, 1, 1, 1]),
    ];
    for margin in [1.0, 0.0, -0.0, -1.0] {
        assert_bit_identical(&inputs, &triples, margin);
    }
}

#[test]
fn nonfinite_rows_are_nonfinite_exactly_where_the_chain_is() {
    // With the sanitizer on (debug builds) a non-finite `H` is rejected
    // before either recording runs. Release training runs without it, and
    // there the EPL divergence sentinel must see the non-finite gradient a
    // NaN or Inf row produces — even where the relu zeroes the hinge.
    if sanitize_enabled() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(8);
    for (bad, what) in [(f32::NAN, "NaN"), (f32::INFINITY, "Inf")] {
        for d in [3, 64] {
            let mut inputs = random_inputs(&mut rng, 6, d);
            inputs.h0.row_mut(2)[d / 2] = bad;
            // Row 2 as anchor, positive and negative, and triples that
            // never touch it.
            let triples: Triples = [
                Arc::new(vec![2, 0, 1, 3, 4, 5, 2, 0, 1]),
                Arc::new(vec![0, 2, 3, 4, 5, 1, 3, 1, 4]),
                Arc::new(vec![1, 3, 2, 5, 0, 4, 2, 5, 0]),
            ];
            for margin in [1.0, -50.0] {
                for second_consumer in [false, true] {
                    let want = record(chain, &inputs, &triples, margin, second_consumer);
                    let got = record(fused, &inputs, &triples, margin, second_consumer);
                    let mut saw_nonfinite = false;
                    for ((name, w), (_, g)) in want.iter().zip(&got) {
                        assert_eq!(w.len(), g.len());
                        for (i, (&wb, &gb)) in w.iter().zip(g).enumerate() {
                            let (wv, gv) = (f32::from_bits(wb), f32::from_bits(gb));
                            saw_nonfinite |= !wv.is_finite();
                            assert!(
                                wv.is_finite() == gv.is_finite() && (!wv.is_finite() || wb == gb),
                                "{what} row, d={d}, margin {margin}: {name}[{i}] is \
                                 {gv} where the chain has {wv}"
                            );
                        }
                    }
                    assert!(saw_nonfinite, "{what} row never surfaced");
                }
            }
        }
    }
}
