//! End-to-end translation validation at runtime: for randomly generated
//! tapes, the compiled-and-optimised [`InferencePlan`] must reproduce the
//! recording tape's forward values **bit for bit** — the executor uses the
//! same kernels in the same order, so any divergence is a compiler bug.
//!
//! The generator mixes payload-free elementwise/matmul chains with payload
//! ops (spmm over a random CSR structure, dropout under a fixed mask,
//! gather_rows, pair_score, a masked cross-entropy head) and deliberately
//! re-records duplicate subexpressions so CSE actually fires.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_ir::{compile, execute, Payload, PayloadMap};
use ses_tensor::{CsrStructure, Matrix, Tape, Var};

fn leaf(t: &mut Tape, payloads: &mut PayloadMap, rng: &mut StdRng, r: usize, c: usize) -> Var {
    let m = rand_matrix(rng, r, c);
    let v = t.leaf(m.clone());
    payloads.insert(v.index(), Payload::Leaf(m));
    v
}

const N: usize = 6;
const F: usize = 4;

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.5f32..1.5))
            .collect(),
    )
}

fn ring_structure() -> Arc<CsrStructure> {
    let edges: Vec<(usize, usize)> = (0..N).flat_map(|i| [(i, (i + 1) % N), (i, i)]).collect();
    Arc::new(CsrStructure::from_edges(N, N, &edges))
}

/// Builds a random tape from `ops`, returning the tape, the loss var, the
/// declared outputs, and the payload map the executor needs. Every node of
/// shape `N×F` lives in a pool that later ops draw operands from.
fn build_random_tape(seed: u64, ops: &[u32]) -> (Tape, Var, Vec<Var>, PayloadMap) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tape::new();
    let mut payloads = PayloadMap::new();
    let structure = ring_structure();

    let mut pool = vec![
        leaf(&mut t, &mut payloads, &mut rng, N, F),
        leaf(&mut t, &mut payloads, &mut rng, N, F),
    ];

    for &code in ops {
        let pick = |k: u32| pool[(k as usize) % pool.len()];
        let a = pick(code.wrapping_mul(7));
        let b = pick(code.wrapping_mul(13).wrapping_add(3));
        let v = match code % 13 {
            0 => t.add(a, b),
            1 => t.sub(a, b),
            2 => t.mul(a, b),
            3 => t.scale(a, 0.5 + (code % 4) as f32),
            4 => t.sigmoid(a),
            5 => t.relu(a),
            6 => t.tanh(a),
            7 => {
                // duplicate subexpression on purpose: CSE fodder.
                let d1 = t.add(a, b);
                let d2 = t.add(a, b);
                t.mul(d1, d2)
            }
            8 => {
                let mask: Arc<Vec<f32>> = Arc::new(
                    (0..N * F)
                        .map(|_| {
                            if rng.gen_range(0.0f32..1.0) < 0.3 {
                                0.0
                            } else {
                                1.25
                            }
                        })
                        .collect(),
                );
                let v = t.dropout(a, mask.clone());
                payloads.insert(v.index(), Payload::Mask(mask));
                v
            }
            9 => {
                let vals = leaf(&mut t, &mut payloads, &mut rng, structure.nnz(), 1);
                let v = t.spmm(structure.clone(), vals, a);
                payloads.insert(v.index(), Payload::Sparse(structure.clone()));
                v
            }
            10 => {
                let w = leaf(&mut t, &mut payloads, &mut rng, F, F);
                t.matmul(a, w)
            }
            11 => {
                let bias = leaf(&mut t, &mut payloads, &mut rng, 1, F);
                t.add_row_broadcast(a, bias)
            }
            _ => {
                // One score per row (some pairs repeated, some self pairs),
                // broadcast back over a pool node to keep the pool N×F.
                let a_idx: Arc<Vec<usize>> =
                    Arc::new((0..N).map(|_| rng.gen_range(0..N)).collect());
                let b_idx: Arc<Vec<usize>> = Arc::new((0..N).map(|i| (i * 5) % N).collect());
                let w = leaf(&mut t, &mut payloads, &mut rng, 3 * F, 1);
                let bias = leaf(&mut t, &mut payloads, &mut rng, 1, 1);
                let s = t.pair_score(a, a_idx.clone(), b_idx.clone(), w, bias);
                payloads.insert(s.index(), Payload::Pairs(a_idx, b_idx));
                t.mul_col_broadcast(b, s)
            }
        };
        pool.push(v);
    }

    // A realistic loss head: gather a labelled subset, cross-entropy on it.
    let last = *pool.last().expect("pool never empty");
    let idx: Arc<Vec<usize>> = Arc::new(vec![0, 2, 4]);
    let gathered = t.gather_rows(last, idx.clone());
    payloads.insert(gathered.index(), Payload::Gather(idx));
    let labels: Arc<Vec<usize>> = Arc::new((0..3).map(|i| i % F).collect());
    let all: Arc<Vec<usize>> = Arc::new(vec![0, 1, 2]);
    let logp = t.log_softmax_rows(gathered);
    let loss = t.nll_masked(logp, labels.clone(), all.clone());
    payloads.insert(loss.index(), Payload::Nll { labels, idx: all });

    // Outputs: a mid-pool value, the last pool value, and the loss itself.
    let outputs = vec![pool[pool.len() / 2], last, loss];
    (t, loss, outputs, payloads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimised_plan_is_bit_identical_to_the_tape_forward(
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec(0u32..256, 1..24),
    ) {
        let (t, loss, outputs, payloads) = build_random_tape(seed, &ops);
        let ir = t.export_ir();
        let out_ids: Vec<usize> = outputs.iter().map(|v| v.index()).collect();
        let plan = compile(&ir, Some(loss.index()), &out_ids)
            .expect("random well-formed tape must compile");
        prop_assert!(plan.stats.nodes_after <= plan.stats.nodes_before);
        prop_assert!(plan.stats.peak_bytes_after <= plan.stats.peak_bytes_before);
        let got = execute(&plan, &payloads).expect("plan must execute");
        prop_assert_eq!(got.len(), outputs.len());
        for (m, v) in got.iter().zip(outputs.iter()) {
            let want = t.value(*v);
            prop_assert_eq!(m.shape(), want.shape());
            let same = m
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            prop_assert!(same, "plan output diverged from tape value");
        }
    }

    #[test]
    fn duplicate_heavy_tapes_shrink_and_stay_bit_identical(
        seed in 0u64..u64::MAX,
    ) {
        // All op-code 7 (duplicate adds): CSE must fire and bit identity hold.
        let ops = vec![7u32; 6];
        let (t, loss, outputs, payloads) = build_random_tape(seed, &ops);
        let ir = t.export_ir();
        let out_ids: Vec<usize> = outputs.iter().map(|v| v.index()).collect();
        let plan = compile(&ir, Some(loss.index()), &out_ids).expect("compile");
        prop_assert!(plan.stats.cse_merged > 0, "stats: {:?}", plan.stats);
        let got = execute(&plan, &payloads).expect("execute");
        let want = t.value(loss).as_slice()[0].to_bits();
        prop_assert_eq!(got[2].as_slice()[0].to_bits(), want);
    }
}

/// The contract the `broken_dce` fixture exists to prove: translation
/// validation refuses any "DCE" that removes a node the declared outputs
/// (or loss) still reach.
#[test]
#[should_panic(expected = "dce must never remove a reachable node")]
fn dce_that_drops_a_live_node_is_refuted() {
    let (t, loss, outputs, _payloads) = build_random_tape(11, &[0u32, 4, 5, 10]);
    let ir = t.export_ir();
    let mut roots: Vec<usize> = outputs.iter().map(|v| v.index()).collect();
    roots.push(loss.index());
    let rw = ses_ir::broken_dce(&ir, &roots);
    ses_ir::validate_rewrite(&ir, &rw, &roots).expect("dce must never remove a reachable node");
}
