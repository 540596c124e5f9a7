//! The SES structure-mask scorer on a real training step: `MaskGenerator`
//! (fused `pair_score`) against the same step rebuilt from the unfused
//! public chain — `gather_rows`, `concat_cols`, `mul`, `linear`, `sigmoid`
//! — with a GCN encoder underneath, k-hop positives and sampled negatives.
//! Every mask value, the loss, and the gradients of `H`, the encoder and
//! the mask generator must agree bit for bit.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses::core::MaskGenerator;
use ses::gnn::{AdjView, Encoder, ForwardCtx, Gcn};
use ses::graph::generators::planted_partition;
use ses::graph::{khop_structure, Graph, NegativeSets};
use ses::tensor::{CsrStructure, Matrix, Tape, Var};

type Pairs = (Arc<Vec<usize>>, Arc<Vec<usize>>);

/// `MaskGenerator::forward`'s recording before the fused op: the feature
/// MLP, then the positive and negative pair scorers as the old chain.
/// Returns `[M_f, M_s, M_sneg]` and the parameter leaves.
fn unfused_masks(
    t: &mut Tape,
    h: Var,
    params: &[Matrix],
    pos: &Pairs,
    neg: &Pairs,
) -> ([Var; 3], Vec<Var>) {
    let p: Vec<Var> = params.iter().map(|m| t.leaf(m.clone())).collect();
    let m1 = t.linear(h, p[0], p[1]);
    let m1 = t.relu(m1);
    let m2 = t.linear(m1, p[2], p[3]);
    let feature = t.sigmoid(m2);
    let mut score = |(a, b): &Pairs| {
        let ha = t.gather_rows(h, a.clone());
        let hb = t.gather_rows(h, b.clone());
        let cat = t.concat_cols(ha, hb);
        let prod = t.mul(ha, hb);
        let cat = t.concat_cols(cat, prod);
        let s = t.linear(cat, p[4], p[5]);
        t.sigmoid(s)
    };
    let structure = score(pos);
    let structure_neg = score(neg);
    ([feature, structure, structure_neg], p)
}

struct Fixture {
    graph: Graph,
    encoder: Gcn,
    mask_gen: MaskGenerator,
    khop: Arc<CsrStructure>,
    pos: Pairs,
    neg: Pairs,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(13);
    let (n, edges, labels) = planted_partition(3, 16, 0.3, 0.03, &mut rng);
    let f = 10;
    let features = Matrix::from_vec(
        n,
        f,
        (0..n * f).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    );
    let graph = Graph::new(n, &edges, features, labels);
    // hidden 12: not a multiple of the kernels' 8-wide lanes
    let encoder = Gcn::new(f, 12, graph.n_classes(), &mut rng);
    let mask_gen = MaskGenerator::new(12, f, &mut rng);
    let khop = khop_structure(&graph, 2);
    let (rows, cols) = khop.entry_endpoints();
    let negatives = NegativeSets::sample(&khop, None, &mut rng);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for v in 0..n {
        for u in negatives.draw(v, khop.row_nnz(v), &mut rng) {
            a.push(v);
            b.push(u);
        }
    }
    Fixture {
        graph,
        encoder,
        mask_gen,
        khop,
        pos: (Arc::new(rows), Arc::new(cols)),
        neg: (Arc::new(a), Arc::new(b)),
    }
}

/// One explainable-training step without the masked re-encoding: encoder
/// forward (train mode, dropout from a fixed seed), cross-entropy, masks,
/// the Eq. 7 subgraph loss plus the mask-size terms, backward. Returns
/// every value and gradient as bits.
fn step(fx: &Fixture, fused: bool) -> Vec<(&'static str, Vec<u32>)> {
    let mut rng = StdRng::seed_from_u64(5);
    let adj = AdjView::of_graph(&fx.graph);
    let mut t = Tape::new();
    let x = t.constant(fx.graph.features().clone());
    let out = fx.encoder.forward(&mut ForwardCtx {
        tape: &mut t,
        adj: &adj,
        x,
        edge_mask: None,
        train: true,
        rng: &mut rng,
    });
    let (masks, mask_vars) = if fused {
        let m = fx.mask_gen.forward(
            &mut t, out.hidden, &fx.khop, &fx.pos.0, &fx.pos.1, &fx.neg.0, &fx.neg.1,
        );
        ([m.feature, m.structure, m.structure_neg], m.param_vars)
    } else {
        let params = fx.mask_gen.param_values();
        unfused_masks(&mut t, out.hidden, &params, &fx.pos, &fx.neg)
    };
    let labels = Arc::new(fx.graph.labels().to_vec());
    let train = Arc::new((0..fx.graph.n_nodes()).step_by(2).collect());
    let l_xent = t.cross_entropy_masked(out.logits, labels, train);
    let [feature, structure, structure_neg] = masks;
    let stacked = t.concat_rows(structure, structure_neg);
    let nnz = fx.pos.0.len();
    let mut targets = Matrix::zeros(nnz + fx.neg.0.len(), 1);
    for i in 0..nnz {
        targets[(i, 0)] = 1.0;
    }
    let l_sub = t.l1_to_constant(stacked, &targets);
    let s_size = t.mean_all(structure);
    let f_size = t.mean_all(feature);
    let sizes = t.add(s_size, f_size);
    let l_mask = t.add(l_sub, sizes);
    let loss = t.add(l_mask, l_xent);
    t.backward(loss);

    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect();
    let mut out_bits = vec![
        ("feature", bits(t.value(feature))),
        ("structure", bits(t.value(structure))),
        ("structure_neg", bits(t.value(structure_neg))),
        ("loss", bits(t.value(loss))),
        ("dH", bits(t.grad_unwrap(out.hidden))),
    ];
    for &v in out.param_vars.iter().chain(&mask_vars) {
        out_bits.push(("param grad", bits(t.grad_unwrap(v))));
    }
    out_bits
}

#[test]
fn mask_generator_step_is_bit_identical_to_the_unfused_chain() {
    let fx = fixture();
    assert!(
        fx.pos.0.len() > 8 && fx.neg.0.len() > 8,
        "need both pair sets"
    );
    let want = step(&fx, false);
    let got = step(&fx, true);
    assert_eq!(want.len(), got.len());
    for ((name, w), (_, g)) in want.iter().zip(&got) {
        assert_eq!(w, g, "{name} differs from the unfused chain");
    }
}
