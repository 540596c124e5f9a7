//! The traced run's replay of `ses_core::fit`'s phase-1 epoch, built only
//! from public calls, each inside a `ses_obs::span!` of this file:
//!
//! ```text
//! bench.epoch (one trace per epoch)
//!   gnn.forward      Encoder::forward, train mode (plain, then masked)
//!   core.loss        Eq. 7–9 tape ops
//!   graph.draw       NegativeSets::draw, one negative per k-hop entry
//!   core.mask_fwd    MaskGenerator::forward
//!   core.lift        M_f ⊙ X and the structure-mask lift (CsrStructure::find map)
//!   tensor.backward  Tape::backward
//!   tensor.adam      Optimizer::step, encoder then mask-generator parameters
//!   gnn.eval         Encoder::forward, eval mode, and the validation accuracy
//! ```
//!
//! The tape ops are recorded in `fit`'s order and Adam steps in `fit`'s
//! parameter order, so every replayed epoch's loss must equal
//! `SesReport::et_loss_curve` bit for bit (the replica fidelity gate).
//! `khop_structure`, `NegativeSets::sample`, `construct_pairs` and
//! `run_epl` run once per fit under spans of their own.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_core::{construct_pairs, run_epl, Explanations, MaskGenerator, MaskedGraph, SesConfig};
use ses_data::Splits;
use ses_gnn::{AdjView, Encoder, ForwardCtx};
use ses_graph::{khop_structure, Graph, NegativeSets};
use ses_obs::metrics::{ALLOC_BYTES, MATMUL_FLOPS, SPMM_NNZ};
use ses_obs::span;
use ses_obs::trace::{self, SpanEvent};
use ses_tensor::{Adam, CsrStructure, Matrix, Optimizer, Param, Tape, Var};

use crate::spantree::self_times;
use crate::stats::Dist;

/// The benchmark's own layer spans; everything else in a trace belongs to
/// the program and is attributed to the enclosing layer.
pub const LAYERS: [&str; 16] = [
    "gnn.forward",
    "gnn.eval",
    "graph.draw",
    "core.mask_fwd",
    "core.mask_feature_fwd",
    "core.lift",
    "core.loss",
    "tensor.backward",
    "tensor.adam",
    "graph.khop",
    "graph.negatives",
    "core.pairs",
    "core.epl",
    "graph.ego",
    "serve.key",
    "explain.node",
];

/// The layers recorded once per replayed epoch.
pub const EPOCH_LAYERS: [&str; 9] = [
    "gnn.forward",
    "gnn.eval",
    "graph.draw",
    "core.mask_fwd",
    "core.mask_feature_fwd",
    "core.lift",
    "core.loss",
    "tensor.backward",
    "tensor.adam",
];

pub fn is_layer(name: &str) -> bool {
    LAYERS.contains(&name) || name == "serve.run_next"
}

/// What the replay measured.
#[derive(Default)]
pub struct Replay {
    pub epochs: usize,
    /// Epochs whose loss differs from the untraced fit's in any bit.
    pub mismatched: Vec<usize>,
    /// Per-epoch self time of each layer, nanoseconds.
    pub layer: BTreeMap<&'static str, Dist>,
    pub epoch: Dist,
    pub unattributed_ns: u64,
    pub epoch_total_ns: u64,
    /// Once-per-fit spans, nanoseconds.
    pub once: BTreeMap<&'static str, u64>,
    pub khop_nnz: usize,
    pub triples: usize,
    /// Per-epoch counter deltas.
    pub matmul_fmas: Dist,
    pub spmm_nnz: Dist,
    pub alloc_bytes: Dist,
    pub events: Vec<SpanEvent>,
}

/// Replays `epochs` phase-1 epochs of `fit(encoder, mask_gen, graph,
/// splits, config)` with tracing on, then times `construct_pairs` and
/// `run_epl` (given the untraced fit's explanations) when `tail` is set.
#[allow(clippy::too_many_arguments)]
pub fn replay<E: Encoder>(
    mut encoder: E,
    mut mask_gen: MaskGenerator,
    graph: &Graph,
    splits: &Splits,
    config: &SesConfig,
    epochs: usize,
    reference: &[f32],
    tail: Option<&Explanations>,
) -> Replay {
    assert_eq!(
        config.masked_graph,
        MaskedGraph::OneHop,
        "replay covers the default masked graph"
    );
    assert!(
        config.max_khop_neighbors.is_none(),
        "replay covers the uncapped k-hop structure"
    );
    let mut out = Replay::default();

    // `fit`'s context, in `fit`'s order (the RNG must advance identically).
    let mut rng = StdRng::seed_from_u64(config.seed);
    let ctx_trace = trace::request("bench.context");
    let adj = AdjView::of_graph(graph);
    let khop = {
        let _s = span!("graph.khop");
        khop_structure(graph, config.k)
    };
    let (rows, cols) = khop.entry_endpoints();
    let (rows, cols) = (Arc::new(rows), Arc::new(cols));
    let negatives = {
        let _s = span!("graph.negatives");
        let filter = config.label_filtered_negatives.then(|| graph.labels());
        NegativeSets::sample(&khop, filter, &mut rng)
    };
    let lift = Arc::new(lift_map(&khop, &adj));
    drop(ctx_trace);
    out.khop_nnz = khop.nnz();
    let labels = Arc::new(graph.labels().to_vec());
    let train_idx = Arc::new(splits.train.clone());
    let empty = Arc::new(Vec::new());
    let no_pairs = Arc::new(CsrStructure::from_edges(
        graph.n_nodes(),
        graph.n_nodes(),
        &[],
    ));
    let mut opt = Adam::new(config.lr).with_weight_decay(config.weight_decay);
    let mut events = std::mem::take(&mut out.events);
    events.extend(trace::take_events());
    for (name, ns) in self_times(&events, is_layer) {
        out.once.insert(name, ns);
    }

    for e in 0..epochs {
        let counters = (MATMUL_FLOPS.get(), SPMM_NNZ.get(), ALLOC_BYTES.get());
        let epoch_trace = trace::request("bench.epoch");
        let mut tape = Tape::new();
        let x = tape.constant(graph.features().clone());
        let out_plain = {
            let _s = span!("gnn.forward");
            encoder.forward(&mut ForwardCtx {
                tape: &mut tape,
                adj: &adj,
                x,
                edge_mask: None,
                train: true,
                rng: &mut rng,
            })
        };
        let l_xent = {
            let _s = span!("core.loss");
            tape.cross_entropy_masked(out_plain.logits, labels.clone(), train_idx.clone())
        };
        let (neg_a, neg_b) = {
            let _s = span!("graph.draw");
            draw_negatives(&khop, &negatives, &mut rng)
        };
        let masks = {
            let _s = span!("core.mask_fwd");
            mask_gen.forward(
                &mut tape,
                out_plain.hidden,
                &khop,
                &rows,
                &cols,
                &neg_a,
                &neg_b,
            )
        };
        let l_sub = {
            let _s = span!("core.loss");
            let stacked = tape.concat_rows(masks.structure, masks.structure_neg);
            let nnz = khop.nnz();
            let mut targets = Matrix::ones(2 * nnz, 1);
            for i in nnz..2 * nnz {
                targets[(i, 0)] = 0.0;
            }
            tape.l1_to_constant(stacked, &targets)
        };
        let mask_obj = if config.variant.use_masked_xent {
            let (xm, lifted) = {
                let _s = span!("core.lift");
                let xm = tape.mul(masks.feature, x);
                let ones = tape.constant(Matrix::ones(graph.n_nodes(), 1));
                let extended = tape.concat_rows(masks.structure, ones);
                (xm, tape.gather_rows(extended, lift.clone()))
            };
            let out_masked = {
                let _s = span!("gnn.forward");
                encoder.forward(&mut ForwardCtx {
                    tape: &mut tape,
                    adj: &adj,
                    x: xm,
                    edge_mask: Some(lifted),
                    train: true,
                    rng: &mut rng,
                })
            };
            let _s = span!("core.loss");
            let l_m =
                tape.cross_entropy_masked(out_masked.logits, labels.clone(), train_idx.clone());
            let weighted_sub = tape.scale(l_sub, config.sub_loss_weight);
            let mut obj = tape.add(weighted_sub, l_m);
            if config.mask_size_weight > 0.0 {
                let s_size = tape.mean_all(masks.structure);
                let f_size = tape.mean_all(masks.feature);
                let sizes = tape.add(s_size, f_size);
                let pen = tape.scale(sizes, config.mask_size_weight);
                obj = tape.add(obj, pen);
            }
            obj
        } else {
            let _s = span!("core.loss");
            tape.scale(l_sub, config.sub_loss_weight)
        };
        let (loss, loss_val) = {
            let _s = span!("core.loss");
            let weighted_mask = tape.scale(mask_obj, config.alpha);
            let weighted_xent = tape.scale(l_xent, 1.0 - config.alpha);
            let loss = tape.add(weighted_mask, weighted_xent);
            (loss, tape.value(loss).scalar_value())
        };
        {
            let _s = span!("tensor.backward");
            tape.backward(loss);
        }
        {
            let _s = span!("tensor.adam");
            let finite = out_plain
                .param_vars
                .iter()
                .chain(masks.param_vars.iter())
                .filter_map(|&v| tape.grad(v))
                .all(|g| g.as_slice().iter().all(|x| x.is_finite()));
            std::hint::black_box(finite);
            let enc_grads = grads(&tape, &out_plain.param_vars);
            let mask_grads = grads(&tape, &masks.param_vars);
            let mut enc_params = encoder.params_mut();
            let mut mask_params = mask_gen.params_mut();
            let mut all: Vec<(&mut Param, &Matrix)> = Vec::new();
            for (p, g) in enc_params.iter_mut().zip(&enc_grads) {
                if let Some(g) = g {
                    all.push((&mut **p, g));
                }
            }
            for (p, g) in mask_params.iter_mut().zip(&mask_grads) {
                if let Some(g) = g {
                    all.push((&mut **p, g));
                }
            }
            opt.step(&mut all);
        }
        {
            let _s = span!("gnn.eval");
            let mut eval_rng = StdRng::seed_from_u64(config.seed);
            let mut eval_tape = Tape::new();
            let x = eval_tape.constant(graph.features().clone());
            let out_eval = encoder.forward(&mut ForwardCtx {
                tape: &mut eval_tape,
                adj: &adj,
                x,
                edge_mask: None,
                train: false,
                rng: &mut eval_rng,
            });
            let pred = eval_tape.value(out_eval.logits).argmax_rows();
            let split = if splits.val.is_empty() {
                &splits.test
            } else {
                &splits.val
            };
            std::hint::black_box(ses_metrics::accuracy(&pred, graph.labels(), split));
        }
        drop(epoch_trace);
        out.matmul_fmas.record(MATMUL_FLOPS.get() - counters.0);
        out.spmm_nnz.record(SPMM_NNZ.get() - counters.1);
        out.alloc_bytes.record(ALLOC_BYTES.get() - counters.2);

        // Feature-MLP probe: the same call with an empty pair set, outside
        // the epoch's trace. The pair scorer costs the difference.
        {
            let _probe = trace::request("bench.probe");
            let _s = span!("core.mask_feature_fwd");
            let mut probe_tape = Tape::new();
            let h = probe_tape.constant(tape.value(out_plain.hidden).clone());
            let m = mask_gen.forward(
                &mut probe_tape,
                h,
                &no_pairs,
                &empty,
                &empty,
                &empty,
                &empty,
            );
            std::hint::black_box(probe_tape.value(m.feature).as_slice().len());
        }

        if reference.get(e).map(|r| r.to_bits()) != Some(loss_val.to_bits()) {
            out.mismatched.push(e);
        }
        let epoch_events = trace::take_events();
        let times = self_times(&epoch_events, is_layer);
        for ev in epoch_events.iter().filter(|ev| ev.name == "bench.epoch") {
            out.epoch.record(ev.dur_ns);
            out.epoch_total_ns += ev.dur_ns;
        }
        out.unattributed_ns += times.get("bench.epoch").copied().unwrap_or(0);
        for name in EPOCH_LAYERS {
            let ns = times.get(name).copied().unwrap_or(0);
            out.layer.entry(name).or_default().record(ns);
        }
        events.extend(epoch_events);
        out.epochs += 1;
    }

    if let Some(explanations) = tail {
        let _t = trace::request("bench.tail");
        let pairs = {
            let _s = span!("core.pairs");
            construct_pairs(
                &khop,
                &explanations.structure_weights,
                &negatives,
                config.sample_ratio,
                &mut rng,
            )
        };
        out.triples = pairs.len();
        let _s = span!("core.epl");
        std::hint::black_box(run_epl(&mut encoder, graph, splits, explanations, config));
    }
    let tail_events = trace::take_events();
    for (name, ns) in self_times(&tail_events, is_layer) {
        *out.once.entry(name).or_insert(0) += ns;
    }
    events.extend(tail_events);
    out.events = events;
    out
}

/// One negative endpoint per k-hop entry, as `fit` draws them: the anchor
/// is the entry's row; nodes with an empty pool are padded with the last
/// pair so both arrays have `nnz` entries.
pub fn draw_negatives(
    khop: &CsrStructure,
    negatives: &NegativeSets,
    rng: &mut StdRng,
) -> (Arc<Vec<usize>>, Arc<Vec<usize>>) {
    let mut a = Vec::with_capacity(khop.nnz());
    let mut b = Vec::with_capacity(khop.nnz());
    for v in 0..khop.n_rows() {
        for u in negatives.draw(v, khop.row_nnz(v), rng) {
            a.push(v);
            b.push(u);
        }
    }
    while a.len() < khop.nnz() {
        a.push(a.last().copied().unwrap_or(0));
        b.push(b.last().copied().unwrap_or(0));
    }
    (Arc::new(a), Arc::new(b))
}

/// Gather map lifting `[M_s ; ones(n)]` onto the 1-hop view's entries:
/// self-loops and edges outside the k-hop structure read the ones block.
fn lift_map(khop: &CsrStructure, view: &AdjView) -> Vec<usize> {
    let nnz = khop.nnz();
    view.structure()
        .iter_entries()
        .map(|(r, c, _)| {
            if r == c {
                nnz + r
            } else {
                khop.find(r, c).unwrap_or(nnz + r)
            }
        })
        .collect()
}

fn grads(tape: &Tape, vars: &[Var]) -> Vec<Option<Matrix>> {
    vars.iter().map(|&v| tape.grad(v).cloned()).collect()
}
