//! The SES model: explainable training (phase 1) followed by enhanced
//! predictive learning (phase 2), sharing one graph encoder (Algorithm 2).

use std::sync::Arc;
use std::time::Duration;

use ses_obs::Stopwatch;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_data::Splits;
use ses_gnn::{AdjView, Encoder, ForwardCtx};
use ses_graph::{khop_structure, khop_structure_capped, Graph, NegativeSets};
use ses_metrics::accuracy;
use ses_resilience::{fault, FaultKind, RecoveryManager, TrainCheckpoint, Verdict};
use ses_tensor::{Adam, CsrMatrix, CsrStructure, Matrix, Optimizer, Tape, Var};

use crate::config::SesConfig;
use crate::explanation::Explanations;
use crate::mask::MaskGenerator;
use crate::pairs::{construct_pairs, PairSets};

/// A feature/structure mask snapshot taken during explainable training
/// (Fig. 7).
#[derive(Debug, Clone)]
pub struct MaskSnapshot {
    /// Epoch the snapshot was taken at.
    pub epoch: usize,
    /// Feature mask `M_f` at that epoch.
    pub feature_mask: Matrix,
    /// Structure-mask weights over the k-hop entries at that epoch.
    pub structure_weights: Vec<f32>,
}

/// Metrics and timings from a full SES run.
#[derive(Debug, Clone)]
pub struct SesReport {
    /// Test accuracy of the final (phase-2) model.
    pub test_acc: f64,
    /// Test accuracy measured right after explainable training (before the
    /// contrastive phase) — isolates the phase-2 gain.
    pub test_acc_after_et: f64,
    /// Test accuracy of the *plain* (unmasked) forward after explainable
    /// training — the prediction quality independent of the masks (used on
    /// explanation benchmarks, where sparse masks are tuned for Table 4
    /// rather than for Eq. 10 prediction).
    pub test_acc_plain: f64,
    /// Best validation accuracy observed.
    pub val_acc: f64,
    /// Wall-clock time of explainable training — the paper's "inference
    /// time" for explanation generation (Tables 6–7).
    pub explain_time: Duration,
    /// Wall-clock time of enhanced predictive learning.
    pub epl_time: Duration,
    /// Wall-clock time of Algorithm 1 (Table 8).
    pub pair_time: Duration,
    /// Per-epoch training loss during explainable training.
    pub et_loss_curve: Vec<f32>,
    /// Per-epoch validation accuracy during explainable training.
    pub et_val_curve: Vec<f64>,
    /// Per-epoch training loss during enhanced predictive learning.
    pub epl_loss_curve: Vec<f32>,
    /// Mask snapshots at the requested epochs.
    pub mask_snapshots: Vec<MaskSnapshot>,
}

/// A trained SES model: the fitted encoder, its explanations, predictions
/// and report.
pub struct TrainedSes<E: Encoder> {
    /// The fitted graph encoder (`θ_e`).
    pub encoder: E,
    /// The fitted mask generator (`θ_m`).
    pub mask_generator: MaskGenerator,
    /// Global instance-level explanations.
    pub explanations: Explanations,
    /// Final argmax predictions for every node (masked forward).
    pub predictions: Vec<usize>,
    /// Final hidden-layer embeddings (`n × hidden`).
    pub embeddings: Matrix,
    /// Metrics and timings.
    pub report: SesReport,
}

/// Pre-computed graph context shared by both phases.
struct SesContext {
    adj: AdjView,
    khop: Arc<CsrStructure>,
    khop_view: AdjView,
    khop_rows: Arc<Vec<usize>>,
    khop_cols: Arc<Vec<usize>>,
    /// gather-map lifting `[M_s ; 1]` onto the khop view entries
    khop_lift: Arc<Vec<usize>>,
    /// gather-map lifting `[M_s ; 1]` onto the 1-hop view entries
    onehop_lift: Arc<Vec<usize>>,
    negatives: NegativeSets,
    labels: Arc<Vec<usize>>,
    train_idx: Arc<Vec<usize>>,
    /// The kept entries of `X` when `X` is sparse by the matmul family's
    /// predicate ([`CsrMatrix::support_of`]): phase 1 then evaluates Eq. 3
    /// on `X`'s support only (see [`record_explain_step`]).
    feature_support: Option<Arc<CsrMatrix>>,
}

impl SesContext {
    fn build(graph: &Graph, splits: &Splits, config: &SesConfig, rng: &mut StdRng) -> Self {
        let adj = AdjView::of_graph(graph);
        let khop = match config.max_khop_neighbors {
            Some(cap) => khop_structure_capped(graph, config.k, cap),
            None => khop_structure(graph, config.k),
        };
        let khop_view = AdjView::from_structure(&khop);
        let (rows, cols) = khop.entry_endpoints();
        let label_filter = config.label_filtered_negatives.then(|| graph.labels());
        let negatives = NegativeSets::sample(&khop, label_filter, rng);
        let khop_lift = Arc::new(build_lift_map(&khop, &khop_view));
        let onehop_lift = Arc::new(build_lift_map(&khop, &adj));
        Self {
            adj,
            khop: khop.clone(),
            khop_view,
            khop_rows: Arc::new(rows),
            khop_cols: Arc::new(cols),
            khop_lift,
            onehop_lift,
            negatives,
            labels: Arc::new(graph.labels().to_vec()),
            train_idx: Arc::new(splits.train.clone()),
            feature_support: CsrMatrix::support_of(graph.features()).map(Arc::new),
        }
    }
}

/// Builds the gather map that lifts the stacked vector `[M_s ; ones(n)]`
/// (k-hop edge weights followed by per-node self-loop slots) onto a view's
/// entry layout. Self-loops map to the appended ones block; so do view edges
/// absent from the (possibly neighbour-capped) k-hop structure — unscored
/// edges keep the neutral weight 1.
fn build_lift_map(khop: &CsrStructure, view: &AdjView) -> Vec<usize> {
    let nnz_khop = khop.nnz();
    view.structure()
        .iter_entries()
        .map(|(r, c, _)| {
            if r == c {
                nnz_khop + r
            } else {
                khop.find(r, c).unwrap_or(nnz_khop + r)
            }
        })
        .collect()
}

/// Telemetry digest of a mask matrix: `(mean activation, fraction of
/// entries below 0.5)` — the latter is "sparsity" in the paper's sense of
/// suppressed features/edges. Only computed when the JSONL sink is active.
fn mask_stats(m: &Matrix) -> (f64, f64) {
    let s = m.as_slice();
    if s.is_empty() {
        return (0.0, 0.0);
    }
    let mut sum = 0.0f64;
    let mut below = 0u64;
    for &v in s {
        sum += f64::from(v);
        if v < 0.5 {
            below += 1;
        }
    }
    let n = s.len() as u64;
    // lint:allow(no-f64-in-kernels): reporting arithmetic, not a kernel
    (sum / n as f64, below as f64 / n as f64)
}

/// Lifts the structure-mask variable onto a view via the precomputed gather
/// map: self-loop slots read from an appended constant-one block.
fn lift_mask(tape: &mut Tape, ms: Var, n_nodes: usize, map: &Arc<Vec<usize>>) -> Var {
    let ones = tape.constant(Matrix::ones(n_nodes, 1));
    let extended = tape.concat_rows(ms, ones);
    tape.gather_rows(extended, map.clone())
}

/// How one explainable-training step recorded the feature mask (Eq. 3).
enum FeatureMask {
    /// `M_f` itself (`n × F`); Eq. 8 multiplies it into `X` on the tape.
    Dense(Var),
    /// `M_f ⊙ X` on `X`'s support only
    /// ([`MaskGenerator::record_on_support`]), and the feature MLP's hidden
    /// layer that `M_f` is re-derived from for the epoch record.
    OnSupport { masked_input: Var, hidden: Var },
}

/// Everything one explainable-training step leaves on its tape, before
/// `backward` and the optimiser touch it.
struct ExplainStep {
    tape: Tape,
    out: ses_gnn::EncoderOutput,
    feature: FeatureMask,
    structure: Var,
    /// Mask-generator parameter leaves, aligned with
    /// [`MaskGenerator::params_mut`].
    mask_params: Vec<Var>,
    l_xent: Var,
    l_sub: Var,
    l_m_val: Option<f32>,
    loss: Var,
}

/// Positions of `W₂` and `b₂` (the feature MLP's output layer) in
/// [`MaskGenerator::params_mut`] order.
const MLP_W2: usize = 2;
const MLP_B2: usize = 3;

/// `M_f = σ(m₁ W₂ + b₂)` over all `n × F` entries, off the tape, from the
/// hidden layer and weights a support-path step recorded: the tape's
/// `matmul`, `add_row_broadcast` and `sigmoid` expressions, so the same
/// bits as the dense recording's `M_f`.
fn feature_mask_off_tape(hidden: &Matrix, w2: &Matrix, b2: &Matrix) -> Matrix {
    let mut m = hidden.matmul(w2);
    let b = b2.as_slice();
    for r in 0..m.rows() {
        for (v, &bj) in m.row_mut(r).iter_mut().zip(b) {
            *v += bj;
        }
    }
    m.map_inplace(|x| 1.0 / (1.0 + (-x).exp()));
    m
}

/// Records one explainable-training step (Eqs. 2 and 7–9) on a fresh tape:
/// plain forward, mask-generator forward, subgraph loss, masked re-encoding
/// consistency loss, and the combined objective. This is the single source
/// of the phase-1 architecture — `fit`'s epoch loop runs it, and
/// [`explain_step_irs`] exports its IR for the `ses-verify` clean-run gate,
/// so the verifier always checks exactly what training records.
///
/// When `X` is sparse ([`SesContext::feature_support`]) and nothing needs
/// `M_f` beyond `M_f ⊙ X` (the masked re-encoding is on and there is no
/// mask-size penalty, whose mean runs over all `n × F` entries), Eq. 3 is
/// recorded on `X`'s support only. Loss and gradients are bit-identical
/// to the dense recording either way.
fn record_explain_step<E: Encoder + ?Sized>(
    encoder: &mut E,
    mask_gen: &mut MaskGenerator,
    graph: &Graph,
    ctx: &SesContext,
    config: &SesConfig,
    rng: &mut StdRng,
) -> ExplainStep {
    let support = ctx
        .feature_support
        .as_ref()
        .filter(|_| config.variant.use_masked_xent && config.mask_size_weight <= 0.0);
    let mut tape = Tape::new();
    let x = tape.constant(graph.features().clone());

    // plain forward: Z, H  (Eq. 2)
    let out = {
        let mut fctx = ForwardCtx {
            tape: &mut tape,
            adj: &ctx.adj,
            x,
            edge_mask: None,
            train: true,
            rng,
        };
        encoder.forward(&mut fctx)
    };
    let l_xent = tape.cross_entropy_masked(out.logits, ctx.labels.clone(), ctx.train_idx.clone());

    // negative pair endpoints, re-sampled each epoch
    let (neg_a, neg_b) = sample_negative_endpoints(ctx, rng);
    let (feature, structure, structure_neg, mask_params) = match support {
        Some(xs) => {
            let m = mask_gen.record_on_support(
                &mut tape,
                out.hidden,
                xs,
                &ctx.khop,
                &ctx.khop_rows,
                &ctx.khop_cols,
                &neg_a,
                &neg_b,
            );
            let feature = FeatureMask::OnSupport {
                masked_input: m.masked_input,
                hidden: m.hidden,
            };
            (feature, m.structure, m.structure_neg, m.param_vars)
        }
        None => {
            let m = mask_gen.forward(
                &mut tape,
                out.hidden,
                &ctx.khop,
                &ctx.khop_rows,
                &ctx.khop_cols,
                &neg_a,
                &neg_b,
            );
            let feature = FeatureMask::Dense(m.feature);
            (feature, m.structure, m.structure_neg, m.param_vars)
        }
    };

    // Eq. (7): subgraph loss against stacked labels [1 ; 0]
    let stacked = tape.concat_rows(structure, structure_neg);
    let nnz = ctx.khop.nnz();
    let mut targets = Matrix::ones(2 * nnz, 1);
    for i in nnz..2 * nnz {
        targets[(i, 0)] = 0.0;
    }
    let l_sub = tape.l1_to_constant(stacked, &targets);

    // Eq. (8): masked re-encoding consistency loss
    let mut l_m_val = None;
    let mask_obj = if config.variant.use_masked_xent {
        let (xm, dense_feature) = match feature {
            FeatureMask::OnSupport { masked_input, .. } => (masked_input, None),
            FeatureMask::Dense(f) => (tape.mul(f, x), Some(f)),
        };
        let (view, map) = match config.masked_graph {
            crate::config::MaskedGraph::OneHop => (&ctx.adj, &ctx.onehop_lift),
            crate::config::MaskedGraph::KHop => (&ctx.khop_view, &ctx.khop_lift),
        };
        let lifted = lift_mask(&mut tape, structure, graph.n_nodes(), map);
        let out_m = {
            let mut fctx = ForwardCtx {
                tape: &mut tape,
                adj: view,
                x: xm,
                edge_mask: Some(lifted),
                train: true,
                rng,
            };
            encoder.forward(&mut fctx)
        };
        let l_m =
            tape.cross_entropy_masked(out_m.logits, ctx.labels.clone(), ctx.train_idx.clone());
        l_m_val = Some(tape.value(l_m).scalar_value());
        let weighted_sub = tape.scale(l_sub, config.sub_loss_weight);
        let mut obj = tape.add(weighted_sub, l_m);
        if config.mask_size_weight > 0.0 {
            let feature = dense_feature
                // lint:allow(no-unwrap): `support` is None under a size penalty, so M_f is dense
                .expect("a mask-size penalty records M_f densely");
            let s_size = tape.mean_all(structure);
            let f_size = tape.mean_all(feature);
            let sizes = tape.add(s_size, f_size);
            let pen = tape.scale(sizes, config.mask_size_weight);
            obj = tape.add(obj, pen);
        }
        obj
    } else {
        tape.scale(l_sub, config.sub_loss_weight)
    };

    // Eq. (9): α (L_sub + L^m_xent) + (1 − α) L_xent
    let weighted_mask = tape.scale(mask_obj, config.alpha);
    let weighted_xent = tape.scale(l_xent, 1.0 - config.alpha);
    let loss = tape.add(weighted_mask, weighted_xent);
    ExplainStep {
        tape,
        out,
        feature,
        structure,
        mask_params,
        l_xent,
        l_sub,
        l_m_val,
        loss,
    }
}

/// Records one explainable-training step of the **real** SES architecture —
/// GCN encoder plus mask generator over a small fixed graph, full Eq. 9
/// objective — through the production recording path
/// ([`record_explain_step`], the same function `fit`'s phase-1 loop calls)
/// and exports `(name, tape IR, loss node id)`, once per way that path can
/// record Eq. 3:
///
/// * `"dense"` — dense features and a mask-size penalty: `M_f` over all
///   `n × F` entries, multiplied into `X`;
/// * `"support"` — sparse features and no penalty: `M_f ⊙ X` on `X`'s
///   support through `feature_gate`.
///
/// These are the fixtures behind `ses-verify`'s clean-run gate: a false
/// positive on these traces means the static verifier disagrees with what
/// SES training actually records, not with a hand-written imitation of it.
pub fn explain_step_irs() -> Vec<(&'static str, ses_tensor::TapeIr, usize)> {
    // Two feature-separable triangles joined by a bridge — 6 nodes, 2
    // classes, small enough that the 2-hop structure stays readable in
    // verifier diagnostics.
    let n = 6;
    let edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
    let dense = Matrix::from_vec(
        n,
        4,
        (0..n * 4).map(|i| ((i % 7) as f32) * 0.3 - 0.9).collect(),
    );
    // A bag-of-words-like input: one word per node, a second one on even
    // nodes, 9 of 48 entries set.
    let mut sparse = Matrix::zeros(n, 8);
    for i in 0..n {
        sparse[(i, i)] = 1.0;
        if i % 2 == 0 {
            sparse[(i, (i + 3) % 8)] = 0.5;
        }
    }
    [("dense", dense, 0.1), ("support", sparse, 0.0)]
        .into_iter()
        .map(|(name, features, mask_size_weight)| {
            let mut rng = StdRng::seed_from_u64(7);
            let labels = vec![0, 0, 0, 1, 1, 1];
            let graph = Graph::new(n, &edges, features, labels);
            let splits = Splits {
                train: vec![0, 1, 3, 4],
                val: vec![2],
                test: vec![5],
            };
            let config = SesConfig {
                k: 2,
                mask_size_weight,
                ..SesConfig::default()
            };
            let ctx = SesContext::build(&graph, &splits, &config, &mut rng);
            let mut encoder = ses_gnn::Gcn::new(graph.n_features(), 5, graph.n_classes(), &mut rng);
            let mut mask_gen =
                MaskGenerator::new(encoder.hidden_dim(), graph.n_features(), &mut rng);
            let step =
                record_explain_step(&mut encoder, &mut mask_gen, &graph, &ctx, &config, &mut rng);
            (name, step.tape.export_ir(), step.loss.index())
        })
        .collect()
}

/// Fits SES on a graph: Algorithm 2 end to end.
pub fn fit<E: Encoder>(
    mut encoder: E,
    mut mask_gen: MaskGenerator,
    graph: &Graph,
    splits: &Splits,
    config: &SesConfig,
) -> TrainedSes<E> {
    assert_eq!(
        mask_gen.hidden_dim(),
        encoder.hidden_dim(),
        "mask generator width mismatch"
    );
    assert_eq!(
        mask_gen.feat_dim(),
        graph.n_features(),
        "mask generator feature dim mismatch"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let ctx = SesContext::build(graph, splits, config, &mut rng);

    // ----- Phase 1: explainable training -----
    let phase_span = ses_obs::span!("ses.phase.explain");
    let et_start = Stopwatch::start();
    let mut opt = Adam::new(config.lr).with_weight_decay(config.weight_decay);
    let mut et_loss_curve = Vec::with_capacity(config.epochs_explain);
    let mut et_val_curve = Vec::with_capacity(config.epochs_explain);
    let mut snapshots = Vec::new();

    // Same opt-in divergence sentinel as the EPL phase, but over the joint
    // encoder + mask-generator parameter set — a NaN in the mask branch must
    // roll *both* back or the pair drifts apart. Detections here are counted
    // separately (`trainer.recover.mask_phase`) so drills can tell which
    // phase a recovery fired in.
    let mut mask_manager = RecoveryManager::new(config.recovery.clone());

    let mut epoch = 0usize;
    while epoch < config.epochs_explain {
        let epoch_start = Stopwatch::start();
        let spans_before = ses_obs::spans::snapshot();
        let step = record_explain_step(&mut encoder, &mut mask_gen, graph, &ctx, config, &mut rng);
        let ExplainStep {
            mut tape,
            out,
            feature,
            structure,
            mask_params,
            l_xent,
            l_sub,
            l_m_val,
            loss,
        } = step;
        let loss_val = tape.value(loss).scalar_value();
        tape.backward(loss);

        let grads_finite = out
            .param_vars
            .iter()
            .chain(mask_params.iter())
            .filter_map(|&v| tape.grad(v))
            .all(|g| g.as_slice().iter().all(|x| x.is_finite()));
        if let Verdict::Diverged(reason) = mask_manager.observe(loss_val, grads_finite) {
            ses_obs::metrics::TRAIN_RECOVER_MASK_PHASE.incr();
            let rolled_back = {
                let mut params = encoder.params_mut();
                params.extend(mask_gen.params_mut());
                mask_manager.try_rollback(&reason, &mut opt, &mut rng, &mut params)
            };
            match rolled_back {
                Ok(resume) => {
                    let keep = resume as usize + 1;
                    et_loss_curve.truncate(keep);
                    et_val_curve.truncate(keep);
                    snapshots.retain(|s: &MaskSnapshot| s.epoch < keep);
                    epoch = keep;
                    continue;
                }
                Err(err) => {
                    // Like the EPL phase, this loop reports through curves
                    // rather than a Result: on an unrecoverable divergence,
                    // restore the last consistent state (if any) and let the
                    // rest of the pipeline run from it.
                    if let Some(ckpt) = mask_manager.last_good().cloned() {
                        let mut params = encoder.params_mut();
                        params.extend(mask_gen.params_mut());
                        if ckpt.restore_into(&mut opt, &mut rng, &mut params).is_ok() {
                            let keep = ckpt.epoch as usize + 1;
                            et_loss_curve.truncate(keep);
                            et_val_curve.truncate(keep);
                            snapshots.retain(|s: &MaskSnapshot| s.epoch < keep);
                        }
                    }
                    ses_obs::info!(
                        "explain: stopping at epoch {epoch} after unrecoverable divergence ({reason}): {err}"
                    );
                    break;
                }
            }
        }

        apply_step(
            &mut opt,
            &tape,
            &mut encoder,
            Some(&mut mask_gen),
            &out.param_vars,
            &mask_params,
        );

        if mask_manager.checkpoint_due(epoch as u64) {
            let ckpt = {
                let mut params = encoder.params_mut();
                params.extend(mask_gen.params_mut());
                TrainCheckpoint::capture(epoch as u64, &opt, &rng, &params)
            };
            if let Err(e) = mask_manager.record_checkpoint(ckpt, false) {
                ses_obs::info!("explain: stopping at epoch {epoch}: checkpoint write failed: {e}");
                break;
            }
        }

        et_loss_curve.push(loss_val);
        let (pred, _) = eval_forward(&encoder, graph, &ctx.adj, None, None, config.seed);
        let val_acc = accuracy(&pred, graph.labels(), eval_split(splits));
        et_val_curve.push(val_acc);

        ses_obs::metrics::TRAIN_EPOCH_NS.record(epoch_start.elapsed_ns());

        if ses_obs::sink::active() {
            let (feat_mean, feat_sparsity) = match feature {
                FeatureMask::Dense(f) => mask_stats(tape.value(f)),
                FeatureMask::OnSupport { hidden, .. } => mask_stats(&feature_mask_off_tape(
                    tape.value(hidden),
                    tape.value(mask_params[MLP_W2]),
                    tape.value(mask_params[MLP_B2]),
                )),
            };
            let (struct_mean, struct_sparsity) = mask_stats(tape.value(structure));
            let mut rec = ses_obs::Record::new("epoch")
                .str("phase", "explain")
                .int("epoch", epoch as i64)
                .num("loss", f64::from(loss_val))
                .num("loss_xent", f64::from(tape.value(l_xent).scalar_value()))
                .num("loss_sub", f64::from(tape.value(l_sub).scalar_value()));
            if let Some(lm) = l_m_val {
                rec = rec.num("loss_mask_xent", f64::from(lm));
            }
            rec.num("feat_mask_mean", feat_mean)
                .num("feat_mask_sparsity", feat_sparsity)
                .num("struct_mask_mean", struct_mean)
                .num("struct_mask_sparsity", struct_sparsity)
                .num("val_acc", val_acc)
                .num("epoch_ms", epoch_start.elapsed().as_secs_f64() * 1e3)
                .span_breakdown("kernels_ms", &ses_obs::spans::delta_since(&spans_before))
                .emit();
        }

        if config.record_masks_at.contains(&epoch) {
            let (fm, sw) = extract_masks(&encoder, &mask_gen, graph, &ctx, config.seed);
            snapshots.push(MaskSnapshot {
                epoch,
                feature_mask: fm,
                structure_weights: sw,
            });
        }
        epoch += 1;
    }

    // Final masks: the trained mask generator's output (constants from here on).
    let (feature_mask, structure_weights) =
        extract_masks(&encoder, &mask_gen, graph, &ctx, config.seed);
    let explain_time = et_start.elapsed();
    drop(phase_span);

    let explanations = Explanations {
        feature_mask: feature_mask.clone(),
        khop: ctx.khop.clone(),
        structure_weights: structure_weights.clone(),
    };

    let (pred_et, _) = masked_eval(
        &encoder,
        graph,
        &ctx,
        &explanations,
        &config.variant,
        config.seed,
    );
    let test_acc_after_et = accuracy(&pred_et, graph.labels(), test_split(splits));
    let (pred_plain, _) = eval_forward(&encoder, graph, &ctx.adj, None, None, config.seed);
    let test_acc_plain = accuracy(&pred_plain, graph.labels(), test_split(splits));

    // ----- Algorithm 1: positive-negative pairs -----
    let pair_start = Stopwatch::start();
    let pairs = construct_pairs(
        &ctx.khop,
        &structure_weights,
        &ctx.negatives,
        config.sample_ratio,
        &mut rng,
    );
    let pair_time = pair_start.elapsed();

    // ----- Phase 2: enhanced predictive learning -----
    let phase_span = ses_obs::span!("ses.phase.epl");
    let epl_start = Stopwatch::start();
    let epl_loss_curve = run_epl_phase(
        &mut encoder,
        graph,
        &ctx,
        &explanations,
        &pairs,
        config,
        &mut rng,
    );
    let epl_time = epl_start.elapsed();
    drop(phase_span);

    let (predictions, embeddings) = masked_eval(
        &encoder,
        graph,
        &ctx,
        &explanations,
        &config.variant,
        config.seed,
    );
    let test_acc = accuracy(&predictions, graph.labels(), test_split(splits));
    let val_acc = accuracy(&predictions, graph.labels(), eval_split(splits));

    if ses_obs::sink::active() {
        ses_obs::Record::new("run")
            .str("model", "ses")
            .num("test_acc", test_acc)
            .num("test_acc_after_et", test_acc_after_et)
            .num("val_acc", val_acc)
            .num("explain_ms", explain_time.as_secs_f64() * 1e3)
            .num("epl_ms", epl_time.as_secs_f64() * 1e3)
            .num("pair_ms", pair_time.as_secs_f64() * 1e3)
            .emit();
    }

    TrainedSes {
        encoder,
        mask_generator: mask_gen,
        explanations,
        predictions,
        embeddings,
        report: SesReport {
            test_acc,
            test_acc_after_et,
            test_acc_plain,
            val_acc,
            explain_time,
            epl_time,
            pair_time,
            et_loss_curve,
            et_val_curve,
            epl_loss_curve,
            mask_snapshots: snapshots,
        },
    }
}

/// Phase 2 given fixed masks and pairs. Public so that the `+{epl}` ablation
/// (post-hoc explainer masks + enhanced predictive learning, Table 10) can
/// drive it with masks from GNNExplainer/PGExplainer.
pub fn run_epl<E: Encoder + ?Sized>(
    encoder: &mut E,
    graph: &Graph,
    splits: &Splits,
    explanations: &Explanations,
    config: &SesConfig,
) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let ctx = SesContext::build(graph, splits, config, &mut rng);
    let pairs = construct_pairs(
        &ctx.khop,
        &explanations.structure_weights,
        &ctx.negatives,
        config.sample_ratio,
        &mut rng,
    );
    run_epl_phase(encoder, graph, &ctx, explanations, &pairs, config, &mut rng)
}

/// The enhanced-predictive-learning loop (Eq. 13), with the same opt-in
/// divergence sentinel as `ses_gnn::train_node_classifier`: under a
/// detect-enabled [`SesConfig::recovery`] policy, a NaN/Inf loss,
/// non-finite gradient, or loss spike rolls the phase back to its last
/// good checkpoint with LR backoff. Because this phase returns a loss
/// curve rather than a `Result` (it refines an already-trained model), an
/// *unrecoverable* divergence stops the phase gracefully at the last good
/// state instead of erroring.
fn run_epl_phase<E: Encoder + ?Sized>(
    encoder: &mut E,
    graph: &Graph,
    ctx: &SesContext,
    explanations: &Explanations,
    pairs: &PairSets,
    config: &SesConfig,
    rng: &mut StdRng,
) -> Vec<f32> {
    if !config.variant.use_triplet && !config.variant.use_xent_epl {
        return Vec::new();
    }
    let mut opt = Adam::new(config.lr).with_weight_decay(config.weight_decay);
    let mut curve = Vec::with_capacity(config.epochs_epl);
    let anchor = Arc::new(pairs.anchor_idx.clone());
    let pos = Arc::new(pairs.pos_idx.clone());
    let neg = Arc::new(pairs.neg_idx.clone());
    let masked_x = if config.variant.use_feature_mask {
        explanations.feature_mask.hadamard(graph.features())
    } else {
        graph.features().clone()
    };
    let onehop_mask_values = if config.variant.use_structure_mask {
        Some(lift_weights_const(
            &ctx.khop,
            &explanations.structure_weights,
            &ctx.onehop_lift,
        ))
    } else {
        None
    };

    let mut manager = RecoveryManager::new(config.recovery.clone());
    let fault_spec = config.fault;
    let mut fault_fired = false;

    let mut epoch = 0usize;
    while epoch < config.epochs_epl {
        let epoch_start = Stopwatch::start();
        let spans_before = ses_obs::spans::snapshot();
        let fires = |fired: bool, kind: FaultKind| -> bool {
            !fired && fault_spec.is_some_and(|s| s.kind == kind && s.fires_at(epoch as u64))
        };
        if fires(fault_fired, FaultKind::WorkerPanic) {
            fault_fired = true;
            ses_tensor::par::arm_worker_panic(0);
        }
        let mut tape = Tape::new();
        let x = tape.constant(masked_x.clone());
        let edge_mask = onehop_mask_values
            .as_ref()
            .map(|v| tape.constant(Matrix::col_vec(v)));
        let out = {
            let mut fctx = ForwardCtx {
                tape: &mut tape,
                adj: &ctx.adj,
                x,
                edge_mask,
                train: true,
                rng,
            };
            encoder.forward(&mut fctx)
        };

        // Eq. (13): β L_triplet + (1 − β) L_xent
        let mut loss = None;
        let mut l_triplet_val = None;
        let mut l_xent_val = None;
        if config.variant.use_triplet && !pairs.is_empty() {
            let a = tape.gather_rows(out.hidden, anchor.clone());
            let p = tape.gather_rows(out.hidden, pos.clone());
            let n = tape.gather_rows(out.hidden, neg.clone());
            let d_pos = tape.row_l2_distance(a, p);
            let d_neg = tape.row_l2_distance(a, n);
            let gap = tape.sub(d_pos, d_neg);
            let gap = tape.add_scalar(gap, config.margin);
            let hinge = tape.relu(gap);
            let l_triplet = tape.mean_all(hinge);
            l_triplet_val = Some(tape.value(l_triplet).scalar_value());
            loss = Some(tape.scale(l_triplet, config.beta));
        }
        if config.variant.use_xent_epl {
            let l_xent =
                tape.cross_entropy_masked(out.logits, ctx.labels.clone(), ctx.train_idx.clone());
            l_xent_val = Some(tape.value(l_xent).scalar_value());
            let weighted = tape.scale(l_xent, 1.0 - config.beta);
            loss = Some(match loss {
                Some(l) => tape.add(l, weighted),
                None => weighted,
            });
        }
        // No contributing objective (both EPL terms disabled, or triplet-only
        // with an empty pair set): nothing to optimise, so stop early rather
        // than spin through no-op epochs.
        let Some(loss) = loss else { break };
        let loss_val = tape.value(loss).scalar_value();
        tape.backward(loss);
        // A worker-panic fault armed above is consumed during forward/backward
        // kernels; disarm so an unfired countdown (serial run) cannot leak.
        ses_tensor::par::disarm_worker_panic();

        let mut enc_grads: Vec<Option<Matrix>> = out
            .param_vars
            .iter()
            .map(|&v| tape.grad(v).cloned())
            .collect();
        if fires(fault_fired, FaultKind::NanGrad) {
            fault_fired = true;
            fault::corrupt_one_grad(&mut enc_grads, fault_spec.map_or(0, |s| s.seed));
        }
        let grads_finite = enc_grads
            .iter()
            .flatten()
            .all(|g| g.as_slice().iter().all(|x| x.is_finite()));

        if let Verdict::Diverged(reason) = manager.observe(loss_val, grads_finite) {
            let rolled_back = {
                let mut params = encoder.params_mut();
                manager.try_rollback(&reason, &mut opt, rng, &mut params)
            };
            match rolled_back {
                Ok(resume) => {
                    curve.truncate(resume as usize + 1);
                    epoch = resume as usize + 1;
                    continue;
                }
                Err(err) => {
                    // This phase refines an already-trained model and returns
                    // a curve, not a Result: on an unrecoverable divergence,
                    // restore the last good state (if any) and stop early.
                    if let Some(ckpt) = manager.last_good().cloned() {
                        let mut params = encoder.params_mut();
                        if ckpt.restore_into(&mut opt, rng, &mut params).is_ok() {
                            curve.truncate(ckpt.epoch as usize + 1);
                        }
                    }
                    ses_obs::info!(
                        "epl: stopping at epoch {epoch} after unrecoverable divergence ({reason}): {err}"
                    );
                    break;
                }
            }
        }
        curve.push(loss_val);

        {
            let mut params = encoder.params_mut();
            let mut all: Vec<(&mut ses_tensor::Param, &Matrix)> = Vec::new();
            for (p, g) in params.iter_mut().zip(enc_grads.iter()) {
                if let Some(g) = g {
                    all.push((&mut **p, g));
                }
            }
            opt.step(&mut all);
        }

        if manager.checkpoint_due(epoch as u64) {
            let ckpt = {
                let params = encoder.params_mut();
                TrainCheckpoint::capture(epoch as u64, &opt, rng, &params)
            };
            let inject_io = fires(fault_fired, FaultKind::CkptIo);
            if inject_io {
                fault_fired = true;
            }
            if let Err(e) = manager.record_checkpoint(ckpt, inject_io) {
                // Strict checkpointing demands durability this phase cannot
                // provide; stop at the last consistent state.
                ses_obs::info!("epl: stopping at epoch {epoch}: checkpoint write failed: {e}");
                break;
            }
        }

        ses_obs::metrics::TRAIN_EPOCH_NS.record(epoch_start.elapsed_ns());

        if ses_obs::sink::active() {
            let mut rec = ses_obs::Record::new("epoch")
                .str("phase", "epl")
                .int("epoch", epoch as i64)
                .num("loss", f64::from(loss_val));
            if let Some(lt) = l_triplet_val {
                rec = rec.num("loss_triplet", f64::from(lt));
            }
            if let Some(lx) = l_xent_val {
                rec = rec.num("loss_xent", f64::from(lx));
            }
            rec.num("epoch_ms", epoch_start.elapsed().as_secs_f64() * 1e3)
                .span_breakdown("kernels_ms", &ses_obs::spans::delta_since(&spans_before))
                .emit();
        }
        epoch += 1;
    }
    curve
}

/// Reads gradients from the tape and applies one optimiser step over the
/// encoder (and optionally mask generator) parameters. Parameters whose
/// gradient is absent (e.g. unused in an ablation) are skipped.
fn apply_step<E: Encoder + ?Sized>(
    opt: &mut Adam,
    tape: &Tape,
    encoder: &mut E,
    mask_gen: Option<&mut MaskGenerator>,
    enc_vars: &[Var],
    mask_vars: &[Var],
) {
    let enc_grads: Vec<Option<Matrix>> = enc_vars.iter().map(|&v| tape.grad(v).cloned()).collect();
    let mask_grads: Vec<Option<Matrix>> =
        mask_vars.iter().map(|&v| tape.grad(v).cloned()).collect();

    let mut params = encoder.params_mut();
    let mut all: Vec<(&mut ses_tensor::Param, &Matrix)> = Vec::new();
    for (p, g) in params.iter_mut().zip(enc_grads.iter()) {
        if let Some(g) = g {
            all.push((&mut **p, g));
        }
    }
    let mut mg_params;
    if let Some(mg) = mask_gen {
        mg_params = mg.params_mut();
        for (p, g) in mg_params.iter_mut().zip(mask_grads.iter()) {
            if let Some(g) = g {
                all.push((&mut **p, g));
            }
        }
    }
    opt.step(&mut all);
}

/// Samples one negative endpoint per k-hop edge: the anchor stays the edge's
/// source, the other end is drawn from `P_n(anchor)`.
fn sample_negative_endpoints(
    ctx: &SesContext,
    rng: &mut StdRng,
) -> (Arc<Vec<usize>>, Arc<Vec<usize>>) {
    let mut a = Vec::with_capacity(ctx.khop.nnz());
    let mut b = Vec::with_capacity(ctx.khop.nnz());
    for v in 0..ctx.khop.n_rows() {
        let drawn = ctx.negatives.draw(v, ctx.khop.row_nnz(v), rng);
        for u in drawn {
            a.push(v);
            b.push(u);
        }
    }
    // Nodes whose negative pool is empty contribute no rows; pad by
    // repeating the last pair so lengths always match nnz.
    while a.len() < ctx.khop.nnz() {
        let last_a = a.last().copied().unwrap_or(0);
        let last_b = b.last().copied().unwrap_or(0);
        a.push(last_a);
        b.push(last_b);
    }
    (Arc::new(a), Arc::new(b))
}

/// Runs the trained encoder + mask generator once in eval mode and extracts
/// the masks as plain matrices.
fn extract_masks<E: Encoder>(
    encoder: &E,
    mask_gen: &MaskGenerator,
    graph: &Graph,
    ctx: &SesContext,
    seed: u64,
) -> (Matrix, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tape = Tape::new();
    let x = tape.constant(graph.features().clone());
    let out = {
        let mut fctx = ForwardCtx {
            tape: &mut tape,
            adj: &ctx.adj,
            x,
            edge_mask: None,
            train: false,
            rng: &mut rng,
        };
        encoder.forward(&mut fctx)
    };
    // extraction reads no negative mask, so score no negative pairs
    let no_pairs = Arc::new(Vec::new());
    let masks = mask_gen.forward(
        &mut tape,
        out.hidden,
        &ctx.khop,
        &ctx.khop_rows,
        &ctx.khop_cols,
        &no_pairs,
        &no_pairs,
    );
    let fm = tape.value(masks.feature).clone();
    let sw = tape.value(masks.structure).as_slice().to_vec();
    (fm, sw)
}

/// Constant lift of mask weights onto a view (no gradient needed).
fn lift_weights_const(khop: &CsrStructure, weights: &[f32], map: &Arc<Vec<usize>>) -> Vec<f32> {
    let nnz = khop.nnz();
    map.iter()
        .map(|&m| if m >= nnz { 1.0 } else { weights[m] })
        .collect()
}

/// Plain (optionally masked) eval forward: returns `(argmax predictions,
/// hidden embeddings)`.
fn eval_forward<E: Encoder>(
    encoder: &E,
    graph: &Graph,
    adj: &AdjView,
    features_override: Option<&Matrix>,
    edge_values: Option<&[f32]>,
    seed: u64,
) -> (Vec<usize>, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tape = Tape::new();
    let x = tape.constant(features_override.unwrap_or(graph.features()).clone());
    let edge_mask = edge_values.map(|v| tape.constant(Matrix::col_vec(v)));
    let out = {
        let mut fctx = ForwardCtx {
            tape: &mut tape,
            adj,
            x,
            edge_mask,
            train: false,
            rng: &mut rng,
        };
        encoder.forward(&mut fctx)
    };
    (
        tape.value(out.logits).argmax_rows(),
        tape.value(out.hidden).clone(),
    )
}

/// Eval forward with the SES masks applied per the variant flags (Eq. 10).
fn masked_eval<E: Encoder>(
    encoder: &E,
    graph: &Graph,
    ctx: &SesContext,
    explanations: &Explanations,
    variant: &crate::config::SesVariant,
    seed: u64,
) -> (Vec<usize>, Matrix) {
    let fx = if variant.use_feature_mask {
        Some(explanations.feature_mask.hadamard(graph.features()))
    } else {
        None
    };
    let ev = if variant.use_structure_mask {
        Some(lift_weights_const(
            &ctx.khop,
            &explanations.structure_weights,
            &ctx.onehop_lift,
        ))
    } else {
        None
    };
    eval_forward(encoder, graph, &ctx.adj, fx.as_ref(), ev.as_deref(), seed)
}

fn eval_split(splits: &Splits) -> &[usize] {
    if splits.val.is_empty() {
        &splits.train
    } else {
        &splits.val
    }
}

fn test_split(splits: &Splits) -> &[usize] {
    if splits.test.is_empty() {
        &splits.train
    } else {
        &splits.test
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SesVariant;
    use ses_data::{realworld, Profile};
    use ses_gnn::Gcn;

    fn quick_config() -> SesConfig {
        SesConfig {
            epochs_explain: 60,
            epochs_epl: 8,
            ..Default::default()
        }
    }

    /// Records one phase-1 step of `config` on `data`'s graph with a fresh
    /// GCN + mask generator, either with `X`'s support (when `X` is sparse)
    /// or forced dense, and returns the loss bits, every encoder and
    /// mask-generator gradient's bits, and the number of `feature_gate`
    /// nodes recorded.
    fn phase1_step_bits(graph: &Graph, on_support: bool) -> (Vec<Vec<u32>>, usize) {
        let config = SesConfig::default();
        let mut rng = StdRng::seed_from_u64(31);
        let splits = Splits::classification(graph.n_nodes(), &mut rng);
        let mut encoder = Gcn::new(graph.n_features(), 16, graph.n_classes(), &mut rng);
        let mut mask_gen = MaskGenerator::new(16, graph.n_features(), &mut rng);
        let mut ctx = SesContext::build(graph, &splits, &config, &mut rng);
        assert!(ctx.feature_support.is_some(), "fixture features are sparse");
        if !on_support {
            ctx.feature_support = None;
        }
        let step = record_explain_step(&mut encoder, &mut mask_gen, graph, &ctx, &config, &mut rng);
        let gates = step
            .tape
            .export_ir()
            .nodes
            .iter()
            .filter(|n| n.op == "feature_gate")
            .count();
        let ExplainStep {
            mut tape,
            out,
            mask_params,
            loss,
            ..
        } = step;
        tape.backward(loss);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
        let mut all = vec![bits(tape.value(loss))];
        for &v in out.param_vars.iter().chain(&mask_params) {
            all.push(bits(tape.grad_unwrap(v)));
        }
        (all, gates)
    }

    #[test]
    fn phase1_on_support_is_bit_identical_to_dense() {
        let mut rng = StdRng::seed_from_u64(30);
        let cora = realworld::cora_like(Profile::Fast, &mut rng).graph;
        let polblogs = realworld::polblogs_like(Profile::Fast, &mut rng).graph;
        for (name, graph) in [("cora-like", &cora), ("polblogs-like", &polblogs)] {
            let (dense, dense_gates) = phase1_step_bits(graph, false);
            let (support, support_gates) = phase1_step_bits(graph, true);
            assert_eq!((dense_gates, support_gates), (0, 1), "{name}");
            assert_eq!(dense.len(), support.len());
            for (i, (d, s)) in dense.iter().zip(&support).enumerate() {
                let what = if i == 0 { "loss" } else { "parameter gradient" };
                assert_eq!(d, s, "{name}: {what} {i} differs");
            }
        }
    }

    #[test]
    fn ses_gcn_learns_polblogs_like() {
        let mut rng = StdRng::seed_from_u64(21);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let enc = Gcn::new(g.n_features(), 16, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(16, g.n_features(), &mut rng);
        let trained = fit(enc, mg, g, &splits, &quick_config());
        assert!(
            trained.report.test_acc > 0.85,
            "SES(GCN) should solve the 2-block SBM, got {}",
            trained.report.test_acc
        );
        // explanations cover every node
        assert_eq!(trained.explanations.feature_mask.rows(), g.n_nodes());
        assert_eq!(
            trained.explanations.structure_weights.len(),
            trained.explanations.khop.nnz()
        );
        assert_eq!(trained.report.et_loss_curve.len(), 60);
    }

    #[test]
    fn structure_mask_separates_pos_from_neg_pairs() {
        // After training, real k-hop edges should score higher on average
        // than the subgraph loss's implicit negatives (non-neighbours).
        let mut rng = StdRng::seed_from_u64(22);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let enc = Gcn::new(g.n_features(), 16, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(16, g.n_features(), &mut rng);
        let trained = fit(enc, mg, g, &splits, &quick_config());
        let mean_pos: f32 = trained.explanations.structure_weights.iter().sum::<f32>()
            / trained.explanations.structure_weights.len() as f32;
        assert!(
            mean_pos > 0.5,
            "k-hop edges should be scored as positives (mean={mean_pos})"
        );
    }

    #[test]
    fn ablation_variants_run() {
        let mut rng = StdRng::seed_from_u64(23);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let mut cfg = quick_config();
        cfg.epochs_epl = 3;
        for variant in [
            SesVariant {
                use_feature_mask: false,
                ..Default::default()
            },
            SesVariant {
                use_structure_mask: false,
                ..Default::default()
            },
            SesVariant {
                use_xent_epl: false,
                ..Default::default()
            },
            SesVariant {
                use_triplet: false,
                ..Default::default()
            },
            SesVariant {
                use_masked_xent: false,
                ..Default::default()
            },
        ] {
            let mut c = cfg.clone();
            c.variant = variant.clone();
            let enc = Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng);
            let mg = MaskGenerator::new(8, g.n_features(), &mut rng);
            let trained = fit(enc, mg, g, &splits, &c);
            // Without L^m_xent the encoder is never trained under masked
            // inputs, so the masked eval is expected to degrade (the paper's
            // Table 5 finding); judge that variant by its plain forward.
            let acc = if variant.use_masked_xent {
                trained.report.test_acc
            } else {
                trained.report.test_acc_plain
            };
            assert!(acc > 0.5, "variant {} collapsed: {acc}", variant.label());
        }
    }

    #[test]
    fn capped_khop_bounds_mask_size_and_still_learns() {
        let mut rng = StdRng::seed_from_u64(25);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let enc = Gcn::new(g.n_features(), 16, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(16, g.n_features(), &mut rng);
        let cfg = SesConfig {
            epochs_explain: 60,
            epochs_epl: 5,
            max_khop_neighbors: Some(20),
            ..Default::default()
        };
        let trained = fit(enc, mg, g, &splits, &cfg);
        assert!(
            trained.explanations.khop.nnz() <= g.n_nodes() * 20,
            "cap must bound the structure-mask size"
        );
        assert!(
            trained.report.test_acc > 0.8,
            "capped SES should still learn: {}",
            trained.report.test_acc
        );
    }

    #[test]
    fn mask_snapshots_recorded() {
        let mut rng = StdRng::seed_from_u64(24);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let mut cfg = quick_config();
        cfg.epochs_explain = 6;
        cfg.epochs_epl = 2;
        cfg.record_masks_at = vec![0, 3, 5];
        let enc = Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(8, g.n_features(), &mut rng);
        let trained = fit(enc, mg, g, &splits, &cfg);
        assert_eq!(trained.report.mask_snapshots.len(), 3);
        assert_eq!(trained.report.mask_snapshots[1].epoch, 3);
        // masks evolve over training
        let first = &trained.report.mask_snapshots[0].feature_mask;
        let last = &trained.report.mask_snapshots[2].feature_mask;
        assert!(
            first.max_abs_diff(last) > 1e-5,
            "mask should change during training"
        );
    }

    #[test]
    fn epl_nan_grad_fault_recovers_and_finishes_the_phase() {
        let _obs = ses_obs::force_enabled(true);
        let rollbacks_before = ses_obs::metrics::TRAIN_RECOVER_ROLLBACKS.get();
        let detected_before = ses_obs::metrics::TRAIN_RECOVER_DETECTED.get();
        let mut rng = StdRng::seed_from_u64(26);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let enc = Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(8, g.n_features(), &mut rng);
        let cfg = SesConfig {
            epochs_explain: 10,
            epochs_epl: 6,
            recovery: ses_resilience::RecoveryPolicy::standard(),
            fault: Some(ses_resilience::FaultSpec {
                kind: FaultKind::NanGrad,
                epoch: 3,
                seed: 11,
            }),
            ..Default::default()
        };
        let trained = fit(enc, mg, g, &splits, &cfg);
        assert_eq!(
            trained.report.epl_loss_curve.len(),
            6,
            "EPL must complete its full schedule despite the injected fault"
        );
        assert!(trained.report.epl_loss_curve.iter().all(|l| l.is_finite()));
        assert!(ses_obs::metrics::TRAIN_RECOVER_DETECTED.get() > detected_before);
        assert!(ses_obs::metrics::TRAIN_RECOVER_ROLLBACKS.get() > rollbacks_before);
    }

    #[test]
    fn mask_phase_divergence_is_detected_and_fit_survives() {
        let _obs = ses_obs::force_enabled(true);
        let mask_before = ses_obs::metrics::TRAIN_RECOVER_MASK_PHASE.get();
        let mut rng = StdRng::seed_from_u64(28);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let enc = Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(8, g.n_features(), &mut rng);
        // An absurd learning rate makes Adam blow the joint encoder +
        // mask-generator parameters up after the first step; the stable
        // log-sum-exp keeps the exploded loss *finite*, so what must fire
        // is the sentinel's spike detector — with a one-epoch window the
        // epoch-1 loss is judged against the healthy epoch-0 median. No
        // fault injection involved: this is natural divergence that only
        // the mask-phase sentinel can see.
        let cfg = SesConfig {
            epochs_explain: 8,
            epochs_epl: 0,
            lr: 1e12,
            recovery: ses_resilience::RecoveryPolicy {
                spike_window: 1,
                ..ses_resilience::RecoveryPolicy::standard()
            },
            ..Default::default()
        };
        let trained = fit(enc, mg, g, &splits, &cfg);
        assert!(
            ses_obs::metrics::TRAIN_RECOVER_MASK_PHASE.get() > mask_before,
            "the explain-phase sentinel must have fired"
        );
        assert!(
            trained.report.et_loss_curve.iter().all(|l| l.is_finite()),
            "diverged epochs must not leak into the reported curve"
        );
    }

    #[test]
    fn epl_stops_gracefully_when_retry_budget_is_zero() {
        // detect on, zero retries: the sentinel sees the NaN but has no
        // budget to roll back, so the phase stops at the last good state
        // instead of stepping the encoder onto garbage. The fault fires at
        // epoch 3, so exactly epochs 0..=2 survive in the curve.
        let mut rng = StdRng::seed_from_u64(27);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let enc = Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(8, g.n_features(), &mut rng);
        let cfg = SesConfig {
            epochs_explain: 10,
            epochs_epl: 6,
            recovery: ses_resilience::RecoveryPolicy {
                max_retries: 0,
                ..ses_resilience::RecoveryPolicy::standard()
            },
            fault: Some(ses_resilience::FaultSpec {
                kind: FaultKind::NanGrad,
                epoch: 3,
                seed: 11,
            }),
            ..Default::default()
        };
        let trained = fit(enc, mg, g, &splits, &cfg);
        assert_eq!(
            trained.report.epl_loss_curve.len(),
            3,
            "the phase must stop at the checkpointed state before the fault"
        );
        assert!(trained.report.epl_loss_curve.iter().all(|l| l.is_finite()));
        // The encoder is restored to the last good checkpoint, so the model
        // must still classify — the aborted phase degrades, not destroys.
        assert!(trained.report.test_acc > 0.5);
    }
}
