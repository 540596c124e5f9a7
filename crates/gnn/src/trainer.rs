//! Supervised full-batch training loop for any [`Encoder`], with early
//! stopping on validation accuracy, best-epoch parameter restore, and
//! opt-in fault tolerance (checkpoint/rollback, divergence recovery) from
//! `ses-resilience`.
//!
//! With the default [`TrainConfig`] — recovery disabled, no fault spec, no
//! resume — the loop behaves exactly as it did before the resilience layer
//! existed and the only error surface is a configured
//! [`TrainConfig::leak_budget`] being exceeded. Opting into
//! [`RecoveryPolicy::standard`] adds a per-epoch divergence sentinel
//! (NaN/Inf loss, non-finite gradients, loss spikes) that rolls training
//! back to the last good checkpoint with LR backoff instead of continuing
//! on garbage. See `docs/ROBUSTNESS.md`.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ses_obs::Stopwatch;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_data::Splits;
use ses_graph::Graph;
use ses_metrics::accuracy;
use ses_resilience::{
    apply_gradients, CheckpointError, FaultSpec, RecoveryManager, RecoveryPolicy, TrainCheckpoint,
    Verdict,
};
use ses_tensor::{Adam, LeakBudget, Matrix, Tape, Var};

use crate::adjview::AdjView;
use crate::encoder::{Encoder, ForwardCtx};

/// Training configuration. Defaults follow the paper's experimental setup
/// (Adam, lr = 3e-3, hidden 128, full-batch).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Learning rate for Adam.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Early-stopping patience in epochs (0 disables early stopping).
    pub patience: usize,
    /// RNG seed (controls dropout and any model-internal sampling).
    pub seed: u64,
    /// Per-epoch gradient-leak budget. When set, every epoch's tape is
    /// checked after `backward`: more `Unused`/`AfterLoss` leaks than the
    /// budget allows aborts the run with [`TrainError::LeakBudget`] (and a
    /// final checkpoint, when a checkpoint path is configured) instead of
    /// letting a silently-disconnected parameter train as noise. Leak
    /// counts flow to `ses_obs` (`trainer.leak.*`) either way.
    pub leak_budget: Option<LeakBudget>,
    /// Divergence detection / checkpoint / rollback policy. The default
    /// ([`RecoveryPolicy::disabled`]) keeps the loop bit-identical to the
    /// pre-resilience behaviour.
    pub recovery: RecoveryPolicy,
    /// Fault to inject (tests and `fault-drill`). `None` injects nothing.
    pub fault: Option<FaultSpec>,
    /// Resume from a checkpoint written by an earlier run. Restores
    /// parameters, Adam state, LR, and the training RNG, then continues at
    /// the checkpoint's epoch + 1 — bit-identically to a run that was never
    /// interrupted. Early-stopping bookkeeping is not checkpointed; see the
    /// degradation matrix in `docs/ROBUSTNESS.md`.
    pub resume_from: Option<PathBuf>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            lr: 3e-3,
            weight_decay: 5e-4,
            patience: 50,
            seed: 0,
            leak_budget: None,
            recovery: RecoveryPolicy::disabled(),
            fault: None,
            resume_from: None,
        }
    }
}

/// Why a training run aborted instead of producing a [`TrainReport`].
#[derive(Debug, Clone)]
pub enum TrainError {
    /// The per-epoch gradient-leak budget was exceeded: a parameter is
    /// disconnected from the loss. `checkpoint` points at a final snapshot
    /// of the state at failure when a checkpoint path was configured.
    LeakBudget {
        /// Epoch at which the budget check failed.
        epoch: usize,
        /// The tape's description of the offending leaks.
        detail: String,
        /// Final checkpoint written on the way out, if any.
        checkpoint: Option<PathBuf>,
    },
    /// The divergence sentinel fired and recovery could not (or was not
    /// allowed to) bring the run back.
    Diverged {
        /// Epoch at which the unrecoverable divergence was observed.
        epoch: usize,
        /// What the sentinel saw.
        reason: String,
        /// Rollbacks spent before giving up.
        retries_used: u32,
        /// On-disk last-good checkpoint, if one was configured and written.
        checkpoint: Option<PathBuf>,
    },
    /// A checkpoint operation failed: resume-from load, or a write under
    /// [`RecoveryPolicy::strict_checkpoints`].
    Checkpoint(CheckpointError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::LeakBudget { epoch, detail, .. } => {
                write!(f, "epoch {epoch}: leak budget exceeded: {detail}")
            }
            TrainError::Diverged {
                epoch,
                reason,
                retries_used,
                ..
            } => write!(
                f,
                "epoch {epoch}: training diverged ({reason}) after {retries_used} rollback(s)"
            ),
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Accuracy on the test split at the best-validation epoch.
    pub test_acc: f64,
    /// Best validation accuracy reached.
    pub val_acc: f64,
    /// Training accuracy at the final epoch.
    pub train_acc: f64,
    /// Epochs actually run (≤ config.epochs under early stopping).
    pub epochs_run: usize,
    /// Wall-clock training time.
    pub train_time: Duration,
    /// Per-epoch training losses (epochs re-run after a rollback replace
    /// the rolled-back entries).
    pub loss_curve: Vec<f32>,
    /// Per-epoch validation accuracies.
    pub val_curve: Vec<f64>,
}

/// One eval-mode forward pass, kept on its tape: callers read the logits,
/// the hidden layer or the argmax classes without copying what they skip.
pub struct Prediction {
    tape: Tape,
    logits: Var,
    hidden: Var,
}

impl Prediction {
    /// Class logits (`n × classes`).
    pub fn logits(&self) -> &Matrix {
        self.tape.value(self.logits)
    }

    /// First-layer embedding (`n × hidden`).
    pub fn hidden(&self) -> &Matrix {
        self.tape.value(self.hidden)
    }

    /// The argmax class of every node.
    pub fn classes(&self) -> Vec<usize> {
        self.logits().argmax_rows()
    }
}

/// The eval-mode forward pass: `encoder` over `adj` on `features`, with
/// `edge_values` as the per-entry edge mask (`None` means all ones). Eval
/// mode draws no randomness (dropout and label masking are train-only), so
/// the result depends on the inputs alone.
pub fn predict(
    encoder: &dyn Encoder,
    adj: &AdjView,
    features: &Matrix,
    edge_values: Option<&[f32]>,
) -> Prediction {
    let mut rng = StdRng::seed_from_u64(0);
    let mut tape = Tape::new();
    let x = tape.constant(features.clone());
    let edge_mask = edge_values.map(|v| tape.constant(Matrix::col_vec(v)));
    let mut ctx = ForwardCtx {
        tape: &mut tape,
        adj,
        x,
        edge_mask,
        train: false,
        rng: &mut rng,
    };
    let out = encoder.forward(&mut ctx);
    Prediction {
        tape,
        logits: out.logits,
        hidden: out.hidden,
    }
}

/// Best-effort final checkpoint on an error path: writes the state at
/// failure to the configured path and returns it, or `None` when no path is
/// configured or the write itself fails (the error we are already carrying
/// matters more).
fn emergency_checkpoint(
    epoch: usize,
    encoder: &mut dyn Encoder,
    opt: &Adam,
    rng: &StdRng,
    policy: &RecoveryPolicy,
) -> Option<PathBuf> {
    let path = policy.checkpoint_path.clone()?;
    let ckpt = TrainCheckpoint::capture(epoch as u64, opt, rng, &encoder.params_mut());
    match ckpt.write_atomic(&path, false) {
        Ok(()) => Some(path),
        Err(e) => {
            ses_obs::metrics::TRAIN_RECOVER_CKPT_IO_ERRORS.incr();
            ses_obs::info!("trainer: emergency checkpoint write failed ({e})");
            None
        }
    }
}

/// Trains `encoder` on `graph` with the given splits. Restores the
/// best-validation parameters before measuring test accuracy.
///
/// Errors only on a configured-and-exceeded leak budget, an unrecoverable
/// divergence (recovery enabled), or a checkpoint failure; the default
/// config cannot produce `Diverged` or `Checkpoint` errors.
pub fn train_node_classifier(
    encoder: &mut dyn Encoder,
    graph: &Graph,
    adj: &AdjView,
    splits: &Splits,
    config: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    let start = Stopwatch::start();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut opt = Adam::new(config.lr).with_weight_decay(config.weight_decay);
    let labels = Arc::new(graph.labels().to_vec());
    let train_idx = Arc::new(splits.train.clone());

    let mut recovery = RecoveryManager::new(config.recovery.clone(), config.fault);
    let mut epoch = 0usize;
    if let Some(path) = &config.resume_from {
        epoch = recovery.resume(path, &mut opt, &mut rng, &mut encoder.params_mut())?;
    }

    let mut best_val = -1.0f64;
    let mut best_snapshot: Option<Vec<Matrix>> = None;
    let mut since_best = 0usize;
    let mut loss_curve = Vec::with_capacity(config.epochs);
    let mut val_curve = Vec::with_capacity(config.epochs);
    let mut epochs_run = 0;

    while epoch < config.epochs {
        epochs_run = epoch + 1;
        let epoch_start = Stopwatch::start();
        let spans_before = ses_obs::spans::snapshot();
        recovery.begin_epoch(epoch);

        let mut tape = Tape::new();
        let x = tape.constant(graph.features().clone());
        let mut ctx = ForwardCtx {
            tape: &mut tape,
            adj,
            x,
            edge_mask: None,
            train: true,
            rng: &mut rng,
        };
        let out = {
            let _span = ses_obs::span!("trainer.forward");
            encoder.forward(&mut ctx)
        };
        let loss = tape.cross_entropy_masked(out.logits, labels.clone(), train_idx.clone());
        let loss_val = tape.value(loss).scalar_value();
        tape.backward(loss);

        if let Some(budget) = &config.leak_budget {
            match tape.check_leak_budget(loss, budget) {
                Ok((unused, after_loss)) => {
                    ses_obs::metrics::TRAIN_LEAK_UNUSED.add(unused as u64);
                    ses_obs::metrics::TRAIN_LEAK_AFTER_LOSS.add(after_loss as u64);
                }
                Err(detail) => {
                    // Failing here beats training a model whose disconnected
                    // parameters silently stay at init — but fail as a typed
                    // error with a final checkpoint, not a mid-epoch panic.
                    let checkpoint =
                        emergency_checkpoint(epoch, encoder, &opt, &rng, &config.recovery);
                    return Err(TrainError::LeakBudget {
                        epoch,
                        detail,
                        checkpoint,
                    });
                }
            }
        }

        let mut grads: Vec<Option<Matrix>> = out
            .param_vars
            .iter()
            .map(|&v| tape.grad(v).cloned())
            .collect();
        let mut params = encoder.params_mut();
        match recovery.judge(epoch, loss_val, &mut grads, &mut opt, &mut rng, &mut params) {
            Verdict::Healthy => {}
            Verdict::Rewound { resume_after } => {
                // Re-run everything after the checkpointed epoch; the
                // rolled-back curve entries get recomputed.
                epoch = resume_after + 1;
                loss_curve.truncate(epoch);
                val_curve.truncate(epoch);
                continue;
            }
            Verdict::GaveUp { reason, .. } => {
                return Err(TrainError::Diverged {
                    epoch,
                    reason,
                    retries_used: recovery.retries_used(),
                    checkpoint: config
                        .recovery
                        .checkpoint_path
                        .clone()
                        .filter(|p| p.exists()),
                });
            }
        }
        apply_gradients(&mut opt, &mut params, &grads);
        recovery.commit(epoch, &opt, &rng, &params)?;

        // validation
        let _eval_span = ses_obs::span!("trainer.eval");
        let pred = predict(encoder, adj, graph.features(), None).classes();
        drop(_eval_span);
        let val_acc = if splits.val.is_empty() {
            accuracy(&pred, graph.labels(), &splits.train)
        } else {
            accuracy(&pred, graph.labels(), &splits.val)
        };
        loss_curve.push(loss_val);
        val_curve.push(val_acc);

        ses_obs::metrics::TRAIN_EPOCH_NS.record(epoch_start.elapsed_ns());

        if ses_obs::sink::active() {
            ses_obs::Record::new("epoch")
                .str("phase", "backbone")
                .str("model", encoder.name())
                .int("epoch", epoch as i64)
                .num("loss", f64::from(loss_val))
                .num("val_acc", val_acc)
                .num("epoch_ms", epoch_start.elapsed().as_secs_f64() * 1e3)
                .span_breakdown("kernels_ms", &ses_obs::spans::delta_since(&spans_before))
                .emit();
        }

        if val_acc > best_val {
            best_val = val_acc;
            best_snapshot = Some(encoder.param_values());
            since_best = 0;
        } else {
            since_best += 1;
            if config.patience > 0 && since_best >= config.patience {
                break;
            }
        }
        epoch += 1;
    }

    if let Some(snap) = &best_snapshot {
        encoder.restore(snap);
    }
    let pred = predict(encoder, adj, graph.features(), None).classes();
    let test_acc = if splits.test.is_empty() {
        best_val
    } else {
        accuracy(&pred, graph.labels(), &splits.test)
    };
    let train_acc = accuracy(&pred, graph.labels(), &splits.train);

    Ok(TrainReport {
        test_acc,
        val_acc: best_val,
        train_acc,
        epochs_run,
        train_time: start.elapsed(),
        loss_curve,
        val_curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::Gcn;
    use ses_data::{realworld, Profile};
    use ses_resilience::FaultKind;

    #[test]
    fn gcn_learns_planted_partition() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let adj = AdjView::of_graph(g);
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let mut gcn = Gcn::new(g.n_features(), 16, g.n_classes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 60,
            patience: 0,
            ..Default::default()
        };
        let report = train_node_classifier(&mut gcn, g, &adj, &splits, &cfg).expect("train");
        assert!(
            report.test_acc > 0.85,
            "GCN should solve a strong 2-block SBM, got {}",
            report.test_acc
        );
        assert_eq!(report.loss_curve.len(), 60);
        // loss should broadly decrease
        let first = report.loss_curve[0];
        let last = *report.loss_curve.last().unwrap();
        assert!(last < first, "loss must drop: {first} -> {last}");
    }

    /// A GCN that records one extra trainable leaf per forward pass and
    /// never consumes it — the exact silent-disconnection failure the leak
    /// budget exists to catch.
    struct LeakyGcn(Gcn);

    impl Encoder for LeakyGcn {
        fn forward(&self, ctx: &mut ForwardCtx<'_>) -> crate::encoder::EncoderOutput {
            let out = self.0.forward(ctx);
            let _orphan = ctx.tape.leaf(Matrix::zeros(3, 3));
            out
        }
        fn params_mut(&mut self) -> Vec<&mut ses_tensor::Param> {
            self.0.params_mut()
        }
        fn param_values(&self) -> Vec<Matrix> {
            self.0.param_values()
        }
        fn restore(&mut self, snapshot: &[Matrix]) {
            self.0.restore(snapshot);
        }
        fn hidden_dim(&self) -> usize {
            self.0.hidden_dim()
        }
        fn out_dim(&self) -> usize {
            self.0.out_dim()
        }
        fn name(&self) -> &'static str {
            "LeakyGCN"
        }
    }

    #[test]
    fn zero_leak_budget_accepts_fully_wired_model() {
        let mut rng = StdRng::seed_from_u64(21);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let adj = AdjView::of_graph(g);
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let mut gcn = Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 2,
            patience: 0,
            leak_budget: Some(LeakBudget::zero()),
            ..Default::default()
        };
        let report = train_node_classifier(&mut gcn, g, &adj, &splits, &cfg).expect("train");
        assert_eq!(report.epochs_run, 2);
    }

    #[test]
    fn zero_leak_budget_fails_fast_on_disconnected_param() {
        let mut rng = StdRng::seed_from_u64(22);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let adj = AdjView::of_graph(g);
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let mut leaky = LeakyGcn(Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng));
        let cfg = TrainConfig {
            epochs: 2,
            patience: 0,
            leak_budget: Some(LeakBudget::zero()),
            ..Default::default()
        };
        let err = train_node_classifier(&mut leaky, g, &adj, &splits, &cfg)
            .expect_err("disconnected param must be a typed error");
        match &err {
            TrainError::LeakBudget {
                epoch, checkpoint, ..
            } => {
                assert_eq!(*epoch, 0, "caught on the very first epoch");
                assert!(checkpoint.is_none(), "no checkpoint path configured");
            }
            other => panic!("expected LeakBudget error, got {other}"),
        }
        assert!(
            err.to_string().contains("leak budget exceeded"),
            "stable message: {err}"
        );
    }

    #[test]
    fn leak_budget_error_carries_final_checkpoint_when_path_configured() {
        let mut rng = StdRng::seed_from_u64(24);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let adj = AdjView::of_graph(g);
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let mut leaky = LeakyGcn(Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng));
        let dir = std::env::temp_dir().join("ses-gnn-test-leak-ckpt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("final.ckpt");
        std::fs::remove_file(&path).ok();
        let cfg = TrainConfig {
            epochs: 2,
            patience: 0,
            leak_budget: Some(LeakBudget::zero()),
            recovery: RecoveryPolicy {
                checkpoint_path: Some(path.clone()),
                ..RecoveryPolicy::disabled()
            },
            ..Default::default()
        };
        let err = train_node_classifier(&mut leaky, g, &adj, &splits, &cfg).expect_err("must fail");
        match err {
            TrainError::LeakBudget { checkpoint, .. } => {
                assert_eq!(checkpoint.as_deref(), Some(path.as_path()));
                let ckpt = TrainCheckpoint::read_from(&path).expect("final checkpoint loads");
                assert_eq!(ckpt.epoch, 0);
            }
            other => panic!("expected LeakBudget error, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn leaky_model_trains_when_budget_allows_it() {
        let mut rng = StdRng::seed_from_u64(23);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let adj = AdjView::of_graph(g);
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let mut leaky = LeakyGcn(Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng));
        let cfg = TrainConfig {
            epochs: 2,
            patience: 0,
            leak_budget: Some(LeakBudget {
                max_unused: 1,
                max_after_loss: 0,
            }),
            ..Default::default()
        };
        let report = train_node_classifier(&mut leaky, g, &adj, &splits, &cfg).expect("train");
        assert_eq!(report.epochs_run, 2);
    }

    #[test]
    fn early_stopping_triggers() {
        let mut rng = StdRng::seed_from_u64(12);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let g = &d.graph;
        let adj = AdjView::of_graph(g);
        let splits = Splits::classification(g.n_nodes(), &mut rng);
        let mut gcn = Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 500,
            patience: 5,
            ..Default::default()
        };
        let report = train_node_classifier(&mut gcn, g, &adj, &splits, &cfg).expect("train");
        assert!(report.epochs_run < 500, "patience should stop early");
    }

    fn fault_test_setup(seed: u64) -> (ses_data::Dataset, AdjView, Splits, Gcn) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let adj = AdjView::of_graph(&d.graph);
        let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
        let gcn = Gcn::new(d.graph.n_features(), 8, d.graph.n_classes(), &mut rng);
        (d, adj, splits, gcn)
    }

    #[test]
    fn nan_grad_fault_recovers_with_rollback_and_matches_budgeted_retries() {
        let _obs = ses_obs::force_enabled(true);
        let rollbacks_before = ses_obs::metrics::TRAIN_RECOVER_ROLLBACKS.get();
        let detected_before = ses_obs::metrics::TRAIN_RECOVER_DETECTED.get();
        let (d, adj, splits, mut gcn) = fault_test_setup(31);
        let cfg = TrainConfig {
            epochs: 8,
            patience: 0,
            recovery: RecoveryPolicy::standard(),
            fault: Some(FaultSpec {
                kind: FaultKind::NanGrad,
                epoch: 3,
                seed: 7,
            }),
            ..Default::default()
        };
        let report =
            train_node_classifier(&mut gcn, &d.graph, &adj, &splits, &cfg).expect("recovers");
        assert_eq!(report.loss_curve.len(), 8, "full curve despite the fault");
        assert!(report.loss_curve.iter().all(|l| l.is_finite()));
        assert!(ses_obs::metrics::TRAIN_RECOVER_ROLLBACKS.get() > rollbacks_before);
        assert!(ses_obs::metrics::TRAIN_RECOVER_DETECTED.get() > detected_before);
    }

    #[test]
    fn nan_grad_fault_is_fatal_with_recovery_disabled_but_sentinel_on() {
        // detect on, zero retries: the sentinel sees the NaN and the run
        // aborts with a typed error instead of stepping on garbage.
        let (d, adj, splits, mut gcn) = fault_test_setup(32);
        let cfg = TrainConfig {
            epochs: 8,
            patience: 0,
            recovery: RecoveryPolicy {
                max_retries: 0,
                ..RecoveryPolicy::standard()
            },
            fault: Some(FaultSpec {
                kind: FaultKind::NanGrad,
                epoch: 2,
                seed: 7,
            }),
            ..Default::default()
        };
        let err = train_node_classifier(&mut gcn, &d.graph, &adj, &splits, &cfg)
            .expect_err("zero retries must be fatal");
        match err {
            TrainError::Diverged { epoch, .. } => assert_eq!(epoch, 2),
            other => panic!("expected Diverged, got {other}"),
        }
    }

    #[test]
    fn recovered_run_matches_clean_run_after_rollback() {
        // The NaN fault at epoch 3 rolls back to the epoch-2 checkpoint and
        // re-runs; because rollback restores params, Adam state, and the
        // RNG stream, the final model must be bit-identical to a clean run.
        let (d, adj, splits, mut clean) = fault_test_setup(33);
        let mut faulty = Gcn::new(
            d.graph.n_features(),
            8,
            d.graph.n_classes(),
            &mut StdRng::seed_from_u64(99),
        );
        // Same init for both models.
        faulty.restore(&clean.param_values());
        let base_cfg = TrainConfig {
            epochs: 6,
            patience: 0,
            recovery: RecoveryPolicy::standard(),
            ..Default::default()
        };
        let clean_report =
            train_node_classifier(&mut clean, &d.graph, &adj, &splits, &base_cfg).expect("clean");
        let cfg = TrainConfig {
            fault: Some(FaultSpec {
                kind: FaultKind::NanGrad,
                epoch: 3,
                seed: 1,
            }),
            ..base_cfg
        };
        let fault_report =
            train_node_classifier(&mut faulty, &d.graph, &adj, &splits, &cfg).expect("recovers");
        // The re-run epochs ran at a backed-off LR, so curves can differ
        // after the rollback point — but everything before it is identical
        // and both runs completed all epochs with finite losses.
        assert_eq!(clean_report.loss_curve[..3], fault_report.loss_curve[..3]);
        assert_eq!(fault_report.loss_curve.len(), 6);
        assert!(fault_report.loss_curve.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn worker_panic_fault_degrades_and_run_completes() {
        let _obs = ses_obs::force_enabled(true);
        let degraded_before = ses_obs::metrics::KERNEL_PANIC_DEGRADED.get();
        // Every kernel of this small model is below its crossover (the
        // feature product runs sparse), so lift the clamp for workers to
        // spawn at all; it changes scheduling, never bits.
        ses_tensor::par::set_thread_override(4);
        ses_tensor::par::dispatch::set_bypass(true);
        let (d, adj, splits, mut gcn) = fault_test_setup(34);
        let cfg = TrainConfig {
            epochs: 4,
            patience: 0,
            recovery: RecoveryPolicy::standard(),
            fault: Some(FaultSpec {
                kind: FaultKind::WorkerPanic,
                epoch: 1,
                seed: 0,
            }),
            ..Default::default()
        };
        let report =
            train_node_classifier(&mut gcn, &d.graph, &adj, &splits, &cfg).expect("degrades");
        ses_tensor::par::dispatch::set_bypass(false);
        ses_tensor::par::set_thread_override(0);
        assert_eq!(report.loss_curve.len(), 4);
        assert!(
            ses_obs::metrics::KERNEL_PANIC_DEGRADED.get() > degraded_before,
            "the injected panic must have degraded a kernel"
        );
    }

    #[test]
    fn ckpt_io_fault_is_tolerated_by_default_and_fatal_when_strict() {
        let _obs = ses_obs::force_enabled(true);
        let io_before = ses_obs::metrics::TRAIN_RECOVER_CKPT_IO_ERRORS.get();
        let dir = std::env::temp_dir().join("ses-gnn-test-ckpt-io");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("train.ckpt");
        let (d, adj, splits, mut gcn) = fault_test_setup(35);
        let fault = Some(FaultSpec {
            kind: FaultKind::CkptIo,
            epoch: 1,
            seed: 0,
        });
        let cfg = TrainConfig {
            epochs: 3,
            patience: 0,
            recovery: RecoveryPolicy {
                checkpoint_path: Some(path.clone()),
                ..RecoveryPolicy::standard()
            },
            fault,
            ..Default::default()
        };
        let report =
            train_node_classifier(&mut gcn, &d.graph, &adj, &splits, &cfg).expect("tolerant");
        assert_eq!(report.loss_curve.len(), 3);
        assert!(ses_obs::metrics::TRAIN_RECOVER_CKPT_IO_ERRORS.get() > io_before);

        let (d2, adj2, splits2, mut gcn2) = fault_test_setup(36);
        let strict_cfg = TrainConfig {
            epochs: 3,
            patience: 0,
            recovery: RecoveryPolicy {
                checkpoint_path: Some(path.clone()),
                strict_checkpoints: true,
                ..RecoveryPolicy::standard()
            },
            fault,
            ..Default::default()
        };
        let err = train_node_classifier(&mut gcn2, &d2.graph, &adj2, &splits2, &strict_cfg)
            .expect_err("strict mode must abort on the injected IO error");
        assert!(matches!(err, TrainError::Checkpoint(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_from_checkpoint_reproduces_uninterrupted_run_bit_identically() {
        let dir = std::env::temp_dir().join("ses-gnn-test-resume");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("resume.ckpt");
        std::fs::remove_file(&path).ok();

        let (d, adj, splits, mut full) = fault_test_setup(37);
        let mut interrupted = Gcn::new(
            d.graph.n_features(),
            8,
            d.graph.n_classes(),
            &mut StdRng::seed_from_u64(99),
        );
        interrupted.restore(&full.param_values());

        let full_cfg = TrainConfig {
            epochs: 8,
            patience: 0,
            ..Default::default()
        };
        let full_report =
            train_node_classifier(&mut full, &d.graph, &adj, &splits, &full_cfg).expect("full");

        // Part 1: stop after 4 epochs, persisting every checkpoint.
        let part1_cfg = TrainConfig {
            epochs: 4,
            patience: 0,
            recovery: RecoveryPolicy {
                detect: false,
                checkpoint_every: 1,
                checkpoint_path: Some(path.clone()),
                ..RecoveryPolicy::disabled()
            },
            ..Default::default()
        };
        let part1 = train_node_classifier(&mut interrupted, &d.graph, &adj, &splits, &part1_cfg)
            .expect("part 1");
        assert_eq!(part1.loss_curve.len(), 4);

        // Part 2: resume from disk and run the remaining epochs. The resumed
        // model must not rely on in-memory state: use a fresh encoder.
        let mut resumed = Gcn::new(
            d.graph.n_features(),
            8,
            d.graph.n_classes(),
            &mut StdRng::seed_from_u64(1234),
        );
        let part2_cfg = TrainConfig {
            epochs: 8,
            patience: 0,
            resume_from: Some(path.clone()),
            ..Default::default()
        };
        let part2 = train_node_classifier(&mut resumed, &d.graph, &adj, &splits, &part2_cfg)
            .expect("part 2");
        assert_eq!(part2.loss_curve.len(), 4, "epochs 4..8 only");

        let stitched: Vec<f32> = part1
            .loss_curve
            .iter()
            .chain(part2.loss_curve.iter())
            .copied()
            .collect();
        assert_eq!(
            stitched, full_report.loss_curve,
            "interrupted+resumed loss curve must equal the uninterrupted one bit-for-bit"
        );
        std::fs::remove_file(&path).ok();
    }
}
