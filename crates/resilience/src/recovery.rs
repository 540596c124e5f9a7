//! The per-epoch recovery protocol every training loop runs.
//!
//! [`RecoveryManager`] owns one run's recovery policy and fault schedule.
//! A loop calls it at three points per epoch:
//!
//! 1. [`RecoveryManager::begin_epoch`] before the forward pass (arms a
//!    scheduled worker panic);
//! 2. [`RecoveryManager::judge`] after backward: injects a scheduled NaN,
//!    runs the divergence sentinel (NaN/Inf loss, non-finite gradients,
//!    loss spikes) and, on a divergence, rolls parameters, optimiser and
//!    RNG back to the last good [`TrainCheckpoint`] with the learning rate
//!    backed off, up to a bounded retry budget;
//! 3. [`RecoveryManager::commit`] after the optimiser step
//!    ([`apply_gradients`]): takes the checkpoint when one is due, with a
//!    scheduled `ckpt-io` failure.
//!
//! Every decision is exported through the `trainer.recover.*` counters in
//! `ses-obs`. The default policy is [`RecoveryPolicy::disabled`]: existing
//! training runs stay bit-identical unless a caller opts in (or a drill
//! turns recovery on). See `docs/ROBUSTNESS.md` for the full recovery
//! semantics.

use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use ses_tensor::{Adam, Matrix, Optimizer, Param};

use crate::checkpoint::{CheckpointError, TrainCheckpoint};
use crate::fault::{self, FaultKind, FaultSpec};

/// What [`RecoveryManager::judge`] decided about one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Loss and gradients look sane: step the optimiser and commit.
    Healthy,
    /// The epoch diverged and the run was rolled back: parameters,
    /// optimiser and RNG are as they were after epoch `resume_after`, so
    /// the loop drops its records past that epoch and re-runs from
    /// `resume_after + 1`.
    Rewound {
        /// Epoch of the checkpoint the run was rolled back to.
        resume_after: usize,
    },
    /// The epoch diverged and recovery could not bring the run back.
    GaveUp {
        /// What the sentinel saw.
        reason: String,
        /// Why no rollback happened.
        error: RecoveryError,
    },
}

/// Why a rollback could not happen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// Detection is off; the caller should surface the divergence directly.
    Disabled,
    /// The retry budget is spent.
    RetriesExhausted,
    /// Divergence fired before any checkpoint existed.
    NoCheckpoint,
    /// The last-good checkpoint refused to restore (shape drift — a bug).
    Restore(CheckpointError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Disabled => write!(f, "recovery disabled"),
            RecoveryError::RetriesExhausted => write!(f, "retry budget exhausted"),
            RecoveryError::NoCheckpoint => write!(f, "no checkpoint to roll back to"),
            RecoveryError::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Multiplier applied to the checkpointed LR per rollback
/// (`lr × LR_BACKOFF^retries`).
const LR_BACKOFF: f32 = 0.5;
/// A loss more than `SPIKE_FACTOR ×` the recent median counts as divergence.
const SPIKE_FACTOR: f32 = 10.0;
/// Epoch-stamped rotation copies of the on-disk checkpoint kept next to
/// `checkpoint_path` (`train.ckpt.e00000004`, …). The base path always holds
/// the newest snapshot; rotation preserves a short history so one corrupted
/// write cannot destroy the only resume point.
const KEEP_LAST_N: usize = 3;

/// Tunable recovery behaviour for a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Run the divergence sentinel at all. When `false` the manager is a
    /// pass-through and training behaves exactly as before this layer
    /// existed.
    pub detect: bool,
    /// How many rollbacks a run may spend before giving up.
    pub max_retries: u32,
    /// How many recent healthy losses the spike median looks at.
    pub spike_window: usize,
    /// Take an in-memory checkpoint every N epochs (0 disables
    /// checkpointing entirely).
    pub checkpoint_every: usize,
    /// Where to persist checkpoints (every one taken); `None` keeps them in
    /// memory only.
    pub checkpoint_path: Option<PathBuf>,
    /// When `true`, a failed checkpoint *write* aborts training instead of
    /// degrading to in-memory-only.
    pub strict_checkpoints: bool,
}

impl RecoveryPolicy {
    /// No detection, no checkpoints: the exact pre-resilience behaviour.
    pub fn disabled() -> Self {
        Self {
            detect: false,
            max_retries: 0,
            spike_window: 8,
            checkpoint_every: 0,
            checkpoint_path: None,
            strict_checkpoints: false,
        }
    }

    /// The recommended production policy: detect, checkpoint every epoch in
    /// memory, three retries with LR halving.
    pub fn standard() -> Self {
        Self {
            detect: true,
            max_retries: 3,
            spike_window: 8,
            checkpoint_every: 1,
            checkpoint_path: None,
            strict_checkpoints: false,
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One training run's recovery state: the policy and fault schedule, the
/// last good checkpoint, the retry budget, and the recent-loss window for
/// spike detection.
#[derive(Debug)]
pub struct RecoveryManager {
    policy: RecoveryPolicy,
    /// The injected fault, if any; it fires at most once per run.
    fault: Option<FaultSpec>,
    fault_fired: bool,
    /// A worker panic armed by [`RecoveryManager::begin_epoch`] and not yet
    /// disarmed.
    panic_armed: bool,
    last_good: Option<TrainCheckpoint>,
    retries_used: u32,
    recent: VecDeque<f32>,
}

impl RecoveryManager {
    /// Fresh manager for one training run, injecting `fault` (tests and
    /// drills; `None` injects nothing).
    pub fn new(policy: RecoveryPolicy, fault: Option<FaultSpec>) -> Self {
        Self {
            policy,
            fault,
            fault_fired: false,
            panic_armed: false,
            last_good: None,
            retries_used: 0,
            recent: VecDeque::new(),
        }
    }

    /// Rollbacks consumed so far.
    pub fn retries_used(&self) -> u32 {
        self.retries_used
    }

    /// Resumes a run from the checkpoint at `path`: restores parameters,
    /// Adam state, LR and the training RNG, and installs the checkpoint as
    /// the rollback target until a fresh one lands. Returns the first epoch
    /// to run.
    pub fn resume(
        &mut self,
        path: &Path,
        opt: &mut Adam,
        rng: &mut StdRng,
        params: &mut [&mut Param],
    ) -> Result<usize, CheckpointError> {
        let ckpt = TrainCheckpoint::read_from(path)?;
        ckpt.restore_into(opt, rng, params)?;
        let first = ckpt.epoch as usize + 1;
        ses_obs::info!("trainer: resumed from {} at epoch {first}", path.display());
        self.last_good = Some(ckpt);
        Ok(first)
    }

    /// Starts `epoch`: arms the scheduled worker panic, which the epoch's
    /// first parallel kernel then fires.
    pub fn begin_epoch(&mut self, epoch: usize) {
        if self.fires(FaultKind::WorkerPanic, epoch) {
            ses_tensor::par::arm_worker_panic(0);
            self.panic_armed = true;
        }
    }

    /// Judges `epoch` after its backward pass. Disarms a worker panic no
    /// parallel op consumed, injects the scheduled NaN into `grads` (the
    /// per-parameter gradients, `None` where the loss never reached), and
    /// runs the sentinel over `loss` and `grads`. On a divergence it rolls
    /// `params`, `opt` and `rng` back to the last good checkpoint.
    pub fn judge(
        &mut self,
        epoch: usize,
        loss: f32,
        grads: &mut [Option<Matrix>],
        opt: &mut Adam,
        rng: &mut StdRng,
        params: &mut [&mut Param],
    ) -> Verdict {
        self.disarm_worker_panic();
        if self.fires(FaultKind::NanGrad, epoch) {
            fault::corrupt_one_grad(grads, self.fault.map_or(0, |s| s.seed));
        }
        let Some(reason) = self.observe(loss, grads) else {
            return Verdict::Healthy;
        };
        match self.try_rollback(&reason, opt, rng, params) {
            Ok(resume_after) => Verdict::Rewound { resume_after },
            Err(error) => {
                ses_obs::info!(
                    "trainer.recover: giving up at epoch {epoch} after {reason}: {error}"
                );
                Verdict::GaveUp { reason, error }
            }
        }
    }

    /// Ends a stepped `epoch`: captures and records a checkpoint of
    /// `params`, `opt` and `rng` when one is due. Errs only when the write
    /// fails under [`RecoveryPolicy::strict_checkpoints`].
    pub fn commit(
        &mut self,
        epoch: usize,
        opt: &Adam,
        rng: &StdRng,
        params: &[&mut Param],
    ) -> Result<(), CheckpointError> {
        if !self.checkpoint_due(epoch) {
            return Ok(());
        }
        let inject_io = self.fires(FaultKind::CkptIo, epoch);
        let ckpt = TrainCheckpoint::capture(epoch as u64, opt, rng, params);
        self.record_checkpoint(ckpt, inject_io).inspect_err(|e| {
            ses_obs::info!(
                "trainer.recover: stopping at epoch {epoch}: checkpoint write failed: {e}"
            );
        })
    }

    /// The give-up reaction of a loop that stops instead of failing:
    /// restores the last good checkpoint into `params`, `opt` and `rng`, and
    /// returns its epoch. `None` when no checkpoint exists (or it no longer
    /// fits), leaving the live state as it is.
    pub fn restore_last_good(
        &self,
        opt: &mut Adam,
        rng: &mut StdRng,
        params: &mut [&mut Param],
    ) -> Option<usize> {
        let ckpt = self.last_good.as_ref()?;
        ckpt.restore_into(opt, rng, params).ok()?;
        Some(ckpt.epoch as usize)
    }

    /// Does the scheduled fault of `kind` fire at `epoch`? Marks it fired.
    fn fires(&mut self, kind: FaultKind, epoch: usize) -> bool {
        let due = !self.fault_fired
            && self
                .fault
                .is_some_and(|s| s.kind == kind && s.fires_at(epoch as u64));
        self.fault_fired |= due;
        due
    }

    fn disarm_worker_panic(&mut self) {
        if std::mem::take(&mut self.panic_armed) {
            ses_tensor::par::disarm_worker_panic();
        }
    }

    /// Should a checkpoint be captured after `epoch`?
    fn checkpoint_due(&self, epoch: usize) -> bool {
        self.policy.checkpoint_every != 0 && epoch.is_multiple_of(self.policy.checkpoint_every)
    }

    /// The sentinel: the reason `loss` and `grads` count as a divergence,
    /// or `None`. Healthy losses feed the spike window; diverged epochs do
    /// not (a spike must not poison the baseline it is judged against).
    fn observe(&mut self, loss: f32, grads: &[Option<Matrix>]) -> Option<String> {
        if !self.policy.detect {
            return None;
        }
        let grads_finite = grads
            .iter()
            .flatten()
            .all(|g| g.as_slice().iter().all(|v| v.is_finite()));
        let reason = if !loss.is_finite() {
            format!("non-finite loss {loss}")
        } else if !grads_finite {
            "non-finite gradient".to_string()
        } else if self.is_spike(loss) {
            format!("loss spike: {loss} > {SPIKE_FACTOR} × recent median")
        } else {
            self.recent.push_back(loss);
            while self.recent.len() > self.policy.spike_window {
                self.recent.pop_front();
            }
            return None;
        };
        ses_obs::metrics::TRAIN_RECOVER_DETECTED.incr();
        ses_obs::info!("trainer.recover: divergence detected ({reason})");
        Some(reason)
    }

    fn is_spike(&self, loss: f32) -> bool {
        if self.recent.len() < self.policy.spike_window {
            return false;
        }
        let mut sorted: Vec<f32> = self.recent.iter().copied().collect();
        sorted.sort_by(f32::total_cmp);
        let median = sorted[sorted.len() / 2].max(1e-6);
        loss > SPIKE_FACTOR * median
    }

    /// Records a good checkpoint: always kept in memory, and persisted to
    /// `checkpoint_path` when one is set. An IO failure (including the
    /// injected `ckpt-io` fault) degrades to in-memory-only under the
    /// default tolerant policy, or aborts under `strict_checkpoints`. A
    /// successful write is then rotated: an epoch-stamped copy lands next to
    /// the base path and stamped copies beyond the newest three
    /// (`KEEP_LAST_N`) are pruned.
    fn record_checkpoint(
        &mut self,
        ckpt: TrainCheckpoint,
        inject_io_fault: bool,
    ) -> Result<(), CheckpointError> {
        ses_obs::metrics::TRAIN_RECOVER_CHECKPOINTS.incr();
        if let Some(path) = &self.policy.checkpoint_path {
            match ckpt.write_atomic(path, inject_io_fault) {
                Ok(()) => rotate_checkpoints(path, ckpt.epoch),
                Err(e) => {
                    ses_obs::metrics::TRAIN_RECOVER_CKPT_IO_ERRORS.incr();
                    if self.policy.strict_checkpoints {
                        return Err(e);
                    }
                    ses_obs::info!(
                        "trainer.recover: checkpoint write failed, keeping in-memory copy ({e})"
                    );
                }
            }
        }
        self.last_good = Some(ckpt);
        Ok(())
    }

    /// Rolls training back to the last good checkpoint with the learning
    /// rate backed off, spending one retry. Returns the epoch training
    /// should resume *after* (i.e. the checkpoint's epoch). The spike window
    /// is cleared so the resumed run builds a fresh baseline.
    fn try_rollback(
        &mut self,
        reason: &str,
        opt: &mut Adam,
        rng: &mut StdRng,
        params: &mut [&mut Param],
    ) -> Result<usize, RecoveryError> {
        if !self.policy.detect {
            return Err(RecoveryError::Disabled);
        }
        if self.retries_used >= self.policy.max_retries {
            ses_obs::metrics::TRAIN_RECOVER_GIVEUPS.incr();
            return Err(RecoveryError::RetriesExhausted);
        }
        let Some(ckpt) = self.last_good.as_ref() else {
            ses_obs::metrics::TRAIN_RECOVER_GIVEUPS.incr();
            return Err(RecoveryError::NoCheckpoint);
        };
        ckpt.restore_into(opt, rng, params).map_err(|e| {
            ses_obs::metrics::TRAIN_RECOVER_GIVEUPS.incr();
            RecoveryError::Restore(e)
        })?;
        self.retries_used += 1;
        let new_lr = ckpt.lr * LR_BACKOFF.powi(self.retries_used as i32);
        opt.set_learning_rate(new_lr);
        self.recent.clear();
        ses_obs::metrics::TRAIN_RECOVER_ROLLBACKS.incr();
        ses_obs::info!(
            "trainer.recover: rolled back to epoch {} after {reason}; lr -> {new_lr} (retry {}/{})",
            ckpt.epoch,
            self.retries_used,
            self.policy.max_retries
        );
        Ok(ckpt.epoch as usize)
    }
}

impl Drop for RecoveryManager {
    /// A loop that leaves between `begin_epoch` and `judge` (an error
    /// return, or an epoch with nothing to optimise) must not leave its
    /// scheduled worker panic armed for whatever runs next on the thread.
    fn drop(&mut self) {
        self.disarm_worker_panic();
    }
}

/// The optimiser step every training loop takes between
/// [`RecoveryManager::judge`] and [`RecoveryManager::commit`]: one
/// `Adam::step` over the parameters whose gradient is present, in order.
/// `params[i]`'s gradient is `grads[i]`; an absent one (a parameter the
/// loss never reached) is skipped. One call advances Adam's step counter
/// once, whatever the parameter list spans.
pub fn apply_gradients(opt: &mut Adam, params: &mut [&mut Param], grads: &[Option<Matrix>]) {
    debug_assert_eq!(params.len(), grads.len());
    let _span = ses_obs::span!("trainer.step");
    let mut updates: Vec<(&mut Param, &Matrix)> = params
        .iter_mut()
        .zip(grads)
        .filter_map(|(p, g)| g.as_ref().map(|g| (&mut **p, g)))
        .collect();
    opt.step(&mut updates);
}

/// Best-effort rotation after a successful base-path write: stamp the fresh
/// file with its epoch (hard link where the filesystem allows, byte copy
/// otherwise) and prune stamped copies beyond the newest [`KEEP_LAST_N`].
/// Rotation failures are logged, never fatal — the base checkpoint already
/// landed, which is the part correctness depends on.
fn rotate_checkpoints(base: &std::path::Path, epoch: u64) {
    let stamped = crate::checkpoint::rotated_path(base, epoch);
    // A leftover from a rolled-back run may occupy this epoch's name;
    // hard_link refuses to overwrite, so clear it first.
    std::fs::remove_file(&stamped).ok();
    let linked =
        std::fs::hard_link(base, &stamped).or_else(|_| std::fs::copy(base, &stamped).map(|_| ()));
    if let Err(e) = linked {
        ses_obs::info!(
            "trainer.recover: checkpoint rotation failed at {} ({e})",
            stamped.display()
        );
        return;
    }
    let mut stamped_all = crate::checkpoint::rotated_checkpoints(base);
    if stamped_all.len() > KEEP_LAST_N {
        let cut = stamped_all.len() - KEEP_LAST_N;
        for (_, old) in stamped_all.drain(..cut) {
            std::fs::remove_file(&old).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// What a loop hands the manager each epoch: one 1 × 2 parameter, its
    /// optimiser and its RNG.
    struct Run {
        p: Param,
        opt: Adam,
        rng: StdRng,
    }

    impl Run {
        fn new() -> Self {
            Self {
                p: Param::new(Matrix::from_vec(1, 2, vec![1.0, 2.0])),
                opt: Adam::new(0.01),
                rng: StdRng::seed_from_u64(1),
            }
        }

        fn judge(
            &mut self,
            m: &mut RecoveryManager,
            epoch: usize,
            loss: f32,
            grad: f32,
        ) -> Verdict {
            let mut grads = vec![Some(Matrix::from_vec(1, 2, vec![grad, 0.5]))];
            m.judge(
                epoch,
                loss,
                &mut grads,
                &mut self.opt,
                &mut self.rng,
                &mut [&mut self.p],
            )
        }

        fn commit(&mut self, m: &mut RecoveryManager, epoch: usize) -> Result<(), CheckpointError> {
            m.commit(epoch, &self.opt, &self.rng, &[&mut self.p])
        }
    }

    fn manager(policy: RecoveryPolicy) -> RecoveryManager {
        RecoveryManager::new(policy, None)
    }

    fn gave_up(v: &Verdict) -> Option<(&str, &RecoveryError)> {
        match v {
            Verdict::GaveUp { reason, error } => Some((reason, error)),
            _ => None,
        }
    }

    fn last_good_epoch(m: &RecoveryManager) -> Option<u64> {
        m.last_good.as_ref().map(|c| c.epoch)
    }

    #[test]
    fn disabled_policy_is_pass_through() {
        let mut m = manager(RecoveryPolicy::disabled());
        let mut run = Run::new();
        assert_eq!(run.judge(&mut m, 0, f32::NAN, f32::NAN), Verdict::Healthy);
        run.commit(&mut m, 0).expect("nothing to write");
        assert_eq!(last_good_epoch(&m), None, "no checkpoint is ever due");
    }

    #[test]
    fn nan_loss_and_bad_grads_are_diverged() {
        let mut m = manager(RecoveryPolicy::standard());
        let mut run = Run::new();
        for (loss, grad, why) in [
            (f32::NAN, 0.1, "non-finite loss"),
            (f32::INFINITY, 0.1, "non-finite loss"),
            (0.5, f32::NAN, "non-finite gradient"),
        ] {
            let v = run.judge(&mut m, 0, loss, grad);
            let (reason, error) = gave_up(&v).expect("diverged");
            assert!(reason.starts_with(why), "{reason}");
            assert_eq!(
                *error,
                RecoveryError::NoCheckpoint,
                "nothing to roll back to"
            );
        }
        assert_eq!(run.judge(&mut m, 0, 0.5, 0.1), Verdict::Healthy);
    }

    #[test]
    fn spike_detection_needs_a_full_window_and_skips_diverged_losses() {
        let mut m = manager(RecoveryPolicy::standard());
        let mut run = Run::new();
        // Window not yet full: even a huge loss is Healthy.
        assert_eq!(run.judge(&mut m, 0, 1000.0, 0.1), Verdict::Healthy);
        for epoch in 1..9 {
            assert_eq!(run.judge(&mut m, epoch, 0.7, 0.1), Verdict::Healthy);
        }
        // Median ~0.7, spike factor 10 → 7.0 is the line.
        assert_eq!(run.judge(&mut m, 9, 6.9, 0.1), Verdict::Healthy);
        let v = run.judge(&mut m, 10, 71.0, 0.1);
        assert!(gave_up(&v).is_some_and(|(r, _)| r.starts_with("loss spike")));
        // The spike must not have entered the window.
        assert!(gave_up(&run.judge(&mut m, 10, 71.0, 0.1)).is_some());
    }

    #[test]
    fn rollback_restores_and_backs_off_lr() {
        let mut m = manager(RecoveryPolicy::standard());
        let mut run = Run::new();
        run.commit(&mut m, 4).expect("record");

        run.p.value = Matrix::from_vec(1, 2, vec![9.0, 9.0]);
        assert_eq!(
            run.judge(&mut m, 5, f32::NAN, 0.1),
            Verdict::Rewound { resume_after: 4 }
        );
        assert_eq!(run.p.value.as_slice(), &[1.0, 2.0]);
        assert!((run.opt.learning_rate() - 0.005).abs() < 1e-9);
        assert_eq!(m.retries_used(), 1);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut m = manager(RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::standard()
        });
        let mut run = Run::new();
        run.commit(&mut m, 0).expect("record");
        assert_eq!(
            run.judge(&mut m, 1, f32::NAN, 0.1),
            Verdict::Rewound { resume_after: 0 },
            "first retry in budget"
        );
        let v = run.judge(&mut m, 1, f32::NAN, 0.1);
        assert_eq!(
            gave_up(&v).map(|(_, e)| e),
            Some(&RecoveryError::RetriesExhausted)
        );
    }

    #[test]
    fn scheduled_nan_fires_once_and_the_rerun_is_healthy() {
        let nan_at_2 = FaultSpec::parse("nan-grad@2").expect("spec");
        let mut m = RecoveryManager::new(RecoveryPolicy::standard(), Some(nan_at_2));
        let mut run = Run::new();
        for epoch in 0..2 {
            assert_eq!(run.judge(&mut m, epoch, 0.7, 0.1), Verdict::Healthy);
            run.commit(&mut m, epoch).expect("record");
        }
        assert_eq!(
            run.judge(&mut m, 2, 0.7, 0.1),
            Verdict::Rewound { resume_after: 1 }
        );
        assert_eq!(run.judge(&mut m, 2, 0.7, 0.1), Verdict::Healthy);
    }

    #[test]
    fn apply_gradients_skips_absent_grads_in_one_adam_step() {
        let mut opt = Adam::new(0.1);
        let mut a = Param::new(Matrix::scalar(1.0));
        let mut b = Param::new(Matrix::scalar(1.0));
        let grads = [Some(Matrix::scalar(1.0)), None];
        apply_gradients(&mut opt, &mut [&mut a, &mut b], &grads);
        assert_eq!(opt.steps(), 1);
        assert!(a.value.scalar_value() < 1.0);
        assert_eq!(b.value.scalar_value(), 1.0);
    }

    #[test]
    fn io_fault_tolerant_vs_strict() {
        let dir = std::env::temp_dir().join("ses-resilience-test-recovery");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("r.ckpt");
        let io_at_0 = FaultSpec::parse("ckpt-io@0").expect("spec");
        let mut run = Run::new();

        let mut tolerant = RecoveryManager::new(
            RecoveryPolicy {
                checkpoint_path: Some(path.clone()),
                ..RecoveryPolicy::standard()
            },
            Some(io_at_0),
        );
        run.commit(&mut tolerant, 0)
            .expect("tolerant policy keeps the in-memory copy");
        assert_eq!(last_good_epoch(&tolerant), Some(0));

        let mut strict = RecoveryManager::new(
            RecoveryPolicy {
                checkpoint_path: Some(path),
                strict_checkpoints: true,
                ..RecoveryPolicy::standard()
            },
            Some(io_at_0),
        );
        assert!(run.commit(&mut strict, 0).is_err());
        assert_eq!(last_good_epoch(&strict), None);
        run.commit(&mut strict, 1).expect("the fault fires once");
    }

    #[test]
    fn rotation_keeps_last_n_and_latest_resolves_newest() {
        use crate::checkpoint::{latest_checkpoint, rotated_checkpoints};

        let dir = std::env::temp_dir().join("ses-resilience-test-rotation");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let base = dir.join("train.ckpt");

        let mut run = Run::new();
        let mut m = manager(RecoveryPolicy {
            checkpoint_path: Some(base.clone()),
            ..RecoveryPolicy::standard()
        });

        assert_eq!(latest_checkpoint(&base), None, "nothing on disk yet");
        for epoch in 0..6 {
            run.commit(&mut m, epoch).expect("record");
        }

        let stamped = rotated_checkpoints(&base);
        let epochs: Vec<u64> = stamped.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![3, 4, 5], "only the newest 3 survive pruning");
        assert!(base.exists(), "base path still holds the latest snapshot");

        let latest = latest_checkpoint(&base).expect("latest");
        assert_eq!(latest, stamped.last().unwrap().1);
        let back = TrainCheckpoint::read_from(&latest).expect("load");
        assert_eq!(back.epoch, 5);
        // The base file and the newest stamped copy are the same snapshot.
        assert_eq!(back, TrainCheckpoint::read_from(&base).expect("base"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_cadence() {
        let mut m = manager(RecoveryPolicy {
            checkpoint_every: 3,
            ..RecoveryPolicy::standard()
        });
        let mut run = Run::new();
        for (epoch, kept) in [(0, 0), (1, 0), (2, 0), (3, 3), (4, 3)] {
            run.commit(&mut m, epoch).expect("record");
            assert_eq!(last_good_epoch(&m), Some(kept), "after epoch {epoch}");
        }
    }
}
