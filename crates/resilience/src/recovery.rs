//! Divergence sentinel and rollback policy.
//!
//! [`RecoveryManager`] watches each epoch's loss and gradients for the three
//! divergence signatures full-batch GNN training actually exhibits — NaN/Inf
//! loss, non-finite gradients, and sudden loss spikes — and, when one fires,
//! rolls the model back to the last good [`TrainCheckpoint`] with the
//! learning rate backed off, up to a bounded retry budget. Every decision is
//! exported through the `trainer.recover.*` counters in `ses-obs`.
//!
//! The default policy is [`RecoveryPolicy::disabled`]: existing training
//! runs stay bit-identical unless a caller opts in (or a drill turns
//! recovery on). See `docs/ROBUSTNESS.md` for the full recovery semantics.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;

use rand::rngs::StdRng;
use ses_tensor::{Adam, Optimizer, Param};

use crate::checkpoint::{CheckpointError, TrainCheckpoint};

/// Epoch-level health verdict from [`RecoveryManager::observe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Loss and gradients look sane; training may step.
    Healthy,
    /// Divergence detected — the string says why (for logs and errors).
    Diverged(String),
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

/// Per-run sentinel state: the policy, the last good checkpoint, the retry
/// budget, and the recent-loss window for spike detection.
#[derive(Debug)]
pub struct RecoveryManager {
    policy: RecoveryPolicy,
    last_good: Option<TrainCheckpoint>,
    retries_used: u32,
    recent: VecDeque<f32>,
}

impl RecoveryManager {
    /// Fresh manager for one training run.
    pub fn new(policy: RecoveryPolicy) -> Self {
        Self {
            policy,
            last_good: None,
            retries_used: 0,
            recent: VecDeque::new(),
        }
    }

    /// The policy this manager runs under.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Rollbacks consumed so far.
    pub fn retries_used(&self) -> u32 {
        self.retries_used
    }

    /// The most recent good checkpoint, if any was recorded.
    pub fn last_good(&self) -> Option<&TrainCheckpoint> {
        self.last_good.as_ref()
    }

    /// Installs an externally loaded checkpoint (e.g. the one a resumed run
    /// started from) as the rollback target, without counting it as a new
    /// checkpoint or re-writing it to disk.
    pub fn seed_last_good(&mut self, ckpt: TrainCheckpoint) {
        self.last_good = Some(ckpt);
    }

    /// Should a checkpoint be captured after `epoch`?
    pub fn checkpoint_due(&self, epoch: u64) -> bool {
        self.policy.checkpoint_every != 0
            && epoch.is_multiple_of(self.policy.checkpoint_every as u64)
    }

    /// Classifies one epoch. `grads_finite` is the caller's all-finite scan
    /// of this epoch's gradients. Healthy losses feed the spike window;
    /// diverged epochs do not (a spike must not poison the baseline it is
    /// judged against).
    pub fn observe(&mut self, loss: f32, grads_finite: bool) -> Verdict {
        if !self.policy.detect {
            return Verdict::Healthy;
        }
        let verdict = if !loss.is_finite() {
            Verdict::Diverged(format!("non-finite loss {loss}"))
        } else if !grads_finite {
            Verdict::Diverged("non-finite gradient".to_string())
        } else if self.is_spike(loss) {
            Verdict::Diverged(format!(
                "loss spike: {loss} > {SPIKE_FACTOR} × recent median"
            ))
        } else {
            Verdict::Healthy
        };
        match &verdict {
            Verdict::Healthy => {
                self.recent.push_back(loss);
                while self.recent.len() > self.policy.spike_window {
                    self.recent.pop_front();
                }
            }
            Verdict::Diverged(reason) => {
                ses_obs::metrics::TRAIN_RECOVER_DETECTED.incr();
                ses_obs::info!("trainer.recover: divergence detected ({reason})");
            }
        }
        verdict
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
    pub fn record_checkpoint(
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
    pub fn try_rollback(
        &mut self,
        reason: &str,
        opt: &mut Adam,
        rng: &mut StdRng,
        params: &mut [&mut Param],
    ) -> Result<u64, RecoveryError> {
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
        Ok(ckpt.epoch)
    }
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
    use ses_tensor::Matrix;

    fn manager() -> RecoveryManager {
        RecoveryManager::new(RecoveryPolicy::standard())
    }

    #[test]
    fn disabled_policy_is_pass_through() {
        let mut m = RecoveryManager::new(RecoveryPolicy::disabled());
        assert_eq!(m.observe(f32::NAN, false), Verdict::Healthy);
        assert!(!m.checkpoint_due(0));
    }

    #[test]
    fn nan_loss_and_bad_grads_are_diverged() {
        let mut m = manager();
        assert!(matches!(m.observe(f32::NAN, true), Verdict::Diverged(_)));
        assert!(matches!(
            m.observe(f32::INFINITY, true),
            Verdict::Diverged(_)
        ));
        assert!(matches!(m.observe(0.5, false), Verdict::Diverged(_)));
        assert_eq!(m.observe(0.5, true), Verdict::Healthy);
    }

    #[test]
    fn spike_detection_needs_a_full_window_and_skips_diverged_losses() {
        let mut m = manager();
        // Window not yet full: even a huge loss is Healthy.
        assert_eq!(m.observe(1000.0, true), Verdict::Healthy);
        for _ in 0..8 {
            assert_eq!(m.observe(0.7, true), Verdict::Healthy);
        }
        // Median ~0.7, spike factor 10 → 7.0 is the line.
        assert_eq!(m.observe(6.9, true), Verdict::Healthy);
        assert!(matches!(m.observe(71.0, true), Verdict::Diverged(_)));
        // The spike must not have entered the window.
        assert!(matches!(m.observe(71.0, true), Verdict::Diverged(_)));
    }

    #[test]
    fn rollback_restores_and_backs_off_lr() {
        let mut m = manager();
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Param::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let ckpt = {
            let mut refs = vec![&mut p];
            TrainCheckpoint::capture(4, &opt, &rng, &refs.as_mut_slice()[..])
        };
        m.record_checkpoint(ckpt, false).expect("record");

        p.value = Matrix::from_vec(1, 2, vec![9.0, 9.0]);
        let resume = {
            let mut refs = vec![&mut p];
            m.try_rollback("test", &mut opt, &mut rng, refs.as_mut_slice())
                .expect("rollback")
        };
        assert_eq!(resume, 4);
        assert_eq!(p.value.as_slice(), &[1.0, 2.0]);
        assert!((opt.learning_rate() - 0.005).abs() < 1e-9);
        assert_eq!(m.retries_used(), 1);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut m = RecoveryManager::new(RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::standard()
        });
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Param::new(Matrix::zeros(1, 1));
        let ckpt = {
            let mut refs = vec![&mut p];
            TrainCheckpoint::capture(0, &opt, &rng, &refs.as_mut_slice()[..])
        };
        m.record_checkpoint(ckpt, false).expect("record");
        {
            let mut refs = vec![&mut p];
            m.try_rollback("one", &mut opt, &mut rng, refs.as_mut_slice())
                .expect("first retry in budget");
        }
        let mut refs = vec![&mut p];
        assert_eq!(
            m.try_rollback("two", &mut opt, &mut rng, refs.as_mut_slice()),
            Err(RecoveryError::RetriesExhausted)
        );
    }

    #[test]
    fn rollback_without_checkpoint_fails() {
        let mut m = manager();
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Param::new(Matrix::zeros(1, 1));
        let mut refs = vec![&mut p];
        assert_eq!(
            m.try_rollback("early", &mut opt, &mut rng, refs.as_mut_slice()),
            Err(RecoveryError::NoCheckpoint)
        );
    }

    #[test]
    fn io_fault_tolerant_vs_strict() {
        let dir = std::env::temp_dir().join("ses-resilience-test-recovery");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("r.ckpt");
        let opt = Adam::new(0.01);
        let rng = StdRng::seed_from_u64(1);
        let mut p = Param::new(Matrix::zeros(1, 1));
        let ckpt = {
            let mut refs = vec![&mut p];
            TrainCheckpoint::capture(0, &opt, &rng, &refs.as_mut_slice()[..])
        };

        let mut tolerant = RecoveryManager::new(RecoveryPolicy {
            checkpoint_path: Some(path.clone()),
            ..RecoveryPolicy::standard()
        });
        tolerant
            .record_checkpoint(ckpt.clone(), true)
            .expect("tolerant policy keeps the in-memory copy");
        assert!(tolerant.last_good().is_some());

        let mut strict = RecoveryManager::new(RecoveryPolicy {
            checkpoint_path: Some(path),
            strict_checkpoints: true,
            ..RecoveryPolicy::standard()
        });
        assert!(strict.record_checkpoint(ckpt, true).is_err());
    }

    #[test]
    fn rotation_keeps_last_n_and_latest_resolves_newest() {
        use crate::checkpoint::{latest_checkpoint, rotated_checkpoints};

        let dir = std::env::temp_dir().join("ses-resilience-test-rotation");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let base = dir.join("train.ckpt");

        let opt = Adam::new(0.01);
        let rng = StdRng::seed_from_u64(1);
        let mut p = Param::new(Matrix::zeros(1, 1));
        let mut m = RecoveryManager::new(RecoveryPolicy {
            checkpoint_path: Some(base.clone()),
            ..RecoveryPolicy::standard()
        });

        assert_eq!(latest_checkpoint(&base), None, "nothing on disk yet");
        for epoch in 0..6u64 {
            let ckpt = {
                let mut refs = vec![&mut p];
                TrainCheckpoint::capture(epoch, &opt, &rng, &refs.as_mut_slice()[..])
            };
            m.record_checkpoint(ckpt, false).expect("record");
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
        let m = RecoveryManager::new(RecoveryPolicy {
            checkpoint_every: 3,
            ..RecoveryPolicy::standard()
        });
        assert!(m.checkpoint_due(0));
        assert!(!m.checkpoint_due(1));
        assert!(m.checkpoint_due(3));
        let off = RecoveryManager::new(RecoveryPolicy::disabled());
        assert!(!off.checkpoint_due(0));
    }
}
