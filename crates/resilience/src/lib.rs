//! Fault tolerance for SES training.
//!
//! Three cooperating pieces, all opt-in and all deterministic:
//!
//! * [`checkpoint`] — a zero-dependency binary snapshot of everything a
//!   full-batch training loop needs to resume bit-identically (parameters,
//!   Adam moments and step counter, learning rate, RNG state, epoch),
//!   written via temp-file + atomic rename and guarded by a checksum.
//! * [`recovery`] — the per-epoch recovery protocol all three training
//!   loops run: a divergence sentinel (NaN/Inf loss, non-finite gradients,
//!   loss spikes) that rolls back to the last good checkpoint with LR
//!   backoff under a bounded retry budget, the optimiser step, checkpoint
//!   cadence and the run's fault schedule, exporting `trainer.recover.*`
//!   counters through `ses-obs`.
//! * [`fault`] — a seeded fault-injection harness (`SES_FAULT=<spec>`)
//!   that deterministically produces NaN gradients, parallel-worker panics,
//!   and checkpoint IO errors at chosen epochs, so tests and ci.sh can
//!   prove every recovery path actually fires.
//!
//! A fourth piece, [`isolate`], is the request-level panic boundary for the
//! serving runtime: one poisoned request degrades down the ladder instead of
//! killing the process. The kernel-level analogue — panic-isolated parallel
//! kernels — lives in `ses_tensor::par::run_isolated`, because the
//! degradation decision has to sit where the threads are spawned; this
//! crate's fault harness drives both.
//!
//! See `docs/ROBUSTNESS.md` for the checkpoint format, the fault-spec
//! grammar, recovery semantics, and the degradation matrix.

pub mod checkpoint;
pub mod fault;
pub mod isolate;
pub mod recovery;

pub use checkpoint::{
    latest_checkpoint, rotated_checkpoints, rotated_path, CheckpointError, ParamState,
    TrainCheckpoint,
};
pub use fault::{FaultKind, FaultSpec, ServeStage};
pub use isolate::run_request_isolated;
pub use recovery::{apply_gradients, RecoveryError, RecoveryManager, RecoveryPolicy, Verdict};
