//! Typed metrics registry: counters and gauges over relaxed atomics, plus
//! the workspace's well-known instruments (including the log-linear
//! latency histograms of [`crate::hist`]).
//!
//! Every instrument checks [`crate::enabled`] before touching its atomic,
//! so the disabled path is a load and a branch. The registry is static —
//! instruments are `static` items registered in the fixed arrays at the
//! bottom of this module so [`counters`]/[`log_histograms`] can enumerate
//! them for the summary table and the sink.

use std::sync::atomic::Ordering;

use crate::sync::{AtomicI64, AtomicU64};

use crate::hist::LogHistogram;

/// Monotone event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed); // ordering: pure event tally; nothing published
        }
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed) // ordering: monotone tally read; staleness is fine
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Test/bench helper: zeroes the counter.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed); // ordering: test/bench zeroing; nobody synchronises on it
    }
}

/// Last-value / high-watermark gauge.
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicI64::new(0),
        }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed); // ordering: last-write-wins telemetry value; no payload
        }
    }

    /// Raises the gauge to `v` if larger (high-watermark semantics).
    #[inline]
    pub fn record_max(&self, v: i64) {
        if crate::enabled() {
            self.value.fetch_max(v, Ordering::Relaxed); // ordering: high-watermark tally; no payload
        }
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed) // ordering: telemetry read; staleness is fine
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed); // ordering: test/bench zeroing; nobody synchronises on it
    }
}

// ---------------------------------------------------------------------------
// Well-known instruments. Incremented from ses-tensor / ses-gnn / ses-core /
// ses-explain; enumerated by the summary table via the registries below.
// ---------------------------------------------------------------------------

/// Autodiff tape nodes pushed (all ops, all tapes).
pub static TAPE_NODES: Counter = Counter::new("tape.nodes");
/// Backward sweeps executed.
pub static TAPE_BACKWARDS: Counter = Counter::new("tape.backwards");
/// Peak node count observed on any single tape.
pub static TAPE_PEAK_NODES: Gauge = Gauge::new("tape.peak_nodes");
/// High-water mark of bytes resident in any thread's scratch pool.
pub static SCRATCH_HIGHWATER: Gauge = Gauge::new("scratch.highwater");

/// Sparse×dense matmul kernel invocations (forward + adjoints).
pub static SPMM_CALLS: Counter = Counter::new("kernel.spmm.calls");
/// Nonzeros processed across all spmm-family calls.
pub static SPMM_NNZ: Counter = Counter::new("kernel.spmm.nnz");
/// Edge-softmax kernel invocations (forward + backward).
pub static EDGE_SOFTMAX_CALLS: Counter = Counter::new("kernel.edge_softmax.calls");
/// Dense matmul-family kernel invocations.
pub static MATMUL_CALLS: Counter = Counter::new("kernel.matmul.calls");
/// Fused multiply-adds across all dense matmul-family calls.
pub static MATMUL_FLOPS: Counter = Counter::new("kernel.matmul.fmas");
/// Multiply-adds across all fused pair-scorer calls (forward + backward).
pub static PAIR_SCORE_FMAS: Counter = Counter::new("kernel.pair_score.fmas");

/// Dense matrices allocated (zeroed/filled constructors).
pub static ALLOC_MATRICES: Counter = Counter::new("alloc.matrices");
/// Bytes allocated for dense matrix storage.
pub static ALLOC_BYTES: Counter = Counter::new("alloc.bytes");

/// Non-finite values caught by the tape sanitizer (before panicking).
pub static SAN_NONFINITE: Counter = Counter::new("sanitize.nonfinite");
/// Leaked nodes classified `AfterLoss` by the sanitizer.
pub static SAN_LEAK_AFTER_LOSS: Counter = Counter::new("sanitize.leak.after_loss");
/// Leaked nodes classified `Unused` (parameter not consumed this epoch).
pub static SAN_LEAK_UNUSED: Counter = Counter::new("sanitize.leak.unused");
/// Leaked nodes classified `Pruned` (wired in, but cut off from the loss).
pub static SAN_LEAK_PRUNED: Counter = Counter::new("sanitize.leak.pruned");

/// Nodes explained via the `ses-explain` trait harness.
pub static EXPLAIN_NODES: Counter = Counter::new("explain.nodes");

/// Static checks evaluated by `ses-verify` (tape-IR nodes + partition cases).
pub static VERIFY_CHECKS: Counter = Counter::new("verify.checks");
/// Errors raised by `ses-verify` engines.
pub static VERIFY_ERRORS: Counter = Counter::new("verify.errors");
/// Warnings raised by `ses-verify` engines.
pub static VERIFY_WARNINGS: Counter = Counter::new("verify.warnings");
/// `Unused` leaks observed by the trainer's per-epoch leak-budget check.
pub static TRAIN_LEAK_UNUSED: Counter = Counter::new("trainer.leak.unused");
/// `AfterLoss` leaks observed by the trainer's per-epoch leak-budget check.
pub static TRAIN_LEAK_AFTER_LOSS: Counter = Counter::new("trainer.leak.after_loss");
/// Divergence detections (non-finite loss/grads or loss spike) by the
/// training sentinel, whether or not recovery was attempted.
pub static TRAIN_RECOVER_DETECTED: Counter = Counter::new("trainer.recover.detected");
/// Rollbacks to the last-good checkpoint performed by the sentinel.
pub static TRAIN_RECOVER_ROLLBACKS: Counter = Counter::new("trainer.recover.rollbacks");
/// Checkpoints captured (in memory or on disk) by the recovery manager.
pub static TRAIN_RECOVER_CHECKPOINTS: Counter = Counter::new("trainer.recover.checkpoints");
/// Divergences the sentinel could *not* recover from (retry budget
/// exhausted, recovery disabled, or no checkpoint yet).
pub static TRAIN_RECOVER_GIVEUPS: Counter = Counter::new("trainer.recover.giveups");
/// Checkpoint disk writes that failed and fell back to the in-memory copy.
pub static TRAIN_RECOVER_CKPT_IO_ERRORS: Counter = Counter::new("trainer.recover.ckpt_io_errors");
/// Parallel ops degraded to the serial path after a worker panic.
pub static KERNEL_PANIC_DEGRADED: Counter = Counter::new("kernel.panic_degraded");
/// Bytes served from recycled scratch buffers instead of fresh allocations
/// (see `ses_tensor::scratch`): each lease satisfied from the pool adds the
/// buffer's byte size here, so `alloc.saved_bytes / (alloc.saved_bytes +
/// alloc.bytes)` is the arena hit rate.
pub static ALLOC_SAVED_BYTES: Counter = Counter::new("alloc.saved_bytes");
/// Divergences detected (and recovered) in the mask/explain phase of `fit`,
/// as opposed to the EPL phase covered by `trainer.recover.*`.
pub static TRAIN_RECOVER_MASK_PHASE: Counter = Counter::new("trainer.recover.mask_phase");

/// Rotated checkpoint files skipped by `latest_checkpoint` because they
/// failed validation (truncated, bit-flipped, bad magic); resume fell back
/// to the next-newest `keep_last_n` copy.
pub static TRAIN_RECOVER_CORRUPT_CKPT_SKIPPED: Counter =
    Counter::new("trainer.recover.corrupt_ckpt_skipped");

// -- ses-serve: explanation-serving runtime instruments ---------------------

/// Requests admitted into the serving queue (accepted, not yet completed).
pub static SERVE_ADMITTED: Counter = Counter::new("serve.admitted");
/// Requests rejected at admission because the bounded queue was full.
pub static SERVE_SHED: Counter = Counter::new("serve.shed");
/// Requests that completed with a response (any ladder tier).
pub static SERVE_COMPLETED: Counter = Counter::new("serve.completed");
/// Requests that returned a hard error (deadline with recovery off, etc.).
pub static SERVE_FAILED: Counter = Counter::new("serve.failed");
/// Request attempts whose panic was caught at the isolation boundary.
pub static SERVE_PANIC_ISOLATED: Counter = Counter::new("serve.panic_isolated");
/// Retries of a request attempt after a transient fault (jittered backoff).
pub static SERVE_RETRIES: Counter = Counter::new("serve.retry");
/// Deadline budget exhausted at a stage boundary.
pub static SERVE_DEADLINE_BREACH: Counter = Counter::new("serve.deadline.breach");
/// Circuit-breaker transitions into the open state.
pub static SERVE_BREAKER_OPEN: Counter = Counter::new("serve.breaker.open");
/// Explanation-cache hits (content-hash key matched a live entry).
pub static SERVE_CACHE_HIT: Counter = Counter::new("serve.cache.hit");
/// Explanation-cache misses.
pub static SERVE_CACHE_MISS: Counter = Counter::new("serve.cache.miss");
/// Explanation-cache entries evicted to respect the entry/byte caps.
pub static SERVE_CACHE_EVICT: Counter = Counter::new("serve.cache.evict");
/// Cache hits discarded because the entry failed its integrity checksum.
pub static SERVE_CACHE_POISONED: Counter = Counter::new("serve.cache.poisoned");
/// Requests answered from the explanation cache while degraded (ladder
/// step 2; a healthy-path cache hit counts only `serve.cache.hit`).
pub static SERVE_DEGRADED_CACHE: Counter = Counter::new("serve.degraded.cache");
/// Requests answered by the gradient-saliency fallback (ladder step 3).
pub static SERVE_DEGRADED_SALIENCY: Counter = Counter::new("serve.degraded.saliency");
/// Requests answered predict-only, no explanation (ladder step 4).
pub static SERVE_DEGRADED_PREDICT_ONLY: Counter = Counter::new("serve.degraded.predict_only");

/// Request-shaped traces opened via `ses_obs::trace::request`.
pub static TRACE_REQUESTS: Counter = Counter::new("trace.requests");
/// Child span events recorded into trace trees.
pub static TRACE_SPANS: Counter = Counter::new("trace.spans");
/// Trace events discarded because the bounded event buffer was full.
pub static TRACE_DROPPED: Counter = Counter::new("trace.dropped");

/// SLO budget breaches per explain stage / phase (see `ses_obs::slo`).
pub static SLO_BREACH_EXTRACT: Counter = Counter::new("slo.breach.extract");
/// See [`SLO_BREACH_EXTRACT`].
pub static SLO_BREACH_ENCODE: Counter = Counter::new("slo.breach.encode");
/// See [`SLO_BREACH_EXTRACT`].
pub static SLO_BREACH_MASK: Counter = Counter::new("slo.breach.mask");
/// See [`SLO_BREACH_EXTRACT`].
pub static SLO_BREACH_RANK: Counter = Counter::new("slo.breach.rank");
/// See [`SLO_BREACH_EXTRACT`].
pub static SLO_BREACH_EPOCH: Counter = Counter::new("slo.breach.epoch");
/// See [`SLO_BREACH_EXTRACT`].
pub static SLO_BREACH_REQUEST: Counter = Counter::new("slo.breach.request");
/// Breaches against budgets whose stage has no dedicated counter.
pub static SLO_BREACH_OTHER: Counter = Counter::new("slo.breach.other");

// -- SLO-grade latency distributions (log-linear; see `ses_obs::hist`) ------

/// Extract stage (ego-subgraph assembly) latency per explain request.
pub static EXPLAIN_STAGE_EXTRACT_NS: LogHistogram = LogHistogram::new("explain.stage.extract_ns");
/// Encode stage (relevance gathering) latency per explain request.
pub static EXPLAIN_STAGE_ENCODE_NS: LogHistogram = LogHistogram::new("explain.stage.encode_ns");
/// Mask stage (edge scoring) latency per explain request.
pub static EXPLAIN_STAGE_MASK_NS: LogHistogram = LogHistogram::new("explain.stage.mask_ns");
/// Rank stage (edge ordering) latency per explain request.
pub static EXPLAIN_STAGE_RANK_NS: LogHistogram = LogHistogram::new("explain.stage.rank_ns");
/// End-to-end per-node explain request latency.
pub static EXPLAIN_REQUEST_NS: LogHistogram = LogHistogram::new("explain.request_ns");
/// Training epoch wall-clock latency (backbone and explain phases).
pub static TRAIN_EPOCH_NS: LogHistogram = LogHistogram::new("trainer.epoch_ns");
/// End-to-end serving-request latency (admission to response, all tiers).
pub static SERVE_REQUEST_NS: LogHistogram = LogHistogram::new("serve.request_ns");

static ALL_COUNTERS: [&Counter; 54] = [
    &TAPE_NODES,
    &TAPE_BACKWARDS,
    &SPMM_CALLS,
    &SPMM_NNZ,
    &EDGE_SOFTMAX_CALLS,
    &MATMUL_CALLS,
    &MATMUL_FLOPS,
    &PAIR_SCORE_FMAS,
    &ALLOC_MATRICES,
    &ALLOC_BYTES,
    &SAN_NONFINITE,
    &SAN_LEAK_AFTER_LOSS,
    &SAN_LEAK_UNUSED,
    &SAN_LEAK_PRUNED,
    &EXPLAIN_NODES,
    &VERIFY_CHECKS,
    &VERIFY_ERRORS,
    &VERIFY_WARNINGS,
    &TRAIN_LEAK_UNUSED,
    &TRAIN_LEAK_AFTER_LOSS,
    &TRAIN_RECOVER_DETECTED,
    &TRAIN_RECOVER_ROLLBACKS,
    &TRAIN_RECOVER_CHECKPOINTS,
    &TRAIN_RECOVER_GIVEUPS,
    &TRAIN_RECOVER_CKPT_IO_ERRORS,
    &KERNEL_PANIC_DEGRADED,
    &ALLOC_SAVED_BYTES,
    &TRAIN_RECOVER_MASK_PHASE,
    &TRACE_REQUESTS,
    &TRACE_SPANS,
    &TRACE_DROPPED,
    &SLO_BREACH_EXTRACT,
    &SLO_BREACH_ENCODE,
    &SLO_BREACH_MASK,
    &SLO_BREACH_RANK,
    &SLO_BREACH_EPOCH,
    &SLO_BREACH_REQUEST,
    &SLO_BREACH_OTHER,
    &TRAIN_RECOVER_CORRUPT_CKPT_SKIPPED,
    &SERVE_ADMITTED,
    &SERVE_SHED,
    &SERVE_COMPLETED,
    &SERVE_FAILED,
    &SERVE_PANIC_ISOLATED,
    &SERVE_RETRIES,
    &SERVE_DEADLINE_BREACH,
    &SERVE_BREAKER_OPEN,
    &SERVE_CACHE_HIT,
    &SERVE_CACHE_MISS,
    &SERVE_CACHE_EVICT,
    &SERVE_CACHE_POISONED,
    &SERVE_DEGRADED_CACHE,
    &SERVE_DEGRADED_SALIENCY,
    &SERVE_DEGRADED_PREDICT_ONLY,
];
static ALL_GAUGES: [&Gauge; 2] = [&TAPE_PEAK_NODES, &SCRATCH_HIGHWATER];
static ALL_LOG_HISTOGRAMS: [&LogHistogram; 7] = [
    &EXPLAIN_STAGE_EXTRACT_NS,
    &EXPLAIN_STAGE_ENCODE_NS,
    &EXPLAIN_STAGE_MASK_NS,
    &EXPLAIN_STAGE_RANK_NS,
    &EXPLAIN_REQUEST_NS,
    &TRAIN_EPOCH_NS,
    &SERVE_REQUEST_NS,
];

/// All well-known counters, for the summary table and end-of-run records.
pub fn counters() -> &'static [&'static Counter] {
    &ALL_COUNTERS
}

/// All well-known gauges.
pub fn gauges() -> &'static [&'static Gauge] {
    &ALL_GAUGES
}

/// All well-known log-linear histograms (SLO-grade latency instruments).
pub fn log_histograms() -> &'static [&'static LogHistogram] {
    &ALL_LOG_HISTOGRAMS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instruments_stay_zero() {
        let _obs = crate::force_enabled(false);
        static C: Counter = Counter::new("test.counter");
        static G: Gauge = Gauge::new("test.gauge");
        C.reset();
        C.add(5);
        G.set(9);
        assert_eq!(C.get(), 0);
        assert_eq!(G.get(), 0);
    }

    #[test]
    fn counter_accumulates_across_threads() {
        let _obs = crate::force_enabled(true);
        static C: Counter = Counter::new("test.mt_counter");
        C.reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        C.incr();
                    }
                });
            }
        });
        assert_eq!(C.get(), 4000);
    }
}
