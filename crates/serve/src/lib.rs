//! ses-serve: a fault-isolated explanation-serving runtime.
//!
//! Training produces artifacts; *serving* answers requests against them —
//! and a request path has failure modes training never sees: tail-latency
//! blowups, overload, a poisoned cache entry, one request panicking a
//! worker that fifty other requests share. This crate is the forward-only
//! runtime that serves SES predictions *with* their explanations while
//! treating those failures as routine inputs:
//!
//! - **Deadlines** ([`Deadline`]): every request carries a budget,
//!   cooperatively checked at each stage boundary of the explain pipeline;
//!   a breach is a typed [`ServeError::DeadlineExceeded`] naming the stage
//!   that spent the budget.
//! - **Load shedding** ([`Server::submit`]): admission is a bounded queue;
//!   a full queue rejects the newest request (`serve.shed`) instead of
//!   letting latency grow without bound.
//! - **Isolation** ([`ses_resilience::run_request_isolated`]): a panicking
//!   request is caught at the request boundary, counted, retried with
//!   jittered exponential backoff ([`Backoff`]), and fed to the
//!   [`CircuitBreaker`] — it never takes the process down.
//! - **Caching** ([`ExplanationCache`]): a frozen artifact's explanation is
//!   a pure function of the node, so the cache is keyed by node id and
//!   checksummed. A request runs probe → extract → encode → mask → rank;
//!   a hit stops at the probe.
//! - **Graceful degradation** (the ladder, [`Tier`]): full SES explanation
//!   (the same [`ses_explain::explain_subgraph`] pipeline the offline
//!   explainer runs) → cached explanation → prediction-only. Every step
//!   down is counted (`serve.degraded.*`).
//!
//! The `SES_FAULT` grammar drills each net: `slow-stage@<stage>` stalls one
//! pipeline stage past the deadline, `panic@request-<n>` panics inside one
//! request, `cache-poison` corrupts the next cache write. With
//! `SES_RECOVERY=off` the same faults are fatal — the drill asserts the
//! nets are real by removing them.

pub mod artifact;
pub mod backoff;
pub mod breaker;
pub mod cache;
pub mod deadline;
pub mod error;
pub mod runtime;

pub use artifact::ModelArtifact;
pub use backoff::Backoff;
pub use breaker::{CircuitBreaker, Route};
pub use cache::{content_key, Explanation, ExplanationCache, Lookup};
pub use deadline::Deadline;
pub use error::ServeError;
pub use runtime::{Request, Response, ServeConfig, Server, Tier};
