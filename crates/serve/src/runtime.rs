//! The serving runtime: bounded admission, deadline-checked staged
//! explain, per-request panic isolation, and the graceful-degradation
//! ladder.
//!
//! One request flows through:
//!
//! ```text
//! submit ──bounded queue── run_next ──▶ process
//!   │ full queue: shed (serve.shed)       │
//!                                         ▼
//!                              breaker closed?──no──▶ degradation ladder
//!                                         │yes
//!                                         ▼
//!                    full pipeline (extract→encode→mask→rank),
//!                    deadline-checked at every stage boundary,
//!                    run inside the resilience panic boundary
//!                      │ panic: isolate → breaker → jittered retry
//!                      │ deadline breach: answer predict-only
//!                      ▼ retries exhausted
//!                             degradation ladder:
//!               cache hit → saliency fallback → predict-only
//! ```
//!
//! Every net has a counter (`serve.*`), every request is a trace, and the
//! injected `SES_FAULT` serve kinds (`slow-stage@<stage>`,
//! `panic@request-<n>`, `cache-poison`) drill each edge of the diagram.
//! With recovery disabled (`SES_RECOVERY=off` in the drill binary) the nets
//! are removed instead: panics propagate, breaches and poisoned cache
//! entries are hard errors.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ses_explain::stage::stage;
use ses_graph::Subgraph;
use ses_obs::metrics;
use ses_resilience::fault::{FaultSpec, ServeStage};
use ses_resilience::run_request_isolated;

use crate::artifact::ModelArtifact;
use crate::backoff::{self, Backoff};
use crate::breaker::{CircuitBreaker, Route};
use crate::cache::{content_key, Explanation, ExplanationCache, Lookup};
use crate::deadline::Deadline;
use crate::error::ServeError;

/// Serving policy knobs. `Default` is tuned for tests and drills (small
/// queue, generous deadline); production callers set their own.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded admission-queue capacity; a full queue sheds new requests.
    pub queue_capacity: usize,
    /// Default per-request deadline budget in nanoseconds.
    pub deadline_ns: u64,
    /// Retries of the full pipeline after an isolated panic.
    pub max_retries: u32,
    /// Consecutive full-path failures before the breaker opens.
    pub breaker_threshold: u64,
    /// Requests the breaker stays open for once tripped.
    pub breaker_cooldown: u64,
    /// Explanation-cache entry cap.
    pub cache_entries: usize,
    /// Explanation-cache payload byte cap.
    pub cache_bytes: usize,
    /// First retry backoff delay (pre-jitter), nanoseconds.
    pub backoff_base_ns: u64,
    /// Backoff cap, nanoseconds.
    pub backoff_max_ns: u64,
    /// Seed for backoff jitter.
    pub seed: u64,
    /// `false` removes every net (the `SES_RECOVERY=off` drill mode):
    /// panics propagate, deadline breaches and poisoned cache hits are
    /// hard errors.
    pub recovery: bool,
    /// Injected fault, if any (drills pass `ses_resilience::fault::from_env()`).
    pub fault: Option<FaultSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            deadline_ns: 250_000_000, // 250ms — generous for CI containers
            max_retries: 2,
            breaker_threshold: 3,
            breaker_cooldown: 8,
            cache_entries: 1024,
            cache_bytes: 16 << 20,
            backoff_base_ns: 100_000, // 0.1ms first retry
            backoff_max_ns: 5_000_000,
            seed: 0,
            recovery: true,
            fault: None,
        }
    }
}

/// Which rung of the ladder answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Freshly computed full SES explanation.
    Full,
    /// Served from the explanation cache.
    Cache,
    /// Gradient-saliency fallback table.
    Saliency,
    /// Prediction only, no explanation.
    PredictOnly,
}

/// An admitted request waiting in the queue.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Admission-order id (0-based); `panic@request-<n>` targets this.
    pub id: u64,
    /// The node to predict and explain.
    pub node: usize,
    /// Deadline budget for this request, nanoseconds.
    pub deadline_ns: u64,
}

/// A served response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's admission id.
    pub id: u64,
    /// The explained node.
    pub node: usize,
    /// Predicted class.
    pub prediction: usize,
    /// Which ladder rung produced the explanation.
    pub tier: Tier,
    /// True when the rung is lower than what a healthy request would have
    /// received (a healthy cache hit is *not* degraded).
    pub degraded: bool,
    /// Ranked explanation edges `(u, v, weight)`, descending by weight.
    /// Empty for [`Tier::PredictOnly`].
    pub edges: Explanation,
}

/// The forward-only serving runtime. Shared across worker threads (`&self`
/// everywhere; internal queue/cache/breaker handle their own locking).
pub struct Server {
    artifact: ModelArtifact,
    cfg: ServeConfig,
    cache: ExplanationCache,
    breaker: CircuitBreaker,
    queue: Mutex<VecDeque<Request>>,
    next_id: AtomicU64,
    backoff: Mutex<Backoff>,
}

impl Server {
    /// Builds a server over a frozen artifact. A configured `cache-poison`
    /// fault is armed here (it corrupts the *next* cache write).
    pub fn new(artifact: ModelArtifact, cfg: ServeConfig) -> Self {
        let cache = ExplanationCache::new(cfg.cache_entries, cfg.cache_bytes);
        if cfg.fault.is_some_and(|f| f.is_cache_poison()) {
            cache.arm_poison();
        }
        let breaker = CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown);
        let backoff = Backoff::new(cfg.seed, cfg.backoff_base_ns, cfg.backoff_max_ns);
        Self {
            artifact,
            cfg,
            cache,
            breaker,
            queue: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(0),
            backoff: Mutex::new(backoff),
        }
    }

    /// The served artifact (read-only).
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// The active config.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Admits a request with the default deadline, or sheds it when the
    /// queue is full. Returns the admission id.
    pub fn submit(&self, node: usize) -> Result<u64, ServeError> {
        self.submit_with_deadline(node, self.cfg.deadline_ns)
    }

    /// Admits a request with an explicit deadline budget. Reject-newest:
    /// a full queue sheds the *incoming* request (`serve.shed`) — queued
    /// work is never abandoned once accepted.
    pub fn submit_with_deadline(&self, node: usize, deadline_ns: u64) -> Result<u64, ServeError> {
        let mut q = self.lock_queue();
        if q.len() >= self.cfg.queue_capacity {
            metrics::SERVE_SHED.incr();
            return Err(ServeError::QueueFull {
                capacity: self.cfg.queue_capacity,
            });
        }
        // ordering: admission ids are a tally; queue mutex orders the pushes
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        metrics::SERVE_ADMITTED.incr();
        q.push_back(Request {
            id,
            node,
            deadline_ns,
        });
        Ok(id)
    }

    /// Pops and processes the oldest queued request. `None` when the queue
    /// is empty. Worker threads loop on this.
    pub fn run_next(&self) -> Option<(Request, Result<Response, ServeError>)> {
        let req = self.lock_queue().pop_front()?;
        Some((req, self.process(req)))
    }

    /// Convenience for serial callers: submit + immediately process. Only
    /// meaningful when no other worker is draining the queue.
    pub fn serve_one(&self, node: usize) -> Result<Response, ServeError> {
        self.submit(node)?;
        match self.run_next() {
            Some((_, result)) => result,
            // lint:allow(no-unwrap): the request pushed one line up is still queued
            None => unreachable!("queue cannot be empty after submit"),
        }
    }

    /// Queued (admitted, unprocessed) request count.
    pub fn queue_len(&self) -> usize {
        self.lock_queue().len()
    }

    /// Processes one request end to end: trace, deadline, breaker routing,
    /// isolation, ladder. This is the one place `serve.completed` /
    /// `serve.failed` and the request latency histogram move.
    pub fn process(&self, req: Request) -> Result<Response, ServeError> {
        let trace = ses_obs::trace::request("serve.request");
        let deadline = Deadline::start(req.deadline_ns);
        let result = self.process_inner(&req, &deadline);
        let ns = trace.elapsed_ns();
        metrics::SERVE_REQUEST_NS.record(ns);
        ses_obs::slo::global().observe("serve", ns);
        match &result {
            Ok(_) => metrics::SERVE_COMPLETED.incr(),
            Err(_) => metrics::SERVE_FAILED.incr(),
        }
        result
    }

    fn process_inner(&self, req: &Request, deadline: &Deadline) -> Result<Response, ServeError> {
        let prediction = self
            .artifact
            .prediction(req.node)
            .ok_or(ServeError::UnknownNode { node: req.node })?;

        if self.breaker.route() == Route::Degraded {
            return self.degraded_ladder(req, prediction, deadline);
        }

        let mut attempt: u32 = 0;
        loop {
            let outcome = if self.cfg.recovery {
                run_request_isolated(|| self.full_pipeline(req, attempt, deadline))
            } else {
                // Recovery off: no panic boundary — an injected panic kills
                // the process, which is exactly what the inverted drill
                // asserts.
                Ok(self.full_pipeline(req, attempt, deadline))
            };
            match outcome {
                Ok(Ok((tier, edges))) => {
                    self.breaker.record_success();
                    return Ok(Response {
                        id: req.id,
                        node: req.node,
                        prediction,
                        tier,
                        degraded: false,
                        edges,
                    });
                }
                Ok(Err(e @ ServeError::DeadlineExceeded { .. })) => {
                    // The budget is spent — retrying cannot help. Recovery
                    // answers what it still can (predict-only); without
                    // recovery the breach is the response.
                    return if self.cfg.recovery {
                        Ok(self.predict_only(req, prediction, true))
                    } else {
                        Err(e)
                    };
                }
                Ok(Err(e)) => return Err(e),
                Err(panic_msg) => {
                    metrics::SERVE_PANIC_ISOLATED.incr();
                    self.breaker.record_failure();
                    ses_obs::info!(
                        "serve: request {} attempt {attempt} panicked ({panic_msg}); isolated",
                        req.id
                    );
                    if attempt < self.cfg.max_retries && !deadline.expired() {
                        metrics::SERVE_RETRIES.incr();
                        self.lock_backoff().sleep(attempt);
                        attempt += 1;
                        continue;
                    }
                    return self.degraded_ladder(req, prediction, deadline);
                }
            }
        }
    }

    /// The instrumented full SES pipeline: extract → (cache probe) →
    /// encode → mask → rank, deadline-checked after every stage. Returns
    /// the tier ([`Tier::Full`] or a healthy [`Tier::Cache`] hit) with the
    /// ranked edges.
    fn full_pipeline(
        &self,
        req: &Request,
        attempt: u32,
        deadline: &Deadline,
    ) -> Result<(Tier, Explanation), ServeError> {
        if attempt == 0 && self.fault_panics_request(req.id) {
            // lint:allow(no-unwrap): injected fault — the drill asserts this panic
            panic!("injected serve fault: panic@request-{}", req.id);
        }
        let graph = &self.artifact.graph;
        let k = self.artifact.k;

        let sub = stage("extract", || {
            self.maybe_stall(ServeStage::Extract, deadline);
            Subgraph::ego(graph, req.node, k)
        });
        deadline.check("extract")?;

        let (key, local_edges) = subgraph_key(&sub, req.node, k);
        match self.cache.get(key) {
            Lookup::Hit(edges) => return Ok((Tier::Cache, edges)),
            Lookup::Poisoned if !self.cfg.recovery => return Err(ServeError::CachePoisoned),
            // Poisoned with recovery on: the entry is already evicted and
            // counted; recompute below exactly like a miss.
            Lookup::Poisoned | Lookup::Miss => {}
        }

        let relevance = stage("encode", || {
            self.maybe_stall(ServeStage::Encode, deadline);
            let expl = &self.artifact.explanations;
            sub.global_of
                .iter()
                .enumerate()
                .map(|(local, &global)| {
                    if local == sub.center_local {
                        1.0
                    } else {
                        expl.edge_weight(req.node, global)
                    }
                })
                .collect::<Vec<f32>>()
        });
        deadline.check("encode")?;

        let mut edges = stage("mask", || {
            self.maybe_stall(ServeStage::Mask, deadline);
            local_edges
                .iter()
                .map(|&(lu, lv)| {
                    let (gu, gv) = sub.to_global_edge(lu, lv);
                    (gu, gv, relevance[lu] * relevance[lv])
                })
                .collect::<Explanation>()
        });
        deadline.check("mask")?;

        stage("rank", || {
            self.maybe_stall(ServeStage::Rank, deadline);
            edges.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        });
        deadline.check("rank")?;

        self.cache.put(key, edges.clone());
        Ok((Tier::Full, edges))
    }

    /// The degradation ladder (breaker open, or retries exhausted): cached
    /// explanation → saliency fallback → predict-only, each rung counted.
    fn degraded_ladder(
        &self,
        req: &Request,
        prediction: usize,
        deadline: &Deadline,
    ) -> Result<Response, ServeError> {
        if deadline.check("ladder").is_err() {
            // No budget left for any explanation work.
            return Ok(self.predict_only(req, prediction, true));
        }
        let graph = &self.artifact.graph;
        let k = self.artifact.k;
        let sub = Subgraph::ego(graph, req.node, k);
        let (key, _) = subgraph_key(&sub, req.node, k);
        match self.cache.get(key) {
            Lookup::Hit(edges) => {
                metrics::SERVE_DEGRADED_CACHE.incr();
                return Ok(Response {
                    id: req.id,
                    node: req.node,
                    prediction,
                    tier: Tier::Cache,
                    degraded: true,
                    edges,
                });
            }
            Lookup::Poisoned if !self.cfg.recovery => return Err(ServeError::CachePoisoned),
            Lookup::Poisoned | Lookup::Miss => {}
        }
        if let Some(table) = &self.artifact.saliency {
            if !deadline.expired() {
                let mut edges = table.explain_node(graph, req.node);
                edges.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
                metrics::SERVE_DEGRADED_SALIENCY.incr();
                return Ok(Response {
                    id: req.id,
                    node: req.node,
                    prediction,
                    tier: Tier::Saliency,
                    degraded: true,
                    edges,
                });
            }
        }
        Ok(self.predict_only(req, prediction, true))
    }

    fn predict_only(&self, req: &Request, prediction: usize, degraded: bool) -> Response {
        metrics::SERVE_DEGRADED_PREDICT_ONLY.incr();
        Response {
            id: req.id,
            node: req.node,
            prediction,
            tier: Tier::PredictOnly,
            degraded,
            edges: Vec::new(),
        }
    }

    fn fault_panics_request(&self, id: u64) -> bool {
        self.cfg
            .fault
            .is_some_and(|f| f.panic_request() == Some(id))
    }

    /// Injected `slow-stage@<stage>` fault: stall past the remaining
    /// deadline budget so the next boundary check breaches. Routed through
    /// the sanctioned [`backoff::sleep_for`] site.
    fn maybe_stall(&self, here: ServeStage, deadline: &Deadline) {
        if self.cfg.fault.and_then(|f| f.slow_stage()) == Some(here) {
            backoff::sleep_for(Duration::from_nanos(
                deadline.remaining_ns().saturating_add(200_000),
            ));
        }
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Request>> {
        // lint:allow(no-unwrap): queue ops are push/pop only; no panic can
        // poison this mutex
        self.queue.lock().expect("queue mutex poisoned")
    }

    fn lock_backoff(&self) -> std::sync::MutexGuard<'_, Backoff> {
        // lint:allow(no-unwrap): backoff ops are arithmetic + sleep; no
        // panic can poison this mutex
        self.backoff.lock().expect("backoff mutex poisoned")
    }
}

/// Content key + canonical local edge list of a computation subgraph. The
/// local `(lu, lv)` pairs (with `lu < lv`) feed the mask stage; the key
/// hashes the *global* node/edge content order-independently.
fn subgraph_key(sub: &Subgraph, center: usize, k: usize) -> (u64, Vec<(usize, usize)>) {
    let mut local_edges = Vec::new();
    let mut global_edges = Vec::new();
    for lu in 0..sub.len() {
        for &lv in sub.graph.neighbors(lu) {
            if lu < lv {
                local_edges.push((lu, lv));
                global_edges.push(sub.to_global_edge(lu, lv));
            }
        }
    }
    (
        content_key(center, k, &sub.global_of, &global_edges),
        local_edges,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_graph::Graph;
    use ses_tensor::Matrix;

    fn small_server(cfg: ServeConfig) -> Server {
        let graph = Graph::new(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            Matrix::from_vec(6, 2, (0..12).map(|i| i as f32 * 0.1).collect()),
            vec![0, 0, 0, 1, 1, 1],
        );
        Server::new(ModelArtifact::synthetic(graph, 2, 7), cfg)
    }

    #[test]
    fn healthy_request_serves_full_then_cache() {
        let _obs = ses_obs::force_enabled(true);
        let s = small_server(ServeConfig::default());
        let r0 = s.serve_one(0).expect("full");
        assert_eq!(r0.tier, Tier::Full);
        assert!(!r0.degraded);
        assert!(!r0.edges.is_empty());
        // Ranked descending.
        for w in r0.edges.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        let r1 = s.serve_one(0).expect("cache");
        assert_eq!(r1.tier, Tier::Cache);
        assert!(!r1.degraded, "healthy cache hit is not degraded");
        assert_eq!(r1.edges, r0.edges);
    }

    #[test]
    fn full_queue_sheds_newest() {
        let _obs = ses_obs::force_enabled(true);
        let s = small_server(ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let shed_before = metrics::SERVE_SHED.get();
        assert!(s.submit(0).is_ok());
        assert!(s.submit(1).is_ok());
        let e = s.submit(2).expect_err("third submit must shed");
        assert_eq!(e, ServeError::QueueFull { capacity: 2 });
        assert_eq!(metrics::SERVE_SHED.get(), shed_before + 1);
        assert_eq!(s.queue_len(), 2, "queued work untouched by the shed");
        // The queue drains normally afterwards.
        assert!(s.run_next().expect("req 0").1.is_ok());
        assert!(s.run_next().expect("req 1").1.is_ok());
        assert!(s.run_next().is_none());
    }

    #[test]
    fn unknown_node_is_a_typed_error() {
        let _obs = ses_obs::force_enabled(true);
        let s = small_server(ServeConfig::default());
        assert_eq!(
            s.serve_one(99).expect_err("out of range"),
            ServeError::UnknownNode { node: 99 }
        );
    }

    #[test]
    fn injected_panic_is_isolated_and_retried() {
        let _obs = ses_obs::force_enabled(true);
        let fault = FaultSpec::parse("panic@request-0").expect("valid");
        let s = small_server(ServeConfig {
            fault: Some(fault),
            max_retries: 2,
            backoff_base_ns: 1_000,
            backoff_max_ns: 10_000,
            ..ServeConfig::default()
        });
        let isolated_before = metrics::SERVE_PANIC_ISOLATED.get();
        let retries_before = metrics::SERVE_RETRIES.get();
        let r = s.serve_one(0).expect("retry succeeds");
        assert_eq!(r.tier, Tier::Full, "second attempt serves full");
        assert!(metrics::SERVE_PANIC_ISOLATED.get() > isolated_before);
        assert!(metrics::SERVE_RETRIES.get() > retries_before);
        // Subsequent requests are unaffected.
        assert!(s.serve_one(3).is_ok());
    }

    #[test]
    fn slow_stage_breaches_deadline_and_degrades() {
        let _obs = ses_obs::force_enabled(true);
        let fault = FaultSpec::parse("slow-stage@encode").expect("valid");
        let s = small_server(ServeConfig {
            fault: Some(fault),
            deadline_ns: 2_000_000, // 2ms
            ..ServeConfig::default()
        });
        let breach_before = metrics::SERVE_DEADLINE_BREACH.get();
        let r = s.serve_one(0).expect("recovery answers predict-only");
        assert_eq!(r.tier, Tier::PredictOnly);
        assert!(r.degraded);
        assert!(metrics::SERVE_DEADLINE_BREACH.get() > breach_before);
    }

    #[test]
    fn slow_stage_without_recovery_is_a_typed_breach() {
        let _obs = ses_obs::force_enabled(true);
        let fault = FaultSpec::parse("slow-stage@mask").expect("valid");
        let s = small_server(ServeConfig {
            fault: Some(fault),
            deadline_ns: 2_000_000,
            recovery: false,
            ..ServeConfig::default()
        });
        assert_eq!(
            s.serve_one(0).expect_err("hard breach"),
            ServeError::DeadlineExceeded { stage: "mask" }
        );
    }

    #[test]
    fn cache_poison_recovers_by_recompute() {
        let _obs = ses_obs::force_enabled(true);
        let fault = FaultSpec::parse("cache-poison").expect("valid");
        let s = small_server(ServeConfig {
            fault: Some(fault),
            ..ServeConfig::default()
        });
        let r0 = s.serve_one(0).expect("full, poisoned write");
        assert_eq!(r0.tier, Tier::Full);
        let poisoned_before = metrics::SERVE_CACHE_POISONED.get();
        let r1 = s.serve_one(0).expect("poison detected, recomputed");
        assert_eq!(r1.tier, Tier::Full, "recomputed, not served from cache");
        assert_eq!(r1.edges, r0.edges);
        assert_eq!(metrics::SERVE_CACHE_POISONED.get(), poisoned_before + 1);
        // Third time: the clean rewrite serves from cache.
        let r2 = s.serve_one(0).expect("clean cache");
        assert_eq!(r2.tier, Tier::Cache);
    }

    #[test]
    fn cache_poison_without_recovery_is_a_hard_error() {
        let _obs = ses_obs::force_enabled(true);
        let fault = FaultSpec::parse("cache-poison").expect("valid");
        let s = small_server(ServeConfig {
            fault: Some(fault),
            recovery: false,
            ..ServeConfig::default()
        });
        let _ = s.serve_one(0).expect("first request computes cleanly");
        assert_eq!(
            s.serve_one(0).expect_err("poisoned hit is fatal"),
            ServeError::CachePoisoned
        );
    }
}
