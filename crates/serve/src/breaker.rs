//! Request-counting circuit breaker for the full-explain path.
//!
//! Repeated stage failures (panics, injected faults) mean the expensive
//! path is currently poisoned; hammering it again burns deadline budget per
//! request and keeps failure counters climbing. The breaker trips after
//! `failure_threshold` *consecutive* failures and stays open for
//! `open_requests` subsequent requests, during which the runtime skips the
//! full pipeline and enters the degradation ladder directly. The request
//! after the cooldown is the half-open probe: it attempts the full path
//! again, and its outcome closes or re-opens the breaker. Counting requests
//! instead of wall-clock keeps drills deterministic (no time dependence).
//!
//! All state is atomics under a mutex-free protocol: transitions are
//! last-write-wins, which is acceptable because the breaker is a load
//! shedding heuristic, not a correctness gate — a racy extra probe or an
//! extra degraded request is benign.

use std::sync::atomic::{AtomicU64, Ordering};

use ses_obs::metrics;

/// Breaker decision for one incoming request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Breaker closed (or half-open probe): attempt the full pipeline.
    Full,
    /// Breaker open: skip straight to the degradation ladder.
    Degraded,
}

/// See the module docs.
pub struct CircuitBreaker {
    failure_threshold: u64,
    open_requests: u64,
    consecutive_failures: AtomicU64,
    /// Remaining open-state requests; 0 = closed or half-open.
    open_remaining: AtomicU64,
}

impl CircuitBreaker {
    /// A breaker tripping after `failure_threshold` consecutive failures
    /// and cooling down for `open_requests` requests. A threshold of 0 is
    /// clamped to 1 (a breaker that trips on nothing would never protect).
    pub fn new(failure_threshold: u64, open_requests: u64) -> Self {
        Self {
            failure_threshold: failure_threshold.max(1),
            open_requests: open_requests.max(1),
            consecutive_failures: AtomicU64::new(0),
            open_remaining: AtomicU64::new(0),
        }
    }

    /// Routes one incoming request, consuming one cooldown slot when open.
    pub fn route(&self) -> Route {
        // ordering: heuristic routing decision; stale reads shed one extra request, which is benign
        let open = self.open_remaining.load(Ordering::Relaxed);
        if open == 0 {
            return Route::Full;
        }
        // ordering: cooldown countdown is a tally, not a synchronisation point
        self.open_remaining.store(open - 1, Ordering::Relaxed);
        Route::Degraded
    }

    /// Records a successful full-path attempt: closes the breaker.
    pub fn record_success(&self) {
        // ordering: breaker reset; no payload published
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    /// Records a failed full-path attempt; trips the breaker (and counts
    /// `serve.breaker.open`) when the consecutive-failure threshold is hit.
    pub fn record_failure(&self) {
        // ordering: failure tally; threshold check tolerates racy counts
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.failure_threshold {
            self.open_remaining
                .store(self.open_requests, Ordering::Relaxed); // ordering: advisory routing state

            // Re-arm: the half-open probe after cooldown re-trips on one
            // failure rather than needing a fresh run of `threshold`.
            self.consecutive_failures
                .store(self.failure_threshold, Ordering::Relaxed); // ordering: advisory state
            metrics::SERVE_BREAKER_OPEN.incr();
        }
    }

    /// True while the breaker is open (cooldown slots remain).
    pub fn is_open(&self) -> bool {
        // ordering: telemetry read; staleness is fine
        self.open_remaining.load(Ordering::Relaxed) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_cools_down() {
        let _obs = ses_obs::force_enabled(true);
        let b = CircuitBreaker::new(2, 3);
        assert_eq!(b.route(), Route::Full);
        b.record_failure();
        assert_eq!(b.route(), Route::Full, "one failure is below threshold");
        b.record_failure();
        assert!(b.is_open());
        assert_eq!(b.route(), Route::Degraded);
        assert_eq!(b.route(), Route::Degraded);
        assert_eq!(b.route(), Route::Degraded);
        // Cooldown exhausted: half-open probe goes full.
        assert_eq!(b.route(), Route::Full);
        b.record_success();
        assert!(!b.is_open());
        assert_eq!(b.route(), Route::Full);
    }

    #[test]
    fn half_open_probe_failure_retrips_immediately() {
        let _obs = ses_obs::force_enabled(true);
        let b = CircuitBreaker::new(3, 1);
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(b.route(), Route::Degraded);
        assert_eq!(b.route(), Route::Full, "half-open probe");
        let before = metrics::SERVE_BREAKER_OPEN.get();
        b.record_failure();
        assert!(b.is_open(), "single probe failure re-opens");
        assert_eq!(metrics::SERVE_BREAKER_OPEN.get(), before + 1);
    }
}
