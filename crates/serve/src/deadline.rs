//! Cooperative request deadlines.
//!
//! A [`Deadline`] is a budget in nanoseconds started at admission. The
//! pipeline never preempts work; instead each stage boundary calls
//! [`Deadline::check`], which fails with a typed
//! [`ServeError::DeadlineExceeded`] naming the stage the budget died in and
//! moves the `serve.deadline.breach` counter. Cooperative checking keeps
//! the runtime lock-free and the failure point attributable — the cost is
//! that one slow stage overshoots by its own duration, which the
//! degradation ladder absorbs (the breached request is answered
//! predict-only instead of erroring, unless recovery is off).

use ses_obs::metrics;
use ses_obs::Stopwatch;

use crate::error::ServeError;

/// A running deadline budget for one request.
#[derive(Debug)]
pub struct Deadline {
    sw: Stopwatch,
    budget_ns: u64,
}

impl Deadline {
    /// Starts a deadline with the given budget. A budget of 0 is already
    /// expired — useful for "no time left" tests and drills.
    pub fn start(budget_ns: u64) -> Self {
        Self {
            sw: Stopwatch::start(),
            budget_ns,
        }
    }

    /// Nanoseconds consumed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.sw.elapsed_ns()
    }

    /// Nanoseconds of budget remaining (0 when expired).
    pub fn remaining_ns(&self) -> u64 {
        self.budget_ns.saturating_sub(self.sw.elapsed_ns())
    }

    /// True when the budget is spent.
    pub fn expired(&self) -> bool {
        self.remaining_ns() == 0
    }

    /// Stage-boundary check: `Ok` while budget remains, else the typed
    /// breach error. Each failed check counts one `serve.deadline.breach`.
    pub fn check(&self, stage: &'static str) -> Result<(), ServeError> {
        if self.expired() {
            metrics::SERVE_DEADLINE_BREACH.incr();
            Err(ServeError::DeadlineExceeded { stage })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_budget_passes_checks() {
        let d = Deadline::start(u64::MAX);
        assert!(!d.expired());
        assert_eq!(d.check("extract"), Ok(()));
        assert!(d.remaining_ns() > 0);
    }

    #[test]
    fn zero_budget_is_expired_and_names_the_stage() {
        let _obs = ses_obs::force_enabled(true);
        let before = metrics::SERVE_DEADLINE_BREACH.get();
        let d = Deadline::start(0);
        assert!(d.expired());
        assert_eq!(
            d.check("mask"),
            Err(ServeError::DeadlineExceeded { stage: "mask" })
        );
        assert_eq!(metrics::SERVE_DEADLINE_BREACH.get(), before + 1);
    }

    #[test]
    fn elapsed_eventually_exceeds_tiny_budget() {
        let d = Deadline::start(1);
        while !d.expired() {
            std::hint::spin_loop();
        }
        assert_eq!(d.remaining_ns(), 0);
    }
}
