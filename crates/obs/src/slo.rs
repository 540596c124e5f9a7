//! Per-stage latency budgets (`SloPolicy`) with breach accounting.
//!
//! A policy maps stage names (`extract`, `encode`, `mask`, `rank`,
//! `request`, `epoch`, …) to nanosecond budgets. Instrumented sites call
//! [`SloPolicy::observe`] with a measured duration; a breach increments the
//! matching `slo.breach.*` counter (visible in the summary table, the JSONL
//! records, and the Prometheus export) and returns `false` so callers can
//! log context. Observation never fails the operation itself — SLOs are
//! accounting, not control flow.
//!
//! The process-wide policy comes from the `SES_SLO` environment variable, a
//! comma-separated list of `stage=duration` entries where durations accept
//! `ns`/`us`/`ms`/`s` suffixes (no suffix = ns):
//!
//! ```text
//! SES_SLO=extract=200us,mask=1ms,request=5ms,epoch=2s
//! ```
//!
//! Malformed entries are ignored with a note on stderr rather than
//! panicking — a typo in an env var must not take down a training run.

use std::sync::{Mutex, OnceLock};

use crate::metrics;

/// One stage's budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageBudget {
    pub stage: String,
    pub budget_ns: u64,
}

/// A set of per-stage latency budgets. Empty policies observe everything
/// and breach nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloPolicy {
    budgets: Vec<StageBudget>,
}

impl SloPolicy {
    pub fn empty() -> Self {
        SloPolicy::default()
    }

    /// Parses a `stage=duration,stage=duration` spec. Returns the policy
    /// plus a list of entries that failed to parse (the caller decides how
    /// loudly to complain).
    pub fn parse(spec: &str) -> (Self, Vec<String>) {
        let mut budgets = Vec::new();
        let mut rejected = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            match entry.split_once('=') {
                Some((stage, dur)) if !stage.trim().is_empty() => {
                    match parse_duration_ns(dur.trim()) {
                        Some(budget_ns) => budgets.push(StageBudget {
                            stage: stage.trim().to_string(),
                            budget_ns,
                        }),
                        None => rejected.push(entry.to_string()),
                    }
                }
                _ => rejected.push(entry.to_string()),
            }
        }
        (SloPolicy { budgets }, rejected)
    }

    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty()
    }

    pub fn budgets(&self) -> &[StageBudget] {
        &self.budgets
    }

    /// The budget for `stage`, if the policy sets one.
    pub fn budget_ns(&self, stage: &str) -> Option<u64> {
        self.budgets
            .iter()
            .find(|b| b.stage == stage)
            .map(|b| b.budget_ns)
    }

    /// Checks a measured duration against the stage's budget. Returns
    /// `true` when within budget (or no budget is set); on a breach, bumps
    /// the stage's `slo.breach.*` counter and returns `false`.
    pub fn observe(&self, stage: &str, ns: u64) -> bool {
        match self.budget_ns(stage) {
            None => true,
            Some(budget) if ns <= budget => true,
            Some(_) => {
                breach_counter(stage).incr();
                false
            }
        }
    }
}

/// The `slo.breach.*` counter for a stage (unknown stages aggregate into
/// `slo.breach.other`).
pub fn breach_counter(stage: &str) -> &'static metrics::Counter {
    match stage {
        "extract" => &metrics::SLO_BREACH_EXTRACT,
        "encode" => &metrics::SLO_BREACH_ENCODE,
        "mask" => &metrics::SLO_BREACH_MASK,
        "rank" => &metrics::SLO_BREACH_RANK,
        "epoch" => &metrics::SLO_BREACH_EPOCH,
        "request" => &metrics::SLO_BREACH_REQUEST,
        _ => &metrics::SLO_BREACH_OTHER,
    }
}

/// `"200us"` → `200_000`. Accepts `ns`/`us`/`ms`/`s` suffixes and decimal
/// magnitudes; bare numbers are nanoseconds.
pub fn parse_duration_ns(s: &str) -> Option<u64> {
    let (mag, scale) = if let Some(m) = s.strip_suffix("ns") {
        (m, 1.0)
    } else if let Some(m) = s.strip_suffix("us") {
        (m, 1e3)
    } else if let Some(m) = s.strip_suffix("ms") {
        (m, 1e6)
    } else if let Some(m) = s.strip_suffix('s') {
        (m, 1e9)
    } else {
        (s, 1.0)
    };
    let mag: f64 = mag.trim().parse().ok()?;
    if !mag.is_finite() || mag < 0.0 {
        return None;
    }
    Some((mag * scale) as u64)
}

fn global_slot() -> &'static Mutex<Option<SloPolicy>> {
    static SLOT: OnceLock<Mutex<Option<SloPolicy>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// The process-wide policy: `SES_SLO` parsed on first use, or whatever
/// [`set_global`] installed. Cheap to call per epoch, not per kernel.
pub fn global() -> SloPolicy {
    let mut slot = global_slot().lock().unwrap_or_else(|e| e.into_inner());
    slot.get_or_insert_with(|| {
        let spec = std::env::var("SES_SLO").unwrap_or_default();
        let (policy, rejected) = SloPolicy::parse(&spec);
        for bad in rejected {
            crate::log::info(format_args!(
                "ses-obs: ignoring malformed SES_SLO entry `{bad}`"
            ));
        }
        policy
    })
    .clone()
}

/// Replaces the process-wide policy (tests, drills). `None` re-arms the
/// `SES_SLO` lookup.
pub fn set_global(policy: Option<SloPolicy>) {
    *global_slot().lock().unwrap_or_else(|e| e.into_inner()) = policy;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_spec_with_unit_suffixes() {
        let (p, bad) = SloPolicy::parse("extract=200us, mask=1.5ms,epoch=2s,raw=750");
        assert!(bad.is_empty());
        assert_eq!(p.budget_ns("extract"), Some(200_000));
        assert_eq!(p.budget_ns("mask"), Some(1_500_000));
        assert_eq!(p.budget_ns("epoch"), Some(2_000_000_000));
        assert_eq!(p.budget_ns("raw"), Some(750));
        assert_eq!(p.budget_ns("absent"), None);
    }

    #[test]
    fn malformed_entries_are_rejected_not_fatal() {
        let (p, bad) = SloPolicy::parse("ok=1ms,=5ms,broken,neg=-3ms,nan=xs");
        assert_eq!(p.budgets().len(), 1);
        assert_eq!(bad.len(), 4);
    }

    #[test]
    fn observe_counts_breaches_per_stage() {
        let _obs = crate::force_enabled(true);
        let (p, _) = SloPolicy::parse("extract=1us,epoch=1ms");
        let before_extract = metrics::SLO_BREACH_EXTRACT.get();
        let before_epoch = metrics::SLO_BREACH_EPOCH.get();
        assert!(p.observe("extract", 500)); // within budget
        assert!(!p.observe("extract", 2_000)); // breach
        assert!(!p.observe("epoch", 5_000_000)); // breach
        assert!(p.observe("unbudgeted", u64::MAX)); // no budget, no breach
        assert_eq!(metrics::SLO_BREACH_EXTRACT.get(), before_extract + 1);
        assert_eq!(metrics::SLO_BREACH_EPOCH.get(), before_epoch + 1);
    }

    #[test]
    fn unknown_stage_breaches_aggregate_into_other() {
        let _obs = crate::force_enabled(true);
        let (p, _) = SloPolicy::parse("custom_stage=1ns");
        let before = metrics::SLO_BREACH_OTHER.get();
        assert!(!p.observe("custom_stage", 100));
        assert_eq!(metrics::SLO_BREACH_OTHER.get(), before + 1);
    }

    #[test]
    fn global_override_roundtrips() {
        let (p, _) = SloPolicy::parse("request=9ms");
        set_global(Some(p.clone()));
        assert_eq!(global().budget_ns("request"), Some(9_000_000));
        set_global(None);
    }
}
