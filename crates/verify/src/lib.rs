//! `ses-verify` — static analysis for the SES workspace.
//!
//! Two engines, one diagnostic vocabulary:
//!
//! 1. **Tape-IR verifier** ([`tape_check`]) — walks a [`ses_tensor::TapeIr`]
//!    (exported from a real recorded tape, or dry-run traced by
//!    [`builder::IrBuilder`] without executing a single kernel) and proves,
//!    per node: operand shapes are compatible, every gradient-bearing op has
//!    a backward rule, gradient wiring is not silently cut, reduction order
//!    is provably deterministic, and — given a loss node — every trainable
//!    leaf is reachable within a [`ses_tensor::LeakBudget`]. This is the
//!    runtime sanitizer's checklist run *before* any epoch, on shape
//!    arithmetic alone.
//! 2. **Partition safety checker** ([`partition`]) — treats the deterministic
//!    parallel layer (`ses_tensor::par`) as a model-checking target: for
//!    every shape up to a small-model bound (plus beyond-the-bound spot
//!    checks near `usize::MAX`) it proves the row/entry partitions are
//!    non-empty, contiguous, disjoint, fully covering, monotone and (where
//!    promised) balanced, and that the `split_*_mut` carvings observably
//!    cover their buffers exactly once.
//!
//! The crate also hosts the token-level Rust scanner ([`tokenizer`]) that
//! `ses-lint` uses instead of line regexes, and a [`selfcheck`] harness the
//! `ses-verify` CLI runs in CI — with seeded-defect modes proving each
//! engine actually fails when it should.
//!
//! Static vs runtime split: the tape sanitizer (`SES_SANITIZE`) validates
//! the tape *that ran*, with real values; `ses-verify` validates the tape
//! that *would* run, with no values at all. See `docs/CORRECTNESS.md`.

pub mod builder;
pub mod partition;
pub mod selfcheck;
pub mod tape_check;
pub mod tokenizer;

use std::fmt;

/// How bad a finding is. [`Severity::Error`] findings make the CLI exit
/// non-zero; warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: suspicious but not provably wrong (dead compute,
    /// duplicate subgraphs, pruned gradients within budget).
    Warning,
    /// Provably wrong or unprovable-safe: shape mismatch, missing backward,
    /// broken partition, leak budget exceeded.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding from either engine.
///
/// `subject` always carries enough context to reproduce the failure: the
/// offending op and node id for tape checks, the partitioner inputs
/// (`n`/`parts`/`indptr`) for partition checks.
#[derive(Debug, Clone)]
pub struct Diag {
    /// Error or warning.
    pub severity: Severity,
    /// Which engine produced it: `"tape-ir"` or `"partition"`.
    pub engine: &'static str,
    /// The specific check, e.g. `"shape"`, `"backward-coverage"`,
    /// `"determinism"`, `"leak-budget"`, `"coverage"`, `"disjointness"`.
    pub check: &'static str,
    /// What was being checked (node id + op, or partition inputs).
    pub subject: String,
    /// Human-readable explanation of the finding.
    pub msg: String,
}

impl Diag {
    /// Builds an error finding.
    pub fn error(engine: &'static str, check: &'static str, subject: String, msg: String) -> Self {
        Diag {
            severity: Severity::Error,
            engine,
            check,
            subject,
            msg,
        }
    }

    /// Builds a warning finding.
    pub fn warning(
        engine: &'static str,
        check: &'static str,
        subject: String,
        msg: String,
    ) -> Self {
        Diag {
            severity: Severity::Warning,
            engine,
            check,
            subject,
            msg,
        }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}/{}] {}: {}",
            self.severity, self.engine, self.check, self.subject, self.msg
        )
    }
}

/// Number of [`Severity::Error`] findings in a diagnostic list.
pub fn error_count(diags: &[Diag]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// Number of [`Severity::Warning`] findings in a diagnostic list.
pub fn warning_count(diags: &[Diag]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count()
}

/// Bumps the shared observability counters for a batch of findings.
pub(crate) fn record_diags(diags: &[Diag]) {
    let errs = error_count(diags) as u64;
    let warns = warning_count(diags) as u64;
    ses_obs::metrics::VERIFY_ERRORS.add(errs);
    ses_obs::metrics::VERIFY_WARNINGS.add(warns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_display_names_engine_check_and_subject() {
        let d = Diag::error(
            "tape-ir",
            "shape",
            "node 3 (op `matmul`)".to_string(),
            "inner dims differ".to_string(),
        );
        let s = d.to_string();
        assert!(s.contains("error"));
        assert!(s.contains("tape-ir/shape"));
        assert!(s.contains("node 3"));
        assert!(s.contains("matmul"));
    }

    #[test]
    fn counts_split_by_severity() {
        let ds = vec![
            Diag::error("tape-ir", "shape", "a".into(), "x".into()),
            Diag::warning("partition", "balance", "b".into(), "y".into()),
            Diag::warning("partition", "balance", "c".into(), "z".into()),
        ];
        assert_eq!(error_count(&ds), 1);
        assert_eq!(warning_count(&ds), 2);
    }
}
