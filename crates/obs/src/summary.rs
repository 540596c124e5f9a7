//! Human-readable end-of-run summary over everything the tracer and the
//! metrics registry collected.

use std::fmt::Write as _;

use crate::metrics;
use crate::spans;

// lint:allow(no-f64-in-kernels): reporting arithmetic, not tensor kernels

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn fmt_count(n: u64) -> String {
    let n_f = n as f64;
    if n_f >= 1e9 {
        format!("{:.2}G", n_f / 1e9)
    } else if n_f >= 1e6 {
        format!("{:.2}M", n_f / 1e6)
    } else if n_f >= 1e3 {
        format!("{:.2}k", n_f / 1e3)
    } else {
        format!("{n}")
    }
}

/// Renders the summary table: span aggregates sorted by total time, then
/// the nonzero counters/gauges, then latency quantiles. Empty string when
/// nothing was recorded.
pub fn summary_string() -> String {
    let mut out = String::new();

    let mut span_rows = spans::snapshot();
    span_rows.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
    if !span_rows.is_empty() {
        let _ = writeln!(
            out,
            "── spans ──────────────────────────────────────────────"
        );
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "total", "mean", "max"
        );
        for s in &span_rows {
            let mean = s.total_ns / s.count.max(1);
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>10} {:>10} {:>10}",
                s.name,
                fmt_count(s.count),
                fmt_ns(s.total_ns),
                fmt_ns(mean),
                fmt_ns(s.max_ns)
            );
        }
    }

    let counters: Vec<_> = metrics::counters().iter().filter(|c| c.get() > 0).collect();
    let gauges: Vec<_> = metrics::gauges().iter().filter(|g| g.get() != 0).collect();
    if !counters.is_empty() || !gauges.is_empty() {
        let _ = writeln!(
            out,
            "── counters ───────────────────────────────────────────"
        );
        for c in counters {
            let _ = writeln!(out, "{:<28} {:>12}", c.name(), fmt_count(c.get()));
        }
        for g in gauges {
            let _ = writeln!(out, "{:<28} {:>12}", g.name(), g.get());
        }
    }

    let log_hists: Vec<_> = metrics::log_histograms()
        .iter()
        .filter(|h| h.count() > 0)
        .collect();
    if !log_hists.is_empty() {
        let _ = writeln!(
            out,
            "── latency quantiles ──────────────────────────────────"
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "p50", "p90", "p99", "p99.9"
        );
        for h in log_hists {
            let snap = h.snapshot();
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                h.name(),
                fmt_count(snap.count()),
                fmt_ns(snap.quantile(0.5)),
                fmt_ns(snap.quantile(0.9)),
                fmt_ns(snap.quantile(0.99)),
                fmt_ns(snap.quantile(0.999))
            );
        }
    }

    out
}

/// Prints the summary table to stderr and flushes the environment-named
/// exporters (`SES_OBS_PROM_FILE`, `SES_OBS_CHROME`). No-op when nothing
/// was recorded or telemetry is disabled.
pub fn print_summary() {
    if !crate::enabled() {
        return;
    }
    let s = summary_string();
    if !s.is_empty() {
        crate::log::info(format_args!("ses-obs run summary\n{s}"));
    }
    crate::export::flush_env_exports();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_includes_recorded_activity() {
        let _obs = crate::force_enabled(true);
        {
            let _g = crate::spans::span("test.summary_phase");
        }
        metrics::TAPE_NODES.add(3);
        let s = summary_string();
        assert!(s.contains("test.summary_phase"));
        assert!(s.contains("tape.nodes"));
    }

    #[test]
    fn fmt_helpers_pick_sane_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(2_500), "2.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_500), "1.50k");
        assert_eq!(fmt_count(2_000_000), "2.00M");
    }
}
