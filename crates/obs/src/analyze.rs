//! Analysis over JSONL telemetry files: span aggregation, per-epoch
//! trends and noise-aware run diffing. Library half of the `ses-obs` CLI,
//! kept here so the logic is unit-testable without spawning processes.

use std::collections::BTreeMap;

use crate::json::Json;

/// One loaded telemetry run: the parsed JSONL records in file order.
#[derive(Debug, Clone, Default)]
pub struct Run {
    pub records: Vec<BTreeMap<String, Json>>,
}

impl Run {
    /// Parses JSONL content. Blank lines are skipped; a malformed line is
    /// an error naming its line number (telemetry files are machine-written
    /// — corruption should be loud).
    pub fn parse(content: &str) -> Result<Run, String> {
        let mut records = Vec::new();
        for (i, line) in content.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            match v {
                Json::Obj(m) => records.push(m),
                _ => return Err(format!("line {}: record is not a JSON object", i + 1)),
            }
        }
        Ok(Run { records })
    }

    pub fn load(path: &str) -> Result<Run, String> {
        let content =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Run::parse(&content).map_err(|e| format!("{path}: {e}"))
    }

    /// Records whose `event` field equals `event`, in file order.
    pub fn events<'a>(
        &'a self,
        event: &'a str,
    ) -> impl Iterator<Item = &'a BTreeMap<String, Json>> {
        self.records
            .iter()
            .filter(move |r| r.get("event").and_then(Json::as_str) == Some(event))
    }
}

fn get_f64(rec: &BTreeMap<String, Json>, key: &str) -> Option<f64> {
    rec.get(key).and_then(Json::as_f64)
}

fn get_str<'a>(rec: &'a BTreeMap<String, Json>, key: &str) -> Option<&'a str> {
    rec.get(key).and_then(Json::as_str)
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Aggregate time attributed to one span name across a run's epoch
/// breakdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    pub name: String,
    pub total_ms: f64,
    /// Number of epoch records contributing to the total.
    pub records: u64,
}

/// Sums the `kernels_ms` span breakdowns over all `epoch` records and
/// returns the top `n` spans by total time.
pub fn top_spans(run: &Run, n: usize) -> Vec<SpanTotal> {
    let mut acc: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for rec in run.events("epoch") {
        if let Some(Json::Obj(kernels)) = rec.get("kernels_ms") {
            for (name, ms) in kernels {
                if let Some(ms) = ms.as_f64() {
                    let e = acc.entry(name).or_insert((0.0, 0));
                    e.0 += ms;
                    e.1 += 1;
                }
            }
        }
    }
    let mut out: Vec<SpanTotal> = acc
        .into_iter()
        .map(|(name, (total_ms, records))| SpanTotal {
            name: name.to_string(),
            total_ms,
            records,
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_ms
            .partial_cmp(&a.total_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out.truncate(n);
    out
}

/// Per-phase trend digest over a run's `epoch` records.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTrend {
    pub phase: String,
    pub epochs: u64,
    pub first_loss: Option<f64>,
    pub last_loss: Option<f64>,
    pub median_epoch_ms: f64,
    pub total_ms: f64,
}

/// Groups `epoch` records by `phase` (file order preserved within a
/// phase; phases sorted by name for stable output).
pub fn trends(run: &Run) -> Vec<PhaseTrend> {
    let mut by_phase: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for rec in run.events("epoch") {
        let phase = get_str(rec, "phase").unwrap_or("?").to_string();
        let entry = by_phase.entry(phase).or_default();
        if let Some(ms) = get_f64(rec, "epoch_ms") {
            entry.0.push(ms);
        }
        if let Some(loss) = get_f64(rec, "loss") {
            entry.1.push(loss);
        }
    }
    by_phase
        .into_iter()
        .map(|(phase, (mut times, losses))| PhaseTrend {
            phase,
            epochs: times.len().max(losses.len()) as u64,
            first_loss: losses.first().copied(),
            last_loss: losses.last().copied(),
            total_ms: times.iter().sum(),
            median_epoch_ms: median(&mut times),
        })
        .collect()
}

/// Thresholds for [`diff`]. A metric is flagged only when it moves by more
/// than `rel_threshold` (relative) *and* `abs_floor_ms` (absolute) — the
/// conjunction is what makes the diff noise-aware: small times jitter by
/// large fractions, large times by small fractions, and neither alone
/// should fail a build.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    pub rel_threshold: f64,
    pub abs_floor_ms: f64,
    /// Multiplies run B's time-valued metrics before comparing: a seeded
    /// slowdown drill proving the regression path fires (`1.0` = off).
    pub scale_b: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            rel_threshold: 0.5,
            abs_floor_ms: 20.0,
            scale_b: 1.0,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    pub name: String,
    pub a: f64,
    pub b: f64,
    pub rel_change: f64,
    pub regressed: bool,
    pub improved: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    NoChange,
    Improvement,
    Regression,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::NoChange => "no-change",
            Verdict::Improvement => "improvement",
            Verdict::Regression => "regression",
        }
    }
}

/// Output of [`diff`].
#[derive(Debug, Clone)]
pub struct DiffReport {
    pub metrics: Vec<MetricDiff>,
    pub verdict: Verdict,
    /// Whether the runs' final per-phase losses match exactly (`None` when
    /// neither run carries losses). Deterministic seeds make bit-identical
    /// losses the expected baseline; a mismatch means the runs did
    /// different work, so timing deltas are not like-for-like.
    pub behavior_identical: Option<bool>,
}

/// Time-valued metrics of a run, in milliseconds, keyed
/// `phase/<p>/total_ms`, `phase/<p>/median_epoch_ms`, `span/<s>/total_ms`,
/// and `stage/<s>/p99_ms` (from the latest `explain_stage_latency`
/// record).
pub fn time_metrics(run: &Run) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for t in trends(run) {
        out.insert(format!("phase/{}/total_ms", t.phase), t.total_ms);
        out.insert(
            format!("phase/{}/median_epoch_ms", t.phase),
            t.median_epoch_ms,
        );
    }
    for s in top_spans(run, usize::MAX) {
        out.insert(format!("span/{}/total_ms", s.name), s.total_ms);
    }
    if let Some(stages) = run.events("explain_stage_latency").last() {
        for (key, v) in stages {
            if let (Some(stage), Some(ns)) = (key.strip_suffix("_p99_ns"), v.as_f64()) {
                out.insert(format!("stage/{stage}/p99_ms"), ns / 1e6);
            }
        }
    }
    out
}

fn final_losses(run: &Run) -> BTreeMap<String, f64> {
    trends(run)
        .into_iter()
        .filter_map(|t| t.last_loss.map(|l| (t.phase, l)))
        .collect()
}

/// Compares two runs metric-by-metric (shared metrics only) and returns a
/// verdict: `regression` if any metric slowed past both thresholds,
/// `improvement` if none regressed and at least one sped up past them,
/// `no-change` otherwise.
pub fn diff(a: &Run, b: &Run, opts: DiffOptions) -> DiffReport {
    let ma = time_metrics(a);
    let mb = time_metrics(b);
    let mut metrics = Vec::new();
    for (name, &va) in &ma {
        let Some(&vb) = mb.get(name) else { continue };
        let vb = vb * opts.scale_b;
        let delta = vb - va;
        let rel_change = if va.abs() > f64::EPSILON {
            delta / va
        } else if vb.abs() > f64::EPSILON {
            f64::INFINITY
        } else {
            0.0
        };
        let past_thresholds =
            delta.abs() >= opts.abs_floor_ms && rel_change.abs() >= opts.rel_threshold;
        metrics.push(MetricDiff {
            name: name.clone(),
            a: va,
            b: vb,
            rel_change,
            regressed: past_thresholds && delta > 0.0,
            improved: past_thresholds && delta < 0.0,
        });
    }
    let verdict = if metrics.iter().any(|m| m.regressed) {
        Verdict::Regression
    } else if metrics.iter().any(|m| m.improved) {
        Verdict::Improvement
    } else {
        Verdict::NoChange
    };
    let la = final_losses(a);
    let lb = final_losses(b);
    let behavior_identical = if la.is_empty() && lb.is_empty() {
        None
    } else {
        // lint:allow(no-float-eq): bit-identical determinism is the contract
        Some(la == lb)
    };
    DiffReport {
        metrics,
        verdict,
        behavior_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_from(lines: &[&str]) -> Run {
        Run::parse(&lines.join("\n")).expect("test telemetry must parse")
    }

    fn epoch(phase: &str, epoch: u64, loss: f64, ms: f64) -> String {
        format!(
            "{{\"event\":\"epoch\",\"t_ms\":1,\"phase\":\"{phase}\",\"epoch\":{epoch},\
             \"loss\":{loss},\"epoch_ms\":{ms},\
             \"kernels_ms\":{{\"kernel.spmm\":{},\"tape.backward\":{}}}}}",
            ms * 0.6,
            ms * 0.3
        )
    }

    #[test]
    fn parse_rejects_malformed_lines_with_position() {
        let err = Run::parse("{\"event\":\"x\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(Run::parse("[1,2]").is_err());
    }

    #[test]
    fn top_spans_aggregates_breakdowns() {
        let run = run_from(&[
            &epoch("backbone", 0, 1.0, 100.0),
            &epoch("backbone", 1, 0.9, 100.0),
        ]);
        let top = top_spans(&run, 10);
        assert_eq!(top[0].name, "kernel.spmm");
        assert!((top[0].total_ms - 120.0).abs() < 1e-9);
        assert_eq!(top[0].records, 2);
        assert_eq!(top[1].name, "tape.backward");
    }

    #[test]
    fn trends_group_by_phase() {
        let run = run_from(&[
            &epoch("backbone", 0, 1.0, 10.0),
            &epoch("backbone", 1, 0.5, 30.0),
            &epoch("explain", 0, 2.0, 20.0),
        ]);
        let t = trends(&run);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].phase, "backbone");
        assert_eq!(t[0].epochs, 2);
        assert_eq!(t[0].first_loss, Some(1.0));
        assert_eq!(t[0].last_loss, Some(0.5));
        assert!((t[0].median_epoch_ms - 20.0).abs() < 1e-9);
        assert!((t[0].total_ms - 40.0).abs() < 1e-9);
    }

    #[test]
    fn identical_runs_diff_to_no_change() {
        let lines = [
            epoch("backbone", 0, 1.0, 100.0),
            epoch("backbone", 1, 0.5, 110.0),
        ];
        let a = run_from(&[&lines[0], &lines[1]]);
        let report = diff(&a, &a, DiffOptions::default());
        assert_eq!(report.verdict, Verdict::NoChange);
        assert_eq!(report.behavior_identical, Some(true));
    }

    #[test]
    fn jitter_below_thresholds_is_no_change() {
        let a = run_from(&[&epoch("backbone", 0, 1.0, 100.0)]);
        let b = run_from(&[&epoch("backbone", 0, 1.0, 112.0)]); // +12%, +12ms
        let report = diff(&a, &b, DiffOptions::default());
        assert_eq!(report.verdict, Verdict::NoChange);
    }

    #[test]
    fn seeded_slowdown_is_flagged_as_regression() {
        let a = run_from(&[
            &epoch("backbone", 0, 1.0, 100.0),
            &epoch("backbone", 1, 0.5, 100.0),
        ]);
        let opts = DiffOptions {
            scale_b: 4.0,
            ..DiffOptions::default()
        };
        let report = diff(&a, &a, opts);
        assert_eq!(report.verdict, Verdict::Regression);
        assert!(report.metrics.iter().any(|m| m.regressed));
    }

    #[test]
    fn large_speedup_is_an_improvement() {
        let a = run_from(&[&epoch("backbone", 0, 1.0, 200.0)]);
        let b = run_from(&[&epoch("backbone", 0, 1.0, 40.0)]);
        let report = diff(&a, &b, DiffOptions::default());
        assert_eq!(report.verdict, Verdict::Improvement);
    }

    #[test]
    fn behavioral_difference_is_surfaced() {
        let a = run_from(&[&epoch("backbone", 0, 1.0, 100.0)]);
        let b = run_from(&[&epoch("backbone", 0, 1.25, 100.0)]);
        let report = diff(&a, &b, DiffOptions::default());
        assert_eq!(report.behavior_identical, Some(false));
    }

    #[test]
    fn stage_p99s_join_the_comparison() {
        let stage = "{\"event\":\"explain_stage_latency\",\"t_ms\":2,\
                     \"extract_p99_ns\":50000000,\"rank_p99_ns\":1000000}";
        let a = run_from(&[stage]);
        let m = time_metrics(&a);
        assert!((m["stage/extract/p99_ms"] - 50.0).abs() < 1e-9);
        assert!((m["stage/rank/p99_ms"] - 1.0).abs() < 1e-9);
    }
}
