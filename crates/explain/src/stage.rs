//! Request-scoped stage instrumentation for the explain pipeline.
//!
//! Every explained node is one *request*: a [`ses_obs::trace::request`]
//! trace whose children are the pipeline stages (`extract` → `encode` →
//! `mask` → `rank`). Each stage records into its log-linear latency
//! histogram and is checked against the process [`ses_obs::slo`] policy,
//! so the harness can report SLO-grade p50/p99 per stage after a run.

use crate::traits::EdgeExplainer;
use ses_obs::hist::LogHistogram;
use ses_obs::metrics;
use ses_obs::Stopwatch;

/// The canonical explain-pipeline stage names, in execution order.
pub const STAGES: [&str; 4] = ["extract", "encode", "mask", "rank"];

fn stage_histogram(name: &str) -> &'static LogHistogram {
    match name {
        "extract" => &metrics::EXPLAIN_STAGE_EXTRACT_NS,
        "encode" => &metrics::EXPLAIN_STAGE_ENCODE_NS,
        "mask" => &metrics::EXPLAIN_STAGE_MASK_NS,
        _ => &metrics::EXPLAIN_STAGE_RANK_NS,
    }
}

/// Runs one pipeline stage under its span, records its latency into the
/// stage histogram and checks the SLO budget. `name` must be one of
/// [`STAGES`]; unknown names fall through to the `rank` histogram but keep
/// their own span label.
pub fn stage<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = match name {
        "extract" => ses_obs::span!("explain.stage.extract"),
        "encode" => ses_obs::span!("explain.stage.encode"),
        "mask" => ses_obs::span!("explain.stage.mask"),
        _ => ses_obs::span!("explain.stage.rank"),
    };
    let sw = Stopwatch::start();
    let out = f();
    let ns = sw.elapsed_ns();
    stage_histogram(name).record(ns);
    ses_obs::slo::global().observe(name, ns);
    out
}

/// Explains one node as a traced request: opens a
/// [`ses_obs::trace::request`] named `explain.request`, runs the explainer
/// (whose stages appear as child spans), records the end-to-end latency
/// into [`metrics::EXPLAIN_REQUEST_NS`] and checks the `request` SLO.
pub fn explain_node_traced(
    explainer: &mut dyn EdgeExplainer,
    node: usize,
) -> Vec<(usize, usize, f32)> {
    let req = ses_obs::trace::request("explain.request");
    let out = explainer.explain_node(node);
    let ns = req.elapsed_ns();
    metrics::EXPLAIN_REQUEST_NS.record(ns);
    ses_obs::slo::global().observe("request", ns);
    out
}

/// Point-in-time latency quantiles for one stage histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct StageQuantiles {
    /// Stage name (one of [`STAGES`], or `request` for the end-to-end one).
    pub stage: &'static str,
    /// Number of recorded samples.
    pub count: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
}

/// Snapshot of per-stage and end-to-end request latency quantiles.
/// Stages with no recorded samples are omitted.
pub fn stage_latency_report() -> Vec<StageQuantiles> {
    let mut out = Vec::new();
    let mut push = |stage: &'static str, h: &LogHistogram| {
        let snap = h.snapshot();
        if snap.count() > 0 {
            out.push(StageQuantiles {
                stage,
                count: snap.count(),
                p50_ns: snap.quantile(0.5),
                p99_ns: snap.quantile(0.99),
            });
        }
    };
    push("extract", &metrics::EXPLAIN_STAGE_EXTRACT_NS);
    push("encode", &metrics::EXPLAIN_STAGE_ENCODE_NS);
    push("mask", &metrics::EXPLAIN_STAGE_MASK_NS);
    push("rank", &metrics::EXPLAIN_STAGE_RANK_NS);
    push("request", &metrics::EXPLAIN_REQUEST_NS);
    out
}

/// Emits an `explain_stage_latency` telemetry record carrying
/// `<stage>_p50_ns` / `<stage>_p99_ns` fields for every stage with data
/// (the shape `ses-obs diff` reads back as `stage/<s>/p99_ms` metrics).
/// No-op when the sink is inactive or nothing was recorded.
pub fn emit_stage_latency_record(explainer_name: &str) {
    if !ses_obs::sink::active() {
        return;
    }
    let report = stage_latency_report();
    if report.is_empty() {
        return;
    }
    let mut rec = ses_obs::Record::new("explain_stage_latency").str("explainer", explainer_name);
    for q in &report {
        rec = rec
            .uint(&format!("{}_count", q.stage), q.count)
            .uint(&format!("{}_p50_ns", q.stage), q.p50_ns)
            .uint(&format!("{}_p99_ns", q.stage), q.p99_ns);
    }
    rec.emit();
}

/// Drives `explainer` over `nodes` as traced requests and emits the stage
/// latency record; returns the report so callers (e.g. the quickstart) can
/// print p50/p99 per stage. Lightweight way to exercise the full tracing
/// path outside the AUC harness.
pub fn latency_probe(explainer: &mut dyn EdgeExplainer, nodes: &[usize]) -> Vec<StageQuantiles> {
    for &v in nodes {
        let _ = explain_node_traced(explainer, v);
    }
    emit_stage_latency_record(explainer.name());
    stage_latency_report()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl EdgeExplainer for Fixed {
        fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)> {
            stage("extract", || std::hint::black_box(node));
            stage("encode", || ());
            stage("mask", || ());
            stage("rank", || ());
            vec![(node, node + 1, 1.0)]
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    fn traced_requests_record_stage_and_request_latencies() {
        let _obs = ses_obs::force_enabled(true);
        let before: Vec<u64> = [
            &metrics::EXPLAIN_STAGE_EXTRACT_NS,
            &metrics::EXPLAIN_STAGE_ENCODE_NS,
            &metrics::EXPLAIN_STAGE_MASK_NS,
            &metrics::EXPLAIN_STAGE_RANK_NS,
            &metrics::EXPLAIN_REQUEST_NS,
        ]
        .iter()
        .map(|h| h.snapshot().count())
        .collect();
        let mut ex = Fixed;
        let report = latency_probe(&mut ex, &[0, 1, 2]);
        // All four stages plus the request histogram gained 3 samples each.
        for (i, h) in [
            &metrics::EXPLAIN_STAGE_EXTRACT_NS,
            &metrics::EXPLAIN_STAGE_ENCODE_NS,
            &metrics::EXPLAIN_STAGE_MASK_NS,
            &metrics::EXPLAIN_STAGE_RANK_NS,
            &metrics::EXPLAIN_REQUEST_NS,
        ]
        .iter()
        .enumerate()
        {
            assert!(
                h.snapshot().count() >= before[i] + 3,
                "histogram {i} did not gain samples"
            );
        }
        assert!(report.iter().any(|q| q.stage == "request"));
        for q in &report {
            assert!(q.p99_ns >= q.p50_ns, "{}: p99 < p50", q.stage);
        }
    }

    #[test]
    fn each_traced_node_is_a_well_formed_trace_tree() {
        let _obs = ses_obs::force_enabled(true);
        ses_obs::trace::reset_events();
        let mut ex = Fixed;
        let _ = explain_node_traced(&mut ex, 7);
        let events = ses_obs::trace::events_snapshot();
        let root = events
            .iter()
            .find(|e| e.name == "explain.request")
            .expect("request root recorded");
        assert!(ses_obs::trace::is_well_formed_tree(
            &events,
            ses_obs::TraceId(root.trace)
        ));
        // The four stage spans all belong to the request's trace.
        for s in STAGES {
            let name = format!("explain.stage.{s}");
            assert!(
                events
                    .iter()
                    .any(|e| e.name == name && e.trace == root.trace),
                "missing stage span {name}"
            );
        }
    }
}
