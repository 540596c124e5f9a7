//! Exporters: Prometheus text-format metric snapshots and Chrome
//! trace-event JSON from completed trace trees.
//!
//! * **Prometheus** ([`prometheus_string`]) — counters and gauges verbatim,
//!   and the log-linear latency instruments as summaries with
//!   p50/p90/p99/p99.9 `quantile` labels. Written to the path in
//!   `SES_OBS_PROM_FILE` at summary time, so a run ends with a scrapeable
//!   snapshot without any server in the loop.
//! * **Chrome trace events** ([`chrome_trace_string`]) — the completed
//!   [`crate::trace::SpanEvent`] buffer as `ph:"X"` complete events
//!   (timestamps/durations in microseconds), loadable in Perfetto or
//!   `chrome://tracing`. Written to the path in `SES_OBS_CHROME`.
//!
//! Export failures log and return — telemetry must never take down the
//! run it observes.

use std::fmt::Write as _;

use crate::metrics;
use crate::trace::SpanEvent;

/// Prometheus metric name: `ses_` prefix, dots and dashes to underscores.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("ses_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// The quantiles every log-linear instrument exports.
pub const EXPORT_QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Renders the full metrics registry in Prometheus text exposition format.
pub fn prometheus_string() -> String {
    let mut out = String::new();
    for c in metrics::counters() {
        let name = prom_name(c.name());
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.get());
    }
    for g in metrics::gauges() {
        let name = prom_name(g.name());
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", g.get());
    }
    for h in metrics::log_histograms() {
        let name = prom_name(h.name());
        let snap = h.snapshot();
        let _ = writeln!(out, "# TYPE {name} summary");
        for (q, label) in EXPORT_QUANTILES {
            let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", snap.quantile(q));
        }
        let _ = writeln!(out, "{name}_sum {}", snap.sum());
        let _ = writeln!(out, "{name}_count {}", snap.count());
    }
    out
}

/// Renders completed trace events as a Chrome trace-event JSON document
/// (`ph:"X"` complete events; `ts`/`dur` in microseconds).
pub fn chrome_trace_string(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dur_us = e.dur_ns as f64 / 1e3;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"ses\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{dur_us:.3},\
             \"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}}}",
            crate::record::escape_json(e.name),
            e.tid,
            e.start_us,
            e.trace,
            e.span,
            e.parent
        );
    }
    out.push_str("]}");
    out
}

/// Writes the exports named by the environment: the Prometheus snapshot to
/// `SES_OBS_PROM_FILE` and the Chrome trace (from the current event
/// buffer, non-draining) to `SES_OBS_CHROME`. No-op for unset variables;
/// IO errors are logged, never propagated.
pub fn flush_env_exports() {
    if let Some(path) = std::env::var_os("SES_OBS_PROM_FILE") {
        if let Err(e) = std::fs::write(&path, prometheus_string()) {
            crate::log::info(format_args!(
                "ses-obs: failed to write Prometheus export {path:?}: {e}"
            ));
        }
    }
    if let Some(path) = std::env::var_os("SES_OBS_CHROME") {
        let events = crate::trace::events_snapshot();
        if let Err(e) = std::fs::write(&path, chrome_trace_string(&events)) {
            crate::log::info(format_args!(
                "ses-obs: failed to write Chrome trace export {path:?}: {e}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn prom_names_are_sanitised() {
        assert_eq!(prom_name("kernel.spmm.calls"), "ses_kernel_spmm_calls");
        assert_eq!(prom_name("slo.breach.extract"), "ses_slo_breach_extract");
    }

    #[test]
    fn prometheus_lines_are_well_formed() {
        let _obs = crate::force_enabled(true);
        metrics::SPMM_CALLS.add(3);
        metrics::EXPLAIN_REQUEST_NS.record(42_000);
        let text = prometheus_string();

        assert!(text.contains("# TYPE ses_kernel_spmm_calls counter"));
        assert!(text.contains("# TYPE ses_explain_request_ns summary"));
        assert!(text.contains("ses_explain_request_ns{quantile=\"0.99\"}"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("line must be `name value`");
            assert!(name.starts_with("ses_"), "bad metric name in `{line}`");
            assert!(value.parse::<f64>().is_ok(), "bad value in `{line}`");
        }
    }

    #[test]
    fn chrome_trace_parses_and_carries_span_tree() {
        let events = vec![
            SpanEvent {
                trace: 7,
                span: 1,
                parent: 0,
                name: "explain.request",
                start_us: 100,
                dur_ns: 5_000,
                tid: 1,
            },
            SpanEvent {
                trace: 7,
                span: 2,
                parent: 1,
                name: "explain.stage.extract",
                start_us: 101,
                dur_ns: 2_500,
                tid: 1,
            },
        ];
        let text = chrome_trace_string(&events);
        let v = Json::parse(&text).expect("chrome trace must be valid JSON");
        let arr = match v.as_object().unwrap().get("traceEvents").unwrap() {
            Json::Arr(a) => a,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        assert_eq!(arr.len(), 2);
        let first = arr[0].as_object().unwrap();
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(first.get("ts").unwrap().as_f64(), Some(100.0));
        let args = arr[1].as_object().unwrap().get("args").unwrap();
        assert_eq!(
            args.as_object().unwrap().get("parent").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn empty_event_list_still_yields_valid_json() {
        let text = chrome_trace_string(&[]);
        assert!(Json::parse(&text).is_ok());
    }
}
