//! `obs-validate` — schema validator for `ses-obs` telemetry artifacts.
//!
//! Usage:
//!
//! ```text
//! obs-validate <file.jsonl> [--require <event>]   # JSONL telemetry
//! obs-validate --prom <file.prom>                 # Prometheus text format
//! obs-validate --chrome <file.json>               # Chrome trace events
//! ```
//!
//! JSONL checks, exiting non-zero with a message on the first violation:
//!
//! * every non-empty line parses as a JSON object with a string `event`
//!   field and a numeric `t_ms`;
//! * `epoch` records carry a string `phase`, a numeric `epoch ≥ 0` that is
//!   strictly monotone within each phase, a finite `loss`, and a finite
//!   `epoch_ms > 0`;
//! * `bench_row` records carry a string `sheet` and only finite numbers;
//! * at least one record of the required event kind exists (`epoch` by
//!   default — an instrumented run that logged nothing is itself a
//!   failure).
//!
//! `--prom` checks text-exposition shape: every line is a comment or a
//! `name[{labels}] value` sample, names carry the `ses_` prefix, values are
//! finite, and at least one typed metric exists. Our own exporter writes
//! only `counter`, `gauge` and `summary` types; `histogram` is accepted too,
//! so the validator also reads exports from other tools.
//!
//! `--chrome` checks the trace-event document: a `traceEvents` array of
//! complete (`ph:"X"`) events with numeric timestamps, whose
//! `args.trace`/`span`/`parent` ids reassemble into well-formed trees (one
//! root per trace, no orphans).

use std::collections::BTreeMap;
use std::process::ExitCode;

use ses_obs::json::Json;

fn validate(content: &str, require: &str) -> Result<usize, String> {
    let mut required_seen = 0usize;
    let mut last_epoch: BTreeMap<String, f64> = BTreeMap::new();
    for (lineno, line) in content.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {lineno}: invalid JSON: {e}"))?;
        let obj = v
            .as_object()
            .ok_or(format!("line {lineno}: not a JSON object"))?;
        let event = obj
            .get("event")
            .and_then(Json::as_str)
            .ok_or(format!("line {lineno}: missing string `event`"))?;
        obj.get("t_ms")
            .and_then(Json::as_f64)
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or(format!("line {lineno}: missing numeric `t_ms`"))?;
        if event == require {
            required_seen += 1;
        }

        if event == "bench_row" {
            obj.get("sheet")
                .and_then(Json::as_str)
                .ok_or(format!("line {lineno}: bench_row record missing `sheet`"))?;
            for (key, val) in obj {
                if let Some(n) = val.as_f64() {
                    if !n.is_finite() {
                        return Err(format!("line {lineno}: non-finite `{key}` in bench_row"));
                    }
                }
            }
        }

        if event == "epoch" {
            let phase = obj
                .get("phase")
                .and_then(Json::as_str)
                .ok_or(format!("line {lineno}: epoch record missing `phase`"))?;
            let epoch = obj
                .get("epoch")
                .and_then(Json::as_f64)
                .filter(|e| e.is_finite() && *e >= 0.0)
                .ok_or(format!("line {lineno}: epoch record missing `epoch`"))?;
            if let Some(prev) = last_epoch.get(phase) {
                if epoch <= *prev {
                    return Err(format!(
                        "line {lineno}: epoch not monotone in phase `{phase}`: {prev} -> {epoch}"
                    ));
                }
            }
            last_epoch.insert(phase.to_string(), epoch);
            let loss = obj
                .get("loss")
                .and_then(Json::as_f64)
                .ok_or(format!("line {lineno}: epoch record missing `loss`"))?;
            if !loss.is_finite() {
                return Err(format!("line {lineno}: non-finite loss"));
            }
            let epoch_ms = obj
                .get("epoch_ms")
                .and_then(Json::as_f64)
                .ok_or(format!("line {lineno}: epoch record missing `epoch_ms`"))?;
            if !(epoch_ms.is_finite() && epoch_ms >= 0.0) {
                return Err(format!("line {lineno}: bad epoch_ms {epoch_ms}"));
            }
        }
    }
    if required_seen == 0 {
        return Err(format!("no `{require}` records found"));
    }
    Ok(required_seen)
}

/// Validates Prometheus text-exposition content; returns the number of
/// sample lines.
fn validate_prom(content: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut typed = 0usize;
    for (lineno, line) in content.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default();
            let kind = parts.next().unwrap_or_default();
            if !name.starts_with("ses_") {
                return Err(format!("line {lineno}: TYPE for non-ses metric `{name}`"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary") {
                return Err(format!("line {lineno}: unknown metric type `{kind}`"));
            }
            typed += 1;
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are fine
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: not a `name value` sample"))?;
        if !name.starts_with("ses_") {
            return Err(format!("line {lineno}: sample for non-ses metric `{name}`"));
        }
        let v: f64 = value
            .parse()
            .map_err(|e| format!("line {lineno}: bad sample value `{value}`: {e}"))?;
        if !v.is_finite() {
            return Err(format!("line {lineno}: non-finite sample value"));
        }
        samples += 1;
    }
    if typed == 0 || samples == 0 {
        return Err("no typed ses_ metrics found".to_string());
    }
    Ok(samples)
}

/// Validates a Chrome trace-event document; returns the number of events.
fn validate_chrome(content: &str) -> Result<usize, String> {
    let v = Json::parse(content).map_err(|e| format!("invalid JSON: {e}"))?;
    let obj = v.as_object().ok_or("root is not an object")?;
    let events = match obj.get("traceEvents") {
        Some(Json::Arr(a)) => a,
        _ => return Err("missing `traceEvents` array".to_string()),
    };
    // (trace -> (span ids, parent ids)) for tree reconstruction.
    let mut traces: BTreeMap<i64, (Vec<i64>, Vec<i64>)> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ev = ev.as_object().ok_or(format!("event {i}: not an object"))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing string `name`"))?;
        match ev.get("ph").and_then(Json::as_str) {
            Some("X") => {}
            other => return Err(format!("event {i}: expected ph \"X\", got {other:?}")),
        }
        for key in ["ts", "dur", "pid", "tid"] {
            ev.get(key)
                .and_then(Json::as_f64)
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or(format!("event {i}: missing numeric `{key}`"))?;
        }
        let args = ev
            .get("args")
            .and_then(Json::as_object)
            .ok_or(format!("event {i}: missing `args`"))?;
        let id = |k: &str| -> Result<i64, String> {
            args.get(k)
                .and_then(Json::as_f64)
                .map(|n| n as i64)
                .ok_or(format!("event {i}: missing numeric args.{k}"))
        };
        let (trace, span, parent) = (id("trace")?, id("span")?, id("parent")?);
        let entry = traces.entry(trace).or_default();
        entry.0.push(span);
        entry.1.push(parent);
    }
    for (trace, (spans, parents)) in &traces {
        let roots = parents.iter().filter(|p| **p == 0).count();
        if roots != 1 {
            return Err(format!("trace {trace}: {roots} roots (expected 1)"));
        }
        for p in parents {
            if *p != 0 && !spans.contains(p) {
                return Err(format!("trace {trace}: orphan span with parent {p}"));
            }
        }
    }
    Ok(events.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    enum Mode {
        Jsonl(String),
        Prom,
        Chrome,
    }
    let (path, mode) = match args.as_slice() {
        [path] => (path.clone(), Mode::Jsonl("epoch".to_string())),
        [path, flag, event] if flag == "--require" => (path.clone(), Mode::Jsonl(event.clone())),
        [flag, path] if flag == "--prom" => (path.clone(), Mode::Prom),
        [flag, path] if flag == "--chrome" => (path.clone(), Mode::Chrome),
        _ => {
            eprintln!(
                "usage: obs-validate <file.jsonl> [--require <event>] \
                 | obs-validate --prom <file> | obs-validate --chrome <file>"
            );
            return ExitCode::FAILURE;
        }
    };
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("obs-validate: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match &mode {
        Mode::Jsonl(require) => {
            validate(&content, require).map(|n| format!("{n} `{require}` records"))
        }
        Mode::Prom => validate_prom(&content).map(|n| format!("{n} Prometheus samples")),
        Mode::Chrome => validate_chrome(&content).map(|n| format!("{n} trace events")),
    };
    match outcome {
        Ok(what) => {
            println!("obs-validate: OK ({path}: {what})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs-validate: FAIL ({path}): {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::validate;

    #[test]
    fn accepts_well_formed_telemetry() {
        let good = concat!(
            "{\"event\":\"log\",\"t_ms\":1,\"msg\":\"hi\"}\n",
            "{\"event\":\"epoch\",\"t_ms\":2,\"phase\":\"explain\",\"epoch\":0,\"loss\":1.5,\"epoch_ms\":3.2}\n",
            "{\"event\":\"epoch\",\"t_ms\":5,\"phase\":\"explain\",\"epoch\":1,\"loss\":1.2,\"epoch_ms\":3.0}\n",
            "{\"event\":\"epoch\",\"t_ms\":8,\"phase\":\"epl\",\"epoch\":0,\"loss\":0.9,\"epoch_ms\":2.8}\n",
        );
        assert_eq!(validate(good, "epoch"), Ok(3));
    }

    #[test]
    fn rejects_violations() {
        assert!(validate("not json\n", "epoch").is_err());
        assert!(validate("{\"event\":\"log\",\"t_ms\":1}\n", "epoch").is_err()); // no epochs
        let non_monotone = concat!(
            "{\"event\":\"epoch\",\"t_ms\":1,\"phase\":\"p\",\"epoch\":1,\"loss\":1.0,\"epoch_ms\":1.0}\n",
            "{\"event\":\"epoch\",\"t_ms\":2,\"phase\":\"p\",\"epoch\":1,\"loss\":1.0,\"epoch_ms\":1.0}\n",
        );
        assert!(validate(non_monotone, "epoch").is_err());
        let nan_loss =
            "{\"event\":\"epoch\",\"t_ms\":1,\"phase\":\"p\",\"epoch\":0,\"loss\":null,\"epoch_ms\":1.0}\n";
        assert!(validate(nan_loss, "epoch").is_err());
    }

    #[test]
    fn required_event_is_configurable() {
        let bench = concat!(
            "{\"event\":\"bench_row\",\"t_ms\":1,\"sheet\":\"ir_compile\",\"nodes_before\":79}\n",
            "{\"event\":\"bench_row\",\"t_ms\":2,\"sheet\":\"ir_compile\",\"nodes_before\":74}\n",
        );
        assert_eq!(validate(bench, "bench_row"), Ok(2));
        assert!(validate(bench, "epoch").is_err(), "no epoch records here");

        let no_sheet = "{\"event\":\"bench_row\",\"t_ms\":1,\"x\":2}\n";
        assert!(validate(no_sheet, "bench_row").is_err());
    }

    #[test]
    fn prom_mode_accepts_real_exports_and_rejects_garbage() {
        let _obs = ses_obs::force_enabled(true);
        ses_obs::metrics::SPMM_CALLS.add(1);
        ses_obs::metrics::EXPLAIN_REQUEST_NS.record(5_000);
        let text = ses_obs::export::prometheus_string();
        assert!(super::validate_prom(&text).expect("real export must validate") > 0);

        assert!(super::validate_prom("").is_err());
        assert!(super::validate_prom("# TYPE ses_x counter\nses_x notanumber\n").is_err());
        assert!(super::validate_prom("# TYPE bad_prefix counter\nbad_prefix 1\n").is_err());
    }

    #[test]
    fn chrome_mode_checks_tree_shape() {
        let ok = "{\"traceEvents\":[\
            {\"name\":\"r\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":9,\
             \"args\":{\"trace\":1,\"span\":1,\"parent\":0}},\
            {\"name\":\"c\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1,\"dur\":2,\
             \"args\":{\"trace\":1,\"span\":2,\"parent\":1}}]}";
        assert_eq!(super::validate_chrome(ok), Ok(2));

        let orphan = ok.replace("\"parent\":1", "\"parent\":77");
        assert!(super::validate_chrome(&orphan).is_err());
        let two_roots = ok.replace("\"parent\":1", "\"parent\":0");
        assert!(super::validate_chrome(&two_roots).is_err());
        assert!(super::validate_chrome("{}").is_err());
        assert!(super::validate_chrome("[]").is_err());
    }
}
