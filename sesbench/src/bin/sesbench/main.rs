//! `sesbench` — the end-to-end benchmark of SES training, motif
//! explanation and trained-model serving. It lives under `src/bin/` as
//! the executable it is: a harness that calls the library crates, not one.
//!
//! ```sh
//! cargo run --release --offline --manifest-path sesbench/Cargo.toml -- \
//!     --workload fit-cora --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry forced off;
//! `--trace 1` runs the same binary with telemetry forced on and reports
//! the per-layer metrics from spans the benchmark wraps around its own
//! calls into each crate. The last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! An operation is one fit or one request. A training run starts this
//! binary again, alternately as `--child setup` (a few timed set-ups) and
//! `--child fit` (one fit, its checks and serving), so each fit is the
//! first in a fresh process and the samples spread over the whole run.
//! See `BENCHMARK.json` for the workloads and metrics, and the module docs
//! for how each is measured.

mod check;
mod replay;
mod serve;
mod spantree;
mod stats;
mod train;
mod workload;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ses_obs::json::Json;
use ses_obs::trace::SpanEvent;

use crate::check::Expected;
use crate::replay::Replay;
use crate::serve::Segment;
use crate::stats::{calibration_ms, peak_rss_mb, Dist};
use crate::workload::{elapsed_ns, Backbone, Workload, ZipfNodes};

/// Kernel threads for every workload. On a shared 2-vCPU host, two-thread
/// fits varied 1.9–3.5 s where one-thread fits varied 1.9–2.9 s (same
/// binary and seed, interleaved): with one vCPU left free, the host's own
/// work stops pausing the measured thread (see `serve::open_loop`).
const KERNEL_THREADS: usize = 1;

/// Set-ups timed by each set-up process; a training run starts one before
/// every fit and reports the median of all of them as `setup_s`. A set-up
/// takes milliseconds, and on a shared 2-vCPU host the speed of a process
/// moves by ±20% from one second to the next: nine set-ups timed back to
/// back at the start of a run, one per process, gave medians 40% apart on
/// fit-cora from one set of runs to the next.
const SETUPS_PER_PROCESS: usize = 11;

/// Fits a training run times at least, however short `--seconds` is;
/// `fit_s` is their median. With one fit per run, tree-cycle's `fit_s`
/// spread over 27–38% of its median across ten seeds.
const MIN_FITS: usize = 3;

/// Phase-1 epochs the traced serve run replays for its training layers.
const SERVE_REPLAY_EPOCHS: usize = 3;

/// Environment variables that change what the program computes.
const REFUSED_ENV: [&str; 3] = ["SES_FAULT", "SES_CROSSOVER_FILE", "SES_SANITIZE"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<Child>,
}

/// What a child process of a training run does.
#[derive(Clone, Copy)]
enum Child {
    /// [`SETUPS_PER_PROCESS`] set-ups, each timed.
    Setup,
    /// One set-up, then one fit, its checks and the closed loop.
    Fit,
}

impl Child {
    fn flag(self) -> &'static str {
        match self {
            Child::Setup => "setup",
            Child::Fit => "fit",
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) = (None, None, 20, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!(
                    "unknown workload {v:?}; one of {:?}",
                    workload::NAMES
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--child" => {
                child = Some(match value()?.as_str() {
                    "setup" => Child::Setup,
                    "fit" => Child::Fit,
                    v => return Err(format!("--child takes setup or fit, not {v:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        child,
    })
}

/// Refuses runs whose numbers would not describe the release program.
fn hygiene() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing a debug build (the tape sanitizer is on by default there); \
                    build with --release"
                .into(),
        );
    }
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "refusing to run with {var} set: it changes what is computed"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| hygiene().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sesbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    ses_tensor::par::set_thread_override(KERNEL_THREADS.min(nproc));
    // Forced either way, whatever SES_OBS* says.
    ses_obs::set_enabled_override(Some(args.trace));
    match args.child {
        Some(Child::Setup) => {
            let times: Vec<String> = (0..SETUPS_PER_PROCESS)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(workload::setup(args.workload, args.seed));
                    elapsed_ns(t).to_string()
                })
                .collect();
            println!("[{}]", times.join(","));
            return ExitCode::SUCCESS;
        }
        Some(Child::Fit) => return fit_child(&args),
        None => {}
    }
    println!(
        "sesbench {} seed={} seconds={} trace={} kernel_threads={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        KERNEL_THREADS.min(nproc),
        nproc
    );
    let calib_before = calibration_ms();
    let result = match (args.workload, args.trace) {
        (Workload::ServePolblogs, false) => serve_run(&args),
        (Workload::ServePolblogs, true) => serve_traced(&args),
        (_, false) => training_run(&args),
        (_, true) => training_traced(&args),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sesbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.note(format!(
        "calibration: {calib_before:.2} ms before, {:.2} ms after",
        calibration_ms()
    ));
    outcome.print();
    ExitCode::SUCCESS
}

/// A run's result: the metrics, the operation counts and what the output
/// checks found.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed checks that are not operations (fidelity gate, determinism,
    /// dropped trace events).
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn print(&mut self) {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.problems.push(format!("{name} is not finite"));
            }
        }
        let correct = self.failed == 0 && self.problems.is_empty();
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<26} {value:>16.6} {unit}");
        }
        println!(
            "operations: attempted={} failed={}; output checks {}",
            self.attempted,
            self.failed,
            if correct { "passed" } else { "FAILED" }
        );
        for p in &self.problems {
            println!("check failed: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

// ---------------------------------------------------------------------------
// Training workloads, untraced: set-ups and fits in fresh child processes.
// ---------------------------------------------------------------------------

/// The fit child: set up, fit once, check, serve the model closed-loop,
/// and report as one JSON line.
fn fit_child(args: &Args) -> ExitCode {
    let setup = workload::setup(args.workload, args.seed);
    let out = train::fit_and_serve(args.workload, &setup, args.seed);
    let latency = out.requests.latency();
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace(['"', '\\'], "'")))
        .collect();
    println!(
        "{{\"fit_ns\":{},\"explain_ns\":{},\"test_acc\":{},\"expl_auc\":{},\
         \"rss_mb\":{},\"fingerprint\":\"{:016x}\",\"failures\":[{}],\"req_hist\":{},\
         \"req_window_p99\":{},\"req_n\":{},\"req_failed\":{},\"rps\":{}}}",
        out.fitted.fit_ns,
        out.fitted.report.explain_time.as_nanos(),
        args.workload.test_acc(&out.fitted.report),
        out.expl_auc,
        out.rss_mb,
        out.fingerprint,
        failures.join(","),
        hist_json(&latency),
        hist_json(&out.requests.window_p99(serve::WINDOW)),
        latency.count(),
        out.requests.failed(),
        out.requests.achieved_rps(),
    );
    ExitCode::SUCCESS
}

/// Runs one child process of this binary and parses the last line it
/// prints.
fn spawn(args: &Args, child: Child) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args([
            "--child",
            child.flag(),
            "--workload",
            args.workload.name(),
            "--seed",
            &seed,
        ])
        .output()
        .map_err(|e| format!("spawning a {} process: {e}", child.flag()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} process exited with {}: {}",
            child.flag(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().unwrap_or("");
    Json::parse(line).map_err(|e| format!("unreadable {} report ({e}): {line}", child.flag()))
}

/// A distribution as JSON `[bucket, count]` pairs, the form in which a fit
/// process hands its request latencies to the parent.
fn hist_json(d: &Dist) -> String {
    let pairs: Vec<String> = (0..ses_obs::hist::NUM_BUCKETS)
        .filter(|&i| d.hist.bucket_count(i) > 0)
        .map(|i| format!("[{i},{}]", d.hist.bucket_count(i)))
        .collect();
    format!("[{}]", pairs.join(","))
}

/// Adds pairs written by [`hist_json`] to `d`, each at its bucket's
/// representative value.
fn merge_hist_json(d: &mut Dist, pairs: &[Json]) {
    for pair in pairs {
        if let Json::Arr(p) = pair {
            let idx = p.first().and_then(Json::as_f64).unwrap_or(0.0) as usize;
            let value = ses_obs::hist::representative(idx);
            for _ in 0..p.get(1).and_then(Json::as_f64).unwrap_or(0.0) as u64 {
                d.record(value);
            }
        }
    }
}

fn field(j: &Json, key: &str) -> f64 {
    j.as_object()
        .and_then(|o| o.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn array<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.as_object().and_then(|o| o.get(key)) {
        Some(Json::Arr(a)) => a,
        _ => &[],
    }
}

fn training_run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reports = Vec::new();
    let mut o = Outcome::default();
    let mut setup = Dist::new();
    // A set-up process, then a fit process, until the budget is spent and
    // MIN_FITS fits were timed.
    while start.elapsed() < budget || (o.attempted as usize) < MIN_FITS {
        let Json::Arr(times) = spawn(args, Child::Setup)? else {
            return Err("set-up process printed no times".into());
        };
        for ns in &times {
            setup.record(ns.as_f64().ok_or("set-up process printed a non-number")? as u64);
        }
        o.attempted += 1;
        match spawn(args, Child::Fit) {
            Ok(r) => reports.push(r),
            Err(e) => {
                o.failed += 1;
                o.problems.push(e);
            }
        }
    }
    let first = reports.first().ok_or("no fit process reported")?;
    let (mut fit, mut explain) = (Dist::new(), Dist::new());
    let (mut req, mut window_p99) = (Dist::new(), Dist::new());
    let (mut rss, mut served, mut serving_s) = (0.0f64, 0.0f64, 0.0f64);
    for (i, r) in reports.iter().enumerate() {
        fit.record(field(r, "fit_ns") as u64);
        explain.record(field(r, "explain_ns") as u64);
        served += field(r, "req_n");
        serving_s += field(r, "req_n") / field(r, "rps");
        rss = rss.max(field(r, "rss_mb"));
        merge_hist_json(&mut req, array(r, "req_hist"));
        merge_hist_json(&mut window_p99, array(r, "req_window_p99"));
        let failures = array(r, "failures");
        o.attempted += field(r, "req_n") as u64;
        o.failed += field(r, "req_failed") as u64 + u64::from(!failures.is_empty());
        for f in failures {
            o.problems
                .push(format!("fit {i}: {}", f.as_str().unwrap_or("?")));
        }
        let fp = r
            .as_object()
            .and_then(|m| m.get("fingerprint"))
            .and_then(Json::as_str);
        o.note(format!(
            "fit {i}: fit_s={:.4} explain_s={:.4} test_acc={} expl_auc={} fingerprint={}",
            field(r, "fit_ns") / 1e9,
            field(r, "explain_ns") / 1e9,
            field(r, "test_acc"),
            field(r, "expl_auc"),
            fp.unwrap_or("?")
        ));
        let first_fp = first
            .as_object()
            .and_then(|m| m.get("fingerprint"))
            .and_then(Json::as_str);
        if fp != first_fp {
            o.problems.push(format!(
                "fit {i} produced other outputs than fit 0 from the same seed"
            ));
        }
    }
    o.note(setup.describe("setup_ns", 1.0, ""));
    o.note(fit.describe("fit_ns", 1.0, ""));
    o.metric("setup_s", setup.median() as f64 / 1e9, "s");
    o.metric("fit_s", fit.median() as f64 / 1e9, "s");
    o.metric("explain_s", explain.median() as f64 / 1e9, "s");
    o.metric("test_acc", field(first, "test_acc"), "fraction");
    o.metric("expl_auc", field(first, "expl_auc"), "fraction");
    o.metric("peak_rss_mb", rss, "MB");
    // Closed-loop capacity over every fit process's serving time together.
    request_metrics(&mut o, &req, &window_p99, served / serving_s);
    Ok(o)
}

/// `req_p50_ms`, `req_p99_ms` and `max_rps`. `req_p99_ms` is the median of
/// the p99s of consecutive [`serve::WINDOW`]-request windows, each with
/// ten samples beyond its p99: a host stall spoils the windows it falls
/// in, not the statistic.
fn request_metrics(o: &mut Outcome, latency: &Dist, window_p99: &Dist, max_rps: f64) {
    o.note(latency.describe("request latency", 1e3, "us"));
    o.note(window_p99.describe("p99 of each 1000-request window", 1e3, "us"));
    if window_p99.count() == 0 {
        o.problems.push(format!(
            "only {} requests: p99 unsupported",
            latency.count()
        ));
    }
    o.metric("req_p50_ms", latency.quantile(0.5) as f64 / 1e6, "ms");
    o.metric("req_p99_ms", window_p99.median() as f64 / 1e6, "ms");
    o.metric("max_rps", max_rps, "1/s");
}

// ---------------------------------------------------------------------------
// Training workloads, traced: untraced fit, then the span-wrapped replay.
// ---------------------------------------------------------------------------

fn training_traced(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let setup = workload::setup(args.workload, args.seed);
    ses_obs::set_enabled_override(Some(false));
    let fitted = train::fit_setup(&setup);
    ses_obs::set_enabled_override(Some(true));
    let epochs = setup.config.epochs_explain;
    let r = run_replay(&setup, &fitted, epochs);
    o.attempted += 1;
    fidelity(&mut o, &r, &fitted);
    let served = train::serve_closed_loop(&setup, &fitted, args.seed, Duration::ZERO);
    let probes = probe_requests(&setup, &fitted, &served);
    o.attempted += served.served.len() as u64;
    o.failed += served.failed() as u64;
    training_layers(&mut o, &setup, &fitted, &r, epochs);
    serve_layers(&mut o, &served, &probes);
    finish_trace(&mut o, args, [r.events, served.events, probes].concat());
    Ok(o)
}

fn run_replay(s: &workload::Setup, f: &train::Fitted, epochs: usize) -> Replay {
    let reference = &f.report.et_loss_curve;
    let tail = Some(&f.explanations);
    match &s.encoder {
        Backbone::Gcn(e) => replay::replay(
            e.clone(),
            s.mask_gen.clone(),
            &s.graph,
            &s.splits,
            &s.config,
            epochs,
            reference,
            tail,
        ),
        Backbone::Gin(e) => replay::replay(
            e.clone(),
            s.mask_gen.clone(),
            &s.graph,
            &s.splits,
            &s.config,
            epochs,
            reference,
            tail,
        ),
    }
}

/// The replica fidelity gate: every replayed epoch's loss equals the
/// untraced fit's, bit for bit.
fn fidelity(o: &mut Outcome, r: &Replay, f: &train::Fitted) {
    if r.mismatched.is_empty() {
        o.note(format!(
            "replica fidelity: {} of {} epochs bit-identical",
            r.epochs, r.epochs
        ));
    } else {
        o.failed += 1;
        let e = r.mismatched[0];
        o.problems.push(format!(
            "replica fidelity: {} of {} epochs differ, first at epoch {e} (fit loss {:?})",
            r.mismatched.len(),
            r.epochs,
            f.report.et_loss_curve.get(e)
        ));
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn training_layers(
    o: &mut Outcome,
    s: &workload::Setup,
    f: &train::Fitted,
    r: &Replay,
    epochs: usize,
) {
    let layer = |name: &str| r.layer.get(name).map_or(0, Dist::median);
    let once = |name: &str| r.once.get(name).copied().unwrap_or(0);
    o.note(r.epoch.describe("replayed epoch", 1e6, "ms"));
    for (name, d) in &r.layer {
        o.note(d.describe(name, 1e6, "ms"));
    }
    o.metric("data.generate_ms", ms(s.generate_ns), "ms");
    o.metric("graph.khop_ms", ms(once("graph.khop")), "ms");
    o.metric("graph.negatives_ms", ms(once("graph.negatives")), "ms");
    o.metric("graph.khop_nnz", r.khop_nnz as f64, "count");
    o.metric("graph.draw_ms", ms(layer("graph.draw")), "ms");
    o.metric("gnn.forward_ms", ms(layer("gnn.forward")), "ms");
    o.metric("gnn.eval_ms", ms(layer("gnn.eval")), "ms");
    o.metric("core.mask_fwd_ms", ms(layer("core.mask_fwd")), "ms");
    o.metric(
        "core.mask_feature_fwd_ms",
        ms(layer("core.mask_feature_fwd")),
        "ms",
    );
    o.metric("core.lift_ms", ms(layer("core.lift")), "ms");
    o.metric("core.loss_ms", ms(layer("core.loss")), "ms");
    o.metric("core.pairs_ms", ms(once("core.pairs")), "ms");
    o.metric("core.triples", r.triples as f64, "count");
    o.metric("core.epl_ms", ms(once("core.epl")), "ms");
    o.metric("core.epoch_p50_ms", ms(r.epoch.quantile(0.5)), "ms");
    o.metric("core.epoch_p90_ms", ms(r.epoch.quantile(0.9)), "ms");
    let share = r.unattributed_ns as f64 / r.epoch_total_ns.max(1) as f64;
    o.metric("core.unattributed_share", share, "fraction");
    let untraced_epoch = f.report.explain_time.as_nanos() as f64 / epochs.max(1) as f64;
    o.metric(
        "core.replica_gap",
        r.epoch.quantile(0.5) as f64 / untraced_epoch,
        "ratio",
    );
    o.metric("tensor.backward_ms", ms(layer("tensor.backward")), "ms");
    o.metric("tensor.adam_ms", ms(layer("tensor.adam")), "ms");
    o.metric(
        "tensor.matmul_gfma",
        r.matmul_fmas.median() as f64 / 1e9,
        "GFMA",
    );
    o.metric("tensor.spmm_nnz", r.spmm_nnz.median() as f64, "count");
    o.metric("tensor.alloc_mb", r.alloc_bytes.median() as f64 / 1e6, "MB");
}

/// Probes the three request-path layers over the same node sequence:
/// `Subgraph::ego`, `content_key` over that subgraph, and
/// `SesExplainer::explain_node`, one `bench.probe` trace per node.
fn probe_requests(s: &workload::Setup, f: &train::Fitted, seg: &Segment) -> Vec<SpanEvent> {
    use ses_explain::EdgeExplainer;
    let mut sx = ses_explain::SesExplainer::new(f.explanations.clone(), s.graph.clone());
    let mut events = Vec::new();
    for (i, served) in seg.served.iter().enumerate() {
        let node = served.node;
        let _req = ses_obs::trace::request("bench.probe");
        let sub = {
            let _s = ses_obs::span!("graph.ego");
            ses_graph::Subgraph::ego(&s.graph, node, 2)
        };
        {
            let _s = ses_obs::span!("serve.key");
            let mut edges = Vec::new();
            for lu in 0..sub.len() {
                for &lv in sub.graph.neighbors(lu) {
                    if lu < lv {
                        edges.push(sub.to_global_edge(lu, lv));
                    }
                }
            }
            std::hint::black_box(ses_serve::content_key(node, 2, &sub.global_of, &edges));
        }
        {
            let _s = ses_obs::span!("explain.node");
            std::hint::black_box(sx.explain_node(node));
        }
        if i % 1000 == 999 {
            events.extend(ses_obs::trace::take_events());
        }
    }
    events.extend(ses_obs::trace::take_events());
    events
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn span_durations(events: &[SpanEvent], name: &str) -> Dist {
    let mut d = Dist::new();
    for e in events.iter().filter(|e| e.name == name) {
        d.record(e.dur_ns);
    }
    d
}

fn serve_layers(o: &mut Outcome, seg: &Segment, probes: &[SpanEvent]) {
    let service_of: std::collections::HashMap<u64, u64> = seg
        .events
        .iter()
        .filter(|e| e.name == "serve.run_next")
        .map(|e| (e.trace, e.dur_ns))
        .collect();
    let (mut service, mut wait, mut hit, mut miss, mut lag) = (
        Dist::new(),
        Dist::new(),
        Dist::new(),
        Dist::new(),
        Dist::new(),
    );
    let (mut hits, mut shed, mut failed, mut answered) = (0u64, 0u64, 0u64, 0u64);
    for s in &seg.served {
        lag.record(s.lag_ns);
        if s.shed {
            shed += 1;
            continue;
        }
        failed += u64::from(s.failed);
        answered += 1;
        let svc = s
            .trace
            .and_then(|t| service_of.get(&t).copied())
            .unwrap_or(s.service_ns);
        service.record(svc);
        wait.record(s.done_ns.saturating_sub(s.sched_ns).saturating_sub(svc));
        if s.hit {
            hits += 1;
            hit.record(svc);
        } else {
            miss.record(svc);
        }
    }
    let (ego, key, node) = (
        span_durations(probes, "graph.ego"),
        span_durations(probes, "serve.key"),
        span_durations(probes, "explain.node"),
    );
    for (name, d) in [
        ("service", &service),
        ("queue wait", &wait),
        ("ego", &ego),
        ("key", &key),
        ("explain_node", &node),
    ] {
        o.note(d.describe(name, 1e3, "us"));
    }
    o.metric("graph.ego_p50_us", us(ego.median()), "us");
    o.metric("serve.key_p50_us", us(key.median()), "us");
    o.metric("explain.node_p50_us", us(node.median()), "us");
    o.metric("serve.service_p50_us", us(service.quantile(0.5)), "us");
    o.metric("serve.service_p99_us", us(service.quantile(0.99)), "us");
    o.metric("serve.queue_wait_p50_us", us(wait.quantile(0.5)), "us");
    o.metric("serve.queue_wait_p99_us", us(wait.quantile(0.99)), "us");
    o.metric(
        "serve.hit_share",
        hits as f64 / answered.max(1) as f64,
        "fraction",
    );
    o.metric("serve.hit_p50_us", us(hit.median()), "us");
    o.metric("serve.miss_p50_us", us(miss.median()), "us");
    o.metric("serve.shed", shed as f64, "count");
    o.metric("serve.failed", failed as f64, "count");
    o.metric("serve.gen_lag_p99_us", us(lag.quantile(0.99)), "us");
}

/// Writes the run's trace events as Chrome trace JSON (the existing
/// exporter) and reports `obs.trace_dropped`, which must stay 0.
fn finish_trace(o: &mut Outcome, args: &Args, events: Vec<SpanEvent>) {
    let dropped = ses_obs::metrics::TRACE_DROPPED.get();
    if dropped > 0 {
        o.problems.push(format!("{dropped} trace events dropped"));
    }
    o.metric("obs.trace_dropped", dropped as f64, "count");
    let dir = std::path::Path::new("sesbench-out");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, ses_obs::export::chrome_trace_string(&events)));
    match written {
        Ok(()) => o.note(format!(
            "chrome trace: {} ({} events)",
            path.display(),
            events.len()
        )),
        Err(e) => o.note(format!("chrome trace not written: {e}")),
    }
}

// ---------------------------------------------------------------------------
// serve-polblogs: open-loop requests against a freshly trained model.
// ---------------------------------------------------------------------------

/// Set-up of the serve workload: generate, build, fit, freeze, and one
/// warm-up pass over the first `n` requests of the sequence.
struct ServeSetup {
    setup: workload::Setup,
    fitted: train::Fitted,
    server: ses_serve::Server,
    expected: Expected,
    /// The request sequence after the warm-up.
    nodes: ZipfNodes,
    setup_ns: u64,
    /// Peak RSS at the end of set-up, before the benchmark's own
    /// per-request bookkeeping.
    rss_mb: f64,
}

fn serve_setup(args: &Args) -> ServeSetup {
    let t = Instant::now();
    let setup = workload::setup(args.workload, args.seed);
    ses_obs::set_enabled_override(Some(false));
    let fitted = train::fit_setup(&setup);
    let server = serve::make_server(&setup.graph, &fitted.predictions, &fitted.explanations);
    let n = setup.graph.n_nodes();
    let mut nodes = ZipfNodes::new(n, args.seed);
    for node in nodes.by_ref().take(n) {
        let _ = server.serve_one(node);
    }
    let setup_ns = elapsed_ns(t);
    let rss_mb = peak_rss_mb();
    ses_obs::set_enabled_override(Some(args.trace));
    let expected = Expected::build(&setup.graph, &fitted.predictions, &fitted.explanations);
    ServeSetup {
        nodes,
        setup,
        fitted,
        server,
        expected,
        setup_ns,
        rss_mb,
    }
}

/// Checks the served model's fit like a training workload's.
fn check_served_fit(o: &mut Outcome, args: &Args, ss: &ServeSetup) -> f64 {
    let auc = train::expl_auc(&ss.setup, &ss.fitted);
    let w = args.workload;
    let failures = check::fit_failures(
        &ss.fitted.report,
        w.test_acc(&ss.fitted.report),
        auc,
        w.floors(),
    );
    o.attempted += 1;
    o.failed += u64::from(!failures.is_empty());
    o.problems.extend(failures);
    o.note(format!(
        "served model: fit_s={:.4} test_acc={} expl_auc={auc} fingerprint={:016x}",
        ss.fitted.fit_ns as f64 / 1e9,
        w.test_acc(&ss.fitted.report),
        check::fingerprint(&ss.fitted.predictions, &ss.fitted.explanations)
    ));
    auc
}

/// Rate ladders a serve run climbs at least; `max_rps` is the median of
/// their results. One ladder's result moved by a quarter from one run to
/// the next on a shared 2-vCPU host, as a host stall decided a rung.
const MIN_LADDERS: usize = 3;

fn serve_run(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    // Half the budget at the nominal rate, the rest (and at least
    // MIN_LADDERS ladders of a few seconds each) on the rate ladder.
    let budget = Duration::from_secs(args.seconds);
    let nominal = (serve::NOMINAL_RPS * args.seconds as f64 / 2.0) as usize;
    let mut ss = serve_setup(args);
    let auc = check_served_fit(&mut o, args, &ss);

    let start = Instant::now();
    let seq: Vec<usize> = ss.nodes.by_ref().take(nominal).collect();
    let arrivals = serve::schedule(args.seed, serve::NOMINAL_RPS, nominal);
    let mut seg = serve::open_loop(&ss.server, &ss.expected, &seq, &arrivals);
    seg.exact_check(&ss.expected);
    o.attempted += seg.served.len() as u64;
    o.failed += seg.failed() as u64;

    let (mut max_rps, mut longest) = (Dist::new(), Duration::ZERO);
    for l in 0.. {
        if l >= MIN_LADDERS && start.elapsed() + longest > budget {
            break;
        }
        let t = Instant::now();
        let seed = args.seed.wrapping_add(100 * l as u64);
        let rungs = serve::ladder(&ss.server, &ss.expected, &mut ss.nodes, seed);
        longest = longest.max(t.elapsed());
        for r in &rungs {
            // Shed requests are the ladder's overload signal, not failures;
            // wrong or errored answers are.
            o.attempted += r.answered as u64;
            o.failed += r.wrong as u64;
            o.note(format!(
                "ladder {l} {:>6.0} rps: achieved {:.1} rps, p99 {:.3} ms, shed {}, wrong {} -> {}",
                r.rate,
                r.achieved_rps,
                ms(r.p99_ns.min(serve::MISSED_NS)),
                r.shed,
                r.wrong,
                if r.passed { "pass" } else { "miss" }
            ));
        }
        max_rps.record((serve::max_rps(&rungs) * 1e3) as u64);
    }
    o.note(max_rps.describe("max_rps of each ladder", 1e3, " rps"));
    o.metric("setup_s", ss.setup_ns as f64 / 1e9, "s");
    o.metric("fit_s", ss.fitted.fit_ns as f64 / 1e9, "s");
    o.metric(
        "explain_s",
        ss.fitted.report.explain_time.as_secs_f64(),
        "s",
    );
    o.metric(
        "test_acc",
        args.workload.test_acc(&ss.fitted.report),
        "fraction",
    );
    o.metric("expl_auc", auc, "fraction");
    o.metric("peak_rss_mb", ss.rss_mb, "MB");
    let window_p99 = seg.window_p99(serve::WINDOW);
    request_metrics(
        &mut o,
        &seg.latency(),
        &window_p99,
        max_rps.median() as f64 / 1e3,
    );
    Ok(o)
}

fn serve_traced(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let requests = ((serve::NOMINAL_RPS * args.seconds as f64 / 4.0) as usize).max(serve::WINDOW);
    let mut ss = serve_setup(args);
    check_served_fit(&mut o, args, &ss);
    let r = run_replay(&ss.setup, &ss.fitted, SERVE_REPLAY_EPOCHS);
    o.attempted += 1;
    fidelity(&mut o, &r, &ss.fitted);
    let seq: Vec<usize> = ss.nodes.by_ref().take(requests).collect();
    let arrivals = serve::schedule(args.seed, serve::NOMINAL_RPS, requests);
    let mut seg = serve::open_loop(&ss.server, &ss.expected, &seq, &arrivals);
    seg.exact_check(&ss.expected);
    o.attempted += seg.served.len() as u64;
    o.failed += seg.failed() as u64;
    let probes = probe_requests(&ss.setup, &ss.fitted, &seg);
    training_layers(
        &mut o,
        &ss.setup,
        &ss.fitted,
        &r,
        ss.setup.config.epochs_explain,
    );
    serve_layers(&mut o, &seg, &probes);
    finish_trace(&mut o, args, [r.events, seg.events, probes].concat());
    Ok(o)
}
