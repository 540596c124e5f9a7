//! `serve-drill` — CI harness proving every serving safety net actually
//! fires.
//!
//! Builds a synthetic serving artifact over the PolBlogs stand-in, attaches
//! checkpoint provenance, then serves a scripted request sequence under an
//! ambient serve-path `SES_FAULT` spec (`slow-stage@<stage>`,
//! `panic@request-<n>`, `cache-poison`). Exit 0 requires that every request
//! completes (possibly degraded), that at least one request shed under the
//! overload burst, and that the recovery counter matching the injected
//! fault moved — a drill that "passes" without exercising its net is a
//! drill failure.
//!
//! With `SES_RECOVERY=off` the nets are removed: the panic boundary is
//! gone (an injected panic kills the process), a deadline breach or a
//! poisoned cache hit is a hard error. `ci.sh` asserts both directions for
//! every serve fault kind. See `docs/SERVING.md` for the ladder and
//! `docs/ROBUSTNESS.md` for the grammar.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_data::{realworld, Profile};
use ses_resilience::FaultKind;
use ses_serve::{ModelArtifact, ServeConfig, Server};

fn main() {
    // Counters must count regardless of ambient SES_OBS.
    ses_obs::set_enabled_override(Some(true));

    let recovery_off = std::env::var("SES_RECOVERY").is_ok_and(|v| v == "off");
    let fault = ses_resilience::fault::from_env();
    match (&fault, recovery_off) {
        (Some(spec), false) => eprintln!("serve-drill: injecting {spec}, recovery ON"),
        (Some(spec), true) => eprintln!("serve-drill: injecting {spec}, recovery OFF"),
        (None, _) => eprintln!("serve-drill: no SES_FAULT set, running clean"),
    }
    if let Some(spec) = &fault {
        if spec.kind.is_training() {
            eprintln!("serve-drill: {spec} is a training fault; use fault-drill");
            std::process::exit(1);
        }
    }

    let mut rng = StdRng::seed_from_u64(41);
    let d = realworld::polblogs_like(Profile::Fast, &mut rng);
    let mut artifact = ModelArtifact::synthetic(d.graph, 2, 17);

    // Provenance: write a checkpoint and restore it through the
    // corruption-hardened resolver.
    let ckpt_base =
        std::env::temp_dir().join(format!("ses-serve-drill-{}.ckpt", std::process::id()));
    let ckpt = ses_resilience::TrainCheckpoint {
        epoch: 3,
        adam_steps: 9,
        lr: 0.01,
        rng_state: [41, 0, 0, 0],
        params: Vec::new(),
    };
    let rotated = ses_resilience::rotated_path(&ckpt_base, 3);
    if let Err(e) = ckpt.write_atomic(&rotated, false) {
        eprintln!("serve-drill: checkpoint write failed: {e}");
        std::process::exit(1);
    }
    match artifact.attach_checkpoint(&ckpt_base) {
        Ok(epoch) => eprintln!("serve-drill: serving checkpoint epoch {epoch}"),
        Err(e) => {
            eprintln!("serve-drill: checkpoint attach failed: {e}");
            std::process::exit(1);
        }
    }
    let _ = std::fs::remove_file(&rotated);

    let n_nodes = artifact.graph.n_nodes();
    let server = Server::new(
        artifact,
        ServeConfig {
            queue_capacity: 4,
            deadline_ns: 50_000_000, // 50ms: generous clean, breached by slow-stage
            max_retries: 2,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            backoff_base_ns: 50_000,
            backoff_max_ns: 2_000_000,
            seed: 41,
            recovery: !recovery_off,
            fault,
            ..ServeConfig::default()
        },
    );

    // Phase 1 — scripted request sequence. Node 0 repeats so the cache path
    // (and a cache-poison fault) is exercised; ids 0..12 cover the
    // `panic@request-<n>` targets ci.sh uses.
    let script: Vec<usize> = (0..12)
        .map(|i| [0, 0, 1, 2, 3, 0][i % 6] % n_nodes)
        .collect();
    for (i, &node) in script.iter().enumerate() {
        match server.serve_one(node) {
            Ok(resp) => {
                if resp.degraded {
                    eprintln!(
                        "serve-drill: request {i} degraded to {:?} (recovered)",
                        resp.tier
                    );
                }
            }
            Err(e) => {
                eprintln!("serve-drill: request {i} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Phase 2 — overload burst: fill the bounded queue past capacity, then
    // drain. The shed must reject the newest submissions while every
    // admitted request still completes.
    let mut shed_here = 0u64;
    for i in 0..6 {
        if server.submit(i % n_nodes).is_err() {
            shed_here += 1;
        }
    }
    while let Some((req, result)) = server.run_next() {
        if let Err(e) = result {
            eprintln!("serve-drill: queued request {} failed: {e}", req.id);
            std::process::exit(1);
        }
    }
    if shed_here == 0 {
        eprintln!("serve-drill: overload burst shed nothing (queue cap not enforced)");
        std::process::exit(1);
    }

    // The counter matching the injected fault must have moved: a net that
    // never fired is indistinguishable from a fault that never fired.
    if let Some(spec) = fault {
        let (name, count) = match spec.kind {
            FaultKind::SlowStage(_) => (
                "serve.deadline.breach",
                ses_obs::metrics::SERVE_DEADLINE_BREACH.get(),
            ),
            FaultKind::PanicRequest(_) => (
                "serve.panic_isolated",
                ses_obs::metrics::SERVE_PANIC_ISOLATED.get(),
            ),
            FaultKind::CachePoison => (
                "serve.cache.poisoned",
                ses_obs::metrics::SERVE_CACHE_POISONED.get(),
            ),
            FaultKind::NanGrad | FaultKind::WorkerPanic | FaultKind::CkptIo => {
                unreachable!("training kinds rejected above")
            }
        };
        if count == 0 {
            eprintln!("serve-drill: {spec} injected but {name} counter stayed 0");
            std::process::exit(1);
        }
        eprintln!("serve-drill: recovered from {spec} ({name} = {count})");
    }

    // One structured record with the full serve counter family, so
    // obs-validate can assert the telemetry contract end to end.
    ses_obs::Record::new("serve_counters")
        .uint("admitted", ses_obs::metrics::SERVE_ADMITTED.get())
        .uint("shed", ses_obs::metrics::SERVE_SHED.get())
        .uint("completed", ses_obs::metrics::SERVE_COMPLETED.get())
        .uint("failed", ses_obs::metrics::SERVE_FAILED.get())
        .uint(
            "panic_isolated",
            ses_obs::metrics::SERVE_PANIC_ISOLATED.get(),
        )
        .uint("retries", ses_obs::metrics::SERVE_RETRIES.get())
        .uint(
            "deadline_breach",
            ses_obs::metrics::SERVE_DEADLINE_BREACH.get(),
        )
        .uint("breaker_open", ses_obs::metrics::SERVE_BREAKER_OPEN.get())
        .uint("cache_hit", ses_obs::metrics::SERVE_CACHE_HIT.get())
        .uint("cache_miss", ses_obs::metrics::SERVE_CACHE_MISS.get())
        .uint("cache_evict", ses_obs::metrics::SERVE_CACHE_EVICT.get())
        .uint(
            "cache_poisoned",
            ses_obs::metrics::SERVE_CACHE_POISONED.get(),
        )
        .uint(
            "degraded_cache",
            ses_obs::metrics::SERVE_DEGRADED_CACHE.get(),
        )
        .uint(
            "degraded_saliency",
            ses_obs::metrics::SERVE_DEGRADED_SALIENCY.get(),
        )
        .uint(
            "degraded_predict_only",
            ses_obs::metrics::SERVE_DEGRADED_PREDICT_ONLY.get(),
        )
        .emit();

    eprintln!(
        "serve-drill: ok ({} admitted, {} shed, {} completed)",
        ses_obs::metrics::SERVE_ADMITTED.get(),
        ses_obs::metrics::SERVE_SHED.get(),
        ses_obs::metrics::SERVE_COMPLETED.get()
    );
}
