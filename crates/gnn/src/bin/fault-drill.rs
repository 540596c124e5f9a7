//! `fault-drill` — CI harness proving every recovery path actually fires.
//!
//! Reads a `SES_FAULT` spec (e.g. `SES_FAULT=nan-grad@3,seed=7`), trains a
//! small GCN on the PolBlogs stand-in with that fault in its
//! `TrainConfig`, and exits 0 only when the run both completes *and* the
//! recovery counter matching the injected fault is non-zero — a run that
//! "succeeds" without exercising the recovery path is a drill failure.
//!
//! With `SES_RECOVERY=off` the drill inverts: the retry budget drops to
//! zero, checkpoint writes become strict, and kernel panic isolation is
//! switched off, so the same fault must kill the process (non-zero exit).
//! `ci.sh` asserts both directions for every fault kind. See
//! `docs/ROBUSTNESS.md` for the fault-spec grammar.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_data::{realworld, Profile, Splits};
use ses_gnn::{train_node_classifier, AdjView, Gcn, TrainConfig};
use ses_resilience::{FaultKind, RecoveryPolicy};

fn main() {
    // Counters must count regardless of ambient SES_OBS, and worker-panic
    // faults only fire when kernels actually spawn workers: four threads,
    // and no crossover clamp, which keeps every kernel of this small model
    // serial (the feature product runs sparse, at 400 entries).
    ses_obs::set_enabled_override(Some(true));
    ses_tensor::par::set_thread_override(4);
    ses_tensor::par::dispatch::set_bypass(true);

    let recovery_off = std::env::var("SES_RECOVERY").is_ok_and(|v| v == "off");
    let fault = ses_resilience::fault::from_env();
    match (&fault, recovery_off) {
        (Some(spec), false) => eprintln!("fault-drill: injecting {spec}, recovery ON"),
        (Some(spec), true) => eprintln!("fault-drill: injecting {spec}, recovery OFF"),
        (None, _) => eprintln!("fault-drill: no SES_FAULT set, running clean"),
    }
    if let Some(spec) = &fault {
        if !spec.kind.is_training() {
            // Serve-path faults are drilled by `serve-drill` (ses-serve); the
            // training loop never fires them, so a run would measure nothing.
            eprintln!("fault-drill: {spec} is a serve-path fault; use serve-drill");
            std::process::exit(1);
        }
    }

    let ckpt_path =
        std::env::temp_dir().join(format!("ses-fault-drill-{}.ckpt", std::process::id()));
    let recovery = if recovery_off {
        // Invert every net: no rollback budget, checkpoint IO errors are
        // fatal, and a poisoned worker propagates instead of degrading.
        ses_tensor::par::set_isolation_enabled(false);
        RecoveryPolicy {
            max_retries: 0,
            strict_checkpoints: true,
            ..RecoveryPolicy::standard()
        }
    } else {
        RecoveryPolicy::standard()
    };

    let mut rng = StdRng::seed_from_u64(41);
    let d = realworld::polblogs_like(Profile::Fast, &mut rng);
    let adj = AdjView::of_graph(&d.graph);
    let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
    let mut gcn = Gcn::new(d.graph.n_features(), 8, d.graph.n_classes(), &mut rng);
    let cfg = TrainConfig {
        epochs: 8,
        patience: 0,
        recovery: RecoveryPolicy {
            checkpoint_path: Some(ckpt_path.clone()),
            ..recovery
        },
        fault,
        ..Default::default()
    };

    let result = train_node_classifier(&mut gcn, &d.graph, &adj, &splits, &cfg);
    let _ = std::fs::remove_file(&ckpt_path);

    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fault-drill: training aborted: {e}");
            std::process::exit(1);
        }
    };
    if report.loss_curve.len() != cfg.epochs || !report.loss_curve.iter().all(|l| l.is_finite()) {
        eprintln!(
            "fault-drill: incomplete or non-finite loss curve ({} epochs)",
            report.loss_curve.len()
        );
        std::process::exit(1);
    }

    // The counter matching the injected fault must have moved: recovery that
    // never ran is indistinguishable from a fault that never fired.
    if let Some(spec) = fault {
        let (name, count) = match spec.kind {
            FaultKind::NanGrad => (
                "trainer.recover.rollbacks",
                ses_obs::metrics::TRAIN_RECOVER_ROLLBACKS.get(),
            ),
            FaultKind::WorkerPanic => (
                "kernel.panic_degraded",
                ses_obs::metrics::KERNEL_PANIC_DEGRADED.get(),
            ),
            FaultKind::CkptIo => (
                "trainer.recover.ckpt_io_errors",
                ses_obs::metrics::TRAIN_RECOVER_CKPT_IO_ERRORS.get(),
            ),
            FaultKind::SlowStage(_) | FaultKind::PanicRequest(_) | FaultKind::CachePoison => {
                unreachable!("serve-path kinds rejected above")
            }
        };
        if count == 0 {
            eprintln!("fault-drill: {spec} injected but {name} counter stayed 0");
            std::process::exit(1);
        }
        eprintln!("fault-drill: recovered from {spec} ({name} = {count})");
    }
    eprintln!(
        "fault-drill: ok (final loss {:.4}, test acc {:.3})",
        report.loss_curve.last().copied().unwrap_or(f32::NAN),
        report.test_acc
    );
}
