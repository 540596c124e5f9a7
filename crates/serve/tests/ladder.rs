//! End-to-end exercise of the graceful-degradation ladder: one server, one
//! request sequence, all four tiers observed in order — full SES explain →
//! healthy cache hit → degraded cache hit → gradient-saliency fallback →
//! predict-only — with the shed / degraded / deadline-breach counters
//! moving exactly as the ladder steps down.

use ses_obs::metrics;
use ses_resilience::FaultSpec;
use ses_serve::{ModelArtifact, ServeConfig, ServeError, Server, Tier};

fn two_triangle_server(cfg: ServeConfig) -> Server {
    let graph = ses_graph::Graph::new(
        6,
        &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        ses_tensor::Matrix::from_vec(6, 2, (0..12).map(|i| i as f32 * 0.1).collect()),
        vec![0, 0, 0, 1, 1, 1],
    );
    Server::new(ModelArtifact::synthetic(graph, 2, 11), cfg)
}

#[test]
fn ladder_steps_down_full_cache_saliency_predict_only() {
    let _obs = ses_obs::force_enabled(true);
    // panic@request-2 with no retries and a hair-trigger breaker: request 2
    // fails its only attempt and every later request routes degraded.
    let server = two_triangle_server(ServeConfig {
        fault: Some(FaultSpec::parse("panic@request-2").expect("valid spec")),
        max_retries: 0,
        breaker_threshold: 1,
        breaker_cooldown: 16,
        ..ServeConfig::default()
    });

    let degraded_cache_0 = metrics::SERVE_DEGRADED_CACHE.get();
    let degraded_saliency_0 = metrics::SERVE_DEGRADED_SALIENCY.get();
    let degraded_predict_0 = metrics::SERVE_DEGRADED_PREDICT_ONLY.get();
    let breach_0 = metrics::SERVE_DEADLINE_BREACH.get();
    let hit_0 = metrics::SERVE_CACHE_HIT.get();
    let isolated_0 = metrics::SERVE_PANIC_ISOLATED.get();
    let breaker_0 = metrics::SERVE_BREAKER_OPEN.get();

    // Rung 1 — request 0: healthy full explanation, cached on the way out.
    let r0 = server.serve_one(0).expect("full");
    assert_eq!(r0.tier, Tier::Full);
    assert!(!r0.degraded);
    assert!(!r0.edges.is_empty());

    // Rung 1.5 — request 1: healthy cache hit; NOT a degradation.
    let r1 = server.serve_one(0).expect("healthy cache hit");
    assert_eq!(r1.tier, Tier::Cache);
    assert!(!r1.degraded);
    assert_eq!(r1.edges, r0.edges);
    assert_eq!(metrics::SERVE_DEGRADED_CACHE.get(), degraded_cache_0);

    // Rung 2 — request 2 panics, is isolated, trips the breaker, and falls
    // to the ladder, which still finds the cached explanation.
    let r2 = server.serve_one(0).expect("degraded cache");
    assert_eq!(r2.tier, Tier::Cache);
    assert!(r2.degraded);
    assert_eq!(r2.edges, r0.edges);
    assert_eq!(metrics::SERVE_PANIC_ISOLATED.get(), isolated_0 + 1);
    assert_eq!(metrics::SERVE_BREAKER_OPEN.get(), breaker_0 + 1);
    assert_eq!(metrics::SERVE_DEGRADED_CACHE.get(), degraded_cache_0 + 1);

    // Rung 3 — request 3: breaker open, uncached node → saliency fallback.
    let r3 = server.serve_one(4).expect("saliency");
    assert_eq!(r3.tier, Tier::Saliency);
    assert!(r3.degraded);
    assert!(!r3.edges.is_empty(), "saliency still explains");
    assert_eq!(
        metrics::SERVE_DEGRADED_SALIENCY.get(),
        degraded_saliency_0 + 1
    );

    // Rung 4 — request 4: breaker open AND a zero deadline → the ladder has
    // no budget for any explanation work; prediction-only, breach counted.
    server
        .submit_with_deadline(5, 0)
        .expect("admission is budget-free");
    let (_, r4) = server.run_next().expect("queued");
    let r4 = r4.expect("predict-only");
    assert_eq!(r4.tier, Tier::PredictOnly);
    assert!(r4.degraded);
    assert!(r4.edges.is_empty());
    assert_eq!(r4.prediction, 1, "prediction survives at the bottom rung");
    assert!(metrics::SERVE_DEADLINE_BREACH.get() > breach_0);
    assert_eq!(
        metrics::SERVE_DEGRADED_PREDICT_ONLY.get(),
        degraded_predict_0 + 1
    );

    // Every degraded response still came from a live process that keeps
    // serving: the cache-hit counter moved and nothing errored.
    assert!(metrics::SERVE_CACHE_HIT.get() >= hit_0 + 2);
}

#[test]
fn shed_then_recover_under_burst() {
    let _obs = ses_obs::force_enabled(true);
    let server = two_triangle_server(ServeConfig {
        queue_capacity: 3,
        ..ServeConfig::default()
    });
    let shed_0 = metrics::SERVE_SHED.get();
    let mut shed = 0;
    for i in 0..5 {
        match server.submit(i % 6) {
            Ok(_) => {}
            Err(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 3);
                shed += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(shed, 2, "reject-newest: exactly the overflow is shed");
    assert_eq!(metrics::SERVE_SHED.get(), shed_0 + 2);
    let mut served = 0;
    while let Some((_, result)) = server.run_next() {
        result.expect("admitted requests all complete");
        served += 1;
    }
    assert_eq!(served, 3, "admitted work survives the burst");
}
