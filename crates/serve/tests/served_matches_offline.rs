//! What is served is what was trained: a server over a freshly fitted SES
//! model answers every node with the model's prediction and exactly the
//! offline explainer's edges (same order, same weight bits), on a cache
//! miss and on the hit that follows, and four threads draining one shared
//! queue answer bit-identically to a single-threaded server.

use std::sync::{Barrier, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_core::{fit, Explanations, MaskGenerator, SesConfig};
use ses_data::{synthetic, Splits};
use ses_explain::{EdgeExplainer, SesExplainer};
use ses_gnn::{Encoder, Gin};
use ses_graph::Graph;
use ses_obs::metrics;
use ses_serve::{ModelArtifact, Response, ServeConfig, Server, Tier};

/// A small SES(GIN) model on tree-cycle, fitted once per test binary
/// (about a second in release).
struct Trained {
    graph: Graph,
    predictions: Vec<usize>,
    explanations: Explanations,
}

fn trained() -> &'static Trained {
    static TRAINED: OnceLock<Trained> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(5);
        let data = synthetic::tree_cycle(&mut rng);
        let graph = data.dataset.graph;
        let splits = Splits::explanation(graph.n_nodes(), &mut rng);
        let enc = Gin::new(graph.n_features(), 32, graph.n_classes(), &mut rng);
        let mg = MaskGenerator::new(enc.hidden_dim(), graph.n_features(), &mut rng);
        let config = SesConfig {
            seed: 5,
            k: 2,
            epochs_explain: 300,
            epochs_epl: 10,
            ..SesConfig::default()
        };
        let t = fit(enc, mg, &graph, &splits, &config);
        assert!(
            t.predictions.iter().any(|&p| p != t.predictions[0]),
            "the fixture model must predict more than one class"
        );
        Trained {
            graph,
            predictions: t.predictions,
            explanations: t.explanations,
        }
    })
}

fn server(t: &Trained, cfg: ServeConfig) -> Server {
    let artifact = ModelArtifact::from_parts(
        t.graph.clone(),
        t.predictions.clone(),
        t.explanations.clone(),
        2,
    );
    Server::new(artifact, cfg)
}

/// Edges with weights by bit pattern, so `-0.0`/`0.0` and NaNs compare
/// exactly.
fn bits(edges: &[(usize, usize, f32)]) -> Vec<(usize, usize, u32)> {
    edges.iter().map(|&(u, v, w)| (u, v, w.to_bits())).collect()
}

#[test]
fn every_node_serves_the_offline_explanation() {
    let _obs = ses_obs::force_enabled(true);
    let t = trained();
    let server = server(t, ServeConfig::default());
    let mut offline = SesExplainer::new(t.explanations.clone(), t.graph.clone());
    for node in 0..t.graph.n_nodes() {
        let expected = bits(&offline.explain_node(node));
        for tier in [Tier::Full, Tier::Cache] {
            let r = server.serve_one(node).expect("served");
            assert_eq!((r.tier, r.degraded), (tier, false), "node {node}");
            assert_eq!(r.prediction, t.predictions[node], "node {node}");
            assert_eq!(bits(&r.edges), expected, "node {node}, {tier:?}");
        }
    }
}

#[test]
fn four_threads_draining_one_queue_answer_like_one_thread() {
    let _obs = ses_obs::force_enabled(true);
    let t = trained();
    let n = t.graph.n_nodes();
    // Half the requests go to eight hot nodes, half are uniform.
    let mut rng = StdRng::seed_from_u64(9);
    let requests: Vec<usize> = (0..400)
        .map(|i| {
            if i % 2 == 0 {
                rng.gen_range(0..8usize) * (n / 8)
            } else {
                rng.gen_range(0..n)
            }
        })
        .collect();

    let single = server(t, ServeConfig::default());
    let expected: Vec<Response> = (0..n)
        .map(|node| single.serve_one(node).expect("served"))
        .collect();

    let shared = server(
        t,
        ServeConfig {
            queue_capacity: requests.len(),
            ..ServeConfig::default()
        },
    );
    for &node in &requests {
        shared.submit(node).expect("the queue holds every request");
    }
    let completed_before = metrics::SERVE_COMPLETED.get();
    // All four workers start draining together, so they contend on the
    // queue and the cache from the first request on.
    let start = Barrier::new(4);
    let answered: Vec<(u64, Response)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut out = Vec::new();
                    while let Some((req, result)) = shared.run_next() {
                        out.push((req.id, result.expect("served")));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });

    assert_eq!(answered.len(), requests.len());
    let mut ids: Vec<u64> = answered.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), requests.len(), "every request answered once");
    for (id, r) in &answered {
        assert_eq!(r.node, requests[*id as usize], "request {id}");
        assert!(matches!(r.tier, Tier::Full | Tier::Cache), "request {id}");
        assert!(!r.degraded, "request {id}");
        let want = &expected[r.node];
        assert_eq!(r.prediction, want.prediction, "request {id}");
        assert_eq!(bits(&r.edges), bits(&want.edges), "request {id}");
    }
    assert_eq!(
        metrics::SERVE_COMPLETED.get(),
        completed_before + requests.len() as u64
    );
}
