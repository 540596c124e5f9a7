//! Training: one untraced `ses_core::fit` (timed as the first fit in a
//! fresh process), its output checks, and the closed-loop serving of the
//! model it produced.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ses_core::{fit, Explanations, MaskGenerator, SesReport};
use ses_explain::{explanation_auc, SesExplainer};
use ses_gnn::Encoder;
use ses_graph::NegativeSets;
use ses_tensor::{Matrix, Tape};

use crate::check::{self, Expected};
use crate::serve::{self, Segment};
use crate::workload::{elapsed_ns, sweep_nodes, Backbone, Setup, Workload};

/// Requests served closed-loop after each fit, at least: enough for p99
/// to have more than ten samples beyond it.
pub const CLOSED_LOOP_REQUESTS: usize = 3000;

/// Closed-loop serving time after each untraced fit, at least. Requests
/// cost microseconds on the sparse graphs, so a fixed count would measure
/// a few milliseconds of warm-up. On a shared 2-vCPU host the p50 of
/// one-second stretches in one process varied by ±20%; a run merges the
/// loops of all its fit processes, spread over the run.
pub const CLOSED_LOOP_TIME: Duration = Duration::from_millis(3000);

/// Motif nodes scored per tree-cycle fit (the Table 4 protocol).
const EVAL_NODES: usize = 24;

/// A fitted model's outputs.
pub struct Fitted {
    pub predictions: Vec<usize>,
    pub explanations: Explanations,
    pub report: SesReport,
    pub mask_generator: MaskGenerator,
    /// Final hidden-layer embeddings, the mask generator's input.
    pub embeddings: Matrix,
    /// Wall time of the `fit` call.
    pub fit_ns: u64,
}

/// Runs `fit` on a copy of the set-up's untrained model, timing only the
/// call itself.
pub fn fit_setup(s: &Setup) -> Fitted {
    fn timed<E: Encoder>(enc: E, mg: MaskGenerator, s: &Setup) -> Fitted {
        let t = Instant::now();
        let trained = fit(enc, mg, &s.graph, &s.splits, &s.config);
        let fit_ns = elapsed_ns(t);
        Fitted {
            predictions: trained.predictions,
            explanations: trained.explanations,
            report: trained.report,
            mask_generator: trained.mask_generator,
            embeddings: trained.embeddings,
            fit_ns,
        }
    }
    match &s.encoder {
        Backbone::Gcn(e) => timed(e.clone(), s.mask_gen.clone(), s),
        Backbone::Gin(e) => timed(e.clone(), s.mask_gen.clone(), s),
    }
}

/// Explanation ROC-AUC against the ground truth the dataset has.
///
/// * Tree-cycle: motif-edge AUC from `ses_explain::explanation_auc` over
///   the Table 4 motif nodes (the GNNExplainer protocol).
/// * The planted-partition stand-ins have no motifs. Their ground truth is
///   the graph itself, the target of the subgraph loss (Eq. 8): how well
///   the trained mask generator scores every k-hop entry above one seeded
///   non-neighbour of the same node. Class labels made a poor ground truth
///   here: on polblogs-like, the per-node same-class AUC read 0.50 on most
///   seeds and up to 0.90 on others, a quartile spread of 44% of the
///   median over ten seeds.
pub fn expl_auc(s: &Setup, f: &Fitted) -> f64 {
    let Some(data) = &s.motifs else {
        return neighbour_auc(s, f);
    };
    let nodes: Vec<usize> = data
        .ground_truth
        .motif_nodes()
        .into_iter()
        .step_by(7)
        .take(EVAL_NODES)
        .collect();
    let mut sx = SesExplainer::new(f.explanations.clone(), s.graph.clone());
    explanation_auc(&mut sx, data, &nodes, 2)
}

fn neighbour_auc(s: &Setup, f: &Fitted) -> f64 {
    let khop = &f.explanations.khop;
    let mut rng = StdRng::seed_from_u64(s.config.seed ^ 0x4e1b_0a2c_9d3e_7f65);
    let negatives = NegativeSets::sample(khop, None, &mut rng);
    let (neg_a, neg_b) = crate::replay::draw_negatives(khop, &negatives, &mut rng);
    let (rows, cols) = khop.entry_endpoints();
    let mut tape = Tape::new();
    let h = tape.constant(f.embeddings.clone());
    let (rows, cols) = (Arc::new(rows), Arc::new(cols));
    let m = f
        .mask_generator
        .forward(&mut tape, h, khop, &rows, &cols, &neg_a, &neg_b);
    let pos = tape.value(m.structure).as_slice();
    let scores: Vec<f32> = pos
        .iter()
        .chain(tape.value(m.structure_neg).as_slice())
        .copied()
        .collect();
    let neighbour: Vec<bool> = (0..scores.len()).map(|i| i < pos.len()).collect();
    ses_metrics::roc_auc(&scores, &neighbour).unwrap_or(f64::NAN)
}

/// One fit's measured outcome, as a fit child reports it to its parent.
pub struct FitOutcome {
    pub fitted: Fitted,
    /// Peak RSS after set-up and fit, before any serving bookkeeping.
    pub rss_mb: f64,
    pub expl_auc: f64,
    pub failures: Vec<String>,
    pub fingerprint: u64,
    pub requests: Segment,
}

/// Fits, checks the outputs, then serves the trained model closed-loop.
pub fn fit_and_serve(w: Workload, s: &Setup, seed: u64) -> FitOutcome {
    let fitted = fit_setup(s);
    let rss_mb = crate::stats::peak_rss_mb();
    let auc = expl_auc(s, &fitted);
    let failures = check::fit_failures(&fitted.report, w.test_acc(&fitted.report), auc, w.floors());
    let fingerprint = check::fingerprint(&fitted.predictions, &fitted.explanations);
    let requests = serve_closed_loop(s, &fitted, seed, CLOSED_LOOP_TIME);
    FitOutcome {
        fitted,
        rss_mb,
        expl_auc: auc,
        failures,
        fingerprint,
        requests,
    }
}

/// Serves the fitted model closed-loop over [`sweep_nodes`] for at least
/// `time`, and checks every response.
pub fn serve_closed_loop(s: &Setup, f: &Fitted, seed: u64, time: Duration) -> Segment {
    let server = serve::make_server(&s.graph, &f.predictions, &f.explanations);
    let expected = Expected::build(&s.graph, &f.predictions, &f.explanations);
    let nodes = sweep_nodes(s.graph.n_nodes(), seed);
    let mut seg = serve::closed_loop(&server, &expected, nodes, CLOSED_LOOP_REQUESTS, time);
    seg.exact_check(&expected);
    seg
}
