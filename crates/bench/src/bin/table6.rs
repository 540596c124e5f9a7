//! Table 6: inference time of generating explanations for **all nodes** on
//! the Cora stand-in — {GNNExplainer, GraphLIME, PGExplainer, SEGNN,
//! SES (et)}.
//!
//! Per the paper's protocol: for GNNExplainer and GraphLIME the time is the
//! per-node re-optimisation over every node; for PGExplainer it is the
//! scorer's training; for SEGNN the similarity-based classification of all
//! nodes; for SES the explainable-training phase (after which explanations
//! for all nodes are available at once).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_bench::*;
use ses_core::{fit, MaskGenerator};
use ses_data::Profile;
use ses_explain::*;
use ses_gnn::Gcn;
use ses_obs::Stopwatch;

fn main() {
    let profile = Profile::from_env();
    let seed = 6;
    let d = &realworld_datasets(profile, seed)[0]; // cora-like
    let g = &d.graph;
    let splits = classification_splits(d, seed);
    let cfg = backbone_config(seed);
    let bb = Backbone::train_gcn(g, &splits, &cfg);
    eprintln!("backbone acc {:.3}", bb.test_acc);

    let mut sheet = TimingSheet::new(
        "Table 6: explanation inference time, all nodes, Cora stand-in",
        "table6.csv",
        "method,seconds",
        &["method", "time"],
    );

    // GNNExplainer: re-optimise a mask per node.
    let mut sw = Stopwatch::start();
    {
        let e = GnnExplainer::new(
            &bb,
            GnnExplainerConfig {
                iterations: 100,
                ..Default::default()
            },
        );
        for v in 0..g.n_nodes() {
            let _ = e.explain(v);
        }
    }
    sheet.record("GNNExplainer", sw.lap().as_secs_f64());

    // GraphLIME: one lasso fit per node.
    {
        let e = GraphLime::new(&bb, GraphLimeConfig::default());
        for v in 0..g.n_nodes() {
            let _ = e.explain(v);
        }
    }
    sheet.record("GraphLIME", sw.lap().as_secs_f64());

    // PGExplainer: train the global scorer once.
    {
        let _ = PgExplainer::train(&bb, &PgExplainerConfig::default());
    }
    sheet.record("PGExplainer", sw.lap().as_secs_f64());

    // SEGNN: similarity classification of every node (includes its share of
    // backbone training, as the paper counts self-explainable training time).
    {
        let bb2 = Backbone::train_gcn(g, &splits, &cfg);
        let segnn = Segnn::new(&bb2, &splits, SegnnConfig::default());
        for v in 0..g.n_nodes() {
            let _ = segnn.classify(v);
        }
    }
    sheet.record("SEGNN", sw.lap().as_secs_f64());

    // SES (et): explainable training produces all explanations at once.
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let hidden = hidden_dim(profile);
        let enc = Gcn::new(g.n_features(), hidden, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(hidden, g.n_features(), &mut rng);
        let mut cfg = ses_prediction_config(profile, seed);
        cfg.epochs_epl = 0; // et phase only: that is when explanations exist
        let trained = fit(enc, mg, g, &splits, &cfg);
        sheet.record("SES (et)", trained.report.explain_time.as_secs_f64());
    }

    sheet.finish().expect("write experiment csv");
}
