//! Table 5: Fidelity+ (%) of feature explanations on the real-world
//! stand-ins — {GNNExplainer, GraphLIME, SES −{L^m_xent}, SES} × {GCN, GAT}
//! backbones. Fidelity+ = accuracy drop after removing each node's top-5
//! most important non-zero features (Eq. 14).
//!
//! Fidelity is evaluated over the test split (the paper averages over all
//! nodes; the test restriction avoids rewarding explainers for train-set
//! memorisation and keeps the per-node explainers CPU-friendly).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_bench::*;
use ses_core::{fit, MaskGenerator, SesConfig, SesVariant};
use ses_data::{Dataset, Profile};
use ses_explain::*;
use ses_gnn::{fidelity_plus, AdjView, Encoder, Gat, Gcn};

const TOP_K: usize = 5;

fn ses_fidelity(
    backbone: &str,
    d: &Dataset,
    profile: Profile,
    masked_xent: bool,
    seed: u64,
) -> f64 {
    let g = &d.graph;
    let splits = classification_splits(d, seed);
    let mut cfg: SesConfig = ses_prediction_config(profile, seed);
    cfg.variant = SesVariant {
        use_masked_xent: masked_xent,
        ..Default::default()
    };
    // a mild size penalty makes the feature mask selective, which is what
    // the top-k removal of Fidelity+ measures
    cfg.mask_size_weight = 0.1;
    let hidden = hidden_dim(profile);
    let mut rng = StdRng::seed_from_u64(seed);
    let adj = AdjView::of_graph(g);
    match backbone {
        "gat" => {
            let enc = Gat::new(g.n_features(), hidden, g.n_classes(), 4, &mut rng);
            let mg = MaskGenerator::new(enc.hidden_dim(), g.n_features(), &mut rng);
            let trained = fit(enc, mg, g, &splits, &cfg);
            fidelity_plus(
                &trained.encoder,
                g,
                &adj,
                &trained.explanations.feature_mask,
                TOP_K,
                &splits.test,
            )
        }
        _ => {
            let enc = Gcn::new(g.n_features(), hidden, g.n_classes(), &mut rng);
            let mg = MaskGenerator::new(enc.hidden_dim(), g.n_features(), &mut rng);
            let trained = fit(enc, mg, g, &splits, &cfg);
            fidelity_plus(
                &trained.encoder,
                g,
                &adj,
                &trained.explanations.feature_mask,
                TOP_K,
                &splits.test,
            )
        }
    }
}

fn main() {
    let profile = Profile::from_env();
    let seed = 5;
    let methods = ["GNNExplainer", "GraphLIME", "SES -{L^m_xent}", "SES"];
    let mut rows = Vec::new();
    let mut csv = Vec::new();

    for backbone in ["GCN", "GAT"] {
        for d in realworld_datasets(profile, seed) {
            let g = &d.graph;
            let splits = classification_splits(&d, seed);
            let cfg = backbone_config(seed);
            let bb = match backbone {
                "GAT" => Backbone::train_gat(g, &splits, &cfg),
                _ => Backbone::train_gcn(g, &splits, &cfg),
            };
            let mut cells = vec![format!("{} ({backbone})", d.name)];
            for method in methods {
                let fid = match method {
                    "GNNExplainer" => {
                        let e = GnnExplainer::new(
                            &bb,
                            GnnExplainerConfig {
                                iterations: 30,
                                ..Default::default()
                            },
                        );
                        // per-node masks only for the evaluated (test) nodes
                        let mut imp = ses_tensor::Matrix::zeros(g.n_nodes(), g.n_features());
                        for &v in &splits.test {
                            let ex = e.explain(v);
                            imp.row_mut(v).copy_from_slice(ex.feature_mask.row(0));
                        }
                        fidelity_plus(bb.encoder.as_ref(), g, &bb.adj, &imp, TOP_K, &splits.test)
                    }
                    "GraphLIME" => {
                        let e = GraphLime::new(&bb, GraphLimeConfig::default());
                        let mut imp = ses_tensor::Matrix::zeros(g.n_nodes(), g.n_features());
                        for &v in &splits.test {
                            let w = e.explain(v);
                            imp.row_mut(v).copy_from_slice(&w);
                        }
                        fidelity_plus(bb.encoder.as_ref(), g, &bb.adj, &imp, TOP_K, &splits.test)
                    }
                    "SES -{L^m_xent}" => {
                        ses_fidelity(&backbone.to_lowercase(), &d, profile, false, seed)
                    }
                    "SES" => ses_fidelity(&backbone.to_lowercase(), &d, profile, true, seed),
                    _ => unreachable!(),
                };
                cells.push(format!("{:.2}", 100.0 * fid));
                csv.push(format!("{},{backbone},{method},{fid:.4}", d.name));
                eprintln!("{} ({backbone}) / {method}: {:.4}", d.name, fid);
            }
            rows.push(cells);
        }
    }

    let mut header = vec!["dataset (backbone)"];
    header.extend(methods);
    print_table(
        "Table 5: Fidelity+ (%) on real-world stand-ins",
        &header,
        &rows,
    );
    write_csv("table5.csv", "dataset,backbone,method,fidelity", &csv)
        .expect("write experiment csv");
}
