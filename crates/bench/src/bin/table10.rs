//! Table 10: ablation studies on the real-world stand-ins — SES minus each
//! component {M_f, M̂_s, L_xent, Triplet}, the post-hoc-mask `+{epl}`
//! variants (GNNExplainer / PGExplainer masks feeding enhanced predictive
//! learning), and full SES, for GCN and GAT backbones.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_bench::*;
use ses_core::{fit, run_epl, Explanations, MaskGenerator, SesConfig, SesVariant};
use ses_data::{Dataset, Profile};
use ses_explain::*;
use ses_gnn::{predict, AdjView, Encoder, Gat, Gcn};
use ses_graph::khop_structure;
use ses_metrics::accuracy;
use ses_tensor::Matrix;

fn run_variant(
    backbone: &str,
    d: &Dataset,
    profile: Profile,
    variant: SesVariant,
    seed: u64,
) -> f64 {
    let g = &d.graph;
    let splits = classification_splits(d, seed);
    let mut cfg: SesConfig = ses_prediction_config(profile, seed);
    cfg.variant = variant;
    let hidden = hidden_dim(profile);
    let mut rng = StdRng::seed_from_u64(seed);
    match backbone {
        "GAT" => {
            let enc = Gat::new(g.n_features(), hidden, g.n_classes(), 4, &mut rng);
            let mg = MaskGenerator::new(enc.hidden_dim(), g.n_features(), &mut rng);
            fit(enc, mg, g, &splits, &cfg).report.test_acc
        }
        _ => {
            let enc = Gcn::new(g.n_features(), hidden, g.n_classes(), &mut rng);
            let mg = MaskGenerator::new(enc.hidden_dim(), g.n_features(), &mut rng);
            fit(enc, mg, g, &splits, &cfg).report.test_acc
        }
    }
}

/// `+{epl}`: a trained plain backbone, masks from a post-hoc explainer, then
/// the SES enhanced-predictive-learning phase on top.
fn run_posthoc_epl(
    backbone: &str,
    explainer: &str,
    d: &Dataset,
    profile: Profile,
    seed: u64,
) -> f64 {
    let g = &d.graph;
    let splits = classification_splits(d, seed);
    let cfg = backbone_config(seed);
    let bb = match backbone {
        "GAT" => Backbone::train_gat(g, &splits, &cfg),
        _ => Backbone::train_gcn(g, &splits, &cfg),
    };
    // Build Explanations from the post-hoc masks over the k-hop structure.
    let khop = khop_structure(g, 2);
    let mut weights = vec![0.5f32; khop.nnz()];
    let feature_mask = match explainer {
        "GEX" => {
            let e = GnnExplainer::new(
                &bb,
                GnnExplainerConfig {
                    iterations: 20,
                    ..Default::default()
                },
            );
            // global feature mask from a sample of nodes; edge weights from
            // per-node masks where available.
            let mut fm = Matrix::ones(g.n_nodes(), g.n_features());
            for v in (0..g.n_nodes()).step_by(10) {
                let ex = e.explain(v);
                fm.row_mut(v).copy_from_slice(ex.feature_mask.row(0));
                for (u, w, score) in ex.edges {
                    if let Some(p) = khop.find(u, w) {
                        weights[p] = score;
                    }
                    if let Some(p) = khop.find(w, u) {
                        weights[p] = score;
                    }
                }
            }
            fm
        }
        _ => {
            let pg = PgExplainer::train(&bb, &PgExplainerConfig::default());
            for (r, c, p) in khop.iter_entries() {
                if let Some(q) = bb.adj.structure().find(r, c) {
                    weights[p] = pg.edge_weights()[q];
                }
            }
            Matrix::ones(g.n_nodes(), g.n_features())
        }
    };
    let explanations = Explanations {
        feature_mask,
        khop,
        structure_weights: weights,
    };

    let mut enc = bb.encoder;
    let mut cfg2: SesConfig = ses_prediction_config(profile, seed);
    cfg2.epochs_epl = cfg2.epochs_epl.max(15);
    run_epl(enc.as_mut(), g, &splits, &explanations, &cfg2);
    let adj = AdjView::of_graph(g);
    let pred = predict(enc.as_ref(), &adj, g.features(), None).classes();
    accuracy(&pred, g.labels(), &splits.test)
}

fn main() {
    let profile = Profile::from_env();
    let seed = 10;
    let variants: Vec<(&str, SesVariant)> = vec![
        (
            "SES -{M_f}",
            SesVariant {
                use_feature_mask: false,
                ..Default::default()
            },
        ),
        (
            "SES -{M̂_s}",
            SesVariant {
                use_structure_mask: false,
                ..Default::default()
            },
        ),
        (
            "SES -{L_xent}",
            SesVariant {
                use_xent_epl: false,
                ..Default::default()
            },
        ),
        (
            "SES -{Triplet}",
            SesVariant {
                use_triplet: false,
                ..Default::default()
            },
        ),
        ("SES", SesVariant::default()),
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for backbone in ["GCN", "GAT"] {
        for (label, variant) in &variants {
            let mut cells = vec![format!("{label} ({backbone})")];
            for d in realworld_datasets(profile, seed) {
                let acc = run_variant(backbone, &d, profile, variant.clone(), seed);
                cells.push(pct(acc));
                csv.push(format!("{label},{backbone},{},{acc:.4}", d.name));
                eprintln!("{label} ({backbone}) {}: {acc:.4}", d.name);
            }
            rows.push(cells);
        }
        for explainer in ["GEX", "PGE"] {
            let mut cells = vec![format!("{explainer}+{{epl}} ({backbone})")];
            for d in realworld_datasets(profile, seed) {
                let acc = run_posthoc_epl(backbone, explainer, &d, profile, seed);
                cells.push(pct(acc));
                csv.push(format!("{explainer}+epl,{backbone},{},{acc:.4}", d.name));
                eprintln!("{explainer}+epl ({backbone}) {}: {acc:.4}", d.name);
            }
            rows.push(cells);
        }
    }

    print_table(
        "Table 10: ablation studies (test accuracy %)",
        &[
            "variant",
            "cora-like",
            "citeseer-like",
            "polblogs-like",
            "cs-like",
        ],
        &rows,
    );
    write_csv("table10.csv", "variant,backbone,dataset,accuracy", &csv)
        .expect("write experiment csv");
}
