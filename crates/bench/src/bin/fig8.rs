//! Fig. 8: case studies on the real-world stand-ins — for one centre node
//! per dataset, the neighbour ranking produced by SES's structure mask is
//! compared against the edge-mask rankings of GNNExplainer, PGExplainer and
//! PGMExplainer, annotated with whether each neighbour shares the centre's
//! class (the paper's qualitative criterion).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_bench::*;
use ses_core::{fit, MaskGenerator};
use ses_data::Profile;
use ses_explain::*;
use ses_gnn::Gcn;

fn rank_string(center: usize, ranked: &[(usize, f32)], labels: &[usize]) -> String {
    ranked
        .iter()
        .take(8)
        .map(|&(u, w)| {
            let same = labels[u] == labels[center];
            format!("{u}({}{:.2})", if same { "=" } else { "≠" }, w)
        })
        .collect::<Vec<_>>()
        .join(" > ")
}

/// Ranks the centre's direct neighbours by an edge-explainer's weights.
fn neighbor_rank(
    explainer: &mut dyn EdgeExplainer,
    center: usize,
    graph: &ses_graph::Graph,
) -> Vec<(usize, f32)> {
    let edges = explainer.explain_node(center);
    let mut scored: Vec<(usize, f32)> = graph
        .neighbors(center)
        .iter()
        .map(|&u| {
            let w = edges
                .iter()
                .filter(|&&(a, b, _)| (a == center && b == u) || (a == u && b == center))
                .map(|&(_, _, w)| w)
                .fold(0.0f32, f32::max);
            (u, w)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights must not be NaN"));
    scored
}

fn main() {
    let profile = Profile::from_env();
    let seed = 88;
    let mut csv = Vec::new();
    for d in realworld_datasets(profile, seed) {
        let g = &d.graph;
        let splits = classification_splits(&d, seed);
        // centre node: first test node with ≥ 4 neighbours
        let center = *splits
            .test
            .iter()
            .find(|&&v| g.degree(v) >= 4)
            .expect("some test node has degree >= 4");
        let bb = Backbone::train_gcn(g, &splits, &backbone_config(seed));

        println!(
            "\n--- {} : centre node {center} (class {}) ---",
            d.name,
            g.labels()[center]
        );
        let mut report = |name: &str, ranked: Vec<(usize, f32)>| {
            let s = rank_string(center, &ranked, g.labels());
            println!("{name:>14}: {s}");
            for (rank, (u, w)) in ranked.iter().take(8).enumerate() {
                csv.push(format!(
                    "{},{name},{center},{rank},{u},{w},{}",
                    d.name,
                    (g.labels()[*u] == g.labels()[center]) as u8
                ));
            }
        };

        {
            let mut e = GnnExplainer::new(
                &bb,
                GnnExplainerConfig {
                    iterations: 80,
                    ..Default::default()
                },
            );
            report("GNNExplainer", neighbor_rank(&mut e, center, g));
        }
        {
            let mut e = PgExplainer::train(&bb, &PgExplainerConfig::default());
            report("PGExplainer", neighbor_rank(&mut e, center, g));
        }
        {
            let mut e = PgmExplainer::new(&bb, PgmExplainerConfig::default());
            report("PGMExplainer", neighbor_rank(&mut e, center, g));
        }
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let hidden = hidden_dim(profile);
            let enc = Gcn::new(g.n_features(), hidden, g.n_classes(), &mut rng);
            let mg = MaskGenerator::new(hidden, g.n_features(), &mut rng);
            let trained = fit(enc, mg, g, &splits, &ses_prediction_config(profile, seed));
            let ranked: Vec<(usize, f32)> = trained
                .explanations
                .ranked_neighbors(center)
                .into_iter()
                .filter(|&(u, _)| g.has_edge(center, u))
                .collect();
            report("SES", ranked);
        }
    }
    write_csv(
        "fig8.csv",
        "dataset,method,center,rank,neighbor,weight,same_class",
        &csv,
    )
    .expect("write experiment csv");
}
