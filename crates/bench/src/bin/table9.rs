//! Table 9: clustering quality of learned node representations on the
//! CiteSeer stand-in — Silhouette and Calinski–Harabasz for
//! {SES(GCN), SES(GAT), SEGNN, ProtGNN}.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_bench::*;
use ses_core::{fit, MaskGenerator};
use ses_data::Profile;
use ses_explain::{Backbone, ProtGnn, ProtGnnConfig, Segnn, SegnnConfig};
use ses_gnn::{Encoder, Gat, Gcn};
use ses_metrics::{calinski_harabasz_score, silhouette_score};
use ses_tensor::Matrix;

fn main() {
    let profile = Profile::from_env();
    let seed = 9;
    let d = &realworld_datasets(profile, seed)[1]; // citeseer-like
    let g = &d.graph;
    let splits = classification_splits(d, seed);
    let hidden = hidden_dim(profile);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut record = |name: &str, emb: &Matrix| {
        let sil = silhouette_score(emb, g.labels());
        let ch = calinski_harabasz_score(emb, g.labels());
        rows.push(vec![
            name.to_string(),
            format!("{sil:.3}"),
            format!("{ch:.2}"),
        ]);
        csv.push(format!("{name},{sil:.4},{ch:.2}"));
        eprintln!("{name}: silhouette {sil:.3}, calinski-harabasz {ch:.1}");
    };

    {
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = Gcn::new(g.n_features(), hidden, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(enc.hidden_dim(), g.n_features(), &mut rng);
        let trained = fit(enc, mg, g, &splits, &ses_prediction_config(profile, seed));
        record("SES (GCN)", &trained.embeddings);
    }
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = Gat::new(g.n_features(), hidden, g.n_classes(), 4, &mut rng);
        let mg = MaskGenerator::new(enc.hidden_dim(), g.n_features(), &mut rng);
        let trained = fit(enc, mg, g, &splits, &ses_prediction_config(profile, seed));
        record("SES (GAT)", &trained.embeddings);
    }
    {
        let bb = Backbone::train_gcn(g, &splits, &backbone_config(seed));
        let _segnn = Segnn::new(&bb, &splits, SegnnConfig::default());
        // SEGNN classifies from the backbone's embedding space.
        record("SEGNN", &bb.embeddings);
    }
    {
        let cfg = ProtGnnConfig {
            epochs: 150,
            hidden,
            seed,
            ..Default::default()
        };
        let model = ProtGnn::train(g, &splits, &cfg);
        record("ProtGNN", &model.embeddings);
    }

    print_table(
        "Table 9: clustering metrics on CiteSeer stand-in embeddings",
        &["method", "silhouette", "calinski-harabasz"],
        &rows,
    );
    write_csv("table9.csv", "method,silhouette,calinski_harabasz", &csv)
        .expect("write experiment csv");
}
