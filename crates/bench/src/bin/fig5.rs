//! Fig. 5: 2-D visualisation of learned node representations on the
//! CiteSeer stand-in — t-SNE coordinates for SES(GCN), SES(GAT), SEGNN and
//! ProtGNN embeddings, one CSV per model (x, y, label).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_bench::*;
use ses_core::{fit, MaskGenerator};
use ses_data::Profile;
use ses_explain::{Backbone, ProtGnn, ProtGnnConfig};
use ses_gnn::{Encoder, Gat, Gcn};
use ses_metrics::{tsne_2d, TsneConfig};
use ses_tensor::Matrix;

fn main() {
    let profile = Profile::from_env();
    let seed = 55;
    let d = &realworld_datasets(profile, seed)[1]; // citeseer-like
    let g = &d.graph;
    let splits = classification_splits(d, seed);
    let hidden = hidden_dim(profile);

    let emit = |name: &str, emb: &Matrix| {
        let mut rng = StdRng::seed_from_u64(seed);
        // subsample for t-SNE's O(n²) iterations
        let stride = (g.n_nodes() / 400).max(1);
        let idx: Vec<usize> = (0..g.n_nodes()).step_by(stride).collect();
        let sub = emb.gather_rows(&idx);
        let cfg = TsneConfig {
            iterations: 250,
            ..Default::default()
        };
        let y = tsne_2d(&sub, &cfg, &mut rng);
        let rows: Vec<String> = idx
            .iter()
            .enumerate()
            .map(|(i, &v)| format!("{},{},{}", y[(i, 0)], y[(i, 1)], g.labels()[v]))
            .collect();
        write_csv(&format!("fig5_{name}.csv"), "x,y,label", &rows).expect("write experiment csv");
        let labels: Vec<usize> = idx.iter().map(|&v| g.labels()[v]).collect();
        let svg = ses_metrics::scatter_svg(&y, &labels, name);
        let path = experiments_dir()
            .expect("create experiments dir")
            .join(format!("fig5_{name}.svg"));
        std::fs::write(&path, svg).expect("write svg");
        eprintln!(
            "fig5: {name} projected ({} points) -> {}",
            idx.len(),
            path.display()
        );
    };

    {
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = Gcn::new(g.n_features(), hidden, g.n_classes(), &mut rng);
        let mg = MaskGenerator::new(enc.hidden_dim(), g.n_features(), &mut rng);
        let trained = fit(enc, mg, g, &splits, &ses_prediction_config(profile, seed));
        emit("ses_gcn", &trained.embeddings);
    }
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = Gat::new(g.n_features(), hidden, g.n_classes(), 4, &mut rng);
        let mg = MaskGenerator::new(enc.hidden_dim(), g.n_features(), &mut rng);
        let trained = fit(enc, mg, g, &splits, &ses_prediction_config(profile, seed));
        emit("ses_gat", &trained.embeddings);
    }
    {
        let bb = Backbone::train_gcn(g, &splits, &backbone_config(seed));
        emit("segnn", &bb.embeddings);
    }
    {
        let cfg = ProtGnnConfig {
            epochs: 150,
            hidden,
            seed,
            ..Default::default()
        };
        let model = ProtGnn::train(g, &splits, &cfg);
        emit("protgnn", &model.embeddings);
    }
    println!("Fig. 5 coordinates written to target/experiments/fig5_*.csv");
}
