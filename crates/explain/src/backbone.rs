//! A trained backbone bundle shared by all post-hoc explainers: the frozen
//! encoder plus the graph, adjacency view, and the model's own predictions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_data::Splits;
use ses_gnn::{predict, train_node_classifier, AdjView, Encoder, Gat, Gcn, TrainConfig};
use ses_graph::Graph;
use ses_tensor::Matrix;

/// A frozen, trained GNN together with everything explainers query.
pub struct Backbone {
    /// The trained encoder.
    pub encoder: Box<dyn Encoder>,
    /// The graph it was trained on.
    pub graph: Graph,
    /// 1-hop adjacency view.
    pub adj: AdjView,
    /// Model predictions for every node (the quantity post-hoc explainers
    /// explain).
    pub predictions: Vec<usize>,
    /// Hidden-layer embeddings (`n × hidden`).
    pub embeddings: Matrix,
    /// Test accuracy of the trained backbone.
    pub test_acc: f64,
}

impl Backbone {
    /// Trains a GCN backbone on `graph` and freezes it.
    pub fn train_gcn(graph: &Graph, splits: &Splits, config: &TrainConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let enc = Gcn::new(graph.n_features(), 64, graph.n_classes(), &mut rng);
        Self::train(Box::new(enc), graph, splits, config)
    }

    /// Trains a GAT backbone on `graph` and freezes it.
    pub fn train_gat(graph: &Graph, splits: &Splits, config: &TrainConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let enc = Gat::new(graph.n_features(), 64, graph.n_classes(), 4, &mut rng);
        Self::train(Box::new(enc), graph, splits, config)
    }

    /// Trains an arbitrary encoder and freezes it.
    pub fn train(
        mut encoder: Box<dyn Encoder>,
        graph: &Graph,
        splits: &Splits,
        config: &TrainConfig,
    ) -> Self {
        let adj = AdjView::of_graph(graph);
        let report = train_node_classifier(encoder.as_mut(), graph, &adj, splits, config)
            // lint:allow(no-unwrap): explainers need a trained backbone; a training abort (leak budget / unrecoverable divergence) is fatal here
            .expect("backbone training failed");
        let (predictions, embeddings) = {
            let eval = predict(encoder.as_ref(), &adj, graph.features(), None);
            (eval.classes(), eval.hidden().clone())
        };
        Self {
            encoder,
            graph: graph.clone(),
            adj,
            predictions,
            embeddings,
            test_acc: report.test_acc,
        }
    }

    /// Runs the frozen encoder on custom features / edge values and returns
    /// logits. Pass `None` to use the originals.
    pub fn logits(
        &self,
        features: Option<&Matrix>,
        edge_values: Option<&[f32]>,
        adj: Option<&AdjView>,
    ) -> Matrix {
        predict(
            self.encoder.as_ref(),
            adj.unwrap_or(&self.adj),
            features.unwrap_or(self.graph.features()),
            edge_values,
        )
        .logits()
        .clone()
    }

    /// Row-softmax probabilities from [`Backbone::logits`].
    pub fn probabilities(&self, features: Option<&Matrix>, edge_values: Option<&[f32]>) -> Matrix {
        let logits = self.logits(features, edge_values, None);
        let (n, c) = logits.shape();
        let mut out = Matrix::zeros(n, c);
        for i in 0..n {
            let row = logits.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let denom: f32 = row.iter().map(|&v| (v - max).exp()).sum();
            for j in 0..c {
                out[(i, j)] = (row[j] - max).exp() / denom;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_data::{realworld, Profile};

    #[test]
    fn backbone_trains_and_predicts() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 40,
            patience: 0,
            ..Default::default()
        };
        let bb = Backbone::train_gcn(&d.graph, &splits, &cfg);
        assert!(bb.test_acc > 0.8, "backbone accuracy {}", bb.test_acc);
        assert_eq!(bb.predictions.len(), d.graph.n_nodes());
        let probs = bb.probabilities(None, None);
        for i in 0..4 {
            let s: f32 = probs.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
