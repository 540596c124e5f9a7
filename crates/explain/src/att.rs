//! ATT: attention weights of a trained GAT used directly as edge
//! explanations (the baseline of Ying et al., 2019).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_data::Splits;
use ses_gnn::{AdjView, Gat, TrainConfig};
use ses_graph::Graph;

use crate::traits::EdgeExplainer;

/// Attention-based explainer: trains a GAT and reads its first-layer
/// attention coefficients as edge importance.
pub struct AttExplainer {
    graph: Graph,
    adj: AdjView,
    attention: Vec<f32>,
}

impl AttExplainer {
    /// Trains a GAT on `graph` and caches its attention weights.
    pub fn train(graph: &Graph, splits: &Splits, config: &TrainConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut gat = Gat::new(graph.n_features(), 64, graph.n_classes(), 4, &mut rng);
        let adj = AdjView::of_graph(graph);
        ses_gnn::train_node_classifier(&mut gat, graph, &adj, splits, config)
            // lint:allow(no-unwrap): the explainer is meaningless without its trained GAT; a training abort is fatal here
            .expect("ATT backbone training failed");
        let attention = gat.attention_weights(&adj, graph.features());
        Self {
            graph: graph.clone(),
            adj,
            attention,
        }
    }

    /// Raw per-entry attention aligned with the adjacency view.
    pub fn attention(&self) -> &[f32] {
        &self.attention
    }
}

impl EdgeExplainer for AttExplainer {
    fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)> {
        let s = self.adj.structure();
        let sub = ses_graph::Subgraph::ego(&self.graph, node, 2);
        sub.graph
            .edges()
            .map(|(lu, lv)| {
                let (gu, gv) = sub.to_global_edge(lu, lv);
                let w1 = s.find(gu, gv).map_or(0.0, |p| self.attention[p]);
                let w2 = s.find(gv, gu).map_or(0.0, |p| self.attention[p]);
                (gu, gv, 0.5 * (w1 + w2))
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "ATT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_data::{realworld, Profile};

    #[test]
    fn attention_explainer_produces_scores() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 8,
            patience: 0,
            ..Default::default()
        };
        let mut att = AttExplainer::train(&d.graph, &splits, &cfg);
        let e = att.explain_node(0);
        assert!(!e.is_empty());
        assert!(e.iter().all(|&(_, _, w)| (0.0..=1.0).contains(&w)));
    }
}
