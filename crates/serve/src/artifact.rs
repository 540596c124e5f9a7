//! The frozen model artifact a server loads at startup.
//!
//! Serving is forward-only: no tape, no optimiser, no mutation. A
//! [`ModelArtifact`] bundles everything the request path reads — the graph,
//! the per-node predictions and the global SES masks ([`Explanations`]) a
//! fitted model produced.

use ses_core::Explanations;
use ses_graph::Graph;

/// Frozen serving state. See the module docs.
pub struct ModelArtifact {
    /// The served graph.
    pub graph: Graph,
    /// Per-node predicted class.
    pub predictions: Vec<usize>,
    /// Global SES masks (feature + k-hop structure).
    pub explanations: Explanations,
    /// Neighbourhood radius the structure mask is defined over.
    pub k: usize,
}

impl ModelArtifact {
    /// Builds an artifact from already-frozen parts. Predictions must cover
    /// every node.
    ///
    /// # Panics
    /// Panics when `predictions.len() != graph.n_nodes()` — serving an
    /// unpredictable node is not a recoverable condition.
    pub fn from_parts(
        graph: Graph,
        predictions: Vec<usize>,
        explanations: Explanations,
        k: usize,
    ) -> Self {
        assert_eq!(
            predictions.len(),
            graph.n_nodes(),
            "one prediction per node"
        );
        Self {
            graph,
            predictions,
            explanations,
            k,
        }
    }

    /// The predicted class of `node`, if it is in the served graph.
    pub fn prediction(&self, node: usize) -> Option<usize> {
        self.predictions.get(node).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_tensor::Matrix;

    fn small_graph() -> Graph {
        Graph::new(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            Matrix::from_vec(6, 2, (0..12).map(|i| i as f32 * 0.1).collect()),
            vec![0, 0, 0, 1, 1, 1],
        )
    }

    fn uniform_masks(graph: &Graph) -> Explanations {
        let khop = ses_graph::khop_structure(graph, 2);
        Explanations {
            feature_mask: Matrix::full(graph.n_nodes(), graph.n_features(), 0.5),
            structure_weights: vec![0.5; khop.nnz()],
            khop,
        }
    }

    #[test]
    fn prediction_covers_exactly_the_served_nodes() {
        let g = small_graph();
        let ex = uniform_masks(&g);
        let a = ModelArtifact::from_parts(g, vec![1, 1, 0, 0, 1, 0], ex, 2);
        assert_eq!(a.prediction(0), Some(1));
        assert_eq!(a.prediction(5), Some(0));
        assert_eq!(a.prediction(6), None);
    }

    #[test]
    #[should_panic(expected = "one prediction per node")]
    fn from_parts_rejects_a_prediction_count_off_the_node_count() {
        let g = small_graph();
        let ex = uniform_masks(&g);
        let _ = ModelArtifact::from_parts(g, vec![0; 5], ex, 2);
    }
}
