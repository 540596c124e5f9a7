//! GNNExplainer (Ying et al., NeurIPS 2019): per-node edge + feature mask
//! optimisation maximising the mutual information between the masked
//! subgraph and the model's prediction.
//!
//! For each node, its 2-hop ego subgraph is extracted; a per-undirected-edge
//! mask and a shared feature mask are optimised to keep the frozen model's
//! prediction while shrinking the masks (size + binary-entropy
//! regularisers, as in the original).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_gnn::{AdjView, ForwardCtx};
use ses_graph::Subgraph;
use ses_tensor::{Adam, Matrix, Optimizer, Param, Tape};

use crate::backbone::Backbone;
use crate::traits::{EdgeExplainer, FeatureExplainer};

/// GNNExplainer configuration.
#[derive(Debug, Clone)]
pub struct GnnExplainerConfig {
    /// Mask-optimisation iterations per node (original: 100).
    pub iterations: usize,
    /// Learning rate of the mask optimiser.
    pub lr: f32,
    /// Edge-mask size penalty.
    pub size_weight: f32,
    /// Edge-mask entropy-proxy penalty.
    pub entropy_weight: f32,
    /// k-hop radius of the explained subgraph.
    pub k: usize,
}

impl Default for GnnExplainerConfig {
    fn default() -> Self {
        Self {
            iterations: 100,
            lr: 0.05,
            size_weight: 0.05,
            entropy_weight: 0.1,
            k: 2,
        }
    }
}

/// Per-node mask-learning explainer over a frozen backbone.
pub struct GnnExplainer<'a> {
    backbone: &'a Backbone,
    config: GnnExplainerConfig,
}

/// One node's learned explanation.
pub struct NodeExplanation {
    /// `(u, v, weight)` per undirected subgraph edge, global ids.
    pub edges: Vec<(usize, usize, f32)>,
    /// Learned feature mask (`1 × F`).
    pub feature_mask: Matrix,
}

impl<'a> GnnExplainer<'a> {
    /// Creates a GNNExplainer over a frozen backbone.
    pub fn new(backbone: &'a Backbone, config: GnnExplainerConfig) -> Self {
        Self { backbone, config }
    }

    /// Optimises the masks for one node.
    pub fn explain(&self, node: usize) -> NodeExplanation {
        let bb = self.backbone;
        let sub = Subgraph::ego(&bb.graph, node, self.config.k);
        let adj = AdjView::of_graph(&sub.graph);
        let n_sub = sub.len();
        let f = bb.graph.n_features();

        // undirected edge list of the subgraph
        let und_edges: Vec<(usize, usize)> = sub.graph.edges().collect();
        let m = und_edges.len();
        if m == 0 {
            return NodeExplanation {
                edges: Vec::new(),
                feature_mask: Matrix::ones(1, f),
            };
        }
        // gather map: view entry -> undirected edge id (loops -> slot m + i)
        let mut edge_id = std::collections::HashMap::new();
        for (i, &(u, v)) in und_edges.iter().enumerate() {
            edge_id.insert((u, v), i);
            edge_id.insert((v, u), i);
        }
        let lift: Arc<Vec<usize>> = Arc::new(
            adj.structure()
                .iter_entries()
                .map(|(r, c, _)| if r == c { m + r } else { edge_id[&(r, c)] })
                .collect(),
        );
        let expand: Arc<Vec<usize>> = Arc::new(vec![0usize; n_sub]);

        let mut edge_logits = Param::new(Matrix::full(m, 1, 1.0));
        let mut feat_logits = Param::new(Matrix::full(1, f, 1.0));
        let mut opt = Adam::new(self.config.lr);
        let mut rng = StdRng::seed_from_u64(0);

        // explain the model's own prediction at the centre
        let target = bb.predictions[sub.global_of[sub.center_local]];
        let labels = Arc::new({
            let mut l = vec![0usize; n_sub];
            l[sub.center_local] = target;
            l
        });
        let idx = Arc::new(vec![sub.center_local]);

        for _ in 0..self.config.iterations {
            let mut tape = Tape::new();
            let el = edge_logits.watch(&mut tape);
            let fl = feat_logits.watch(&mut tape);
            let em = tape.sigmoid(el);
            let fm = tape.sigmoid(fl);

            // lift edge mask onto the view (self-loops stay 1)
            let ones = tape.constant(Matrix::ones(n_sub, 1));
            let ext = tape.concat_rows(em, ones);
            let mask = tape.gather_rows(ext, lift.clone());

            // expand feature mask to all rows and apply
            let fm_rows = tape.gather_rows(fm, expand.clone());
            let x0 = tape.constant(sub.graph.features().clone());
            let x = tape.mul(x0, fm_rows);

            let out = {
                let mut fctx = ForwardCtx {
                    tape: &mut tape,
                    adj: &adj,
                    x,
                    edge_mask: Some(mask),
                    train: false,
                    rng: &mut rng,
                };
                bb.encoder.forward(&mut fctx)
            };
            let nll = tape.cross_entropy_masked(out.logits, labels.clone(), idx.clone());

            // size + binary-entropy regularisers on the edge mask
            let size = tape.mean_all(em);
            let ent_el = tape.binary_entropy(em);
            let ent = tape.mean_all(ent_el);
            let f_size = tape.mean_all(fm);

            let r1 = tape.scale(size, self.config.size_weight);
            let r2 = tape.scale(ent, self.config.entropy_weight);
            let r3 = tape.scale(f_size, self.config.size_weight);
            let t1 = tape.add(nll, r1);
            let t2 = tape.add(t1, r2);
            let loss = tape.add(t2, r3);
            tape.backward(loss);

            let ge = tape.grad_unwrap(el).clone();
            let gf = tape.grad_unwrap(fl).clone();
            opt.step(&mut [(&mut edge_logits, &ge), (&mut feat_logits, &gf)]);
        }

        let weights = edge_logits.value.map(|x| 1.0 / (1.0 + (-x).exp()));
        let edges = und_edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| {
                let (gu, gv) = sub.to_global_edge(u, v);
                (gu, gv, weights[(i, 0)])
            })
            .collect();
        let feature_mask = feat_logits.value.map(|x| 1.0 / (1.0 + (-x).exp()));
        NodeExplanation {
            edges,
            feature_mask,
        }
    }
}

impl EdgeExplainer for GnnExplainer<'_> {
    fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)> {
        self.explain(node).edges
    }

    fn name(&self) -> &'static str {
        "GNNExplainer"
    }
}

impl FeatureExplainer for GnnExplainer<'_> {
    /// Per-node feature masks stacked into an `n × F` importance matrix.
    /// This re-runs the per-node optimisation for every node — the cost the
    /// paper's Table 6 quantifies.
    fn feature_importance(&mut self) -> Matrix {
        let n = self.backbone.graph.n_nodes();
        let f = self.backbone.graph.n_features();
        let mut out = Matrix::zeros(n, f);
        for v in 0..n {
            let e = self.explain(v);
            out.row_mut(v).copy_from_slice(e.feature_mask.row(0));
        }
        out
    }

    fn name(&self) -> &'static str {
        "GNNExplainer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_data::{realworld, Profile, Splits};
    use ses_gnn::TrainConfig;

    #[test]
    fn explanation_prefers_informative_edges() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 30,
            patience: 0,
            ..Default::default()
        };
        let bb = Backbone::train_gcn(&d.graph, &splits, &cfg);
        let gx = GnnExplainer::new(
            &bb,
            GnnExplainerConfig {
                iterations: 25,
                ..Default::default()
            },
        );
        let e = gx.explain(0);
        assert!(!e.edges.is_empty());
        // weights in (0, 1) and not all identical (optimisation happened)
        assert!(e.edges.iter().all(|&(_, _, w)| w > 0.0 && w < 1.0));
        let w0 = e.edges[0].2;
        assert!(e.edges.iter().any(|&(_, _, w)| (w - w0).abs() > 1e-4));
        assert_eq!(e.feature_mask.shape(), (1, d.graph.n_features()));
    }
}
