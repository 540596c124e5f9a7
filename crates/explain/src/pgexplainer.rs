//! PGExplainer (Luo et al., NeurIPS 2020): a *parameterised* explainer — one
//! shared MLP maps edge embeddings `[z_u ; z_v]` to edge importance, trained
//! once over all instances, then explaining any node in a forward pass.
//!
//! We keep the defining structure (global edge scorer trained with the
//! masked-prediction objective) and replace concrete-distribution sampling
//! with the deterministic sigmoid relaxation.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_gnn::ForwardCtx;
use ses_tensor::{init, Adam, Matrix, Optimizer, Param, Tape};

use crate::backbone::Backbone;
use crate::traits::EdgeExplainer;

/// PGExplainer configuration.
#[derive(Debug, Clone)]
pub struct PgExplainerConfig {
    /// Training epochs of the edge scorer (original: 30).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Edge-mask size penalty.
    pub size_weight: f32,
    /// Hidden width of the scorer MLP.
    pub hidden: usize,
}

impl Default for PgExplainerConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            lr: 3e-3,
            size_weight: 0.05,
            hidden: 32,
        }
    }
}

/// The trained global edge scorer.
pub struct PgExplainer<'a> {
    backbone: &'a Backbone,
    /// Final per-entry edge weights aligned with the backbone's adjacency
    /// view (after training).
    edge_weights: Vec<f32>,
}

impl<'a> PgExplainer<'a> {
    /// Trains the shared edge-scorer MLP against the frozen backbone.
    pub fn train(backbone: &'a Backbone, config: &PgExplainerConfig) -> Self {
        let bb = backbone;
        let emb_dim = bb.embeddings.cols();
        let mut rng = StdRng::seed_from_u64(7);
        let mut w1 = Param::new(init::xavier_uniform(2 * emb_dim, config.hidden, &mut rng));
        let mut b1 = Param::new(Matrix::zeros(1, config.hidden));
        let mut w2 = Param::new(init::xavier_uniform(config.hidden, 1, &mut rng));
        let mut b2 = Param::new(Matrix::zeros(1, 1));
        let mut opt = Adam::new(config.lr);

        let rows = bb.adj.entry_rows().clone();
        let cols = bb.adj.entry_cols().clone();
        let labels = Arc::new(bb.predictions.clone());
        let idx = Arc::new((0..bb.graph.n_nodes()).collect::<Vec<_>>());

        let mut final_weights = vec![1.0f32; bb.adj.nnz()];
        for _ in 0..config.epochs {
            let mut tape = Tape::new();
            let z = tape.constant(bb.embeddings.clone());
            let zu = tape.gather_rows(z, rows.clone());
            let zv = tape.gather_rows(z, cols.clone());
            let cat = tape.concat_cols(zu, zv);
            let v1 = w1.watch(&mut tape);
            let v2 = b1.watch(&mut tape);
            let v3 = w2.watch(&mut tape);
            let v4 = b2.watch(&mut tape);
            let h = tape.linear(cat, v1, v2);
            let h = tape.relu(h);
            let logit = tape.linear(h, v3, v4);
            let mask = tape.sigmoid(logit);

            let x = tape.constant(bb.graph.features().clone());
            let out = {
                let mut fctx = ForwardCtx {
                    tape: &mut tape,
                    adj: &bb.adj,
                    x,
                    edge_mask: Some(mask),
                    train: false,
                    rng: &mut rng,
                };
                bb.encoder.forward(&mut fctx)
            };
            let nll = tape.cross_entropy_masked(out.logits, labels.clone(), idx.clone());
            let size = tape.mean_all(mask);
            let reg = tape.scale(size, config.size_weight);
            let loss = tape.add(nll, reg);
            tape.backward(loss);

            final_weights = tape.value(mask).as_slice().to_vec();
            let g1 = tape.grad_unwrap(v1).clone();
            let g2 = tape.grad_unwrap(v2).clone();
            let g3 = tape.grad_unwrap(v3).clone();
            let g4 = tape.grad_unwrap(v4).clone();
            opt.step(&mut [
                (&mut w1, &g1),
                (&mut b1, &g2),
                (&mut w2, &g3),
                (&mut b2, &g4),
            ]);
        }
        Self {
            backbone,
            edge_weights: final_weights,
        }
    }

    /// Per-entry edge weights aligned with the backbone's adjacency view.
    pub fn edge_weights(&self) -> &[f32] {
        &self.edge_weights
    }
}

impl EdgeExplainer for PgExplainer<'_> {
    fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)> {
        let s = self.backbone.adj.structure();
        let sub = ses_graph::Subgraph::ego(&self.backbone.graph, node, 2);
        sub.graph
            .edges()
            .map(|(lu, lv)| {
                let (gu, gv) = sub.to_global_edge(lu, lv);
                let w1 = s.find(gu, gv).map_or(0.0, |p| self.edge_weights[p]);
                let w2 = s.find(gv, gu).map_or(0.0, |p| self.edge_weights[p]);
                (gu, gv, 0.5 * (w1 + w2))
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "PGExplainer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_data::{realworld, Profile, Splits};
    use ses_gnn::TrainConfig;

    #[test]
    fn scorer_trains_and_scores() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 25,
            patience: 0,
            ..Default::default()
        };
        let bb = Backbone::train_gcn(&d.graph, &splits, &cfg);
        let mut pg = PgExplainer::train(
            &bb,
            &PgExplainerConfig {
                epochs: 8,
                ..Default::default()
            },
        );
        assert_eq!(pg.edge_weights().len(), bb.adj.nnz());
        let e = pg.explain_node(0);
        assert!(!e.is_empty());
        assert!(e.iter().all(|&(_, _, w)| (0.0..=1.0).contains(&w)));
        // trained weights should not be the constant sigmoid(0)=0.5
        let spread = e
            .iter()
            .map(|&(_, _, w)| w)
            .fold((1.0f32, 0.0f32), |(lo, hi), w| (lo.min(w), hi.max(w)));
        assert!(
            spread.1 - spread.0 > 1e-4,
            "weights should differentiate: {spread:?}"
        );
    }
}
