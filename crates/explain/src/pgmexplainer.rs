//! PGMExplainer (Vu & Thai, NeurIPS 2020): perturbation-based probabilistic
//! explanation.
//!
//! The original fits a Bayesian network over perturbation outcomes; this
//! implementation keeps the measurement core — randomly perturb the features
//! of nodes in the target's neighbourhood, record whether the model's
//! prediction for the target survives, and score each neighbour by the
//! dependence between "neighbour was perturbed" and "prediction changed"
//! (a 2×2 contingency chi-square statistic). Edge scores are derived from
//! endpoint node scores.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_gnn::AdjView;
use ses_graph::Subgraph;

use crate::backbone::Backbone;
use crate::traits::EdgeExplainer;

/// PGMExplainer configuration.
#[derive(Debug, Clone)]
pub struct PgmExplainerConfig {
    /// Number of random perturbation trials per node (original: ~100).
    pub trials: usize,
    /// Probability a neighbourhood node is perturbed in a trial.
    pub perturb_prob: f64,
    /// k-hop radius of the explained subgraph.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PgmExplainerConfig {
    fn default() -> Self {
        Self {
            trials: 60,
            perturb_prob: 0.4,
            k: 2,
            seed: 0,
        }
    }
}

/// Perturbation-dependence explainer over a frozen backbone.
pub struct PgmExplainer<'a> {
    backbone: &'a Backbone,
    config: PgmExplainerConfig,
}

impl<'a> PgmExplainer<'a> {
    /// Creates a PGMExplainer.
    pub fn new(backbone: &'a Backbone, config: PgmExplainerConfig) -> Self {
        Self { backbone, config }
    }

    /// Chi-square statistic of a 2×2 contingency table
    /// (perturbed × prediction-changed).
    fn chi_square(table: [[f64; 2]; 2]) -> f64 {
        let total: f64 = table.iter().flatten().sum();
        if total.abs().to_bits() == 0 {
            return 0.0;
        }
        let row: Vec<f64> = (0..2).map(|i| table[i][0] + table[i][1]).collect();
        let col: Vec<f64> = (0..2).map(|j| table[0][j] + table[1][j]).collect();
        let mut chi = 0.0;
        for i in 0..2 {
            for j in 0..2 {
                let expected = row[i] * col[j] / total;
                if expected > 0.0 {
                    chi += (table[i][j] - expected).powi(2) / expected;
                }
            }
        }
        chi
    }

    /// Node-importance scores for the k-hop neighbourhood of `node`
    /// (global ids → chi-square score).
    pub fn node_scores(&self, node: usize) -> Vec<(usize, f64)> {
        let bb = self.backbone;
        let sub = Subgraph::ego(&bb.graph, node, self.config.k);
        let adj = AdjView::of_graph(&sub.graph);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let base = bb.predictions[node];
        let n_sub = sub.len();

        // counts[l] = 2x2 table: [perturbed?][changed?]
        let mut counts = vec![[[0.0f64; 2]; 2]; n_sub];
        let mut perturbed = vec![false; n_sub];
        for _ in 0..self.config.trials {
            let mut feats = sub.graph.features().clone();
            for (l, p) in perturbed.iter_mut().enumerate() {
                *p = l != sub.center_local && rng.gen_bool(self.config.perturb_prob);
                if *p {
                    // feature perturbation: zero the node's features
                    for x in feats.row_mut(l) {
                        *x = 0.0;
                    }
                }
            }
            let logits = bb.logits(Some(&feats), None, Some(&adj));
            let pred = logits.argmax_rows()[sub.center_local];
            let changed = (pred != base) as usize;
            for l in 0..n_sub {
                counts[l][perturbed[l] as usize][changed] += 1.0;
            }
        }
        (0..n_sub)
            .filter(|&l| l != sub.center_local)
            .map(|l| (sub.global_of[l], Self::chi_square(counts[l])))
            .collect()
    }
}

impl EdgeExplainer for PgmExplainer<'_> {
    fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)> {
        let scores = self.node_scores(node);
        let lookup: std::collections::HashMap<usize, f64> = scores.into_iter().collect();
        let sub = Subgraph::ego(&self.backbone.graph, node, self.config.k);
        sub.graph
            .edges()
            .map(|(lu, lv)| {
                let (gu, gv) = sub.to_global_edge(lu, lv);
                let su = lookup.get(&gu).copied().unwrap_or(0.0);
                let sv = lookup.get(&gv).copied().unwrap_or(0.0);
                (gu, gv, (0.5 * (su + sv)) as f32)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "PGMExplainer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_data::{realworld, Profile, Splits};
    use ses_gnn::TrainConfig;

    #[test]
    fn chi_square_detects_dependence() {
        // perfectly dependent: perturbation always flips
        let dependent = [[30.0, 0.0], [0.0, 30.0]];
        let independent = [[15.0, 15.0], [15.0, 15.0]];
        assert!(PgmExplainer::chi_square(dependent) > 10.0);
        assert!(PgmExplainer::chi_square(independent) < 1e-9);
    }

    #[test]
    fn scores_cover_neighbourhood() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 20,
            patience: 0,
            ..Default::default()
        };
        let bb = Backbone::train_gcn(&d.graph, &splits, &cfg);
        let pgm = PgmExplainer::new(
            &bb,
            PgmExplainerConfig {
                trials: 10,
                k: 1,
                ..Default::default()
            },
        );
        let scores = pgm.node_scores(0);
        assert_eq!(scores.len(), d.graph.degree(0));
        assert!(scores.iter().all(|&(_, s)| s >= 0.0));
    }
}
