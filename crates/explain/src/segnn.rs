//! SEGNN (Dai & Wang, CIKM 2021): self-explainable node classification via
//! K-nearest labelled nodes under a combined node/structure similarity.
//!
//! For each unlabelled node the K most similar labelled nodes — by embedding
//! cosine similarity plus local-structure (Jaccard) similarity — vote on the
//! label; the matched nodes and their similarity scores *are* the
//! explanation. Faithful to the original's interface and cost profile
//! (similarity against the whole labelled set per query, which is exactly
//! the expense the SES paper criticises); the representation is learned by
//! a supervised GCN rather than the original's margin objective.

use ses_data::Splits;
use ses_graph::Graph;

use crate::backbone::Backbone;
use crate::traits::EdgeExplainer;

/// SEGNN configuration.
#[derive(Debug, Clone)]
pub struct SegnnConfig {
    /// Number of nearest labelled nodes to vote.
    pub k_nearest: usize,
    /// Weight of structure (Jaccard) similarity vs embedding cosine.
    pub structure_weight: f64,
}

impl Default for SegnnConfig {
    fn default() -> Self {
        Self {
            k_nearest: 7,
            structure_weight: 0.5,
        }
    }
}

/// The SEGNN classifier/explainer.
pub struct Segnn<'a> {
    backbone: &'a Backbone,
    labeled: Vec<usize>,
    config: SegnnConfig,
}

impl<'a> Segnn<'a> {
    /// Builds SEGNN over a trained backbone; `splits.train` is the labelled
    /// pool.
    pub fn new(backbone: &'a Backbone, splits: &Splits, config: SegnnConfig) -> Self {
        Self {
            backbone,
            labeled: splits.train.clone(),
            config,
        }
    }

    /// Combined similarity between two nodes.
    pub fn similarity(&self, u: usize, v: usize) -> f64 {
        let cos = cosine(
            self.backbone.embeddings.row(u),
            self.backbone.embeddings.row(v),
        );
        let jac = jaccard(
            self.backbone.graph.neighbors(u),
            self.backbone.graph.neighbors(v),
        );
        (1.0 - self.config.structure_weight) * cos + self.config.structure_weight * jac
    }

    /// K nearest labelled nodes of `v` with similarities, descending.
    pub fn nearest_labeled(&self, v: usize) -> Vec<(usize, f64)> {
        let mut sims: Vec<(usize, f64)> = self
            .labeled
            .iter()
            .filter(|&&u| u != v)
            .map(|&u| (u, self.similarity(v, u)))
            .collect();
        sims.sort_by(|a, b| b.1.total_cmp(&a.1));
        sims.truncate(self.config.k_nearest);
        sims
    }

    /// Classifies `v` by similarity-weighted vote of its nearest labelled
    /// nodes.
    pub fn classify(&self, v: usize) -> usize {
        let nearest = self.nearest_labeled(v);
        let mut votes = vec![0.0f64; self.backbone.graph.n_classes()];
        for (u, s) in nearest {
            votes[self.backbone.graph.labels()[u]] += s.max(0.0) + 1e-9;
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Accuracy over an index set.
    pub fn accuracy(&self, idx: &[usize]) -> f64 {
        let labels = self.backbone.graph.labels();
        let correct = idx
            .iter()
            .filter(|&&v| self.classify(v) == labels[v])
            .count();
        correct as f64 / idx.len() as f64
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.backbone.graph
    }
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += (x * y) as f64;
        na += (x * x) as f64;
        nb += (y * y) as f64;
    }
    if na.abs().to_bits() == 0 || nb.abs().to_bits() == 0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

fn jaccard(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    // both are sorted (CSR row indices)
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / (a.len() + b.len() - inter) as f64
}

impl EdgeExplainer for Segnn<'_> {
    /// Edge scores from endpoint similarity: SEGNN's structural rationale.
    fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)> {
        let sub = ses_graph::Subgraph::ego(&self.backbone.graph, node, 2);
        sub.graph
            .edges()
            .map(|(lu, lv)| {
                let (gu, gv) = sub.to_global_edge(lu, lv);
                (gu, gv, self.similarity(gu, gv) as f32)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "SEGNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use ses_data::{realworld, Profile};
    use ses_gnn::TrainConfig;

    #[test]
    fn jaccard_and_cosine_basics() {
        assert_eq!(jaccard(&[1, 2, 3], &[2, 3, 4]), 0.5);
        assert_eq!(jaccard(&[], &[]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-9);
    }

    #[test]
    fn segnn_classifies_strong_sbm() {
        let mut rng = StdRng::seed_from_u64(8);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 30,
            patience: 0,
            ..Default::default()
        };
        let bb = Backbone::train_gcn(&d.graph, &splits, &cfg);
        let segnn = Segnn::new(&bb, &splits, SegnnConfig::default());
        let acc = segnn.accuracy(&splits.test);
        assert!(acc > 0.8, "SEGNN accuracy {acc}");
    }

    #[test]
    fn explanations_score_similar_endpoints_higher() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = realworld::polblogs_like(Profile::Fast, &mut rng);
        let splits = Splits::classification(d.graph.n_nodes(), &mut rng);
        let cfg = TrainConfig {
            epochs: 30,
            patience: 0,
            ..Default::default()
        };
        let bb = Backbone::train_gcn(&d.graph, &splits, &cfg);
        let mut segnn = Segnn::new(&bb, &splits, SegnnConfig::default());
        let edges = segnn.explain_node(0);
        assert!(!edges.is_empty());
        // same-class endpoint edges should score higher on average
        let labels = d.graph.labels();
        let (mut same, mut diff, mut ns, mut nd) = (0.0, 0.0, 0, 0);
        for &(u, v, w) in &edges {
            if labels[u] == labels[v] {
                same += w as f64;
                ns += 1;
            } else {
                diff += w as f64;
                nd += 1;
            }
        }
        if ns > 0 && nd > 0 {
            assert!(same / ns as f64 > diff / nd as f64);
        }
    }
}
