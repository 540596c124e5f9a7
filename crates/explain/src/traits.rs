//! Shared explainer interfaces and the Table-4 evaluation harness.

use ses_data::SyntheticDataset;
use ses_metrics::roc_auc;
use ses_tensor::Matrix;

/// An explainer that scores the importance of edges around a node.
pub trait EdgeExplainer {
    /// Scores edges relevant to `node`'s prediction as `(u, v, weight)`
    /// triples (orientation is not significant; the harness symmetrises).
    fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)>;

    /// Short display name (e.g. `"GNNExplainer"`).
    fn name(&self) -> &'static str;
}

/// An explainer that scores feature-dimension importance per node.
pub trait FeatureExplainer {
    /// Importance weights with the same shape as the feature matrix.
    fn feature_importance(&mut self) -> Matrix;

    /// Short display name.
    fn name(&self) -> &'static str;
}

/// Explanation-accuracy evaluation on a synthetic benchmark (Table 4):
/// for each motif node evaluated, every edge inside its k-hop subgraph is
/// labelled by ground truth (motif edge or not) and scored by the explainer;
/// the pooled ROC-AUC is returned (the GNNExplainer protocol).
pub fn explanation_auc(
    explainer: &mut dyn EdgeExplainer,
    data: &SyntheticDataset,
    eval_nodes: &[usize],
    k: usize,
) -> f64 {
    let graph = &data.dataset.graph;
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    let harness_start = ses_obs::Stopwatch::start();
    for &v in eval_nodes {
        let explained = {
            let _span = ses_obs::span!("explain.node");
            let explained = crate::stage::explain_node_traced(explainer, v);
            ses_obs::metrics::EXPLAIN_NODES.incr();
            explained
        };
        // index explained edges for lookup (max over orientations)
        let mut lookup = std::collections::HashMap::new();
        for &(a, b, w) in &explained {
            let key = if a < b { (a, b) } else { (b, a) };
            let e = lookup.entry(key).or_insert(w);
            if w > *e {
                *e = w;
            }
        }
        // candidate edges: edges of the k-hop ego network around v
        let sub = ses_graph::Subgraph::ego(graph, v, k);
        for (lu, lv) in sub.graph.edges() {
            let (gu, gv) = sub.to_global_edge(lu, lv);
            let key = if gu < gv { (gu, gv) } else { (gv, gu) };
            scores.push(lookup.get(&key).copied().unwrap_or(0.0));
            labels.push(data.ground_truth.is_motif_edge(gu, gv));
        }
    }
    let auc = roc_auc(&scores, &labels).unwrap_or(0.5);
    if ses_obs::sink::active() && !eval_nodes.is_empty() {
        ses_obs::Record::new("explain_eval")
            .str("explainer", explainer.name())
            .uint("nodes", eval_nodes.len() as u64)
            .num("auc", auc)
            .num("total_ms", harness_start.elapsed().as_secs_f64() * 1e3)
            .num(
                "mean_node_ms",
                harness_start.elapsed().as_secs_f64() * 1e3 / eval_nodes.len() as f64,
            )
            .emit();
        crate::stage::emit_stage_latency_record(explainer.name());
    }
    auc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use ses_data::synthetic;

    /// A perfect oracle explainer should reach AUC 1.0; an inverted oracle 0.
    struct Oracle<'a> {
        data: &'a SyntheticDataset,
        invert: bool,
    }

    impl EdgeExplainer for Oracle<'_> {
        fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)> {
            let g = &self.data.dataset.graph;
            let sub = ses_graph::Subgraph::ego(g, node, 2);
            sub.graph
                .edges()
                .map(|(lu, lv)| {
                    let (gu, gv) = sub.to_global_edge(lu, lv);
                    let is_motif = self.data.ground_truth.is_motif_edge(gu, gv);
                    (gu, gv, if is_motif != self.invert { 1.0 } else { 0.0 })
                })
                .collect()
        }

        fn name(&self) -> &'static str {
            "oracle"
        }
    }

    #[test]
    fn oracle_explainer_scores_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = synthetic::tree_cycle(&mut rng);
        let nodes: Vec<usize> = data
            .ground_truth
            .motif_nodes()
            .into_iter()
            .take(20)
            .collect();
        let mut oracle = Oracle {
            data: &data,
            invert: false,
        };
        let auc = explanation_auc(&mut oracle, &data, &nodes, 2);
        assert!(auc > 0.999, "oracle auc={auc}");
        let mut inverted = Oracle {
            data: &data,
            invert: true,
        };
        let auc_inv = explanation_auc(&mut inverted, &data, &nodes, 2);
        assert!(auc_inv < 0.001, "inverted oracle auc={auc_inv}");
    }
}
