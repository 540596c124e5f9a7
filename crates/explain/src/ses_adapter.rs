//! Adapter exposing a trained SES model through the shared explainer
//! interfaces, so the Table 4/5 harnesses treat SES and the post-hoc
//! baselines uniformly, plus [`explain_subgraph`], the one SES explain
//! pipeline the adapter and the serving runtime both run.

use ses_core::Explanations;
use ses_graph::{EgoNet, Graph};
use ses_tensor::Matrix;

use crate::stage::stage;
use crate::traits::{EdgeExplainer, FeatureExplainer};

/// Scores and ranks the edges of `ego`, the ego network of `node`, by the
/// structure mask's *per-centre neighbour relevance*: `M̂_s` row `node`
/// assigns every k-hop neighbour an importance weight (this is exactly how
/// the paper's case studies rank neighbours), so an edge `(a, b)` inside
/// the explanation subgraph scores the product of its endpoints' relevance
/// to the centre (the centre itself counting as fully relevant).
///
/// Runs as three instrumented pipeline stages (`encode` per-node relevance
/// → `mask` edge scores → `rank` by weight), each recorded via
/// [`stage`], and calls `after_stage(name)` after each one; an `Err` from
/// the hook stops the pipeline and is returned. Edges come out as global
/// `(u, v, weight)` with `u < v`, ranked by weight descending under
/// `f32::total_cmp` (a total order, so NaN weights rank too), ties by `u`
/// then `v`. Each `(u, v)` occurs once, so no two edges compare equal and
/// the unstable sort's order is fully determined.
pub fn explain_subgraph<E>(
    explanations: &Explanations,
    ego: &EgoNet,
    node: usize,
    mut after_stage: impl FnMut(&'static str) -> Result<(), E>,
) -> Result<Vec<(usize, usize, f32)>, E> {
    let relevance: Vec<f32> = stage("encode", || {
        ego.global_of
            .iter()
            .map(|&g| {
                if g == node {
                    1.0
                } else {
                    explanations.edge_weight(node, g)
                }
            })
            .collect()
    });
    after_stage("encode")?;
    let mut out = stage("mask", || {
        let mut out = Vec::with_capacity(ego.edges.len());
        out.extend(ego.edges.iter().map(|&(lu, lv)| {
            let (gu, gv) = (ego.global_of[lu], ego.global_of[lv]);
            (gu, gv, relevance[lu] * relevance[lv])
        }));
        out
    });
    after_stage("mask")?;
    stage("rank", || {
        out.sort_unstable_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    });
    after_stage("rank")?;
    Ok(out)
}

/// Wraps SES explanations as an [`EdgeExplainer`]/[`FeatureExplainer`].
pub struct SesExplainer {
    explanations: Explanations,
    graph: Graph,
}

impl SesExplainer {
    /// Creates the adapter from a trained SES model's explanations.
    pub fn new(explanations: Explanations, graph: Graph) -> Self {
        Self {
            explanations,
            graph,
        }
    }

    /// The wrapped explanations.
    pub fn explanations(&self) -> &Explanations {
        &self.explanations
    }
}

impl EdgeExplainer for SesExplainer {
    /// Extracts `node`'s 2-hop ego network (the instrumented `extract`
    /// stage) and runs [`explain_subgraph`] over it.
    fn explain_node(&mut self, node: usize) -> Vec<(usize, usize, f32)> {
        let ego = stage("extract", || EgoNet::extract(&self.graph, node, 2));
        let Ok(out) = explain_subgraph(&self.explanations, &ego, node, |_| {
            Ok::<(), std::convert::Infallible>(())
        });
        out
    }

    fn name(&self) -> &'static str {
        "SES"
    }
}

impl FeatureExplainer for SesExplainer {
    fn feature_importance(&mut self) -> Matrix {
        self.explanations.feature_mask.clone()
    }

    fn name(&self) -> &'static str {
        "SES"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_tensor::CsrStructure;
    use std::sync::Arc;

    #[test]
    fn adapter_scores_subgraph_edges() {
        let g = Graph::new(3, &[(0, 1), (1, 2)], Matrix::zeros(3, 2), vec![0, 1, 0]);
        let khop = Arc::new(CsrStructure::from_edges(
            3,
            3,
            &[(0, 1), (1, 0), (1, 2), (2, 1)],
        ));
        let ex = Explanations {
            feature_mask: Matrix::full(3, 2, 0.5),
            khop,
            structure_weights: vec![0.9, 0.8, 0.2, 0.3],
        };
        let mut adapter = SesExplainer::new(ex, g);
        let edges = adapter.explain_node(1);
        assert_eq!(edges.len(), 2);
        // per-centre relevance from centre 1: edge (0,1) scores
        // rel(0)·rel(1) = M̂s(1→0)·1 = 0.8; edge (1,2) scores M̂s(1→2) = 0.2
        let e01 = edges.iter().find(|e| e.0.min(e.1) == 0).unwrap();
        assert!((e01.2 - 0.8).abs() < 1e-6, "got {}", e01.2);
        let e12 = edges.iter().find(|e| e.0.max(e.1) == 2).unwrap();
        assert!((e12.2 - 0.2).abs() < 1e-6, "got {}", e12.2);
        let fi = adapter.feature_importance();
        assert_eq!(fi.shape(), (3, 2));
    }

    /// A star whose centre's ego network has 24 edges (past the length at
    /// which `sort_by` stops using insertion sort) and every third
    /// structure weight NaN: ranking must be a total order, and the
    /// offline explainer must answer exactly what the server answers.
    #[test]
    fn nan_weights_rank_like_the_server() {
        let leaves = 24;
        let n = leaves + 1;
        let edges: Vec<(usize, usize)> = (1..n).map(|leaf| (0, leaf)).collect();
        let g = Graph::new(n, &edges, Matrix::zeros(n, 1), vec![0; n]);
        let khop = ses_graph::khop_structure(&g, 2);
        let structure_weights: Vec<f32> = (0..khop.nnz())
            .map(|p| {
                if p % 3 == 0 {
                    f32::NAN
                } else {
                    0.01 * (p % 7) as f32
                }
            })
            .collect();
        let ex = Explanations {
            feature_mask: Matrix::full(n, 1, 0.5),
            khop,
            structure_weights,
        };
        let offline = SesExplainer::new(ex.clone(), g.clone()).explain_node(0);
        assert_eq!(offline.len(), leaves);
        assert!(offline.iter().any(|e| e.2.is_nan()));

        let _obs = ses_obs::force_enabled(true);
        let server = ses_serve::Server::new(
            ses_serve::ModelArtifact::from_parts(g, vec![0; n], ex, 2),
            ses_serve::ServeConfig::default(),
        );
        let served = server.serve_one(0).expect("served").edges;
        let bits = |es: &[(usize, usize, f32)]| -> Vec<(usize, usize, u32)> {
            es.iter().map(|&(u, v, w)| (u, v, w.to_bits())).collect()
        };
        assert_eq!(bits(&offline), bits(&served));
    }
}
