//! Instance-level explanations produced by SES (Section 4.2): the masks
//! behind the feature explanation `E_feat = M_f ⊙ X` and the substructure
//! explanation `E_sub = M̂_s ⊙ A^{(k)}`, plus the neighbour-ranking view
//! used by the paper's case studies (Fig. 8).

use std::sync::Arc;

use ses_tensor::{CsrStructure, Matrix};

/// Explanations for every node at once (SES's global mask makes them
/// available in one shot, unlike per-instance post-hoc explainers).
#[derive(Debug, Clone)]
pub struct Explanations {
    /// Feature mask `M_f` (`n × F`), entries in (0, 1).
    pub feature_mask: Matrix,
    /// k-hop structure the structure mask is defined over.
    pub khop: Arc<CsrStructure>,
    /// Structure-mask weights aligned with `khop`'s entries.
    pub structure_weights: Vec<f32>,
}

impl Explanations {
    /// The weight the structure mask assigns to the pair `(center, neighbor)`
    /// (zero when outside the k-hop neighbourhood).
    pub fn edge_weight(&self, center: usize, neighbor: usize) -> f32 {
        self.khop
            .find(center, neighbor)
            .map_or(0.0, |p| self.structure_weights[p])
    }

    /// Neighbours of `center` ranked by descending mask weight — the
    /// case-study ranking of Fig. 8.
    pub fn ranked_neighbors(&self, center: usize) -> Vec<(usize, f32)> {
        let mut out: Vec<(usize, f32)> = self
            .khop
            .row_range(center)
            .map(|p| (self.khop.indices()[p], self.structure_weights[p]))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Top-k most important feature dimensions of `node`, ranked by mask
    /// weight restricted to non-zero input features.
    pub fn top_features(&self, node: usize, features: &Matrix, k: usize) -> Vec<(usize, f32)> {
        let mut dims: Vec<(usize, f32)> = (0..features.cols())
            .filter(|&j| features[(node, j)].abs().to_bits() != 0)
            .map(|j| (j, self.feature_mask[(node, j)]))
            .collect();
        dims.sort_by(|a, b| b.1.total_cmp(&a.1));
        dims.truncate(k);
        dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Explanations {
        let khop = Arc::new(CsrStructure::from_edges(
            3,
            3,
            &[(0, 1), (0, 2), (1, 0), (2, 0)],
        ));
        Explanations {
            feature_mask: Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.5, 0.5, 0.2, 0.8]),
            khop,
            structure_weights: vec![0.7, 0.3, 0.6, 0.4],
        }
    }

    #[test]
    fn ranked_neighbors_descending() {
        let e = fixture();
        let r = e.ranked_neighbors(0);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, 1);
        assert!((r[0].1 - 0.7).abs() < 1e-6);
        assert_eq!(r[1].0, 2);
    }

    #[test]
    fn edge_weight_zero_outside_khop() {
        let e = fixture();
        assert_eq!(e.edge_weight(1, 2), 0.0);
        assert!((e.edge_weight(0, 1) - 0.7).abs() < 1e-6);
    }

    #[test]
    fn top_features_skip_zero_inputs() {
        let e = fixture();
        let x = Matrix::from_vec(3, 2, vec![1.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
        let top = e.top_features(0, &x, 2);
        assert_eq!(top.len(), 1, "node 0 has one nonzero feature");
        assert_eq!(top[0].0, 0);
    }
}
