//! Fidelity+ (Pope et al., CVPR 2019; Eq. 14 of the SES paper): the accuracy
//! drop caused by removing the features an explainer marks as important.
//!
//! `Fidelity+ = (1/N) Σ_i [ 1(ŷ_i = y_i) − 1(ŷ_i^{1−m_i} = y_i) ]` where the
//! complementary mask `1 − m_i` zeroes each node's top-k most important
//! feature dimensions.

use ses_graph::Graph;
use ses_tensor::Matrix;

use crate::adjview::AdjView;
use crate::encoder::Encoder;
use crate::trainer::predict;

/// Zeroes, per node, the `top_k` feature dimensions with the largest
/// importance weight **among that node's non-zero features** (the paper
/// removes "the top-5 important features of each node"; zero features carry
/// no signal to remove).
pub fn mask_top_features(features: &Matrix, importance: &Matrix, top_k: usize) -> Matrix {
    assert_eq!(
        features.shape(),
        importance.shape(),
        "mask_top_features: shape mismatch"
    );
    let (n, f) = features.shape();
    let mut out = features.clone();
    let mut order: Vec<usize> = Vec::with_capacity(f);
    for i in 0..n {
        order.clear();
        order.extend((0..f).filter(|&j| features[(i, j)].abs().to_bits() != 0));
        order.sort_by(|&a, &b| importance[(i, b)].total_cmp(&importance[(i, a)]));
        for &j in order.iter().take(top_k) {
            out[(i, j)] = 0.0;
        }
    }
    out
}

/// Fidelity+ (accuracy form) of a feature-importance explanation over the
/// nodes in `idx`. Higher is better: the removed features mattered.
pub fn fidelity_plus(
    encoder: &dyn Encoder,
    graph: &Graph,
    adj: &AdjView,
    importance: &Matrix,
    top_k: usize,
    idx: &[usize],
) -> f64 {
    let orig = predict(encoder, adj, graph.features(), None).classes();
    let masked_features = mask_top_features(graph.features(), importance, top_k);
    let masked = predict(encoder, adj, &masked_features, None).classes();
    let labels = graph.labels();
    let mut delta = 0.0f64;
    for &i in idx {
        let orig_hit = (orig[i] == labels[i]) as i32;
        let masked_hit = (masked[i] == labels[i]) as i32;
        delta += (orig_hit - masked_hit) as f64;
    }
    delta / idx.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_removes_top_features_only_nonzero() {
        let feats = Matrix::from_vec(1, 4, vec![1.0, 0.0, 1.0, 1.0]);
        let imp = Matrix::from_vec(1, 4, vec![0.9, 1.0, 0.5, 0.1]);
        // top-2 among non-zero features (cols 0, 2, 3 by importance: 0, 2, 3)
        let out = mask_top_features(&feats, &imp, 2);
        assert_eq!(out.as_slice(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn mask_topk_larger_than_features() {
        let feats = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let imp = Matrix::from_vec(1, 2, vec![0.5, 0.6]);
        let out = mask_top_features(&feats, &imp, 10);
        assert_eq!(out.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn fidelity_of_random_importance_near_zero_for_identity_model() {
        // A model ignoring features entirely -> fidelity must be 0.
        use crate::gcn::Gcn;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use ses_graph::Graph;
        let mut rng = StdRng::seed_from_u64(1);
        let g = Graph::new(
            6,
            &[(0, 1), (1, 2), (3, 4), (4, 5)],
            Matrix::zeros(6, 4),
            vec![0, 0, 0, 1, 1, 1],
        );
        let adj = AdjView::of_graph(&g);
        let gcn = Gcn::new(4, 4, 2, &mut rng);
        // zero features: masking them changes nothing
        let imp = Matrix::ones(6, 4);
        let fid = fidelity_plus(&gcn, &g, &adj, &imp, 2, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(fid, 0.0);
    }
}
