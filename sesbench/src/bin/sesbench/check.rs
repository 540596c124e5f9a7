//! Output checks. Every operation the benchmark times is also checked, and
//! a failed check counts against `failed`:
//!
//! * a fit fails on a non-finite loss in either phase, or a test accuracy
//!   or explanation AUC below the workload's floor;
//! * a request fails when it errors or is shed, when its prediction is not
//!   `TrainedSes::predictions[node]`, or when its edges are not those of
//!   `SesExplainer::explain_node(node)` once both are sorted by
//!   (min endpoint, max endpoint, weight bits).

use ses_core::{Explanations, SesReport};
use ses_explain::{EdgeExplainer, SesExplainer};
use ses_graph::Graph;

/// Reasons a fit failed its output checks (empty when it passed).
pub fn fit_failures(
    report: &SesReport,
    test_acc: f64,
    expl_auc: f64,
    floors: (f64, f64),
) -> Vec<String> {
    let mut why = Vec::new();
    if let Some(e) = report.et_loss_curve.iter().position(|l| !l.is_finite()) {
        why.push(format!("phase-1 loss at epoch {e} is not finite"));
    }
    if let Some(e) = report.epl_loss_curve.iter().position(|l| !l.is_finite()) {
        why.push(format!("phase-2 loss at epoch {e} is not finite"));
    }
    if test_acc.is_nan() || test_acc < floors.0 {
        why.push(format!("test_acc {test_acc} below floor {}", floors.0));
    }
    if expl_auc.is_nan() || expl_auc < floors.1 {
        why.push(format!("expl_auc {expl_auc} below floor {}", floors.1));
    }
    why
}

/// An edge list in canonical order: `(min, max, weight bits)`, sorted.
pub fn canonical(edges: &[(usize, usize, f32)]) -> Vec<(usize, usize, u32)> {
    let mut c: Vec<(usize, usize, u32)> = edges
        .iter()
        .map(|&(u, v, w)| (u.min(v), u.max(v), w.to_bits()))
        .collect();
    c.sort_unstable();
    c
}

/// Order-independent digest of an edge multiset: the wrapping sum of one
/// mixed word per canonical `(min, max, weight bits)` edge. Equal
/// multisets give equal digests, so it stands in for sorting inside the
/// timed request loop, at a few nanoseconds an edge; the first response
/// per node is also compared in full (see [`Expected`]).
pub fn multiset_digest(edges: &[(usize, usize, f32)]) -> u64 {
    edges.iter().fold(0u64, |acc, &(u, v, w)| {
        let mut x = (u.min(v) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (u.max(v) as u64).rotate_left(32)
            ^ u64::from(w.to_bits()).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        // The splitmix64 finaliser.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc.wrapping_add(x ^ (x >> 31))
    })
}

/// The reference answer for one node.
pub struct NodeRef {
    pub prediction: usize,
    pub edges: Vec<(usize, usize, u32)>,
    pub digest: u64,
}

/// Reference answers for every node, from the offline explainer.
pub struct Expected {
    pub nodes: Vec<NodeRef>,
}

impl Expected {
    pub fn build(graph: &Graph, predictions: &[usize], explanations: &Explanations) -> Self {
        let mut sx = SesExplainer::new(explanations.clone(), graph.clone());
        let nodes = (0..graph.n_nodes())
            .map(|v| {
                let edges = sx.explain_node(v);
                NodeRef {
                    prediction: predictions[v],
                    digest: multiset_digest(&edges),
                    edges: canonical(&edges),
                }
            })
            .collect();
        Self { nodes }
    }

    /// Cheap check run on every response: prediction, edge count and the
    /// multiset digest.
    pub fn matches(&self, node: usize, prediction: usize, edges: &[(usize, usize, f32)]) -> bool {
        let r = &self.nodes[node];
        r.prediction == prediction
            && r.edges.len() == edges.len()
            && r.digest == multiset_digest(edges)
    }

    /// Full check: the sorted edge lists are identical.
    pub fn matches_exactly(&self, node: usize, edges: &[(usize, usize, f32)]) -> bool {
        self.nodes[node].edges == canonical(edges)
    }
}

/// Fingerprint of a trained model's outputs: predictions, structure-mask
/// weights and feature mask, bit for bit. Two commits that print the same
/// fingerprint for a seed produced identical outputs.
pub fn fingerprint(predictions: &[usize], explanations: &Explanations) -> u64 {
    let weights = explanations.structure_weights.iter();
    let features = explanations.feature_mask.as_slice().iter();
    let bytes = predictions
        .iter()
        .flat_map(|&p| (p as u64).to_le_bytes())
        .chain(
            weights
                .chain(features)
                .flat_map(|w| w.to_bits().to_le_bytes()),
        );
    // FNV-1a.
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_tensor::{CsrStructure, Matrix};
    use std::sync::Arc;
    use std::time::Duration;

    fn report(et: Vec<f32>) -> SesReport {
        SesReport {
            test_acc: 0.9,
            test_acc_after_et: 0.9,
            test_acc_plain: 0.9,
            val_acc: 0.9,
            explain_time: Duration::ZERO,
            epl_time: Duration::ZERO,
            pair_time: Duration::ZERO,
            et_loss_curve: et,
            et_val_curve: Vec::new(),
            epl_loss_curve: vec![0.5],
            mask_snapshots: Vec::new(),
        }
    }

    fn tiny() -> (Graph, Explanations) {
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
        (g, ex)
    }

    #[test]
    fn nan_loss_and_low_scores_fail_a_fit() {
        let floors = (0.5, 0.5);
        let ok = report(vec![1.0, 0.9]);
        assert!(fit_failures(&ok, 0.9, 0.9, floors).is_empty());
        let nan = fit_failures(&report(vec![1.0, f32::NAN]), 0.9, 0.9, floors);
        assert_eq!(nan.len(), 1, "{nan:?}");
        let mut epl_nan = report(vec![1.0]);
        epl_nan.epl_loss_curve.push(f32::INFINITY);
        assert_eq!(fit_failures(&epl_nan, 0.9, 0.9, floors).len(), 1);
        assert_eq!(fit_failures(&ok, 0.4, 0.9, floors).len(), 1);
        assert_eq!(fit_failures(&ok, 0.9, f64::NAN, floors).len(), 1);
    }

    #[test]
    fn wrong_prediction_or_perturbed_weight_fails_a_request() {
        let (g, ex) = tiny();
        let preds = vec![0, 1, 0];
        let exp = Expected::build(&g, &preds, &ex);
        let mut sx = SesExplainer::new(ex, g);
        let good = sx.explain_node(1);
        assert!(exp.matches(1, 1, &good) && exp.matches_exactly(1, &good));

        // Order and orientation do not matter.
        let mut flipped: Vec<_> = good.iter().rev().map(|&(u, v, w)| (v, u, w)).collect();
        assert!(exp.matches(1, 1, &flipped) && exp.matches_exactly(1, &flipped));

        assert!(!exp.matches(1, 0, &good), "wrong prediction passed");
        flipped[0].2 = f32::from_bits(flipped[0].2.to_bits() + 1);
        assert!(
            !exp.matches(1, 1, &flipped),
            "perturbed weight passed the digest"
        );
        assert!(!exp.matches_exactly(1, &flipped), "perturbed weight passed");
        assert!(!exp.matches(1, 1, &good[..1]), "dropped edge passed");
    }

    #[test]
    fn fingerprint_sees_every_output_bit() {
        let (_, ex) = tiny();
        let base = fingerprint(&[0, 1, 0], &ex);
        assert_eq!(base, fingerprint(&[0, 1, 0], &ex));
        assert_ne!(base, fingerprint(&[0, 1, 1], &ex));
        let mut ex2 = ex.clone();
        ex2.structure_weights[3] = f32::from_bits(ex2.structure_weights[3].to_bits() ^ 1);
        assert_ne!(base, fingerprint(&[0, 1, 0], &ex2));
    }
}
