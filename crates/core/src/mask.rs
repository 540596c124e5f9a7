//! The SES global mask generator (Section 4.1.2, Fig. 3).
//!
//! Produces, from the first-layer representation `H`:
//! * a **feature mask** `M_f ∈ (0,1)^{N×F}` via an MLP (Eq. 3);
//! * a **structure mask** `M_s ∈ (0,1)^{N_k×1}` scoring every edge of the
//!   k-hop adjacency via a shared linear scorer over concatenated endpoint
//!   features (Eq. 4);
//! * a **negative structure mask** `M_sneg` scoring sampled non-neighbour
//!   pairs, used by the subgraph loss (Eq. 7).

use std::sync::Arc;

use rand::rngs::StdRng;
use ses_tensor::{init, CsrMatrix, CsrStructure, Matrix, Param, Tape, Var};

/// Learnable parameters of the mask generator (`θ_m` in the paper).
#[derive(Debug, Clone)]
pub struct MaskGenerator {
    // feature-mask MLP: hidden -> hidden -> F
    mlp_w1: Param,
    mlp_b1: Param,
    mlp_w2: Param,
    mlp_b2: Param,
    // structure scorer: cat(h_i, h_k, h_i ⊙ h_k) -> 1 (shared W, b of Eq. 4);
    // a 2·hidden-row W drops the product block (the additive scorer)
    w_s: Param,
    b_s: Param,
    hidden: usize,
    feat_dim: usize,
}

/// What [`MaskGenerator::record_on_support`] leaves on the tape: the
/// feature mask already applied to the input, on the input's support only.
pub struct SupportMaskOutput {
    /// `M_f ⊙ X` (`n × F`): the masked input of Eq. 8, computed only on
    /// `X`'s kept entries (`+0.0` elsewhere, as `M_f · 0.0` would be).
    pub masked_input: Var,
    /// The feature MLP's hidden layer `relu(H·W₁ + b₁)` (`n × hidden`),
    /// from which `M_f` can be re-derived off the tape.
    pub hidden: Var,
    /// Structure mask `M_s` over the k-hop edges (`nnz × 1`).
    pub structure: Var,
    /// Negative structure mask `M_sneg`, one row per negative pair.
    pub structure_neg: Var,
    /// Parameter leaves recorded on the tape, aligned with
    /// [`MaskGenerator::params_mut`].
    pub param_vars: Vec<Var>,
}

/// The masks produced during one forward pass (tape variables).
pub struct MaskOutput {
    /// Feature mask `M_f` (`n × F`).
    pub feature: Var,
    /// Structure mask `M_s` over the k-hop edges (`nnz × 1`).
    pub structure: Var,
    /// Negative structure mask `M_sneg`, one row per negative pair.
    pub structure_neg: Var,
    /// Parameter leaves recorded on the tape, aligned with
    /// [`MaskGenerator::params_mut`].
    pub param_vars: Vec<Var>,
}

impl MaskGenerator {
    /// Creates a mask generator for encoders with first-layer width
    /// `hidden` and input feature dimension `feat_dim`.
    ///
    /// The structure scorer consumes `[h_i ; h_k ; h_i ⊙ h_k]`: the paper's
    /// concatenation (Eq. 4) plus an element-wise interaction block. The
    /// purely additive concatenation scorer factorises as
    /// `f(h_i) + g(h_k)`, which cannot express the pairwise similarity the
    /// paper's link-prediction motivation calls for ("make the node features
    /// within the neighborhood more similar and distinguish them from
    /// features outside"); the Hadamard block is the minimal (diagonal
    /// bilinear) interaction that can.
    pub fn new(hidden: usize, feat_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            mlp_w1: Param::new(init::xavier_uniform(hidden, hidden, rng)),
            mlp_b1: Param::new(Matrix::zeros(1, hidden)),
            mlp_w2: Param::new(init::xavier_uniform(hidden, feat_dim, rng)),
            mlp_b2: Param::new(Matrix::zeros(1, feat_dim)),
            w_s: Param::new(init::xavier_uniform(3 * hidden, 1, rng)),
            b_s: Param::new(Matrix::zeros(1, 1)),
            hidden,
            feat_dim,
        }
    }

    /// The paper's literal additive scorer `σ(W·[h_i ; h_k] + b)` — kept for
    /// the design-choice ablation bench. It factorises as `f(h_i) + g(h_k)`
    /// and cannot express pairwise similarity.
    pub fn additive(hidden: usize, feat_dim: usize, rng: &mut StdRng) -> Self {
        let mut m = Self::new(hidden, feat_dim, rng);
        m.w_s = Param::new(init::xavier_uniform(2 * hidden, 1, rng));
        m
    }

    /// Forward pass. `h` is the first-layer encoder output on the tape;
    /// `khop` is the k-hop structure whose entries are scored;
    /// `neg_anchor`/`neg_other` are the `(anchor, negative)` index arrays
    /// for the negative mask — one pair per k-hop entry in training, empty
    /// when the negative mask is not needed.
    #[allow(clippy::too_many_arguments)] // the five index arrays are one precomputed pair-set
    pub fn forward(
        &self,
        tape: &mut Tape,
        h: Var,
        khop: &Arc<CsrStructure>,
        khop_rows: &Arc<Vec<usize>>,
        khop_cols: &Arc<Vec<usize>>,
        neg_anchor: &Arc<Vec<usize>>,
        neg_other: &Arc<Vec<usize>>,
    ) -> MaskOutput {
        assert_eq!(khop_rows.len(), khop.nnz());
        assert_eq!(neg_anchor.len(), neg_other.len());
        let w1 = self.mlp_w1.watch(tape);
        let b1 = self.mlp_b1.watch(tape);
        let w2 = self.mlp_w2.watch(tape);
        let b2 = self.mlp_b2.watch(tape);
        let ws = self.w_s.watch(tape);
        let bs = self.b_s.watch(tape);

        // Eq. (3): M_f = sigmoid(MLP(H))
        let m1 = tape.linear(h, w1, b1);
        let m1 = tape.relu(m1);
        let m2 = tape.linear(m1, w2, b2);
        let feature = tape.sigmoid(m2);

        // Eq. (4): M_s = sigmoid(W · cat(h_i, h_k) + b) per k-hop edge
        let structure = tape.pair_score(h, khop_rows.clone(), khop_cols.clone(), ws, bs);
        // negative pairs
        let structure_neg = tape.pair_score(h, neg_anchor.clone(), neg_other.clone(), ws, bs);

        MaskOutput {
            feature,
            structure,
            structure_neg,
            param_vars: vec![w1, b1, w2, b2, ws, bs],
        }
    }

    /// The training-time recording of [`MaskGenerator::forward`] followed
    /// by `M_f ⊙ x`, for a sparse input `x` (its kept entries, e.g. from
    /// [`ses_tensor::CsrMatrix::support_of`]): the MLP's hidden layer is
    /// recorded where `forward` records it, then one
    /// [`Tape::feature_gate`] evaluates Eq. 3 only on `x`'s support, then
    /// the two structure masks. No `n × F` mask is materialised.
    ///
    /// The masked input, the structure masks and every gradient they send
    /// back are bit-identical to `forward` followed by
    /// `tape.mul(feature, x)` (the gate's contract), and `H` receives its
    /// gradient contributions in the same order.
    #[allow(clippy::too_many_arguments)] // forward's pair-set arrays plus the sparse input
    pub fn record_on_support(
        &self,
        tape: &mut Tape,
        h: Var,
        x: &Arc<CsrMatrix>,
        khop: &Arc<CsrStructure>,
        khop_rows: &Arc<Vec<usize>>,
        khop_cols: &Arc<Vec<usize>>,
        neg_anchor: &Arc<Vec<usize>>,
        neg_other: &Arc<Vec<usize>>,
    ) -> SupportMaskOutput {
        assert_eq!(khop_rows.len(), khop.nnz());
        assert_eq!(neg_anchor.len(), neg_other.len());
        let w1 = self.mlp_w1.watch(tape);
        let b1 = self.mlp_b1.watch(tape);
        let w2 = self.mlp_w2.watch(tape);
        let b2 = self.mlp_b2.watch(tape);
        let ws = self.w_s.watch(tape);
        let bs = self.b_s.watch(tape);

        let m1 = tape.linear(h, w1, b1);
        let hidden = tape.relu(m1);
        // Eq. (3) applied to X: σ(m₁ W₂ + b₂) ⊙ X on supp(X)
        let masked_input = tape.feature_gate(hidden, w2, b2, x.clone());
        // Eq. (4), as in `forward`
        let structure = tape.pair_score(h, khop_rows.clone(), khop_cols.clone(), ws, bs);
        let structure_neg = tape.pair_score(h, neg_anchor.clone(), neg_other.clone(), ws, bs);

        SupportMaskOutput {
            masked_input,
            hidden,
            structure,
            structure_neg,
            param_vars: vec![w1, b1, w2, b2, ws, bs],
        }
    }

    /// Mutable parameter list (`θ_m`), stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.mlp_w1,
            &mut self.mlp_b1,
            &mut self.mlp_w2,
            &mut self.mlp_b2,
            &mut self.w_s,
            &mut self.b_s,
        ]
    }

    /// Snapshot of parameter values.
    pub fn param_values(&self) -> Vec<Matrix> {
        [
            &self.mlp_w1,
            &self.mlp_b1,
            &self.mlp_w2,
            &self.mlp_b2,
            &self.w_s,
            &self.b_s,
        ]
        .iter()
        .map(|p| p.value.clone())
        .collect()
    }

    /// First-layer width this generator expects.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Feature dimensionality of the produced feature mask.
    pub fn feat_dim(&self) -> usize {
        self.feat_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn khop_fixture() -> (Arc<CsrStructure>, Arc<Vec<usize>>, Arc<Vec<usize>>) {
        let s = Arc::new(CsrStructure::from_edges(
            4,
            4,
            &[(0, 1), (1, 0), (1, 2), (2, 1)],
        ));
        let (r, c) = s.entry_endpoints();
        (s, Arc::new(r), Arc::new(c))
    }

    #[test]
    fn forward_shapes_and_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        let gen = MaskGenerator::new(6, 5, &mut rng);
        let mut tape = Tape::new();
        let h = tape.leaf(init::normal(4, 6, 1.0, &mut rng));
        let (khop, rows, cols) = khop_fixture();
        let neg_a = Arc::new(vec![0usize, 1, 1, 2]);
        let neg_b = Arc::new(vec![3usize, 3, 3, 0]);
        let out = gen.forward(&mut tape, h, &khop, &rows, &cols, &neg_a, &neg_b);
        assert_eq!(tape.shape(out.feature), (4, 5));
        assert_eq!(tape.shape(out.structure), (4, 1));
        assert_eq!(tape.shape(out.structure_neg), (4, 1));
        // sigmoid outputs in (0, 1)
        for &v in tape.value(out.feature).as_slice() {
            assert!(v > 0.0 && v < 1.0);
        }
        for &v in tape.value(out.structure).as_slice() {
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn gradients_reach_all_mask_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let gen = MaskGenerator::new(4, 3, &mut rng);
        let mut tape = Tape::new();
        let h = tape.leaf(init::normal(4, 4, 1.0, &mut rng));
        let (khop, rows, cols) = khop_fixture();
        let neg_a = Arc::new(vec![0usize, 1, 1, 2]);
        let neg_b = Arc::new(vec![3usize, 3, 3, 0]);
        let out = gen.forward(&mut tape, h, &khop, &rows, &cols, &neg_a, &neg_b);
        // combine everything into one scalar
        let f_mean = tape.mean_all(out.feature);
        let s_mean = tape.mean_all(out.structure);
        let n_mean = tape.mean_all(out.structure_neg);
        let t1 = tape.add(f_mean, s_mean);
        let loss = tape.add(t1, n_mean);
        tape.backward(loss);
        for (i, &pv) in out.param_vars.iter().enumerate() {
            assert!(tape.grad(pv).is_some(), "mask param {i} missing grad");
        }
        assert!(
            tape.grad(h).is_some(),
            "grad must flow back into H (co-training)"
        );
    }

    #[test]
    fn identical_pairs_get_identical_scores() {
        let mut rng = StdRng::seed_from_u64(3);
        let gen = MaskGenerator::new(4, 3, &mut rng);
        let mut tape = Tape::new();
        let h = tape.leaf(init::normal(4, 4, 1.0, &mut rng));
        let (khop, rows, cols) = khop_fixture();
        // duplicate pair (0,1) at positions 0 — and compare with scoring it
        // again via the negative path
        let neg_a = Arc::new(vec![0usize; 4]);
        let neg_b = Arc::new(vec![1usize; 4]);
        let out = gen.forward(&mut tape, h, &khop, &rows, &cols, &neg_a, &neg_b);
        let pos = tape.value(out.structure)[(0, 0)]; // edge (0,1)
        let neg = tape.value(out.structure_neg)[(0, 0)]; // same pair
        assert!((pos - neg).abs() < 1e-6, "shared scorer must be consistent");
    }
}
