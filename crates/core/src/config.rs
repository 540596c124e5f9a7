//! SES hyperparameters and ablation switches.

/// Hyperparameters of SES (Section 5.3 of the paper gives the defaults:
/// Adam lr = 3e-3, hidden 128, sample ratio 0.8, margin 1.0; the loss
/// weights α and β and the k-hop radius are swept in Fig. 4).
#[derive(Debug, Clone)]
pub struct SesConfig {
    /// k-hop radius of the structure mask's subgraphs.
    pub k: usize,
    /// Weight of the mask-generator objective in explainable training
    /// (Eq. 9): `α(L_sub + L^m_xent) + (1−α) L_xent`.
    pub alpha: f32,
    /// Weight of the triplet loss in enhanced predictive learning (Eq. 13):
    /// `β L_triplet + (1−β) L_xent`.
    pub beta: f32,
    /// Sample ratio `r` of Algorithm 1 (fraction of sorted neighbours kept
    /// as positives).
    pub sample_ratio: f32,
    /// Triplet margin `m` (Eq. 12).
    pub margin: f32,
    /// Epochs of explainable training (paper: 300).
    pub epochs_explain: usize,
    /// Epochs of enhanced predictive learning (paper: 15).
    pub epochs_epl: usize,
    /// Learning rate for both phases.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// RNG seed.
    pub seed: u64,
    /// Record feature/structure mask snapshots at these explainable-training
    /// epochs (Fig. 7); empty for none.
    pub record_masks_at: Vec<usize>,
    /// Which adjacency the masked re-encoding loss `L^m_xent` aggregates
    /// over (see [`MaskedGraph`]).
    pub masked_graph: MaskedGraph,
    /// Weight of the subgraph loss inside the mask objective: the Eq. 9
    /// mask term becomes `w·L_sub + L^m_xent`. The paper weighs them
    /// equally (`1.0`); on benchmarks where L_sub's push-all-edges-to-one
    /// saturates the scorer before the consistency gradient can rank edges,
    /// a smaller weight lets `L^m_xent` dominate the ordering.
    pub sub_loss_weight: f32,
    /// Cap on the number of k-hop neighbours scored per node (`None` for
    /// the full `A^{(k)}`). Dense graphs blow `A^{(k)}` up towards `|V|²`
    /// entries — the memory cost the paper defers to future work; capping
    /// keeps the nearest `cap` neighbours per node (BFS order), bounding the
    /// mask at `O(|V|·cap)` entries.
    pub max_khop_neighbors: Option<usize>,
    /// Mask-size penalty `λ · mean(M_s)` added to the mask objective
    /// (default 0: the paper's Eq. 9 has no sparsity term). The subgraph
    /// loss labels *every* k-hop pair positive, so attachment edges and
    /// motif edges saturate identically; the size penalty — standard in
    /// GNNExplainer/PGExplainer — creates pressure that only the
    /// classification-consistency gradient (`L^m_xent`) can counteract,
    /// letting decision-relevant edges stay high. Used by the explanation
    /// benchmarks (Table 4).
    pub mask_size_weight: f32,
    /// Restrict negative samples to nodes with a different label
    /// (Section 4.1.2). On datasets whose motif roles span several classes
    /// the filter biases the scorer against minority classes; switching it
    /// off samples uniformly from the k-hop complement (Algorithm 1's
    /// caption reads this way).
    pub label_filtered_negatives: bool,
    /// Divergence detection / checkpoint / rollback policy for both phases
    /// of `fit`: explainable training (over the joint encoder and
    /// mask-generator parameters) and enhanced predictive learning. The
    /// default ([`ses_resilience::RecoveryPolicy::disabled`]) keeps `fit`
    /// bit-exact with its pre-resilience behaviour; see
    /// `docs/ROBUSTNESS.md`.
    pub recovery: ses_resilience::RecoveryPolicy,
    /// Fault to inject into the EPL phase (tests). `None` injects nothing.
    pub fault: Option<ses_resilience::FaultSpec>,
    /// Ablation switches (all-on for full SES).
    pub variant: SesVariant,
}

impl Default for SesConfig {
    fn default() -> Self {
        Self {
            k: 2,
            alpha: 0.5,
            beta: 0.5,
            sample_ratio: 0.8,
            margin: 1.0,
            epochs_explain: 100,
            epochs_epl: 15,
            lr: 3e-3,
            weight_decay: 5e-4,
            seed: 0,
            record_masks_at: Vec::new(),
            masked_graph: MaskedGraph::default(),
            sub_loss_weight: 1.0,
            max_khop_neighbors: None,
            mask_size_weight: 0.0,
            label_filtered_negatives: true,
            recovery: ses_resilience::RecoveryPolicy::disabled(),
            fault: None,
            variant: SesVariant::default(),
        }
    }
}

/// Aggregation graph of the masked re-encoding loss (Eq. 8).
///
/// The paper writes `Z_m = GE(M_f ⊙ X, M̂_s ⊙ A^{(k)})`. On dense graphs the
/// k-hop adjacency approaches completeness, which makes the masked path a
/// near-global mean aggregation: inseparable, and its gradient poisons the
/// shared encoder (observed on the PolBlogs stand-in, where 2-hop covers
/// ~50% of all pairs). `OneHop` applies the structure mask to the backbone's
/// own prediction adjacency `A` — the regime of Eq. 10 — which keeps the
/// consistency loss aligned with the decision process on every graph, so it
/// is the default. `KHop` is the literal Eq. 8 and is fine on sparse graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskedGraph {
    /// Mask over the 1-hop adjacency `A` (default; matches Eq. 10).
    #[default]
    OneHop,
    /// Mask over the k-hop adjacency `A^{(k)}` (literal Eq. 8).
    KHop,
}

impl SesConfig {
    /// The paper's full training schedule (300 + 15 epochs).
    pub fn paper_schedule(mut self) -> Self {
        self.epochs_explain = 300;
        self.epochs_epl = 15;
        self
    }
}

/// Ablation switches for Tables 5 and 10. Every flag defaults to `true`
/// (full SES); switching one off reproduces the corresponding `-{...}` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SesVariant {
    /// `-{M_f}` when false: the feature mask is not applied.
    pub use_feature_mask: bool,
    /// `-{M̂_s}` when false: the structure mask is not applied in enhanced
    /// predictive learning / evaluation.
    pub use_structure_mask: bool,
    /// `-{L_xent}` when false: cross-entropy is dropped from the enhanced
    /// predictive learning objective (Eq. 13 keeps only the triplet term).
    pub use_xent_epl: bool,
    /// `-{Triplet}` when false: the triplet loss is dropped (Eq. 13 keeps
    /// only cross-entropy).
    pub use_triplet: bool,
    /// `-{L^m_xent}` when false: the masked-reencoding consistency loss is
    /// dropped from explainable training (Eq. 8/9), the Table 5 ablation.
    pub use_masked_xent: bool,
}

impl Default for SesVariant {
    fn default() -> Self {
        Self {
            use_feature_mask: true,
            use_structure_mask: true,
            use_xent_epl: true,
            use_triplet: true,
            use_masked_xent: true,
        }
    }
}

impl SesVariant {
    /// Human-readable variant label matching the paper's table rows.
    pub fn label(&self) -> String {
        let mut missing = Vec::new();
        if !self.use_feature_mask {
            missing.push("M_f");
        }
        if !self.use_structure_mask {
            missing.push("M̂_s");
        }
        if !self.use_xent_epl {
            missing.push("L_xent");
        }
        if !self.use_triplet {
            missing.push("Triplet");
        }
        if !self.use_masked_xent {
            missing.push("L^m_xent");
        }
        if missing.is_empty() {
            "SES".to_string()
        } else {
            format!("SES -{{{}}}", missing.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = SesConfig::default();
        assert_eq!(c.sample_ratio, 0.8);
        assert_eq!(c.margin, 1.0);
        assert_eq!(c.lr, 3e-3);
        assert_eq!(c.k, 2);
        let p = c.paper_schedule();
        assert_eq!(p.epochs_explain, 300);
        assert_eq!(p.epochs_epl, 15);
    }

    #[test]
    fn variant_labels() {
        assert_eq!(SesVariant::default().label(), "SES");
        let v = SesVariant {
            use_triplet: false,
            ..Default::default()
        };
        assert_eq!(v.label(), "SES -{Triplet}");
        let v2 = SesVariant {
            use_feature_mask: false,
            use_triplet: false,
            ..Default::default()
        };
        assert!(v2.label().contains("M_f") && v2.label().contains("Triplet"));
    }
}
