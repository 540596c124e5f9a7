//! The frozen model artifact a server loads at startup.
//!
//! Serving is forward-only: no tape, no optimiser, no mutation. A
//! [`ModelArtifact`] bundles everything the request path reads — the graph,
//! the per-node predictions, the global SES masks ([`Explanations`]), and
//! optionally the checkpoint it was restored from (resolved through the
//! corruption-hardened [`ses_resilience::latest_checkpoint`], so a torn
//! newest rotation file falls back to the previous copy instead of failing
//! startup).

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_core::Explanations;
use ses_graph::Graph;
use ses_resilience::{latest_checkpoint, CheckpointError, TrainCheckpoint};
use ses_tensor::Matrix;

/// Frozen serving state. See the module docs.
pub struct ModelArtifact {
    /// The served graph.
    pub graph: Graph,
    /// Per-node predicted class.
    pub predictions: Vec<usize>,
    /// Global SES masks (feature + k-hop structure).
    pub explanations: Explanations,
    /// Neighbourhood radius the structure mask is defined over.
    pub k: usize,
    /// `(path, epoch)` of the checkpoint the artifact restored, if any.
    pub checkpoint: Option<(PathBuf, u64)>,
}

impl ModelArtifact {
    /// Builds an artifact from already-frozen parts. Predictions must cover
    /// every node.
    ///
    /// # Panics
    /// Panics when `predictions.len() != graph.n_nodes()` — serving an
    /// unpredictable node is not a recoverable condition.
    pub fn from_parts(
        graph: Graph,
        predictions: Vec<usize>,
        explanations: Explanations,
        k: usize,
    ) -> Self {
        assert_eq!(
            predictions.len(),
            graph.n_nodes(),
            "one prediction per node"
        );
        Self {
            graph,
            predictions,
            explanations,
            k,
            checkpoint: None,
        }
    }

    /// A deterministic synthetic artifact over `graph`: structure-mask
    /// weights and feature mask drawn from `seed` and predictions equal to
    /// the graph labels. This is the fixture the drill and tests serve —
    /// real enough to exercise every stage (the k-hop structure is the real
    /// one), with no training in the loop.
    pub fn synthetic(graph: Graph, k: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let khop = ses_graph::khop_structure(&graph, k);
        let structure_weights: Vec<f32> = (0..khop.nnz())
            .map(|_| 0.05 + 0.9 * rng.gen::<f32>())
            .collect();
        let n = graph.n_nodes();
        let f = graph.n_features();
        let feature_mask = Matrix::from_vec(
            n,
            f,
            (0..n * f).map(|_| 0.05 + 0.9 * rng.gen::<f32>()).collect(),
        );
        let predictions = graph.labels().to_vec();
        let explanations = Explanations {
            feature_mask,
            khop,
            structure_weights,
        };
        Self::from_parts(graph, predictions, explanations, k)
    }

    /// Restores checkpoint provenance: resolves the newest *valid*
    /// checkpoint reachable from `base` (corrupt newest rotations are
    /// skipped with a `trainer.recover.corrupt_ckpt_skipped` count), reads
    /// it, and records `(path, epoch)`. The parameters themselves are not
    /// applied — the artifact's masks are already frozen — but a server
    /// that claims to serve epoch N must be able to prove N came off disk.
    pub fn attach_checkpoint(&mut self, base: &Path) -> Result<u64, CheckpointError> {
        let path = latest_checkpoint(base).ok_or_else(|| CheckpointError::Io {
            path: base.to_path_buf(),
            msg: "no valid checkpoint found (all candidates corrupt or missing)".to_string(),
        })?;
        let ckpt = TrainCheckpoint::read_from(&path)?;
        self.checkpoint = Some((path, ckpt.epoch));
        Ok(ckpt.epoch)
    }

    /// The predicted class of `node`, if it is in the served graph.
    pub fn prediction(&self, node: usize) -> Option<usize> {
        self.predictions.get(node).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> Graph {
        Graph::new(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            Matrix::from_vec(6, 2, (0..12).map(|i| i as f32 * 0.1).collect()),
            vec![0, 0, 0, 1, 1, 1],
        )
    }

    #[test]
    fn synthetic_artifact_is_deterministic_and_complete() {
        let a = ModelArtifact::synthetic(small_graph(), 2, 9);
        let b = ModelArtifact::synthetic(small_graph(), 2, 9);
        assert_eq!(
            a.explanations.structure_weights,
            b.explanations.structure_weights
        );
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.prediction(0), Some(0));
        assert_eq!(a.prediction(5), Some(1));
        assert_eq!(a.prediction(6), None);
        let c = ModelArtifact::synthetic(small_graph(), 2, 10);
        assert_ne!(
            a.explanations.structure_weights, c.explanations.structure_weights,
            "different seed, different masks"
        );
    }

    #[test]
    fn attach_checkpoint_records_provenance() {
        let dir = std::env::temp_dir().join(format!("ses-serve-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let base = dir.join("model.ckpt");
        let ckpt = TrainCheckpoint {
            epoch: 12,
            adam_steps: 36,
            lr: 0.01,
            rng_state: [1, 2, 3, 4],
            params: Vec::new(),
        };
        ckpt.write_atomic(&ses_resilience::rotated_path(&base, 12), false)
            .expect("write");
        let mut a = ModelArtifact::synthetic(small_graph(), 2, 0);
        let epoch = a.attach_checkpoint(&base).expect("attach");
        assert_eq!(epoch, 12);
        assert!(a.checkpoint.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
