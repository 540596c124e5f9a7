//! `ses-core` — the SES model: a **S**elf-**E**xplained and self-**S**upervised
//! graph neural network (Huang et al., ICDE 2024).
//!
//! SES trains in two phases over one shared graph encoder:
//!
//! 1. **Explainable training** — a global [`MaskGenerator`] is co-trained
//!    with the encoder. It emits a feature mask `M_f` and a structure mask
//!    `M_s` over the k-hop adjacency; a subgraph loss (Eq. 7) pulls real
//!    k-hop pairs towards 1 and sampled non-neighbours towards 0, while a
//!    masked re-encoding loss (Eq. 8) keeps the masks consistent with the
//!    encoder's own aggregation.
//! 2. **Enhanced predictive learning** — the learned masks build
//!    positive/negative node pairs (Algorithm 1) driving a triplet loss
//!    (Eq. 12) that feeds the explanation signal back into prediction.
//!
//! # Example
//! ```no_run
//! use rand::{rngs::StdRng, SeedableRng};
//! use ses_core::{fit, MaskGenerator, SesConfig};
//! use ses_data::{realworld, Profile, Splits};
//! use ses_gnn::Gcn;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = realworld::cora_like(Profile::Fast, &mut rng);
//! let splits = Splits::classification(data.graph.n_nodes(), &mut rng);
//! let encoder = Gcn::new(data.graph.n_features(), 128, data.graph.n_classes(), &mut rng);
//! let mask_gen = MaskGenerator::new(128, data.graph.n_features(), &mut rng);
//! let trained = fit(encoder, mask_gen, &data.graph, &splits, &SesConfig::default());
//! println!("test accuracy: {:.2}%", 100.0 * trained.report.test_acc);
//! println!("top neighbours of node 0: {:?}", trained.explanations.ranked_neighbors(0));
//! ```

pub mod config;
pub mod explanation;
pub mod mask;
pub mod model;
pub mod pairs;

pub use config::{MaskedGraph, SesConfig, SesVariant};
pub use explanation::Explanations;
pub use mask::{MaskGenerator, MaskOutput, SupportMaskOutput};
pub use model::{explain_step_irs, fit, run_epl, MaskSnapshot, SesReport, TrainedSes};
pub use pairs::{construct_pairs, PairSets};
