//! `ses-gnn` — GNN backbones and training infrastructure.
//!
//! Implements the trivial-GNN baselines of the paper's Table 3 — GCN, GAT
//! (whose FusedGAT execution strategy computes the same model), GraphSAGE,
//! GIN, ARMA, UniMP-style label propagation, and A-SDGN — behind a shared
//! [`Encoder`] trait, plus the full-batch [`trainer`] with its eval-mode
//! [`predict`], and the Fidelity+ metric (Table 5).
//!
//! Every encoder's `forward` accepts an [`AdjView`] and an optional per-edge
//! mask variable, which is how SES re-runs the shared encoder over masked
//! features/adjacency (Eqs. 8 and 10 of the paper).

pub mod adjview;
pub mod arma;
pub mod asdgn;
pub mod encoder;
pub mod fidelity;
pub mod gat;
pub mod gcn;
pub mod gin;
pub mod sage;
pub mod trainer;
pub mod unimp;

pub use adjview::AdjView;
pub use arma::Arma;
pub use asdgn::Asdgn;
pub use encoder::{Encoder, EncoderOutput, ForwardCtx};
pub use fidelity::{fidelity_plus, mask_top_features};
pub use gat::Gat;
pub use gcn::Gcn;
pub use gin::Gin;
pub use sage::Sage;
pub use trainer::{
    predict, train_node_classifier, Prediction, TrainConfig, TrainError, TrainReport,
};
pub use unimp::UniMp;
