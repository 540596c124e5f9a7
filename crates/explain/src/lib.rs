//! `ses-explain` — the explanation baselines of the SES paper.
//!
//! Post-hoc explainers over a frozen [`Backbone`]:
//! * [`grad::GradExplainer`] — gradient saliency (GRAD);
//! * [`att::AttExplainer`] — GAT attention weights (ATT);
//! * [`gnnexplainer::GnnExplainer`] — per-node mask optimisation;
//! * [`pgexplainer::PgExplainer`] — global parameterised edge scorer;
//! * [`pgmexplainer::PgmExplainer`] — perturbation + dependence statistic;
//! * [`graphlime::GraphLime`] — local sparse feature regression.
//!
//! Self-explainable baselines:
//! * [`segnn::Segnn`] — K-nearest labelled-node classification;
//! * [`protgnn::ProtGnn`] — prototype-layer GNN.
//!
//! The [`traits`] module defines the shared [`EdgeExplainer`] /
//! [`FeatureExplainer`] interfaces plus [`explanation_auc`], the Table-4
//! harness; [`ses_adapter::SesExplainer`] plugs SES itself into the same
//! interfaces, and [`explain_subgraph`] is the SES explain pipeline it
//! shares with the serving runtime. The [`stage`] module instruments each
//! explained node as a traced request with per-stage
//! (extract/encode/mask/rank) latency histograms.

pub mod att;
pub mod backbone;
pub mod gnnexplainer;
pub mod grad;
pub mod graphlime;
pub mod pgexplainer;
pub mod pgmexplainer;
pub mod protgnn;
pub mod segnn;
pub mod ses_adapter;
pub mod stage;
pub mod traits;

pub use att::AttExplainer;
pub use backbone::Backbone;
pub use gnnexplainer::{GnnExplainer, GnnExplainerConfig};
pub use grad::GradExplainer;
pub use graphlime::{GraphLime, GraphLimeConfig};
pub use pgexplainer::{PgExplainer, PgExplainerConfig};
pub use pgmexplainer::{PgmExplainer, PgmExplainerConfig};
pub use protgnn::{ProtGnn, ProtGnnConfig};
pub use segnn::{Segnn, SegnnConfig};
pub use ses_adapter::{explain_subgraph, SesExplainer};
pub use stage::{
    emit_stage_latency_record, explain_node_traced, latency_probe, stage_latency_report,
    StageQuantiles,
};
pub use traits::{explanation_auc, EdgeExplainer, FeatureExplainer};
