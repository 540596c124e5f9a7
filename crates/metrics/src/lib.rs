//! `ses-metrics` — evaluation metrics for the SES reproduction.
//!
//! * [`classify`] — accuracy, confusion matrices, macro-F1 (Tables 3, 10);
//! * [`auc`] — ROC-AUC for explanation accuracy (Table 4);
//! * [`cluster`] — Silhouette and Calinski–Harabasz (Table 9);
//! * [`project`] — PCA and exact t-SNE 2-D projections (Fig. 5);
//! * [`stats`] — mean±std aggregation and the tables' duration format.
//!
//! Fidelity+ (Table 5) lives in `ses-gnn::fidelity` because it needs to
//! re-run a trained model on masked inputs.

pub mod auc;
pub mod classify;
pub mod cluster;
pub mod project;
pub mod stats;
pub mod svg;

pub use auc::{average_precision, roc_auc};
pub use classify::{accuracy, confusion_matrix, macro_f1};
pub use cluster::{calinski_harabasz_score, silhouette_score};
pub use project::{pca_2d, tsne_2d, TsneConfig};
pub use stats::{format_duration, MeanStd};
pub use svg::{graph_svg, scatter_svg};
