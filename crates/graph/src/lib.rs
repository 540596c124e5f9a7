//! `ses-graph` — graph data structures and algorithms for the SES workspace.
//!
//! Provides the attributed [`Graph`] type (symmetric CSR adjacency, dense
//! features, labels), k-hop expansion (`A^{(k)}`), negative sampling over the
//! k-hop complement, adjacency normalisations, and the random-graph
//! generators the datasets are built from.

pub mod generators;
pub mod graph;
pub mod khop;
pub mod norm;
pub mod sampling;
pub mod subgraph;

pub use graph::Graph;
pub use khop::{
    bfs_distances, khop_neighbors, khop_structure, khop_structure_capped, n_connected_components,
};
pub use norm::{gcn_norm, row_norm_values, sym_norm_values, with_self_loops};
pub use sampling::NegativeSets;
pub use subgraph::{EgoNet, Subgraph};
