//! Cache-blocked, row-parallel compute kernels.
//!
//! Every hot loop in the workspace bottoms out here: the sparse × dense
//! products and edge softmax that dominate SES mask learning, the fused
//! structure-mask pair scorer, the Eq. 3 feature gate on a sparse input's
//! support, and the dense matmul family behind every linear layer (which
//! switches to a CSR row body when its left operand is sparse, see
//! [`support`]). Each parallel kernel takes an explicit `threads` argument;
//! the public wrappers ([`crate::Matrix::matmul`], [`crate::sparse::spmm`],
//! the tape ops) pass [`crate::par::configured_threads`]. The pair scorer
//! and the feature gate are serial.
//!
//! # Determinism
//!
//! All kernels are **bit-identical at any thread count** (see
//! [`crate::par`] for the contract): parallelism is over disjoint output row
//! blocks with a fixed per-element accumulation order, except
//! [`spmm_transpose`], whose colliding output rows are handled with
//! per-block partial buffers whose geometry depends only on the problem
//! shape and which are merged in block order.
//!
//! Cache blocking and vectorization: the inner loops are written against the
//! hand-laned [`lane`] primitives — register-blocked matmul panels, an
//! interleaved-entry spmm ([`lane::CsrLanes`]) with accumulators held in
//! registers across each row's entry sweep, and laned elementwise tails.
//! The pre-lane scalar bodies survive in [`reference`]; the parity tests and
//! the bench's lane-speedup gate compare against them.

pub mod lane;
pub mod reference;
pub mod support;

mod dense;
mod gate;
mod pair;
mod sparse;

pub use dense::{matmul, matmul_t, t_matmul};
pub use gate::feature_gate;
pub(crate) use gate::feature_gate_backward;
pub use pair::pair_score;
pub(crate) use pair::pair_score_backward;
pub use sparse::{edge_softmax, edge_softmax_backward, spmm, spmm_transpose, spmm_values_grad};

// The old FEATURE_TILE-based scalar tiling lives on only inside
// `reference` — the lane kernels block on `lane::LANES` multiples instead.
