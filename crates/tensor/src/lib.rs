//! `ses-tensor` — dense/sparse tensor engine with tape-based reverse-mode
//! autodiff, built for graph neural networks.
//!
//! The crate provides:
//! * [`Matrix`] — dense row-major `f32` matrices with the linear algebra the
//!   rest of the workspace needs;
//! * [`CsrMatrix`]/[`CsrStructure`] — compressed sparse row adjacency with a
//!   shared, immutable sparsity structure;
//! * [`Tape`]/[`Var`] — define-by-run automatic differentiation, including
//!   sparse × dense products **differentiable in the edge values** and a
//!   per-destination edge softmax (the GAT attention kernel);
//! * [`optim`] — `Param` and Adam;
//! * [`init`] — Xavier/Glorot and friends;
//! * [`gradcheck`] — finite-difference gradient verification used throughout
//!   the test suite;
//! * [`par`]/[`kernels`] — the deterministic parallel execution layer and the
//!   cache-blocked kernels every hot path (spmm, edge softmax, the matmul
//!   family) runs on. Thread count comes from `SES_THREADS` (see
//!   `docs/PERF.md`); outputs are bit-identical at any thread count.
//!
//! # Example
//! ```
//! use ses_tensor::{Matrix, Tape};
//!
//! let mut tape = Tape::new();
//! let w = tape.leaf(Matrix::from_vec(2, 1, vec![0.5, -0.25]));
//! let x = tape.constant(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
//! let y = tape.matmul(x, w);
//! let sq = tape.mul(y, y);
//! let loss = tape.mean_all(sq);
//! tape.backward(loss);
//! assert_eq!(tape.grad_unwrap(w).shape(), (2, 1));
//! ```

pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod optim;
pub mod par;
pub mod scratch;
pub mod sparse;
pub(crate) mod sync;
pub mod tape;

pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, Param};
pub use sparse::{CsrMatrix, CsrStructure};
pub use tape::dropout_mask;
pub use tape::{sanitize_enabled, Leak, LeakBudget, LeakKind, Tape, Var};
pub use tape::{IrMeta, IrNode, TapeIr};
