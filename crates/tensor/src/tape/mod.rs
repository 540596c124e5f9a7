//! Tape-based reverse-mode automatic differentiation.
//!
//! The tape is a flat arena of [`Node`]s; a [`Var`] is an index into it.
//! Operations are recorded as [`Op`] enum variants during the forward pass
//! (define-by-run) and replayed in reverse by [`Tape::backward`].
//!
//! Design notes:
//! * no `Rc<RefCell>` pointer graphs — indices only, per the flat-arena idiom;
//! * sparse adjacency structure is shared via `Arc<CsrStructure>` and never
//!   copied per epoch;
//! * gradients are allocated lazily: constants (inputs, adjacency) never
//!   receive a gradient buffer;
//! * a [sanitizer](sanitize) validates operand shapes, finiteness of forward
//!   values and gradients, and reports leaked nodes — always on in debug
//!   builds, opt-in via `SES_SANITIZE=1` in release (see `docs/CORRECTNESS.md`).

mod backward;
mod elementwise;
mod graph_ops;
mod ir;
mod linalg;
mod loss;
mod reduce;
mod sanitize;

pub use elementwise::dropout_mask;
pub use ir::{IrMeta, IrNode, TapeIr};
pub use sanitize::{sanitize_enabled, Leak, LeakBudget, LeakKind};

use std::sync::Arc;

use crate::matrix::Matrix;
use crate::sparse::{CsrMatrix, CsrStructure};

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node's arena index — matches the node ids in sanitizer
    /// diagnostics and [`Tape::leaked_nodes`] reports.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Recorded operation. Each variant stores the parent [`Var`]s plus whatever
/// forward-pass data the backward pass needs.
///
/// Some scalar fields (e.g. the constant in `AddScalar`) are not needed by
/// the backward rule but are kept for `Debug` introspection of tapes.
#[derive(Debug, Clone)]
#[allow(dead_code)]
pub(crate) enum Op {
    /// Input with no parents (constant or parameter).
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    /// Element-wise (Hadamard) product.
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    /// `matrix * scalar_var` where the scalar is a `1 × 1` variable.
    MulScalarVar {
        scalar: Var,
        matrix: Var,
    },
    MatMul(Var, Var),
    Transpose(Var),
    /// `(n × f) + (1 × f)` row-broadcast bias addition.
    AddRowBroadcast {
        matrix: Var,
        bias: Var,
    },
    /// `(n × f) * (n × 1)` column-broadcast scaling.
    MulColBroadcast {
        matrix: Var,
        scaler: Var,
    },
    /// Sparse × dense product; `values` is an `nnz × 1` variable.
    Spmm {
        structure: Arc<CsrStructure>,
        values: Var,
        dense: Var,
    },
    Sigmoid(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Elu(Var, f32),
    Tanh(Var),
    /// `sqrt(x + eps)` (eps keeps the gradient finite at zero).
    Sqrt(Var, f32),
    /// `ln(x + eps)` (eps keeps the gradient finite at zero).
    Log(Var, f32),
    /// Element-wise exponential.
    Exp(Var),
    Abs(Var),
    /// Row-wise log-softmax.
    LogSoftmaxRows(Var),
    /// Mean negative log-likelihood over the rows listed in `idx`.
    NllMasked {
        logp: Var,
        labels: Arc<Vec<usize>>,
        idx: Arc<Vec<usize>>,
    },
    /// Per-row (destination-segment) softmax over CSR entries;
    /// `scores` is `nnz × 1`.
    EdgeSoftmax {
        scores: Var,
        structure: Arc<CsrStructure>,
    },
    GatherRows {
        src: Var,
        idx: Arc<Vec<usize>>,
    },
    /// Fused structure-mask pair scorer (see [`Tape::pair_score`]): one
    /// `σ([h_a ; h_b ; h_a ⊙ h_b] · w + bias)` per `(a_idx[p], b_idx[p])`.
    PairScore {
        h: Var,
        a_idx: Arc<Vec<usize>>,
        b_idx: Arc<Vec<usize>>,
        w: Var,
        bias: Var,
    },
    /// Feature gate on a sparse input's support (see
    /// [`Tape::feature_gate`]): `σ(m · w + bias) ⊙ X` on `X`'s kept
    /// entries, `+0.0` elsewhere. `gate` holds `σ(·)` per kept entry, in
    /// CSR order.
    FeatureGate {
        m: Var,
        w: Var,
        bias: Var,
        x: Arc<CsrMatrix>,
        gate: Vec<f32>,
    },
    /// Fused triplet hinge (see [`Tape::triplet_hinge`]):
    /// `relu(‖h_a − h_p‖ − ‖h_a − h_n‖ + margin)` per triple. `dist` holds
    /// each triple's `[d_p, d_n]`, which the backward reads.
    TripletHinge {
        h: Var,
        anchor: Arc<Vec<usize>>,
        pos: Arc<Vec<usize>>,
        neg: Arc<Vec<usize>>,
        margin: f32,
        dist: Vec<f32>,
    },
    ConcatCols(Var, Var),
    ConcatRows(Var, Var),
    SumAll(Var),
    MeanAll(Var),
    /// `n × f → n × 1` row sums.
    RowSum(Var),
    /// Element-wise multiply by a fixed (pre-sampled) dropout mask.
    Dropout {
        src: Var,
        mask: Arc<Vec<f32>>,
    },
}

pub(crate) struct Node {
    pub(crate) value: Matrix,
    pub(crate) grad: Option<Matrix>,
    pub(crate) op: Op,
    pub(crate) needs_grad: bool,
}

/// The autodiff tape: a growable arena of nodes.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Creates an empty tape with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant (no gradient will be computed for it).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Records a parameter leaf that will receive a gradient.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of `v`, if one was computed by [`Tape::backward`].
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Gradient of `v`, panicking when absent (convenience for parameters).
    pub fn grad_unwrap(&self, v: Var) -> &Matrix {
        self.grad(v)
            // lint:allow(no-unwrap): documented panicking accessor; use `grad` to handle absence
            .expect("no gradient: did you call backward()? is this a constant?")
    }

    /// Shape of the forward value of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    pub(crate) fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        self.san_forward_finite(&op, &value);
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        ses_obs::metrics::TAPE_NODES.incr();
        ses_obs::metrics::TAPE_PEAK_NODES.record_max(self.nodes.len() as i64);
        Var(self.nodes.len() - 1)
    }

    pub(crate) fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Accumulates `delta` into the gradient buffer of `v`.
    /// Adds `delta` into `v`'s gradient, taking ownership so the buffer is
    /// either stored (first contribution) or returned to the scratch pool —
    /// dropping it instead would bleed the pool's largest buffers every
    /// backward pass.
    pub(crate) fn accumulate(&mut self, v: Var, delta: Matrix) {
        let node = &mut self.nodes[v.0];
        match &mut node.grad {
            Some(g) => {
                g.add_assign(&delta);
                delta.recycle();
            }
            None => node.grad = Some(delta),
        }
    }

    /// Clears every recorded node, keeping the node-arena allocation and
    /// recycling every node's value and gradient storage into the scratch
    /// pool ([`crate::scratch`]). The next epoch's kernel outputs and
    /// elementwise results are then served from the pool instead of the
    /// allocator — this is what makes per-epoch tape allocation churn
    /// converge to ~zero in steady state.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            node.value.recycle();
            if let Some(g) = node.grad {
                g.recycle();
            }
        }
    }
}

impl Drop for Tape {
    /// A dropped tape recycles its buffers the same way [`Tape::reset`]
    /// does, so trainers that build a fresh tape per epoch still reuse the
    /// previous epoch's storage.
    fn drop(&mut self) {
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_constant_grad_flags() {
        let mut t = Tape::new();
        let c = t.constant(Matrix::scalar(1.0));
        let p = t.leaf(Matrix::scalar(2.0));
        assert!(!t.needs(c));
        assert!(t.needs(p));
        assert_eq!(t.value(p).scalar_value(), 2.0);
    }

    #[test]
    #[should_panic(expected = "no gradient")]
    fn grad_unwrap_panics_without_backward() {
        let mut t = Tape::new();
        let p = t.leaf(Matrix::scalar(1.0));
        let _ = t.grad_unwrap(p);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let t = Tape::with_capacity(128);
        assert!(t.is_empty());
    }

    #[test]
    fn reset_clears_nodes() {
        let mut t = Tape::new();
        t.leaf(Matrix::zeros(2, 2));
        assert_eq!(t.len(), 1);
        t.reset();
        assert!(t.is_empty());
    }
}
