//! Tape IR export: a plain-data description of a recorded tape that the
//! static verifier (`ses-verify`) can check **without executing kernels**.
//!
//! The IR deliberately contains no values and no `Arc`s into live tensor
//! storage — only op names, data-flow edges, declared shapes, and the
//! side-channel metadata (sparse structure dims, gather indices, label
//! ranges) that shape inference needs. This makes it equally suitable for
//! two producers:
//!
//! 1. [`Tape::export_ir`] — snapshot of a real recorded tape;
//! 2. a dry-run trace builder (see `ses-verify`'s `IrBuilder`) that records
//!    the same node stream from shape arithmetic alone, so a model's wiring
//!    can be verified in CI before any epoch runs.

use super::{Op, Tape};

/// Side-channel metadata a node carries beyond its parent edges, needed to
/// statically recompute its output shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrMeta {
    /// No extra metadata.
    None,
    /// CSR structure dims for `spmm` / `edge_softmax`, and the support of
    /// `feature_gate`'s sparse input.
    Sparse {
        /// Rows of the sparse operand.
        rows: usize,
        /// Columns of the sparse operand.
        cols: usize,
        /// Stored entries.
        nnz: usize,
    },
    /// Row-gather index summary.
    Gather {
        /// Number of gathered rows.
        idx_len: usize,
        /// Largest index gathered (None when the index list is empty).
        idx_max: Option<usize>,
    },
    /// Masked-NLL label/index summary.
    Nll {
        /// Length of the label vector (must equal input rows).
        labels_len: usize,
        /// Number of loss rows.
        idx_len: usize,
        /// Largest loss-row index.
        idx_max: Option<usize>,
        /// Largest label referenced by a loss row.
        label_max: Option<usize>,
    },
    /// Dropout mask length (must equal input element count).
    Mask {
        /// Mask entries.
        len: usize,
    },
    /// Pair-scorer index summary (both endpoint lists).
    Pairs {
        /// Number of scored pairs.
        len: usize,
        /// Largest endpoint over both lists (None when there are no pairs).
        idx_max: Option<usize>,
    },
    /// Triplet-hinge index summary (anchor, positive and negative lists).
    Triplets {
        /// Lengths of the anchor, positive and negative lists.
        lens: [usize; 3],
        /// Largest endpoint over all three lists (None when they are empty).
        idx_max: Option<usize>,
    },
}

/// One node of the exported tape IR.
#[derive(Debug, Clone)]
pub struct IrNode {
    /// Arena index — matches sanitizer diagnostics and leak reports.
    pub id: usize,
    /// Op name as reported by sanitizer diagnostics (`add`, `matmul`, …).
    pub op: String,
    /// Data-flow parents (tape indices), in operand order.
    pub parents: Vec<usize>,
    /// Declared output shape.
    pub shape: (usize, usize),
    /// Whether a gradient will be accumulated into this node.
    pub needs_grad: bool,
    /// Whether a backward rule is registered for the op. Always true for
    /// nodes exported from a real tape (the backward dispatch match is
    /// exhaustive over [`Op`]); dry-run traces may declare gaps.
    pub has_backward: bool,
    /// Bit patterns of scalar op attributes (scale constants, eps, slopes),
    /// used for duplicate-subgraph detection.
    pub params: Vec<u32>,
    /// Shape side-channel.
    pub meta: IrMeta,
}

/// A whole exported tape: nodes in recording order (`nodes[i].id == i`).
#[derive(Debug, Clone, Default)]
pub struct TapeIr {
    /// All nodes, in push order.
    pub nodes: Vec<IrNode>,
}

impl TapeIr {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the trace holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl Op {
    /// Scalar attributes of the op as f32 bit patterns (for duplicate
    /// detection — bitwise equality sidesteps NaN/−0 comparison pitfalls).
    fn ir_params(&self) -> Vec<u32> {
        match self {
            Op::Scale(_, c) | Op::AddScalar(_, c) => vec![c.to_bits()],
            Op::LeakyRelu(_, s) => vec![s.to_bits()],
            Op::Elu(_, a) => vec![a.to_bits()],
            Op::Sqrt(_, e) | Op::Log(_, e) => vec![e.to_bits()],
            Op::TripletHinge { margin, .. } => vec![margin.to_bits()],
            _ => Vec::new(),
        }
    }

    /// Shape side-channel for ops whose output shape depends on more than
    /// their parents' shapes.
    fn ir_meta(&self) -> IrMeta {
        match self {
            Op::Spmm { structure, .. } => IrMeta::Sparse {
                rows: structure.n_rows(),
                cols: structure.n_cols(),
                nnz: structure.nnz(),
            },
            Op::FeatureGate { x, .. } => IrMeta::Sparse {
                rows: x.n_rows(),
                cols: x.n_cols(),
                nnz: x.nnz(),
            },
            Op::EdgeSoftmax { structure, .. } => IrMeta::Sparse {
                rows: structure.n_rows(),
                cols: structure.n_cols(),
                nnz: structure.nnz(),
            },
            Op::GatherRows { idx, .. } => IrMeta::Gather {
                idx_len: idx.len(),
                idx_max: idx.iter().copied().max(),
            },
            Op::NllMasked { labels, idx, .. } => IrMeta::Nll {
                labels_len: labels.len(),
                idx_len: idx.len(),
                idx_max: idx.iter().copied().max(),
                label_max: idx.iter().map(|&i| labels[i]).max(),
            },
            Op::Dropout { mask, .. } => IrMeta::Mask { len: mask.len() },
            Op::PairScore { a_idx, b_idx, .. } => IrMeta::Pairs {
                len: a_idx.len(),
                idx_max: a_idx.iter().chain(b_idx.iter()).copied().max(),
            },
            Op::TripletHinge {
                anchor, pos, neg, ..
            } => IrMeta::Triplets {
                lens: [anchor.len(), pos.len(), neg.len()],
                idx_max: anchor
                    .iter()
                    .chain(pos.iter())
                    .chain(neg.iter())
                    .copied()
                    .max(),
            },
            _ => IrMeta::None,
        }
    }
}

impl Tape {
    /// Exports the recorded tape as plain-data IR for static verification.
    ///
    /// The export never touches forward values or gradients, so it is cheap
    /// (O(nodes)) and safe to call at any point — before or after
    /// [`Tape::backward`].
    pub fn export_ir(&self) -> TapeIr {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, node)| {
                let mut parents = Vec::new();
                node.op.for_each_parent(|p| parents.push(p.0));
                IrNode {
                    id,
                    op: node.op.name().to_string(),
                    parents,
                    shape: node.value.shape(),
                    needs_grad: node.needs_grad,
                    // The backward dispatch in `backward.rs` matches
                    // exhaustively over `Op`, so every recorded op has a rule.
                    has_backward: true,
                    params: node.op.ir_params(),
                    meta: node.op.ir_meta(),
                }
            })
            .collect();
        TapeIr { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::sparse::CsrStructure;
    use std::sync::Arc;

    #[test]
    fn export_mirrors_tape_structure() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 3, vec![1.0; 6]));
        let b = t.constant(Matrix::from_vec(3, 2, vec![0.5; 6]));
        let c = t.matmul(a, b);
        let s = t.scale(c, 2.0);
        let loss = t.mean_all(s);
        let ir = t.export_ir();
        assert_eq!(ir.len(), 5);
        assert_eq!(ir.nodes[2].op, "matmul");
        assert_eq!(ir.nodes[2].parents, vec![a.index(), b.index()]);
        assert_eq!(ir.nodes[2].shape, (2, 2));
        assert!(ir.nodes[2].needs_grad);
        assert!(!ir.nodes[1].needs_grad);
        assert_eq!(ir.nodes[3].params, vec![2.0f32.to_bits()]);
        assert_eq!(ir.nodes[loss.index()].shape, (1, 1));
    }

    #[test]
    fn export_carries_sparse_and_gather_meta() {
        let mut t = Tape::new();
        let s = Arc::new(CsrStructure::from_edges(3, 3, &[(0, 1), (2, 0)]));
        let vals = t.leaf(Matrix::col_vec(&[1.0, 2.0]));
        let x = t.leaf(Matrix::from_vec(3, 2, vec![1.0; 6]));
        let y = t.spmm(s, vals, x);
        let g = t.gather_rows(y, Arc::new(vec![2, 0]));
        let ir = t.export_ir();
        assert_eq!(
            ir.nodes[y.index()].meta,
            IrMeta::Sparse {
                rows: 3,
                cols: 3,
                nnz: 2
            }
        );
        assert_eq!(
            ir.nodes[g.index()].meta,
            IrMeta::Gather {
                idx_len: 2,
                idx_max: Some(2)
            }
        );
    }
}
