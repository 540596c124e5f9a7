//! Tape sanitizer: runtime validation of autodiff invariants.
//!
//! Three families of checks, all reporting the offending **op name** and
//! **node id** so a diagnostic points at the exact tape operation:
//!
//! 1. **Operand shapes** are validated at op registration (before the forward
//!    kernel runs), so a mismatched `add` fails as `add`, not as an opaque
//!    index panic deep inside a matrix kernel.
//! 2. **Non-finite forward values** (NaN/±Inf) are caught as the node is
//!    pushed onto the tape.
//! 3. **Non-finite gradients** are caught during the backward sweep, naming
//!    the op whose backward rule produced them; after the sweep, tape nodes
//!    whose gradients were never produced or consumed are reported as leaks.
//!
//! # Activation
//!
//! * `SES_SANITIZE=1` (or any value other than `0`/`off`) — always on, also
//!   in release builds.
//! * `SES_SANITIZE=0` — always off.
//! * unset — on under `debug_assertions`, off in release.
//!
//! The advisory leak *report* (an `eprintln`, not a panic) additionally
//! requires the explicit `SES_SANITIZE=1` opt-in, because legitimate graphs
//! hold auxiliary read-only nodes; [`Tape::leaked_nodes`] stays available as
//! a query regardless. The activation decision is made once per process and
//! cached.

use std::sync::OnceLock;

use super::{Op, Tape, Var};
use crate::matrix::Matrix;
use crate::sparse::{CsrMatrix, CsrStructure};

/// True when the sanitizer is active for this process (see module docs).
pub fn sanitize_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("SES_SANITIZE") {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off")),
        Err(_) => cfg!(debug_assertions),
    })
}

/// True only when `SES_SANITIZE` was explicitly set to an "on" value.
///
/// The advisory leak report is gated on this rather than on
/// [`sanitize_enabled`]: legitimate training graphs hold auxiliary read-only
/// computations (eval-path forwards, embeddings recorded for later
/// inspection), so printing leak lines on every debug-build backward pass
/// would be noise. Hard invariant checks stay on whenever the sanitizer is.
fn sanitize_explicit() -> bool {
    static EXPLICIT: OnceLock<bool> = OnceLock::new();
    *EXPLICIT.get_or_init(|| {
        std::env::var("SES_SANITIZE")
            .map(|v| !(v == "0" || v.eq_ignore_ascii_case("off")))
            .unwrap_or(false)
    })
}

impl Op {
    /// The user-facing name of the tape method that records this op.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::MulScalarVar { .. } => "mul_scalar_var",
            Op::MatMul(..) => "matmul",
            Op::Transpose(..) => "transpose",
            Op::AddRowBroadcast { .. } => "add_row_broadcast",
            Op::MulColBroadcast { .. } => "mul_col_broadcast",
            Op::Spmm { .. } => "spmm",
            Op::Sigmoid(..) => "sigmoid",
            Op::Relu(..) => "relu",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Elu(..) => "elu",
            Op::Tanh(..) => "tanh",
            Op::Sqrt(..) => "sqrt_eps",
            Op::Log(..) => "log_eps",
            Op::Exp(..) => "exp",
            Op::Abs(..) => "abs",
            Op::LogSoftmaxRows(..) => "log_softmax_rows",
            Op::NllMasked { .. } => "nll_masked",
            Op::EdgeSoftmax { .. } => "edge_softmax",
            Op::GatherRows { .. } => "gather_rows",
            Op::PairScore { .. } => "pair_score",
            Op::FeatureGate { .. } => "feature_gate",
            Op::TripletHinge { .. } => "triplet_hinge",
            Op::ConcatCols(..) => "concat_cols",
            Op::ConcatRows(..) => "concat_rows",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::RowSum(..) => "row_sum",
            Op::Dropout { .. } => "dropout",
        }
    }

    /// Visits every tape parent of this op (data-flow edges only — constant
    /// payloads like label vectors and dropout masks are not parents).
    pub(crate) fn for_each_parent(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Leaf => {}
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MatMul(a, b)
            | Op::ConcatCols(a, b)
            | Op::ConcatRows(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Transpose(a)
            | Op::Sigmoid(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Elu(a, _)
            | Op::Tanh(a)
            | Op::Sqrt(a, _)
            | Op::Log(a, _)
            | Op::Exp(a)
            | Op::Abs(a)
            | Op::LogSoftmaxRows(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::RowSum(a) => f(*a),
            Op::MulScalarVar { scalar, matrix } => {
                f(*scalar);
                f(*matrix);
            }
            Op::AddRowBroadcast { matrix, bias } => {
                f(*matrix);
                f(*bias);
            }
            Op::MulColBroadcast { matrix, scaler } => {
                f(*matrix);
                f(*scaler);
            }
            Op::Spmm { values, dense, .. } => {
                f(*values);
                f(*dense);
            }
            Op::NllMasked { logp, .. } => f(*logp),
            Op::EdgeSoftmax { scores, .. } => f(*scores),
            Op::GatherRows { src, .. } | Op::TripletHinge { h: src, .. } => f(*src),
            Op::PairScore { h, w, bias, .. } => {
                f(*h);
                f(*w);
                f(*bias);
            }
            Op::FeatureGate { m, w, bias, .. } => {
                f(*m);
                f(*w);
                f(*bias);
            }
            Op::Dropout { src, .. } => f(*src),
        }
    }
}

/// One leaked tape node found by [`Tape::leaked_nodes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leak {
    /// Arena index of the leaked node.
    pub node: usize,
    /// Name of the op that recorded it.
    pub op: &'static str,
    /// What kind of leak this is.
    pub kind: LeakKind,
}

/// Classification of a leaked tape node.
///
/// The gradient-requiring-but-gradient-less cases are split by a backward
/// reachability sweep over the op graph (parent edges), so a leak report
/// distinguishes a parameter that simply went unused this epoch from one
/// that *was* wired into a computation whose path to the loss got cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeakKind {
    /// Recorded after the loss node: the backward sweep can never reach it,
    /// so its forward computation was wasted work.
    AfterLoss,
    /// Requires a gradient, received none, and **no other node consumes
    /// it**: the parameter was unused this epoch (often benign — e.g. a head
    /// that only participates in some phases).
    Unused,
    /// Requires a gradient, received none, but **is consumed** by other
    /// nodes — it was wired into a computation that never reached the loss
    /// (consumed only by post-loss evaluation work, or its path to the loss
    /// was cut). Usually a wiring bug.
    Pruned,
}

/// Per-epoch leak tolerance for training loops: how many `Unused` and
/// `AfterLoss` leaks a single backward pass may report before the trainer
/// fails fast. `Pruned` leaks are always tolerated here — they are surfaced
/// by the leak report and the static verifier instead, because a pruned
/// path can be a legitimate phase-dependent head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LeakBudget {
    /// Maximum tolerated [`LeakKind::Unused`] leaks per backward pass.
    pub max_unused: usize,
    /// Maximum tolerated [`LeakKind::AfterLoss`] leaks per backward pass.
    pub max_after_loss: usize,
}

impl LeakBudget {
    /// The strictest budget: any unused parameter or post-loss node fails.
    pub fn zero() -> Self {
        Self::default()
    }
}

impl Tape {
    /// Checks this tape's leaks against `budget` after a backward pass from
    /// `loss`. Returns `Ok((unused, after_loss))` counts when within budget,
    /// or `Err` with a diagnostic naming the first offending nodes.
    pub fn check_leak_budget(
        &self,
        loss: Var,
        budget: &LeakBudget,
    ) -> Result<(usize, usize), String> {
        let leaks = self.leaked_nodes(loss);
        let unused: Vec<&Leak> = leaks
            .iter()
            .filter(|l| l.kind == LeakKind::Unused)
            .collect();
        let after_loss: Vec<&Leak> = leaks
            .iter()
            .filter(|l| l.kind == LeakKind::AfterLoss)
            .collect();
        if unused.len() <= budget.max_unused && after_loss.len() <= budget.max_after_loss {
            return Ok((unused.len(), after_loss.len()));
        }
        let describe = |ls: &[&Leak]| -> String {
            ls.iter()
                .take(4)
                .map(|l| format!("node {} (op `{}`)", l.node, l.op))
                .collect::<Vec<_>>()
                .join(", ")
        };
        Err(format!(
            "leak budget exceeded: {} unused (max {}) [{}], {} after-loss (max {}) [{}]",
            unused.len(),
            budget.max_unused,
            describe(&unused),
            after_loss.len(),
            budget.max_after_loss,
            describe(&after_loss),
        ))
    }

    /// Shape-mismatch check for element-wise binary ops.
    pub(crate) fn san_same_shape(&self, op: &'static str, a: Var, b: Var) {
        if !sanitize_enabled() {
            return;
        }
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(
            sa, sb,
            "SES_SANITIZE[{op}]: operand shape mismatch: node {} is {}x{} but node {} is {}x{}",
            a.0, sa.0, sa.1, b.0, sb.0, sb.1
        );
    }

    /// Inner-dimension check for `a × b` matrix products.
    pub(crate) fn san_matmul_dims(&self, op: &'static str, a: Var, b: Var) {
        if !sanitize_enabled() {
            return;
        }
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(
            sa.1, sb.0,
            "SES_SANITIZE[{op}]: inner dimensions disagree: node {} is {}x{} but node {} is {}x{}",
            a.0, sa.0, sa.1, b.0, sb.0, sb.1
        );
    }

    /// Row-count agreement (for column-wise concatenation).
    pub(crate) fn san_rows_match(&self, op: &'static str, a: Var, b: Var) {
        if !sanitize_enabled() {
            return;
        }
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(
            sa.0, sb.0,
            "SES_SANITIZE[{op}]: row counts disagree: node {} is {}x{} but node {} is {}x{}",
            a.0, sa.0, sa.1, b.0, sb.0, sb.1
        );
    }

    /// Column-count agreement (for row-wise concatenation).
    pub(crate) fn san_cols_match(&self, op: &'static str, a: Var, b: Var) {
        if !sanitize_enabled() {
            return;
        }
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(
            sa.1, sb.1,
            "SES_SANITIZE[{op}]: column counts disagree: node {} is {}x{} but node {} is {}x{}",
            a.0, sa.0, sa.1, b.0, sb.0, sb.1
        );
    }

    /// Dense-operand dimension check for sparse × dense products.
    pub(crate) fn san_spmm_dims(&self, op: &'static str, structure: &CsrStructure, dense: Var) {
        if !sanitize_enabled() {
            return;
        }
        let (dn, dc) = self.shape(dense);
        assert_eq!(
            dn,
            structure.n_cols(),
            "SES_SANITIZE[{op}]: dense operand node {} is {dn}x{dc} but the sparse \
             structure has {} columns",
            dense.0,
            structure.n_cols()
        );
    }

    /// Operand-shape check for [`Tape::feature_gate`]: `m` is `n × h`, `w`
    /// is `h × f` and `bias` is `1 × f` for a sparse input of shape `n × f`.
    pub(crate) fn san_feature_gate_dims(
        &self,
        op: &'static str,
        m: Var,
        w: Var,
        bias: Var,
        x: &CsrMatrix,
    ) {
        if !sanitize_enabled() {
            return;
        }
        let (sm, sw, sb) = (self.shape(m), self.shape(w), self.shape(bias));
        let (n, f) = (x.n_rows(), x.n_cols());
        assert!(
            sm.0 == n && sw == (sm.1, f) && sb == (1, f),
            "SES_SANITIZE[{op}]: operands disagree with the {n}x{f} sparse input: \
             node {} is {}x{}, node {} is {}x{}, node {} is {}x{}",
            m.0,
            sm.0,
            sm.1,
            w.0,
            sw.0,
            sw.1,
            bias.0,
            sb.0,
            sb.1
        );
    }

    /// Index-bounds check for row gathers.
    pub(crate) fn san_gather_bounds(&self, op: &'static str, src: Var, idx: &[usize]) {
        if !sanitize_enabled() {
            return;
        }
        let n = self.shape(src).0;
        if let Some(&bad) = idx.iter().find(|&&i| i >= n) {
            // lint:allow(no-unwrap): sanitizer diagnostics are deliberate panics
            panic!(
                "SES_SANITIZE[{op}]: gather index {bad} out of bounds for node {} with {n} rows",
                src.0
            );
        }
    }

    /// NaN/Inf check on a freshly computed forward value, run by
    /// [`Tape::push`] before the node lands on the tape.
    pub(crate) fn san_forward_finite(&self, op: &Op, value: &Matrix) {
        if !sanitize_enabled() {
            return;
        }
        let finite = value.all_finite();
        if !finite {
            ses_obs::metrics::SAN_NONFINITE.incr();
        }
        assert!(
            finite,
            "SES_SANITIZE[{}]: non-finite forward value at node {} ({}x{})",
            op.name(),
            self.nodes.len(),
            value.rows(),
            value.cols()
        );
    }

    /// NaN/Inf check on a gradient contribution produced by the backward rule
    /// of node `producer` for parent `parent`.
    pub(crate) fn san_grad_finite(&self, producer: usize, parent: Var, delta: &Matrix) {
        if !sanitize_enabled() {
            return;
        }
        let finite = delta.all_finite();
        if !finite {
            ses_obs::metrics::SAN_NONFINITE.incr();
        }
        assert!(
            finite,
            "SES_SANITIZE[{}]: non-finite gradient from backward of node {producer} \
             into node {}",
            self.nodes[producer].op.name(),
            parent.0
        );
    }

    /// Scans the tape after a backward pass from `loss` and returns the
    /// leaked nodes: work recorded after the loss (unreachable by the sweep)
    /// and gradient-requiring nodes the sweep never reached — the latter
    /// split into [`LeakKind::Unused`] vs [`LeakKind::Pruned`] by a backward
    /// DFS over parent edges from the loss plus a consumer scan.
    ///
    /// This is a query, not an assertion — legitimate graphs can hold
    /// auxiliary read-only computations. [`Tape::backward`] prints a capped
    /// report only when `SES_SANITIZE` is explicitly set.
    pub fn leaked_nodes(&self, loss: Var) -> Vec<Leak> {
        // Backward reachability from the loss via parent edges.
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack = vec![loss.0];
        reachable[loss.0] = true;
        while let Some(i) = stack.pop() {
            self.nodes[i].op.for_each_parent(|p| {
                if !reachable[p.0] {
                    reachable[p.0] = true;
                    stack.push(p.0);
                }
            });
        }
        // Which nodes are consumed as a parent by at least one other node
        // (anywhere on the tape, including after the loss).
        let mut consumed = vec![false; self.nodes.len()];
        for node in &self.nodes {
            node.op.for_each_parent(|p| consumed[p.0] = true);
        }

        let mut leaks = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let kind = if i > loss.0 {
                LeakKind::AfterLoss
            } else if node.needs_grad && node.grad.is_none() {
                if reachable[i] || consumed[i] {
                    LeakKind::Pruned
                } else {
                    LeakKind::Unused
                }
            } else {
                continue;
            };
            leaks.push(Leak {
                node: i,
                op: node.op.name(),
                kind,
            });
        }
        leaks
    }

    /// Reports leaks for `loss`; called at the end of [`Tape::backward`].
    ///
    /// Two independent consumers share the scan: telemetry counters
    /// (whenever `ses-obs` is enabled) and the advisory printed report
    /// (which additionally requires the explicit `SES_SANITIZE=1` opt-in —
    /// debug builds alone don't print it).
    pub(crate) fn san_report_leaks(&self, loss: Var) {
        let explicit = sanitize_explicit();
        if !explicit && !ses_obs::enabled() {
            return;
        }
        let leaks = self.leaked_nodes(loss);
        if leaks.is_empty() {
            return;
        }
        for leak in &leaks {
            match leak.kind {
                LeakKind::AfterLoss => ses_obs::metrics::SAN_LEAK_AFTER_LOSS.incr(),
                LeakKind::Unused => ses_obs::metrics::SAN_LEAK_UNUSED.incr(),
                LeakKind::Pruned => ses_obs::metrics::SAN_LEAK_PRUNED.incr(),
            }
        }
        if !explicit {
            return;
        }
        const SHOWN: usize = 8;
        for leak in leaks.iter().take(SHOWN) {
            let what = match leak.kind {
                LeakKind::AfterLoss => "recorded after the loss, unreachable by backward",
                LeakKind::Unused => "requires a gradient but nothing consumes it (unused)",
                LeakKind::Pruned => {
                    "requires a gradient and is consumed, but its path to the loss was cut (pruned)"
                }
            };
            ses_obs::info!(
                "SES_SANITIZE[leak]: node {} (op `{}`): {what}",
                leak.node,
                leak.op
            );
        }
        if leaks.len() > SHOWN {
            ses_obs::info!("SES_SANITIZE[leak]: … and {} more", leaks.len() - SHOWN);
        }
    }
}
