//! Engine 1: the static tape-IR verifier.
//!
//! Takes a [`TapeIr`] (exported from a real tape, or dry-run traced by
//! [`crate::builder::IrBuilder`]) and checks, without touching any values:
//!
//! * **topology** — ids are dense, every parent precedes its child (the flat
//!   arena invariant that `Tape::backward`'s reverse sweep relies on);
//! * **shape** — every op's declared output shape matches what its operand
//!   shapes (plus [`IrMeta`] side channels) imply, the same rules the runtime
//!   sanitizer enforces at registration;
//! * **backward coverage** — every gradient-bearing op has a backward rule,
//!   and gradient wiring is never silently cut (a node whose parent needs a
//!   gradient but which itself will not propagate one);
//! * **determinism** — every op is in the registry of ops whose reduction
//!   order is proven thread-count-independent (see `ses_tensor::par`'s
//!   determinism contract); unknown ops are rejected rather than assumed;
//! * **loss analysis** — given a loss node: its shape is scalar, every
//!   trainable leaf is backward-reachable from it, and `Unused`/`AfterLoss`
//!   leaks stay within an optional [`LeakBudget`] (the static mirror of
//!   `Tape::check_leak_budget`);
//! * **hygiene** — dead forward compute and duplicate subgraphs are flagged
//!   as warnings.

use std::collections::HashMap;

use ses_tensor::{IrMeta, LeakBudget, TapeIr};

use crate::{record_diags, Diag};

/// Options for [`verify_tape`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TapeCheckConfig {
    /// Node id of the loss; enables reachability/leak analysis.
    pub loss: Option<usize>,
    /// Leak budget applied when `loss` is set. `None` downgrades leak
    /// findings to warnings.
    pub leak_budget: Option<LeakBudget>,
}

/// Classification of an op's parallel execution behaviour, mirroring the
/// determinism contract documented in `ses_tensor::par`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetClass {
    /// Runs serially (or element-wise with one writer per output element):
    /// trivially order-independent.
    Serial,
    /// Runs on the parallel layer with partition geometry that is a pure
    /// function of the problem shape and block-ordered merges: proven
    /// bit-identical at any thread count.
    ParallelDeterministic,
}

/// The determinism class of a known op, `None` for ops outside the registry.
pub fn op_determinism(op: &str) -> Option<DetClass> {
    match op {
        // Kernels dispatched through ses_tensor::kernels on the parallel
        // layer; each partitions over output elements or merges per-block
        // partials in block order (par.rs determinism contract rules 1-2).
        "matmul" | "spmm" | "edge_softmax" => Some(DetClass::ParallelDeterministic),
        "leaf" | "add" | "sub" | "mul" | "scale" | "add_scalar" | "mul_scalar_var"
        | "transpose" | "add_row_broadcast" | "mul_col_broadcast" | "sigmoid" | "relu"
        | "leaky_relu" | "elu" | "tanh" | "sqrt_eps" | "log_eps" | "exp" | "abs"
        | "log_softmax_rows" | "nll_masked" | "gather_rows" | "pair_score" | "feature_gate"
        | "triplet_hinge" | "concat_cols" | "concat_rows" | "sum_all" | "mean_all" | "row_sum"
        | "dropout" => Some(DetClass::Serial),
        _ => None,
    }
}

/// Statically recomputes the output shape of `op` from its operand shapes
/// and side-channel metadata. Errors describe the violated rule.
///
/// The rules mirror the runtime sanitizer's registration-time checks
/// (`san_same_shape`, `san_matmul_dims`, `san_spmm_dims`, …) so a tape that
/// passes here cannot trip a shape assertion at run time.
pub fn infer_shape(
    op: &str,
    parents: &[(usize, usize)],
    meta: &IrMeta,
) -> Result<(usize, usize), String> {
    let arity = |n: usize| -> Result<(), String> {
        if parents.len() == n {
            Ok(())
        } else {
            Err(format!(
                "`{op}` expects {n} operand(s), found {}",
                parents.len()
            ))
        }
    };
    match op {
        "leaf" => {
            arity(0)?;
            Err("`leaf` shape is declared, not inferred".to_string())
        }
        "add" | "sub" | "mul" => {
            arity(2)?;
            let (a, b) = (parents[0], parents[1]);
            if a == b {
                Ok(a)
            } else {
                Err(format!(
                    "element-wise `{op}` needs equal shapes, found {}×{} vs {}×{}",
                    a.0, a.1, b.0, b.1
                ))
            }
        }
        "scale" | "add_scalar" | "sigmoid" | "relu" | "leaky_relu" | "elu" | "tanh"
        | "sqrt_eps" | "log_eps" | "exp" | "abs" | "log_softmax_rows" => {
            arity(1)?;
            Ok(parents[0])
        }
        "mul_scalar_var" => {
            arity(2)?;
            let (s, m) = (parents[0], parents[1]);
            if s == (1, 1) {
                Ok(m)
            } else {
                Err(format!(
                    "`mul_scalar_var` scalar operand must be 1×1, found {}×{}",
                    s.0, s.1
                ))
            }
        }
        "matmul" => {
            arity(2)?;
            let (a, b) = (parents[0], parents[1]);
            if a.1 == b.0 {
                Ok((a.0, b.1))
            } else {
                Err(format!(
                    "`matmul` inner dims differ: {}×{} times {}×{}",
                    a.0, a.1, b.0, b.1
                ))
            }
        }
        "transpose" => {
            arity(1)?;
            Ok((parents[0].1, parents[0].0))
        }
        "add_row_broadcast" => {
            arity(2)?;
            let (m, bias) = (parents[0], parents[1]);
            if bias == (1, m.1) {
                Ok(m)
            } else {
                Err(format!(
                    "`add_row_broadcast` bias must be 1×{}, found {}×{}",
                    m.1, bias.0, bias.1
                ))
            }
        }
        "mul_col_broadcast" => {
            arity(2)?;
            let (m, s) = (parents[0], parents[1]);
            if s == (m.0, 1) {
                Ok(m)
            } else {
                Err(format!(
                    "`mul_col_broadcast` scaler must be {}×1, found {}×{}",
                    m.0, s.0, s.1
                ))
            }
        }
        "spmm" => {
            arity(2)?;
            let IrMeta::Sparse { rows, cols, nnz } = *meta else {
                return Err("`spmm` requires Sparse metadata".to_string());
            };
            let (values, dense) = (parents[0], parents[1]);
            if values != (nnz, 1) {
                return Err(format!(
                    "`spmm` values must be nnz×1 = {nnz}×1, found {}×{}",
                    values.0, values.1
                ));
            }
            if dense.0 != cols {
                return Err(format!(
                    "`spmm` dense rows must equal sparse cols {cols}, found {}×{}",
                    dense.0, dense.1
                ));
            }
            Ok((rows, dense.1))
        }
        "edge_softmax" => {
            arity(1)?;
            let IrMeta::Sparse { nnz, .. } = *meta else {
                return Err("`edge_softmax` requires Sparse metadata".to_string());
            };
            let s = parents[0];
            if s == (nnz, 1) {
                Ok((nnz, 1))
            } else {
                Err(format!(
                    "`edge_softmax` scores must be nnz×1 = {nnz}×1, found {}×{}",
                    s.0, s.1
                ))
            }
        }
        "gather_rows" => {
            arity(1)?;
            let IrMeta::Gather { idx_len, idx_max } = *meta else {
                return Err("`gather_rows` requires Gather metadata".to_string());
            };
            let src = parents[0];
            match idx_max {
                Some(mx) if mx >= src.0 => Err(format!(
                    "`gather_rows` index {mx} out of bounds for {} source rows",
                    src.0
                )),
                _ => Ok((idx_len, src.1)),
            }
        }
        "pair_score" => {
            arity(3)?;
            let IrMeta::Pairs { len, idx_max } = *meta else {
                return Err("`pair_score` requires Pairs metadata".to_string());
            };
            let (h, w, bias) = (parents[0], parents[1], parents[2]);
            if w != (2 * h.1, 1) && w != (3 * h.1, 1) {
                return Err(format!(
                    "`pair_score` weight must be {}×1 or {}×1 for {}-wide rows, found {}×{}",
                    2 * h.1,
                    3 * h.1,
                    h.1,
                    w.0,
                    w.1
                ));
            }
            if bias != (1, 1) {
                return Err(format!(
                    "`pair_score` bias must be 1×1, found {}×{}",
                    bias.0, bias.1
                ));
            }
            match idx_max {
                Some(mx) if mx >= h.0 => Err(format!(
                    "`pair_score` endpoint {mx} out of bounds for {} rows",
                    h.0
                )),
                _ => Ok((len, 1)),
            }
        }
        "feature_gate" => {
            arity(3)?;
            let IrMeta::Sparse { rows, cols, nnz } = *meta else {
                return Err("`feature_gate` requires Sparse metadata".to_string());
            };
            let (m, w, bias) = (parents[0], parents[1], parents[2]);
            if m.0 != rows {
                return Err(format!(
                    "`feature_gate` hidden rows {} must equal the sparse input's {rows} rows",
                    m.0
                ));
            }
            if w != (m.1, cols) {
                return Err(format!(
                    "`feature_gate` weight must be {}×{cols}, found {}×{}",
                    m.1, w.0, w.1
                ));
            }
            if bias != (1, cols) {
                return Err(format!(
                    "`feature_gate` bias must be 1×{cols}, found {}×{}",
                    bias.0, bias.1
                ));
            }
            if nnz > rows * cols {
                return Err(format!(
                    "`feature_gate` support of {nnz} entries exceeds the {rows}×{cols} input"
                ));
            }
            Ok((rows, cols))
        }
        "triplet_hinge" => {
            arity(1)?;
            let IrMeta::Triplets { lens, idx_max } = *meta else {
                return Err("`triplet_hinge` requires Triplets metadata".to_string());
            };
            let [anchors, positives, negatives] = lens;
            if positives != anchors || negatives != anchors {
                return Err(format!(
                    "`triplet_hinge` index lists differ in length: {anchors} anchors, \
                     {positives} positives, {negatives} negatives"
                ));
            }
            let h = parents[0];
            match idx_max {
                Some(mx) if mx >= h.0 => Err(format!(
                    "`triplet_hinge` endpoint {mx} out of bounds for {} rows",
                    h.0
                )),
                _ => Ok((anchors, 1)),
            }
        }
        "nll_masked" => {
            arity(1)?;
            let IrMeta::Nll {
                labels_len,
                idx_len,
                idx_max,
                label_max,
            } = *meta
            else {
                return Err("`nll_masked` requires Nll metadata".to_string());
            };
            let (n, c) = parents[0];
            if labels_len != n {
                return Err(format!(
                    "`nll_masked` labels length {labels_len} must equal input rows {n}"
                ));
            }
            if idx_len == 0 {
                return Err("`nll_masked` loss-row index list is empty".to_string());
            }
            if let Some(mx) = idx_max {
                if mx >= n {
                    return Err(format!(
                        "`nll_masked` loss row {mx} out of bounds for {n} rows"
                    ));
                }
            }
            if let Some(mx) = label_max {
                if mx >= c {
                    return Err(format!(
                        "`nll_masked` label {mx} out of bounds for {c} classes"
                    ));
                }
            }
            Ok((1, 1))
        }
        "concat_cols" => {
            arity(2)?;
            let (a, b) = (parents[0], parents[1]);
            if a.0 == b.0 {
                Ok((a.0, a.1 + b.1))
            } else {
                Err(format!(
                    "`concat_cols` row counts differ: {} vs {}",
                    a.0, b.0
                ))
            }
        }
        "concat_rows" => {
            arity(2)?;
            let (a, b) = (parents[0], parents[1]);
            if a.1 == b.1 {
                Ok((a.0 + b.0, a.1))
            } else {
                Err(format!(
                    "`concat_rows` column counts differ: {} vs {}",
                    a.1, b.1
                ))
            }
        }
        "sum_all" | "mean_all" => {
            arity(1)?;
            Ok((1, 1))
        }
        "row_sum" => {
            arity(1)?;
            Ok((parents[0].0, 1))
        }
        "dropout" => {
            arity(1)?;
            let IrMeta::Mask { len } = *meta else {
                return Err("`dropout` requires Mask metadata".to_string());
            };
            let (r, c) = parents[0];
            if len == r * c {
                Ok((r, c))
            } else {
                Err(format!(
                    "`dropout` mask length {len} must equal element count {}",
                    r * c
                ))
            }
        }
        _ => Err(format!("unknown op `{op}`")),
    }
}

/// How many individual leak warnings to emit before summarising.
const LEAK_WARNING_CAP: usize = 8;

/// Runs every static check over `ir` and returns the findings.
pub fn verify_tape(ir: &TapeIr, cfg: &TapeCheckConfig) -> Vec<Diag> {
    let mut diags = Vec::new();
    let n = ir.len();
    ses_obs::metrics::VERIFY_CHECKS.add(n as u64);
    let subject = |id: usize| -> String {
        let op = ir.nodes.get(id).map_or("?", |nd| nd.op.as_str());
        format!("node {id} (op `{op}`)")
    };

    // --- topology: dense ids, parents strictly before children -------------
    let mut topology_ok = true;
    for (i, node) in ir.nodes.iter().enumerate() {
        if node.id != i {
            diags.push(Diag::error(
                "tape-ir",
                "topology",
                subject(i),
                format!(
                    "arena slot {i} holds node id {}; ids must be dense",
                    node.id
                ),
            ));
            topology_ok = false;
        }
        for &p in &node.parents {
            if p >= i {
                diags.push(Diag::error(
                    "tape-ir",
                    "topology",
                    subject(i),
                    format!(
                        "parent {p} does not precede its child; the reverse \
                         sweep would visit it too late"
                    ),
                ));
                topology_ok = false;
            }
        }
    }
    if !topology_ok {
        // Every later analysis indexes parents; bail on a mangled arena.
        record_diags(&diags);
        return diags;
    }

    // --- per-node shape / backward / determinism checks --------------------
    for (i, node) in ir.nodes.iter().enumerate() {
        let pshapes: Vec<(usize, usize)> =
            node.parents.iter().map(|&p| ir.nodes[p].shape).collect();
        let known = op_determinism(&node.op).is_some();
        if !known {
            diags.push(Diag::error(
                "tape-ir",
                "determinism",
                subject(i),
                "op is not in the verifier registry: its reduction order \
                 cannot be proven thread-count-independent (and its shape \
                 rule is unknown)"
                    .to_string(),
            ));
        } else if node.op == "leaf" {
            if !node.parents.is_empty() {
                diags.push(Diag::error(
                    "tape-ir",
                    "shape",
                    subject(i),
                    format!("`leaf` must have no parents, found {}", node.parents.len()),
                ));
            }
        } else {
            match infer_shape(&node.op, &pshapes, &node.meta) {
                Ok(s) if s == node.shape => {}
                Ok(s) => diags.push(Diag::error(
                    "tape-ir",
                    "shape",
                    subject(i),
                    format!(
                        "declared shape {}×{} but operands imply {}×{}",
                        node.shape.0, node.shape.1, s.0, s.1
                    ),
                )),
                Err(e) => diags.push(Diag::error("tape-ir", "shape", subject(i), e)),
            }
        }

        let parent_needs = node.parents.iter().any(|&p| ir.nodes[p].needs_grad);
        if node.op != "leaf" {
            if node.needs_grad && !node.has_backward {
                diags.push(Diag::error(
                    "tape-ir",
                    "backward-coverage",
                    subject(i),
                    "op needs a gradient but declares no backward rule".to_string(),
                ));
            }
            if !node.needs_grad && parent_needs {
                diags.push(Diag::error(
                    "tape-ir",
                    "backward-coverage",
                    subject(i),
                    "gradient wiring cut: a parent needs a gradient but this \
                     node will not propagate one"
                        .to_string(),
                ));
            }
            if node.needs_grad && !parent_needs {
                diags.push(Diag::warning(
                    "tape-ir",
                    "backward-coverage",
                    subject(i),
                    "spurious needs_grad: no parent carries a gradient".to_string(),
                ));
            }
        }
    }

    // --- duplicate subgraph detection (non-leaf nodes) ----------------------
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (i, node) in ir.nodes.iter().enumerate() {
        if node.op == "leaf" {
            continue;
        }
        let key = format!(
            "{}|{:?}|{:?}|{:?}",
            node.op, node.parents, node.params, node.meta
        );
        match seen.get(&key) {
            Some(&first) => diags.push(Diag::warning(
                "tape-ir",
                "duplicate",
                subject(i),
                format!("recomputes node {first} exactly (same op, operands and attributes)"),
            )),
            None => {
                seen.insert(key, i);
            }
        }
    }

    // --- loss-anchored analysis --------------------------------------------
    if let Some(loss) = cfg.loss {
        if loss >= n {
            diags.push(Diag::error(
                "tape-ir",
                "loss-shape",
                format!("node {loss}"),
                format!("loss id out of range for a {n}-node tape"),
            ));
            record_diags(&diags);
            return diags;
        }
        if ir.nodes[loss].shape != (1, 1) {
            diags.push(Diag::error(
                "tape-ir",
                "loss-shape",
                subject(loss),
                format!(
                    "loss must be scalar (1×1), found {}×{}",
                    ir.nodes[loss].shape.0, ir.nodes[loss].shape.1
                ),
            ));
        }

        // Backward reachability from the loss via parent edges.
        let mut reachable = vec![false; n];
        reachable[loss] = true;
        let mut stack = vec![loss];
        while let Some(i) = stack.pop() {
            for &p in &ir.nodes[i].parents {
                if !reachable[p] {
                    reachable[p] = true;
                    stack.push(p);
                }
            }
        }

        // Static leak classification, mirroring Tape::leaked_nodes.
        let mut unused = Vec::new();
        let mut after_loss = Vec::new();
        for (i, node) in ir.nodes.iter().enumerate() {
            if reachable[i] || !node.needs_grad {
                if !reachable[i] && i < loss && node.op != "leaf" {
                    diags.push(Diag::warning(
                        "tape-ir",
                        "dead-code",
                        subject(i),
                        "forward compute never reaches the loss".to_string(),
                    ));
                }
                continue;
            }
            if i > loss {
                after_loss.push(i);
            } else if node.op == "leaf" {
                unused.push(i);
            } else {
                diags.push(Diag::warning(
                    "tape-ir",
                    "leak-budget",
                    subject(i),
                    "pruned: wired for gradients but cut off from the loss".to_string(),
                ));
            }
        }

        let list = |ids: &[usize]| -> String {
            let head: Vec<String> = ids.iter().take(4).map(|&i| subject(i)).collect();
            let tail = if ids.len() > 4 { ", …" } else { "" };
            format!("{}{}", head.join(", "), tail)
        };
        match cfg.leak_budget {
            Some(budget) if unused.len() > budget.max_unused => diags.push(Diag::error(
                "tape-ir",
                "leak-budget",
                subject(loss),
                format!(
                    "{} trainable leaf/leaves unreachable from the loss \
                     (budget {}): {}",
                    unused.len(),
                    budget.max_unused,
                    list(&unused)
                ),
            )),
            _ => {
                for &i in unused.iter().take(LEAK_WARNING_CAP) {
                    diags.push(Diag::warning(
                        "tape-ir",
                        "leak-budget",
                        subject(i),
                        "trainable leaf unreachable from the loss (unused)".to_string(),
                    ));
                }
            }
        }
        match cfg.leak_budget {
            Some(budget) if after_loss.len() > budget.max_after_loss => diags.push(Diag::error(
                "tape-ir",
                "leak-budget",
                subject(loss),
                format!(
                    "{} gradient-bearing node(s) recorded after the loss \
                     (budget {}): {}",
                    after_loss.len(),
                    budget.max_after_loss,
                    list(&after_loss)
                ),
            )),
            _ => {
                for &i in after_loss.iter().take(LEAK_WARNING_CAP) {
                    diags.push(Diag::warning(
                        "tape-ir",
                        "leak-budget",
                        subject(i),
                        "recorded after the loss; backward will never reach it".to_string(),
                    ));
                }
            }
        }
    }

    record_diags(&diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::Severity;

    fn errors(diags: &[Diag]) -> Vec<&Diag> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn clean_linear_trace_verifies() {
        let mut b = IrBuilder::new();
        let x = b.constant(4, 3);
        let w = b.leaf(3, 2);
        let h = b.binary("matmul", x, w).expect("matmul");
        let r = b.unary("relu", h).expect("relu");
        let loss = b.unary("mean_all", r).expect("mean_all");
        let ir = b.finish();
        let diags = verify_tape(
            &ir,
            &TapeCheckConfig {
                loss: Some(loss),
                leak_budget: Some(ses_tensor::LeakBudget::zero()),
            },
        );
        assert!(errors(&diags).is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn infer_shape_rejects_bad_matmul() {
        let e = infer_shape("matmul", &[(2, 3), (2, 3)], &IrMeta::None);
        assert!(e.is_err());
        assert_eq!(
            infer_shape("matmul", &[(2, 3), (3, 5)], &IrMeta::None),
            Ok((2, 5))
        );
    }

    #[test]
    fn infer_shape_checks_pair_score_operands() {
        let meta = IrMeta::Pairs {
            len: 7,
            idx_max: Some(4),
        };
        for w in [(8, 1), (12, 1)] {
            assert_eq!(
                infer_shape("pair_score", &[(5, 4), w, (1, 1)], &meta),
                Ok((7, 1))
            );
        }
        assert!(infer_shape("pair_score", &[(5, 4), (4, 1), (1, 1)], &meta).is_err());
        assert!(infer_shape("pair_score", &[(5, 4), (12, 1), (1, 2)], &meta).is_err());
        assert!(infer_shape("pair_score", &[(4, 4), (12, 1), (1, 1)], &meta).is_err());
        assert!(infer_shape("pair_score", &[(5, 4), (12, 1), (1, 1)], &IrMeta::None).is_err());
        assert_eq!(op_determinism("pair_score"), Some(DetClass::Serial));
    }

    #[test]
    fn infer_shape_checks_feature_gate_operands() {
        let meta = IrMeta::Sparse {
            rows: 6,
            cols: 9,
            nnz: 11,
        };
        let ok = [(6, 4), (4, 9), (1, 9)];
        assert_eq!(infer_shape("feature_gate", &ok, &meta), Ok((6, 9)));
        // hidden rows, weight, bias each wrong in turn
        assert!(infer_shape("feature_gate", &[(5, 4), (4, 9), (1, 9)], &meta).is_err());
        assert!(infer_shape("feature_gate", &[(6, 4), (3, 9), (1, 9)], &meta).is_err());
        assert!(infer_shape("feature_gate", &[(6, 4), (4, 8), (1, 9)], &meta).is_err());
        assert!(infer_shape("feature_gate", &[(6, 4), (4, 9), (9, 1)], &meta).is_err());
        // a support larger than the input, missing metadata, wrong arity
        let overfull = IrMeta::Sparse {
            rows: 6,
            cols: 9,
            nnz: 55,
        };
        assert!(infer_shape("feature_gate", &ok, &overfull).is_err());
        assert!(infer_shape("feature_gate", &ok, &IrMeta::None).is_err());
        assert!(infer_shape("feature_gate", &ok[..2], &meta).is_err());
        assert_eq!(op_determinism("feature_gate"), Some(DetClass::Serial));
    }

    #[test]
    fn infer_shape_checks_triplet_hinge_operands() {
        let meta = |lens, idx_max| IrMeta::Triplets { lens, idx_max };
        let ok = meta([7, 7, 7], Some(4));
        assert_eq!(infer_shape("triplet_hinge", &[(5, 3)], &ok), Ok((7, 1)));
        assert_eq!(
            infer_shape("triplet_hinge", &[(5, 3)], &meta([0, 0, 0], None)),
            Ok((0, 1))
        );
        // unequal index lists, each in turn
        for lens in [[7, 6, 7], [7, 7, 8], [6, 7, 7]] {
            assert!(infer_shape("triplet_hinge", &[(5, 3)], &meta(lens, Some(4))).is_err());
        }
        // an endpoint past H's rows, missing metadata, wrong arity
        assert!(infer_shape("triplet_hinge", &[(4, 3)], &ok).is_err());
        assert!(infer_shape("triplet_hinge", &[(5, 3)], &IrMeta::None).is_err());
        assert!(infer_shape("triplet_hinge", &[(5, 3), (1, 1)], &ok).is_err());
        assert_eq!(op_determinism("triplet_hinge"), Some(DetClass::Serial));
    }

    #[test]
    fn unknown_op_is_a_determinism_error() {
        let mut b = IrBuilder::new();
        let x = b.leaf(2, 2);
        let bad = b.raw("scatter_add_unordered", vec![x], (2, 2), true, true);
        let ir = b.finish();
        let diags = verify_tape(&ir, &TapeCheckConfig::default());
        let errs = errors(&diags);
        assert!(errs.iter().any(|d| d.check == "determinism"), "{diags:?}");
        assert!(errs[0].subject.contains(&format!("node {bad}")));
    }

    #[test]
    fn gradient_wiring_cut_is_detected() {
        // A mask node that drops needs_grad even though its parent carries a
        // gradient — the silent failure mode the verifier exists to catch.
        let mut b = IrBuilder::new();
        let w = b.leaf(3, 3);
        let cut = b.raw("relu", vec![w], (3, 3), false, true);
        let ir = b.finish();
        let diags = verify_tape(&ir, &TapeCheckConfig::default());
        assert!(
            errors(&diags)
                .iter()
                .any(|d| d.check == "backward-coverage"
                    && d.subject.contains(&format!("node {cut}"))),
            "{diags:?}"
        );
    }

    #[test]
    fn duplicate_subgraphs_warn() {
        let mut b = IrBuilder::new();
        let x = b.leaf(2, 2);
        let a = b.unary("relu", x).expect("relu");
        let _b2 = b.unary("relu", x).expect("relu");
        let _ = a;
        let ir = b.finish();
        let diags = verify_tape(&ir, &TapeCheckConfig::default());
        assert!(diags.iter().any(|d| d.check == "duplicate"), "{diags:?}");
    }

    #[test]
    fn leak_budget_zero_flags_unused_leaf() {
        let mut b = IrBuilder::new();
        let x = b.leaf(2, 2);
        let _orphan = b.leaf(4, 4);
        let loss = b.unary("mean_all", x).expect("mean_all");
        let ir = b.finish();
        let diags = verify_tape(
            &ir,
            &TapeCheckConfig {
                loss: Some(loss),
                leak_budget: Some(ses_tensor::LeakBudget::zero()),
            },
        );
        assert!(
            errors(&diags).iter().any(|d| d.check == "leak-budget"),
            "{diags:?}"
        );
        // With a budget of one unused leaf, the same trace passes.
        let relaxed = verify_tape(
            &ir,
            &TapeCheckConfig {
                loss: Some(loss),
                leak_budget: Some(ses_tensor::LeakBudget {
                    max_unused: 1,
                    max_after_loss: 0,
                }),
            },
        );
        assert!(errors(&relaxed).is_empty(), "{relaxed:?}");
    }
}
