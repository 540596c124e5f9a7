//! Reference executor for [`InferencePlan`]s.
//!
//! The interpreter exists to *close the translation-validation loop at
//! runtime*: the static checker proves value-number equality, and this
//! module lets tests prove **bit identity** — every op is computed with the
//! same [`Matrix`] methods and kernel entry points (`sparse::spmm`,
//! `kernels::edge_softmax`, `kernels::pair_score`) the recording tape used,
//! in the same order, so an optimised plan must reproduce the tape's forward
//! values exactly, down to the last ULP.
//!
//! Payloads (leaf matrices, CSR structures, index lists, dropout masks) are
//! not part of the IR — the tape exports only summaries of them. The caller
//! supplies them in a [`PayloadMap`] keyed by **original** tape node id;
//! [`PlanStep::orig`] carries that id through every rewrite, which is the
//! executor-side half of the witness contract described in
//! [`ses_verify::equiv`].

use std::collections::HashMap;
use std::sync::Arc;

use ses_tensor::{CsrStructure, Matrix};

use crate::plan::{InferencePlan, PlanStep};

/// Side-channel data for one original tape node.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Value of a `leaf`/`constant` node (weights, features, mask logits).
    Leaf(Matrix),
    /// CSR structure of an `spmm`/`edge_softmax` node.
    Sparse(Arc<CsrStructure>),
    /// Row indices of a `gather_rows` node.
    Gather(Arc<Vec<usize>>),
    /// Anchor and partner row indices of a `pair_score` node.
    Pairs(Arc<Vec<usize>>, Arc<Vec<usize>>),
    /// Labels and masked row set of an `nll_masked` node.
    Nll {
        /// Per-row class labels.
        labels: Arc<Vec<usize>>,
        /// Rows the loss averages over.
        idx: Arc<Vec<usize>>,
    },
    /// Pre-sampled dropout mask (entries `0` or `1/(1-p)`).
    Mask(Arc<Vec<f32>>),
}

/// Payloads keyed by original tape node id.
#[derive(Debug, Clone, Default)]
pub struct PayloadMap {
    map: HashMap<usize, Payload>,
}

impl PayloadMap {
    /// Empty map (enough for payload-free programs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the payload for original node `id`.
    pub fn insert(&mut self, id: usize, payload: Payload) {
        self.map.insert(id, payload);
    }

    fn get(&self, id: usize, what: &str) -> Result<&Payload, ExecError> {
        self.map
            .get(&id)
            .ok_or_else(|| ExecError(format!("missing {what} payload for original node {id}")))
    }
}

/// Why execution was refused or aborted. Every variant is a *caller* error
/// (missing/mistyped payload) or a *compiler* error (slot aliasing caught
/// by the writer check) — never a numerical condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

fn f32_param(step: &PlanStep, k: usize) -> Result<f32, ExecError> {
    step.params
        .get(k)
        .map(|&b| f32::from_bits(b))
        .ok_or_else(|| {
            ExecError(format!(
                "step {}: op `{}` missing param {k}",
                step.orig, step.op
            ))
        })
}

/// Executes `plan` and returns the output matrices in declared order.
///
/// Each step computes into a fresh matrix and only then stores it in its
/// assigned slot, so a step may legally reuse an operand's slot. A
/// `slot_writer` journal asserts that every operand read observes the step
/// that the plan said would produce it — a liveness-coloring bug (two live
/// values sharing a slot) is reported as an [`ExecError`] instead of
/// silently corrupting the run.
pub fn execute(plan: &InferencePlan, payloads: &PayloadMap) -> Result<Vec<Matrix>, ExecError> {
    let mut slots: Vec<Option<Matrix>> = vec![None; plan.slots.len()];
    let mut slot_writer: Vec<Option<usize>> = vec![None; plan.slots.len()];
    let read = |slots: &[Option<Matrix>],
                slot_writer: &[Option<usize>],
                steps: &[PlanStep],
                p: usize|
     -> Result<Matrix, ExecError> {
        let slot = steps[p].slot;
        if slot_writer[slot] != Some(p) {
            return Err(ExecError(format!(
                "slot {slot} holds step {:?} but step {p} was expected (coloring bug)",
                slot_writer[slot]
            )));
        }
        slots[slot]
            .clone()
            .ok_or_else(|| ExecError(format!("slot {slot} read before first write")))
    };
    for (i, step) in plan.steps.iter().enumerate() {
        let arg = |k: usize| -> Result<Matrix, ExecError> {
            let &p = step.parents.get(k).ok_or_else(|| {
                ExecError(format!("step {i}: op `{}` missing operand {k}", step.op))
            })?;
            read(&slots, &slot_writer, &plan.steps, p)
        };
        let value = match step.op.as_str() {
            "leaf" => match payloads.get(step.orig, "leaf")? {
                Payload::Leaf(m) => m.clone(),
                other => {
                    return Err(ExecError(format!(
                        "node {}: expected leaf payload, got {other:?}",
                        step.orig
                    )))
                }
            },
            "add" => arg(0)?.add(&arg(1)?),
            "sub" => arg(0)?.sub(&arg(1)?),
            "mul" => arg(0)?.hadamard(&arg(1)?),
            "scale" => arg(0)?.scale(f32_param(step, 0)?),
            "add_scalar" => {
                let c = f32_param(step, 0)?;
                arg(0)?.map(|x| x + c)
            }
            "mul_scalar_var" => {
                let s = arg(0)?.scalar_value();
                arg(1)?.scale(s)
            }
            "matmul" => arg(0)?.matmul(&arg(1)?),
            "transpose" => arg(0)?.transpose(),
            "add_row_broadcast" => {
                let mut v = arg(0)?;
                let b = arg(1)?.as_slice().to_vec();
                let (n, f) = v.shape();
                for r in 0..n {
                    let row = v.row_mut(r);
                    for j in 0..f {
                        row[j] += b[j];
                    }
                }
                v
            }
            "mul_col_broadcast" => {
                let mut v = arg(0)?;
                let s = arg(1)?.as_slice().to_vec();
                let (n, f) = v.shape();
                for (r, &sr) in s.iter().enumerate().take(n) {
                    let row = v.row_mut(r);
                    for x in row.iter_mut().take(f) {
                        *x *= sr;
                    }
                }
                v
            }
            "spmm" => match payloads.get(step.orig, "sparse")? {
                Payload::Sparse(structure) => {
                    let values = arg(0)?;
                    let dense = arg(1)?;
                    ses_tensor::sparse::spmm(structure, values.as_slice(), &dense)
                }
                other => {
                    return Err(ExecError(format!(
                        "node {}: expected sparse payload, got {other:?}",
                        step.orig
                    )))
                }
            },
            "edge_softmax" => match payloads.get(step.orig, "sparse")? {
                Payload::Sparse(structure) => {
                    let scores = arg(0)?;
                    let out = ses_tensor::kernels::edge_softmax(
                        structure,
                        scores.as_slice(),
                        ses_tensor::par::configured_threads(),
                    );
                    Matrix::from_vec(structure.nnz(), 1, out)
                }
                other => {
                    return Err(ExecError(format!(
                        "node {}: expected sparse payload, got {other:?}",
                        step.orig
                    )))
                }
            },
            "gather_rows" => match payloads.get(step.orig, "gather")? {
                Payload::Gather(idx) => arg(0)?.gather_rows(idx.as_slice()),
                other => {
                    return Err(ExecError(format!(
                        "node {}: expected gather payload, got {other:?}",
                        step.orig
                    )))
                }
            },
            "pair_score" => match payloads.get(step.orig, "pairs")? {
                Payload::Pairs(a_idx, b_idx) => ses_tensor::kernels::pair_score(
                    &arg(0)?,
                    a_idx,
                    b_idx,
                    &arg(1)?,
                    arg(2)?.scalar_value(),
                ),
                other => {
                    return Err(ExecError(format!(
                        "node {}: expected pairs payload, got {other:?}",
                        step.orig
                    )))
                }
            },
            "sigmoid" => arg(0)?.map(|x| 1.0 / (1.0 + (-x).exp())),
            "relu" => arg(0)?.map(|x| x.max(0.0)),
            "leaky_relu" => {
                let slope = f32_param(step, 0)?;
                arg(0)?.map(|x| if x > 0.0 { x } else { slope * x })
            }
            "elu" => {
                let alpha = f32_param(step, 0)?;
                arg(0)?.map(|x| if x > 0.0 { x } else { alpha * (x.exp() - 1.0) })
            }
            "tanh" => arg(0)?.map(f32::tanh),
            "sqrt_eps" => {
                let eps = f32_param(step, 0)?;
                arg(0)?.map(|x| (x + eps).sqrt())
            }
            "log_eps" => {
                let eps = f32_param(step, 0)?;
                arg(0)?.map(|x| (x + eps).ln())
            }
            "exp" => arg(0)?.map(f32::exp),
            "abs" => arg(0)?.map(f32::abs),
            "log_softmax_rows" => {
                let x = arg(0)?;
                let (n, c) = x.shape();
                let mut out = Matrix::zeros(n, c);
                for r in 0..n {
                    let row = x.row(r);
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let logsum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
                    let o = out.row_mut(r);
                    for j in 0..c {
                        o[j] = row[j] - logsum;
                    }
                }
                out
            }
            "nll_masked" => match payloads.get(step.orig, "nll")? {
                Payload::Nll { labels, idx } => {
                    let lp = arg(0)?;
                    let mut acc = 0.0;
                    for &r in idx.iter() {
                        acc -= lp[(r, labels[r])];
                    }
                    Matrix::scalar(acc / idx.len() as f32)
                }
                other => {
                    return Err(ExecError(format!(
                        "node {}: expected nll payload, got {other:?}",
                        step.orig
                    )))
                }
            },
            "concat_cols" => arg(0)?.concat_cols(&arg(1)?),
            "concat_rows" => arg(0)?.concat_rows(&arg(1)?),
            "sum_all" => Matrix::scalar(arg(0)?.sum()),
            "mean_all" => Matrix::scalar(arg(0)?.mean()),
            "row_sum" => arg(0)?.row_sums(),
            "dropout" => match payloads.get(step.orig, "mask")? {
                Payload::Mask(mask) => {
                    let mut v = arg(0)?;
                    for (x, &m) in v.as_mut_slice().iter_mut().zip(mask.iter()) {
                        *x *= m;
                    }
                    v
                }
                other => {
                    return Err(ExecError(format!(
                        "node {}: expected mask payload, got {other:?}",
                        step.orig
                    )))
                }
            },
            op => return Err(ExecError(format!("step {i}: unknown op `{op}`"))),
        };
        if value.shape() != step.shape {
            return Err(ExecError(format!(
                "step {i}: op `{}` produced shape {:?}, plan declared {:?}",
                step.op,
                value.shape(),
                step.shape
            )));
        }
        // Recycle the slot's previous occupant into the scratch pool: the
        // slot set behaves as one arena region whose buffers cycle through
        // [`ses_tensor::scratch`] instead of the allocator. `stats.arena_bytes`
        // is the static high-water of exactly this scheme.
        if let Some(old) = slots[step.slot].replace(value) {
            old.recycle();
        }
        slot_writer[step.slot] = Some(i);
    }
    let outputs: Result<Vec<Matrix>, ExecError> = plan
        .outputs
        .iter()
        .map(|&o| read(&slots, &slot_writer, &plan.steps, o))
        .collect();
    // Outputs were cloned out above; hand every slot buffer back to the
    // pool so the next `execute` (or the surrounding training loop) reuses
    // this plan's arena instead of allocating a fresh one.
    for m in slots.into_iter().flatten() {
        m.recycle();
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    use ses_tensor::Tape;

    #[test]
    fn executes_a_real_tape_bit_identically() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(
            3,
            2,
            vec![0.5, -1.0, 2.0, 0.0, -0.25, 1.5],
        ));
        let w = t.leaf(Matrix::from_vec(2, 2, vec![0.1, -0.2, 0.3, 0.4]));
        let h = t.matmul(x, w);
        let r = t.relu(h);
        let s = t.sigmoid(r);
        let out = t.mean_all(s);
        let ir = t.export_ir();
        let mut payloads = PayloadMap::new();
        payloads.insert(x.index(), Payload::Leaf(t.value(x).clone()));
        payloads.insert(w.index(), Payload::Leaf(t.value(w).clone()));
        let plan = compile(&ir, None, &[out.index()]).expect("compile");
        let got = execute(&plan, &payloads).expect("execute");
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].as_slice()[0].to_bits(),
            t.value(out).as_slice()[0].to_bits()
        );
    }

    #[test]
    fn repeated_execution_reuses_the_scratch_arena() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(
            3,
            2,
            vec![0.5, -1.0, 2.0, 0.0, -0.25, 1.5],
        ));
        let w = t.leaf(Matrix::from_vec(2, 2, vec![0.1, -0.2, 0.3, 0.4]));
        let h = t.matmul(x, w);
        let r = t.relu(h);
        let out = t.mean_all(r);
        let ir = t.export_ir();
        let mut payloads = PayloadMap::new();
        payloads.insert(x.index(), Payload::Leaf(t.value(x).clone()));
        payloads.insert(w.index(), Payload::Leaf(t.value(w).clone()));
        let plan = compile(&ir, None, &[out.index()]).expect("compile");
        let first = execute(&plan, &payloads).expect("execute");
        // The first run recycled its slot buffers into the pool on exit, so
        // the second run's step outputs must come back as pool hits — and
        // bit-identical values prove recycled buffers are re-zeroed.
        let hits_before = ses_tensor::scratch::stats().hits;
        let second = execute(&plan, &payloads).expect("execute");
        assert!(
            ses_tensor::scratch::stats().hits > hits_before,
            "second execution should lease slot buffers from the scratch pool"
        );
        assert_eq!(
            first[0].as_slice()[0].to_bits(),
            second[0].as_slice()[0].to_bits()
        );
        assert!(plan.stats.arena_bytes >= plan.stats.peak_bytes_after);
    }

    #[test]
    fn missing_payload_is_a_clean_error() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 1, vec![2.0]));
        let y = t.relu(x);
        let ir = t.export_ir();
        let plan = compile(&ir, None, &[y.index()]).expect("compile");
        let err = execute(&plan, &PayloadMap::new()).unwrap_err();
        assert!(err.0.contains("missing leaf payload"));
    }
}
