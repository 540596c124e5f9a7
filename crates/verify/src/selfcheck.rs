//! The CI harness behind the `ses-verify` binary.
//!
//! A clean run exercises both engines against the real workspace artefacts:
//! a recorded SES-style tape ([`ses_tensor::Tape::export_ir`]), the same
//! architecture dry-run traced through [`IrBuilder`] with no kernels, and
//! the full partition model-checking sweeps. A **seeded-defect** run instead
//! feeds each engine an input that is wrong in a known way and must come
//! back with errors — proving in CI that the verifier itself still bites,
//! not just that the workspace is currently clean.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_gnn::{AdjView, Arma, Asdgn, Encoder, ForwardCtx, Gat, Gcn, Gin, Sage, UniMp};
use ses_graph::Graph;
use ses_tensor::{CsrStructure, LeakBudget, Matrix, Tape, TapeIr};

use crate::builder::IrBuilder;
use crate::partition::{
    beyond_bound_spotchecks, check_row_partition, edge_case_suite, exhaustive_csr_model,
    exhaustive_small_model, isolation_first_task_panic, PartitionReport,
};
use crate::tape_check::{verify_tape, TapeCheckConfig};
use crate::{error_count, Diag};

/// A deliberately wrong input for one engine, selectable from the CLI via
/// `--seed-defect`. Each variant must make [`run`] report at least one error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededDefect {
    /// An `add` node whose operands are 2×3 and 3×3 — the tape-IR shape
    /// checker must reject it.
    ShapeMismatch,
    /// A gradient-bearing op with no backward rule, plus a trainable leaf
    /// disconnected from the loss — backward-coverage and leak-budget
    /// errors.
    BackwardGap,
    /// A floor-division row partitioner that drops the tail remainder and
    /// emits empty ranges — the partition checker must reject it.
    BrokenPartitioner,
}

impl SeededDefect {
    /// Parses a CLI spelling (`shape-mismatch`, `backward-gap`,
    /// `broken-partitioner`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shape-mismatch" => Some(SeededDefect::ShapeMismatch),
            "backward-gap" => Some(SeededDefect::BackwardGap),
            "broken-partitioner" => Some(SeededDefect::BrokenPartitioner),
            _ => None,
        }
    }

    /// All CLI spellings, for usage text.
    pub const SPELLINGS: [&'static str; 3] =
        ["shape-mismatch", "backward-gap", "broken-partitioner"];
}

/// Everything one [`run`] produced.
#[derive(Debug, Default)]
pub struct SelfCheckReport {
    /// Findings from both engines, in emission order.
    pub diags: Vec<Diag>,
    /// Tape-IR nodes verified across all traces.
    pub tape_nodes: usize,
    /// Partitioner invocations model-checked.
    pub partition_cases: u64,
}

impl SelfCheckReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        error_count(&self.diags)
    }

    /// True when no errors were found (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }
}

/// Records a small SES-style model on a real [`Tape`] — two weight layers,
/// learned per-edge attention through `edge_softmax`/`spmm`, masked NLL
/// loss — and exports its IR along with the loss node id.
///
/// This is the strongest clean-run fixture: the IR comes out of the same
/// export path production tapes use, so a verifier false positive here means
/// the verifier disagrees with the real recording rules.
fn recorded_ses_tape() -> (TapeIr, usize) {
    let mut t = Tape::new();
    let structure = Arc::new(CsrStructure::from_edges(
        4,
        4,
        &[(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2)],
    ));
    let nnz = structure.nnz();
    let x = t.constant(Matrix::from_vec(
        4,
        3,
        (0..12).map(|i| (i as f32) * 0.1 - 0.5).collect(),
    ));
    let w1 = t.leaf(Matrix::from_vec(
        3,
        4,
        (0..12).map(|i| ((i % 5) as f32) * 0.2 - 0.4).collect(),
    ));
    let h0 = t.matmul(x, w1);
    let b1 = t.leaf(Matrix::zeros(1, 4));
    let h1 = t.add_row_broadcast(h0, b1);
    let h = t.relu(h1);
    let scores = t.leaf(Matrix::from_vec(
        nnz,
        1,
        (0..nnz).map(|i| (i as f32) * 0.3 - 0.6).collect(),
    ));
    let att = t.edge_softmax(Arc::clone(&structure), scores);
    let agg = t.spmm(structure, att, h);
    let w2 = t.leaf(Matrix::from_vec(
        4,
        2,
        (0..8).map(|i| ((i % 3) as f32) * 0.25 - 0.25).collect(),
    ));
    let logits = t.matmul(agg, w2);
    let logp = t.log_softmax_rows(logits);
    let loss = t.nll_masked(logp, Arc::new(vec![0, 1, 0, 1]), Arc::new(vec![0, 1, 2]));
    (t.export_ir(), loss.index())
}

/// The small two-triangle fixture graph the backbone sweep records against.
fn fixture_graph() -> Graph {
    let n = 6;
    let edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
    let features = Matrix::from_vec(
        n,
        4,
        (0..n * 4).map(|i| ((i % 9) as f32) * 0.1 - 0.4).collect(),
    );
    Graph::new(n, &edges, features, vec![0, 1, 0, 1, 0, 1])
}

/// Records one classifier training step (forward + masked cross-entropy) for
/// every backbone the bench binaries train — the same `Encoder::forward`
/// code `ses-bench` runs, on a small fixture graph — and exports each tape's
/// IR with its loss node.
///
/// This is the ci.sh gate for the bench binaries' tapes: rather than running
/// the (slow) experiments, the exact architectures they record are verified
/// statically on every run.
fn backbone_step_tapes() -> Vec<(&'static str, TapeIr, usize)> {
    let graph = fixture_graph();
    let adj = AdjView::of_graph(&graph);
    let mut rng = StdRng::seed_from_u64(11);
    let (fi, hi, cl) = (graph.n_features(), 8, graph.n_classes());
    let encoders: Vec<(&'static str, Box<dyn Encoder>)> = vec![
        ("GCN", Box::new(Gcn::new(fi, hi, cl, &mut rng))),
        ("GAT", Box::new(Gat::new(fi, hi, cl, 2, &mut rng))),
        ("GraphSAGE", Box::new(Sage::new(fi, hi, cl, &mut rng))),
        ("GIN", Box::new(Gin::new(fi, hi, cl, &mut rng))),
        ("ARMA", Box::new(Arma::new(fi, hi, cl, 2, &mut rng))),
        ("UniMP", Box::new(UniMp::new(fi, hi, cl, &mut rng))),
        ("ASDGN", Box::new(Asdgn::new(fi, hi, cl, 2, &mut rng))),
    ];
    let labels = Arc::new(graph.labels().to_vec());
    let idx = Arc::new(vec![0usize, 1, 3, 4]);
    encoders
        .into_iter()
        .map(|(name, enc)| {
            let mut tape = Tape::new();
            let x = tape.constant(graph.features().clone());
            let mut ctx = ForwardCtx {
                tape: &mut tape,
                adj: &adj,
                x,
                edge_mask: None,
                train: true,
                rng: &mut rng,
            };
            let out = enc.forward(&mut ctx);
            let loss = tape.cross_entropy_masked(out.logits, Arc::clone(&labels), Arc::clone(&idx));
            (name, tape.export_ir(), loss.index())
        })
        .collect()
}

/// Dry-run traces the same architecture (plus dropout) through
/// [`IrBuilder`] — no kernels, no values, just shape arithmetic.
fn dry_run_ses_trace() -> Result<(TapeIr, usize), String> {
    let mut b = IrBuilder::new();
    let x = b.constant(8, 5);
    let w1 = b.leaf(5, 6);
    let h0 = b.binary("matmul", x, w1)?;
    let bias = b.leaf(1, 6);
    let h1 = b.binary("add_row_broadcast", h0, bias)?;
    let h2 = b.unary("relu", h1)?;
    let hd = b.dropout(h2, 48)?;
    let scores = b.leaf(12, 1);
    let att = b.edge_softmax(8, 8, 12, scores)?;
    let agg = b.spmm(8, 8, 12, att, hd)?;
    let w2 = b.leaf(6, 3);
    let logits = b.binary("matmul", agg, w2)?;
    let logp = b.unary("log_softmax_rows", logits)?;
    let loss = b.nll_masked(logp, 8, 4, Some(7), Some(2))?;
    Ok((b.finish(), loss))
}

/// The floor-division partitioner every parallel-runtime tutorial writes
/// first: drops the `n % parts` tail and emits empty ranges when
/// `parts > n`. Kept here as the seeded defect the partition checker must
/// keep rejecting.
fn broken_even_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let chunk = n / parts;
    (0..parts).map(|i| i * chunk..(i + 1) * chunk).collect()
}

fn verify_ir(report: &mut SelfCheckReport, ir: &TapeIr, cfg: &TapeCheckConfig) {
    report.tape_nodes += ir.len();
    report.diags.extend(verify_tape(ir, cfg));
}

fn absorb_partitions(report: &mut SelfCheckReport, p: PartitionReport) {
    report.partition_cases += p.cases;
    report.diags.extend(p.diags);
}

/// Runs the full self-check. With `defect == None` this is the CI gate: both
/// engines over the real artefacts, expected clean (exit 0). With a seeded
/// defect the corresponding engine gets a known-bad input and the report
/// must carry errors — CI asserts the resulting non-zero exit to prove the
/// verifier still bites.
pub fn run(defect: Option<SeededDefect>) -> SelfCheckReport {
    let mut report = SelfCheckReport::default();
    match defect {
        None => {
            let (ir, loss) = recorded_ses_tape();
            verify_ir(
                &mut report,
                &ir,
                &TapeCheckConfig {
                    loss: Some(loss),
                    leak_budget: Some(LeakBudget::zero()),
                },
            );
            // The production architecture itself: one explainable-training
            // step (GCN + mask generator, full Eq. 9 objective) recorded by
            // the same ses-core code `fit` runs, not a hand-built imitation —
            // once with Eq. 3 dense, once on a sparse input's support.
            for (_name, ir, loss) in ses_core::explain_step_irs() {
                verify_ir(
                    &mut report,
                    &ir,
                    &TapeCheckConfig {
                        loss: Some(loss),
                        leak_budget: Some(LeakBudget::zero()),
                    },
                );
            }
            // Every backbone architecture the bench binaries train, recorded
            // through the real `Encoder::forward` paths and statically
            // verified with a zero leak budget.
            for (_name, ir, loss) in backbone_step_tapes() {
                verify_ir(
                    &mut report,
                    &ir,
                    &TapeCheckConfig {
                        loss: Some(loss),
                        leak_budget: Some(LeakBudget::zero()),
                    },
                );
            }
            match dry_run_ses_trace() {
                Ok((ir, loss)) => verify_ir(
                    &mut report,
                    &ir,
                    &TapeCheckConfig {
                        loss: Some(loss),
                        leak_budget: Some(LeakBudget::zero()),
                    },
                ),
                Err(e) => report.diags.push(Diag::error(
                    "tape-ir",
                    "shape",
                    "dry-run SES trace".to_string(),
                    format!("builder rejected the reference architecture: {e}"),
                )),
            }
            let mut parts = PartitionReport::default();
            parts.merge(exhaustive_small_model(12, 8));
            parts.merge(exhaustive_csr_model(4, 3, 6));
            parts.merge(edge_case_suite());
            parts.merge(beyond_bound_spotchecks());
            parts.merge(isolation_first_task_panic());
            absorb_partitions(&mut report, parts);
        }
        Some(SeededDefect::ShapeMismatch) => {
            let mut b = IrBuilder::new();
            let a = b.leaf(2, 3);
            let c = b.leaf(3, 3);
            b.raw("add", vec![a, c], (2, 3), true, true);
            verify_ir(&mut report, &b.finish(), &TapeCheckConfig::default());
        }
        Some(SeededDefect::BackwardGap) => {
            let mut b = IrBuilder::new();
            let w = b.leaf(3, 3);
            let r = b.raw("relu", vec![w], (3, 3), true, false);
            let loss = b.raw("mean_all", vec![r], (1, 1), true, true);
            b.leaf(2, 2); // trainable, never consumed
            verify_ir(
                &mut report,
                &b.finish(),
                &TapeCheckConfig {
                    loss: Some(loss),
                    leak_budget: Some(LeakBudget::zero()),
                },
            );
        }
        Some(SeededDefect::BrokenPartitioner) => {
            let mut parts = PartitionReport::default();
            for n in 0..=12usize {
                for p in 1..=8usize {
                    let subject = format!("broken_even_ranges(n={n}, parts={p})");
                    let ranges = broken_even_ranges(n, p);
                    parts.cases += 1;
                    parts
                        .diags
                        .extend(check_row_partition(&subject, n, p, &ranges, true));
                }
            }
            absorb_partitions(&mut report, parts);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_is_clean() {
        let r = run(None);
        assert!(r.is_clean(), "clean run found errors: {:?}", r.diags);
        assert!(r.tape_nodes >= 20, "all traces verified: {}", r.tape_nodes);
        assert!(
            r.partition_cases > 1000,
            "sweeps ran: {}",
            r.partition_cases
        );
    }

    #[test]
    fn real_core_trace_verifies_clean_with_zero_leak_budget() {
        // The IR exported from one production explainable-training step
        // must pass every static check: shapes, backward coverage,
        // determinism registry, and full reachability of all trainable
        // leaves (encoder + mask generator) from the Eq. 9 loss — for the
        // dense Eq. 3 recording and for the support-path one.
        let traces = ses_core::explain_step_irs();
        let names: Vec<&str> = traces.iter().map(|(name, _, _)| *name).collect();
        assert_eq!(names, ["dense", "support"]);
        for (name, ir, loss) in traces {
            assert!(
                ir.len() > 50,
                "{name}: a real explain step is a substantial tape: {} nodes",
                ir.len()
            );
            let gates = ir.nodes.iter().filter(|n| n.op == "feature_gate").count();
            assert_eq!(
                gates,
                usize::from(name == "support"),
                "{name}: feature_gate nodes"
            );
            let diags = verify_tape(
                &ir,
                &TapeCheckConfig {
                    loss: Some(loss),
                    leak_budget: Some(LeakBudget::zero()),
                },
            );
            assert_eq!(
                error_count(&diags),
                0,
                "{name}: core trace must be clean: {diags:?}"
            );
        }
    }

    #[test]
    fn recorded_tape_matches_dry_run_op_stream() {
        let (real, _) = recorded_ses_tape();
        let dry = match dry_run_ses_trace() {
            Ok((ir, _)) => ir,
            Err(e) => unreachable!("reference trace must build: {e}"),
        };
        let ops = |ir: &TapeIr| -> Vec<String> {
            ir.nodes
                .iter()
                .map(|n| n.op.clone())
                .filter(|o| o != "dropout")
                .collect()
        };
        assert_eq!(ops(&real), ops(&dry));
    }

    #[test]
    fn seeded_shape_mismatch_is_caught() {
        let r = run(Some(SeededDefect::ShapeMismatch));
        assert!(!r.is_clean());
        assert!(
            r.diags
                .iter()
                .any(|d| d.check == "shape" && d.subject.contains("add")),
            "{:?}",
            r.diags
        );
    }

    #[test]
    fn seeded_backward_gap_is_caught() {
        let r = run(Some(SeededDefect::BackwardGap));
        assert!(r.diags.iter().any(|d| d.check == "backward-coverage"));
        assert!(r.diags.iter().any(|d| d.check == "leak-budget"));
        assert!(r.error_count() >= 2, "{:?}", r.diags);
    }

    #[test]
    fn seeded_broken_partitioner_is_caught() {
        let r = run(Some(SeededDefect::BrokenPartitioner));
        assert!(!r.is_clean());
        // Both failure modes of the floor-division partitioner show up.
        assert!(
            r.diags.iter().any(|d| d.check == "coverage"),
            "{:?}",
            r.diags
        );
        assert!(r.diags.iter().any(|d| d.check == "monotonicity"));
        // Subjects carry the reproducing inputs.
        assert!(r.diags.iter().all(|d| d.subject.contains("n=")));
    }

    #[test]
    fn every_bench_backbone_tape_verifies_clean() {
        for (name, ir, loss) in backbone_step_tapes() {
            assert!(ir.len() > 10, "{name}: suspiciously small tape");
            let diags = verify_tape(
                &ir,
                &TapeCheckConfig {
                    loss: Some(loss),
                    leak_budget: Some(LeakBudget::zero()),
                },
            );
            assert_eq!(error_count(&diags), 0, "{name}: {diags:?}");
        }
    }

    #[test]
    fn defect_spellings_round_trip() {
        for s in SeededDefect::SPELLINGS {
            assert!(SeededDefect::parse(s).is_some(), "{s}");
        }
        assert!(SeededDefect::parse("no-such-defect").is_none());
    }
}
