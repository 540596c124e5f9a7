//! Criterion micro-bench suite for the ses-tensor kernel layer, plus the
//! regression gate wired into `ci.sh`.
//!
//! Covers every hot kernel — `spmm`, `spmm_transpose`, `spmm_values_grad`,
//! `edge_softmax`, `edge_softmax_backward`, `matmul`, `t_matmul`,
//! `matmul_t` — at BAShapes- and Coauthor-CS-like sizes, at 1/2/4 threads,
//! and writes a machine-readable `BENCH_kernels.json` report.
//!
//! Environment:
//! * `SES_BENCH_QUICK=1` — small sizes + few samples (the CI smoke mode);
//! * `SES_BENCH_OUT=<path>` — where to write the JSON report
//!   (default `BENCH_kernels.json` in the invocation directory);
//! * `SES_BENCH_BASELINE=<path>` — compare against a committed baseline and
//!   exit non-zero when any kernel regresses more than 20% in
//!   calibration-normalised time (see `docs/PERF.md`).
//!
//! Timings are stored both raw (`mean_ns`) and normalised by a scalar f32
//! calibration loop measured in the same process (`norm`), so the committed
//! baseline transfers across machines of different absolute speed.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_tensor::kernels::reference;
use ses_tensor::par::dispatch;
use ses_tensor::{kernels, CsrStructure, Matrix};

/// Thread counts every kernel is measured at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Regression tolerance for the baseline gate: fail when a kernel's
/// normalised time exceeds the baseline by more than this factor.
const REGRESSION_FACTOR: f64 = 1.2;

/// Entries faster than this are timing noise; the gate skips them.
const NOISE_FLOOR_NS: f64 = 50_000.0;

/// How many times the whole suite is repeated; each entry keeps its fastest
/// repeat. Minimum-of-means is far less noisy than a single mean, which the
/// 20% regression gate needs on shared CI hardware.
const REPEATS: usize = 3;

/// One benchmark problem: a random CSR adjacency plus dense operands sized
/// like a real dataset's training step.
struct Case {
    name: &'static str,
    structure: Arc<CsrStructure>,
    values: Vec<f32>,
    /// `n × f` node features (spmm dense operand; also the matmul LHS).
    feats: Matrix,
    /// `f × f` weight matrix (matmul RHS).
    weight: Matrix,
    /// `n × f` upstream gradient (transpose/values-grad operand).
    grad: Matrix,
    /// Per-entry attention scores.
    scores: Vec<f32>,
}

fn build_case(name: &'static str, n: usize, deg: usize, f: usize, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * deg);
    for r in 0..n {
        for _ in 0..deg {
            edges.push((r, rng.gen_range(0..n)));
        }
    }
    let structure = Arc::new(CsrStructure::from_edges(n, n, &edges));
    let nnz = structure.nnz();
    let values = (0..nnz).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let scores = (0..nnz).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    let dense = |rows: usize, cols: usize, rng: &mut StdRng| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
        )
    };
    let feats = dense(n, f, &mut rng);
    let weight = dense(f, f, &mut rng);
    let grad = dense(n, f, &mut rng);
    Case {
        name,
        structure,
        values,
        feats,
        weight,
        grad,
        scores,
    }
}

/// A fixed scalar f32 workload timed in-process; kernel times are divided by
/// this so the committed baseline compares across machines.
fn calibration_ns() -> f64 {
    let mut acc = 0.0f32;
    let start = Instant::now();
    for i in 0..4_000_000u32 {
        acc = acc.mul_add(1.000_000_1, (i & 0xff) as f32 * 1e-9);
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64
}

/// One recorded measurement, parsed back out of a report file by the gate.
#[derive(Debug, Clone)]
struct Entry {
    kernel: String,
    size: String,
    threads: usize,
    mean_ns: f64,
    norm: f64,
}

fn main() {
    let quick = std::env::var("SES_BENCH_QUICK").is_ok_and(|v| v != "0");
    let out_path =
        std::env::var("SES_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let cases = if quick {
        vec![
            build_case("ba_shapes", 700, 6, 32, 7),
            build_case("coauthor_cs", 4096, 9, 32, 11),
        ]
    } else {
        vec![
            build_case("ba_shapes", 700, 6, 32, 7),
            // Coauthor-CS published scale: 18333 nodes, ~164k edges.
            build_case("coauthor_cs", 18333, 9, 64, 11),
        ]
    };

    // Calibrate the serial/parallel crossover per kernel *before* the main
    // measurement pass, then install the table so every timed entry below
    // reflects what `par::dispatch` will actually do in production — which
    // is exactly what the parallel-never-loses gate asserts on.
    let crossovers = calibrate_crossovers(quick, hardware_threads);
    for (kernel, work, _unit) in &crossovers {
        dispatch::set_crossover(kernel, *work);
    }

    let calib = calibration_ns();
    let mut c = Criterion::default().sample_size(if quick { 3 } else { 10 });

    for _rep in 0..REPEATS {
        for case in &cases {
            let s = &case.structure;
            let softmax = kernels::edge_softmax(s, &case.scores, 1);
            let softmax = Matrix::from_vec(softmax.len(), 1, softmax);
            let grad_entries = Matrix::from_vec(
                s.nnz(),
                1,
                case.values.iter().map(|v| v * 0.5).collect::<Vec<f32>>(),
            );
            for t in THREAD_COUNTS {
                c.bench_function(&format!("spmm/{}/t{t}", case.name), |b| {
                    b.iter(|| kernels::spmm(s, &case.values, &case.feats, t))
                });
                c.bench_function(&format!("spmm_transpose/{}/t{t}", case.name), |b| {
                    b.iter(|| kernels::spmm_transpose(s, &case.values, &case.grad, t))
                });
                c.bench_function(&format!("spmm_values_grad/{}/t{t}", case.name), |b| {
                    b.iter(|| kernels::spmm_values_grad(s, &case.feats, &case.grad, t))
                });
                c.bench_function(&format!("edge_softmax/{}/t{t}", case.name), |b| {
                    b.iter(|| kernels::edge_softmax(s, &case.scores, t))
                });
                c.bench_function(&format!("edge_softmax_backward/{}/t{t}", case.name), |b| {
                    b.iter(|| kernels::edge_softmax_backward(s, &softmax, &grad_entries, t))
                });
                c.bench_function(&format!("matmul/{}/t{t}", case.name), |b| {
                    b.iter(|| kernels::matmul(&case.feats, &case.weight, t))
                });
                c.bench_function(&format!("t_matmul/{}/t{t}", case.name), |b| {
                    b.iter(|| kernels::t_matmul(&case.feats, &case.grad, t))
                });
                c.bench_function(&format!("matmul_t/{}/t{t}", case.name), |b| {
                    b.iter(|| kernels::matmul_t(&case.feats, &case.weight, t))
                });
            }
        }
    }

    // Fold repeats down to the fastest run of each label, preserving first-seen
    // order so the report reads in suite order.
    let mut entries: Vec<Entry> = Vec::new();
    for (label, mean_ns) in c.records() {
        let mut parts = label.split('/');
        let (Some(kernel), Some(size), Some(threads)) = (
            parts.next(),
            parts.next(),
            parts.next().and_then(|p| p.strip_prefix('t')),
        ) else {
            continue;
        };
        let Ok(threads) = threads.parse::<usize>() else {
            continue;
        };
        match entries
            .iter_mut()
            .find(|e| e.kernel == kernel && e.size == size && e.threads == threads)
        {
            Some(e) if *mean_ns < e.mean_ns => {
                e.mean_ns = *mean_ns;
                e.norm = *mean_ns / calib;
            }
            Some(_) => {}
            None => entries.push(Entry {
                kernel: kernel.to_string(),
                size: size.to_string(),
                threads,
                mean_ns: *mean_ns,
                norm: *mean_ns / calib,
            }),
        }
    }

    let report = render_report(quick, hardware_threads, calib, &entries, &crossovers);
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("bench: failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("bench: wrote {out_path} ({} entries)", entries.len());

    let mut failed = false;
    if let Ok(baseline_path) = std::env::var("SES_BENCH_BASELINE") {
        failed |= !gate_against_baseline(&baseline_path, quick, hardware_threads, &entries);
    }
    failed |= !gate_speedup(hardware_threads, &entries);
    failed |= !gate_parallel_never_loses(hardware_threads, &entries);
    failed |= !gate_lane_speedup(&cases);
    failed |= !gate_obs_overhead(&entries);
    failed |= !gate_tracing_overhead(&entries);
    failed |= !gate_resilience_overhead(&entries);
    if failed {
        std::process::exit(1);
    }
}

/// Minimum-of-batches timing for a closure: each batch is sized to take
/// roughly 200µs, so sub-microsecond calls are still measurable above timer
/// resolution, and the minimum over batches discards scheduler noise.
fn min_batch_ns<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    let one = start.elapsed().as_nanos().max(1) as f64;
    let reps = ((200_000.0 / one).ceil() as usize).clamp(1, 20_000);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

/// The work axis each kernel's crossover is expressed in (matches what the
/// kernel wrappers pass to [`dispatch::threads_for`]).
fn crossover_unit(kernel: &str) -> &'static str {
    match kernel {
        "matmul" | "t_matmul" | "matmul_t" => "flops",
        _ => "nnz",
    }
}

/// Picks a crossover from `(work, serial_ns, parallel_ns)` ladder points
/// (ascending work): the geometric mean of the last losing and first winning
/// size. A "win" needs a 5% margin so oversubscription jitter does not count.
/// If parallel wins everywhere the crossover drops below the smallest point;
/// if it never wins it lands safely above the largest.
fn pick_crossover(points: &[(usize, f64, f64)]) -> usize {
    let first_win = points.iter().position(|&(_, s, p)| p < s * 0.95);
    match first_win {
        Some(0) => (points[0].0 / 2).max(1),
        Some(i) => {
            let lo = points[i - 1].0 as f64;
            let hi = points[i].0 as f64;
            (lo * hi).sqrt().round() as usize
        }
        None => points.last().map_or(1, |&(w, _, _)| w.saturating_mul(4)),
    }
}

/// Ladder measurements for one sparse-family kernel: `f` runs the kernel on
/// a prepared case at a given thread count.
fn sparse_points(
    cases: &[(Case, Matrix, Matrix)],
    t: usize,
    f: &mut dyn FnMut(&Case, &Matrix, &Matrix, usize),
) -> Vec<(usize, f64, f64)> {
    cases
        .iter()
        .map(|(case, softmax, grad_entries)| {
            let nnz = case.structure.nnz();
            let serial = min_batch_ns(|| f(case, softmax, grad_entries, 1));
            let par = min_batch_ns(|| f(case, softmax, grad_entries, t));
            (nnz, serial, par)
        })
        .collect()
}

/// Ladder measurements for one dense-family kernel.
fn dense_points(
    cases: &[(Matrix, Matrix)],
    t: usize,
    f: &mut dyn FnMut(&Matrix, &Matrix, usize),
) -> Vec<(usize, f64, f64)> {
    cases
        .iter()
        .map(|(a, b)| {
            let (m, k) = a.shape();
            let work = m * k * k;
            let serial = min_batch_ns(|| f(a, b, 1));
            let par = min_batch_ns(|| f(a, b, t));
            (work, serial, par)
        })
        .collect()
}

/// Measures, per kernel, the work size where the parallel path starts
/// beating the serial one, and returns `(kernel, crossover_work, unit)`
/// rows for [`dispatch::set_crossover`] and the report's `"crossover"`
/// section. Runs with dispatch bypassed so the sub-crossover parallel
/// region is actually measured instead of being clamped to serial. On
/// single-core hardware parallel cannot win by construction, so the
/// compiled-in table is kept (and still recorded in the report).
fn calibrate_crossovers(
    quick: bool,
    hardware_threads: usize,
) -> Vec<(String, usize, &'static str)> {
    let t = hardware_threads.min(4);
    if t < 2 {
        println!(
            "bench: {hardware_threads} hardware thread(s) — parallel cannot win here; \
             keeping the compiled-in crossover table"
        );
        return dispatch::kernels()
            .into_iter()
            .map(|k| (k.to_string(), dispatch::crossover(k), crossover_unit(k)))
            .collect();
    }
    dispatch::set_bypass(true);
    let sparse_ns: &[usize] = if quick {
        &[96, 256, 768, 2048]
    } else {
        &[96, 256, 768, 2048, 4608, 9216]
    };
    let sparse: Vec<(Case, Matrix, Matrix)> = sparse_ns
        .iter()
        .map(|&n| {
            let case = build_case("calib", n, 8, 32, 23);
            let sm = kernels::edge_softmax(&case.structure, &case.scores, 1);
            let sm = Matrix::from_vec(sm.len(), 1, sm);
            let ge = Matrix::from_vec(
                case.structure.nnz(),
                1,
                case.values.iter().map(|v| v * 0.5).collect::<Vec<f32>>(),
            );
            (case, sm, ge)
        })
        .collect();
    let dense_ms: &[usize] = if quick {
        &[64, 192, 512, 1536]
    } else {
        &[64, 192, 512, 1536, 4096]
    };
    let mut rng = StdRng::seed_from_u64(29);
    let dense: Vec<(Matrix, Matrix)> = dense_ms
        .iter()
        .map(|&m| {
            let a = Matrix::from_vec(
                m,
                32,
                (0..m * 32).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            );
            let b = Matrix::from_vec(
                32,
                32,
                (0..32 * 32).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            );
            (a, b)
        })
        .collect();

    let mut table: Vec<(String, usize, &'static str)> = Vec::new();
    let mut push = |name: &str, points: Vec<(usize, f64, f64)>| {
        let work = pick_crossover(&points);
        println!(
            "bench: crossover {name} = {work} {} (from {} ladder points)",
            crossover_unit(name),
            points.len()
        );
        table.push((name.to_string(), work, crossover_unit(name)));
    };
    push(
        "spmm",
        sparse_points(&sparse, t, &mut |c, _, _, th| {
            black_box(kernels::spmm(&c.structure, &c.values, &c.feats, th));
        }),
    );
    push(
        "spmm_transpose",
        sparse_points(&sparse, t, &mut |c, _, _, th| {
            black_box(kernels::spmm_transpose(
                &c.structure,
                &c.values,
                &c.grad,
                th,
            ));
        }),
    );
    push(
        "spmm_values_grad",
        sparse_points(&sparse, t, &mut |c, _, _, th| {
            black_box(kernels::spmm_values_grad(
                &c.structure,
                &c.feats,
                &c.grad,
                th,
            ));
        }),
    );
    push(
        "edge_softmax",
        sparse_points(&sparse, t, &mut |c, _, _, th| {
            black_box(kernels::edge_softmax(&c.structure, &c.scores, th));
        }),
    );
    push(
        "edge_softmax_backward",
        sparse_points(&sparse, t, &mut |c, sm, ge, th| {
            black_box(kernels::edge_softmax_backward(&c.structure, sm, ge, th));
        }),
    );
    push(
        "matmul",
        dense_points(&dense, t, &mut |a, b, th| {
            black_box(kernels::matmul(a, b, th));
        }),
    );
    push(
        "t_matmul",
        // aᵀ·a: t_matmul contracts over rows, and `b` has only 32 of them
        dense_points(&dense, t, &mut |a, _, th| {
            black_box(kernels::t_matmul(a, a, th));
        }),
    );
    push(
        "matmul_t",
        dense_points(&dense, t, &mut |a, b, th| {
            black_box(kernels::matmul_t(a, b, th));
        }),
    );
    dispatch::set_bypass(false);
    table
}

/// The parallel-never-loses gate: with the calibrated crossover table
/// installed, a dispatched parallel call must never run meaningfully slower
/// than the serial call at the same size — below the crossover, dispatch
/// clamps to the serial path, and above it parallelism must pay for itself.
/// Thread counts beyond the hardware are skipped (oversubscription measures
/// spawn overhead, and the determinism contract makes the results identical
/// anyway).
fn gate_parallel_never_loses(hardware_threads: usize, entries: &[Entry]) -> bool {
    const TOLERANCE: f64 = 1.10;
    const SLACK_NS: f64 = 20_000.0;
    let mut ok = true;
    let mut checked = 0usize;
    for e in entries
        .iter()
        .filter(|e| e.threads > 1 && e.threads <= hardware_threads)
    {
        let Some(base) = entries
            .iter()
            .find(|b| b.kernel == e.kernel && b.size == e.size && b.threads == 1)
        else {
            continue;
        };
        checked += 1;
        if e.mean_ns > base.mean_ns * TOLERANCE + SLACK_NS {
            eprintln!(
                "bench gate: PARALLEL LOSS {}/{}/t{}: {:.0}ns vs {:.0}ns serial",
                e.kernel, e.size, e.threads, e.mean_ns, base.mean_ns
            );
            ok = false;
        }
    }
    if checked == 0 {
        println!(
            "bench gate: parallel-never-loses — no in-hardware parallel entries on \
             {hardware_threads} thread(s); skipped"
        );
    } else {
        println!("bench gate: parallel-never-loses — checked {checked} dispatched entries");
    }
    ok
}

/// Minimum-of-batches timing for two closures measured interleaved:
/// alternating A-batch / B-batch rounds so a sustained slow period on a
/// shared box (another tenant, frequency dip) inflates both sides rather
/// than whichever happened to run during it. The per-side minimum over
/// rounds then discards the noisy rounds symmetrically.
fn interleaved_min_ns<A: FnMut(), B: FnMut()>(mut a: A, mut b: B) -> (f64, f64) {
    const ROUNDS: usize = 5;
    let reps_for = |one: f64| ((200_000.0 / one).ceil() as usize).clamp(1, 20_000);
    let start = Instant::now();
    a();
    let reps_a = reps_for(start.elapsed().as_nanos().max(1) as f64);
    let start = Instant::now();
    b();
    let reps_b = reps_for(start.elapsed().as_nanos().max(1) as f64);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..reps_a {
            a();
        }
        best_a = best_a.min(start.elapsed().as_nanos() as f64 / reps_a as f64);
        let start = Instant::now();
        for _ in 0..reps_b {
            b();
        }
        best_b = best_b.min(start.elapsed().as_nanos() as f64 / reps_b as f64);
    }
    (best_a, best_b)
}

/// The lane-speedup gate: the serial lane kernels must beat the committed
/// scalar reference bodies ([`reference`]) by ≥ 1.3× on the large benchmark
/// case. Measured interleaved in-process ([`interleaved_min_ns`]), so the
/// threshold holds across machines without normalisation and one noisy
/// stretch on a shared box cannot sink a single side. A sub-threshold
/// kernel is re-measured up to twice (best ratio wins) before the gate
/// fails: at this margin a noisy stretch spanning whole rounds is far
/// likelier than a genuine regression, and a real regression fails all
/// three attempts anyway.
fn gate_lane_speedup(cases: &[Case]) -> bool {
    const WANT: f64 = 1.3;
    const ATTEMPTS: usize = 3;
    let Some(case) = cases.iter().find(|c| c.name == "coauthor_cs") else {
        eprintln!("bench gate: coauthor_cs case missing for the lane-speedup check");
        return false;
    };
    let s = &case.structure;
    let measure = |which: &str| -> (f64, f64) {
        if which == "spmm" {
            interleaved_min_ns(
                || {
                    black_box(reference::spmm(s, &case.values, &case.feats));
                },
                || {
                    black_box(kernels::spmm(s, &case.values, &case.feats, 1));
                },
            )
        } else {
            interleaved_min_ns(
                || {
                    black_box(reference::matmul(&case.feats, &case.weight));
                },
                || {
                    black_box(kernels::matmul(&case.feats, &case.weight, 1));
                },
            )
        }
    };
    let mut ok = true;
    for name in ["spmm", "matmul"] {
        let (mut scalar_ns, mut lane_ns) = measure(name);
        let mut sp = scalar_ns / lane_ns;
        for attempt in 1..ATTEMPTS {
            if sp >= WANT {
                break;
            }
            eprintln!("bench gate: lane {name} {sp:.2}x on attempt {attempt} — re-measuring");
            let (s2, l2) = measure(name);
            if s2 / l2 > sp {
                (scalar_ns, lane_ns) = (s2, l2);
                sp = s2 / l2;
            }
        }
        if sp >= WANT {
            println!(
                "bench gate: lane {name} {sp:.2}x over the scalar reference \
                 ({scalar_ns:.0}ns -> {lane_ns:.0}ns) — >= {WANT}x"
            );
        } else {
            eprintln!(
                "bench gate: lane {name} only {sp:.2}x over the scalar reference \
                 ({scalar_ns:.0}ns -> {lane_ns:.0}ns) — wanted {WANT}x"
            );
            ok = false;
        }
    }
    ok
}

/// Asserts the per-epoch resilience tax — one divergence-sentinel `observe`
/// plus one full `TrainCheckpoint::capture` (the standard policy checkpoints
/// every epoch) — costs less than 2% of a conservative epoch-time lower
/// bound: the sum of the serial ba_shapes kernel timings, i.e. a single
/// invocation of each hot kernel, where a real epoch runs each several times
/// across layers and backward. The probe model is sized to the same case
/// (a 32-wide GCN, matching the ba_shapes operands) so both sides of the
/// ratio scale together. Measured directly, like [`gate_obs_overhead`], so
/// the gate is stable on shared hardware.
fn gate_resilience_overhead(entries: &[Entry]) -> bool {
    use ses_resilience::{RecoveryManager, RecoveryPolicy, TrainCheckpoint};
    use ses_tensor::{Adam, Param};

    const MAX_FRACTION: f64 = 0.02;
    let epoch_lb_ns: f64 = entries
        .iter()
        .filter(|e| e.size == "ba_shapes" && e.threads == 1)
        .map(|e| e.mean_ns)
        .sum();
    if epoch_lb_ns <= 0.0 {
        eprintln!("bench gate: no serial ba_shapes entries for the resilience-overhead check");
        return false;
    }

    // 2-layer GCN at the ba_shapes bench width: 32 -> 32 -> 4, weights plus
    // bias rows — the model whose epoch the serial timings lower-bound.
    let mut rng = StdRng::seed_from_u64(17);
    let mut dense = |rows: usize, cols: usize| {
        Param::new(Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.gen_range(-0.1f32..0.1))
                .collect(),
        ))
    };
    let mut params = [dense(32, 32), dense(1, 32), dense(32, 4), dense(1, 4)];
    let opt = Adam::new(3e-3);
    let mut manager = RecoveryManager::new(RecoveryPolicy::standard());
    let probe_rng = StdRng::seed_from_u64(17);

    const ITERS: u32 = 32;
    let start = Instant::now();
    for i in 0..ITERS {
        let verdict = manager.observe(0.7 - 1e-4 * i as f32, true);
        black_box(verdict);
        let views: Vec<&mut Param> = params.iter_mut().collect();
        let ckpt = TrainCheckpoint::capture(u64::from(i), &opt, &probe_rng, &views);
        black_box(ckpt);
    }
    let probe_ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);

    let fraction = probe_ns / epoch_lb_ns;
    if fraction < MAX_FRACTION {
        println!(
            "bench gate: sentinel+checkpoint probe {probe_ns:.0}ns = {:.3}% of the serial \
             ba_shapes epoch lower bound ({epoch_lb_ns:.0}ns) — under the {:.0}% budget",
            fraction * 100.0,
            MAX_FRACTION * 100.0
        );
        true
    } else {
        eprintln!(
            "bench gate: sentinel+checkpoint probe {probe_ns:.0}ns is {:.3}% of the serial \
             ba_shapes epoch lower bound ({epoch_lb_ns:.0}ns) — exceeds the {:.0}% budget",
            fraction * 100.0,
            MAX_FRACTION * 100.0
        );
        false
    }
}

/// Asserts the *disabled* `ses-obs` instrumentation preamble (one span
/// guard + two counter bumps, exactly what an spmm call pays) costs less
/// than 2% of a serial spmm invocation at the smaller benchmark size.
/// Measured directly rather than by differencing two noisy kernel runs, so
/// the gate is stable on shared hardware.
fn gate_obs_overhead(entries: &[Entry]) -> bool {
    const MAX_FRACTION: f64 = 0.02;
    let Some(spmm) = entries
        .iter()
        .find(|e| e.kernel == "spmm" && e.size == "ba_shapes" && e.threads == 1)
    else {
        eprintln!("bench gate: spmm/ba_shapes/t1 entry missing for the obs-overhead check");
        return false;
    };
    let probe_ns = ses_obs::disabled_path_cost_ns(1_000_000);
    let fraction = probe_ns / spmm.mean_ns;
    if fraction < MAX_FRACTION {
        println!(
            "bench gate: disabled ses-obs preamble {probe_ns:.1}ns = {:.3}% of spmm/ba_shapes/t1 \
             ({:.0}ns) — under the {:.0}% budget",
            fraction * 100.0,
            spmm.mean_ns,
            MAX_FRACTION * 100.0
        );
        true
    } else {
        eprintln!(
            "bench gate: disabled ses-obs preamble {probe_ns:.1}ns is {:.3}% of \
             spmm/ba_shapes/t1 ({:.0}ns) — exceeds the {:.0}% budget",
            fraction * 100.0,
            spmm.mean_ns,
            MAX_FRACTION * 100.0
        );
        false
    }
}

/// Asserts *enabled* tracing (span-table aggregation + counter bumps, the
/// preamble every instrumented kernel call pays when telemetry is on) stays
/// under 2% of a serial epoch: a training epoch issues on the order of 64
/// instrumented calls, so the gate scales the measured per-call cost by a
/// conservative call budget and compares against the serial ba_shapes epoch
/// lower bound (the summed serial kernel timings).
fn gate_tracing_overhead(entries: &[Entry]) -> bool {
    const MAX_FRACTION: f64 = 0.02;
    const CALLS_PER_EPOCH: f64 = 64.0;
    let epoch_lb_ns: f64 = entries
        .iter()
        .filter(|e| e.size == "ba_shapes" && e.threads == 1)
        .map(|e| e.mean_ns)
        .sum();
    if epoch_lb_ns <= 0.0 {
        eprintln!("bench gate: no serial ba_shapes entries for the tracing-overhead check");
        return false;
    }
    let per_call_ns = ses_obs::enabled_path_cost_ns(1_000_000);
    let per_epoch_ns = per_call_ns * CALLS_PER_EPOCH;
    let fraction = per_epoch_ns / epoch_lb_ns;
    if fraction < MAX_FRACTION {
        println!(
            "bench gate: enabled tracing {per_call_ns:.1}ns/call × {CALLS_PER_EPOCH:.0} calls = \
             {:.3}% of the serial ba_shapes epoch lower bound ({epoch_lb_ns:.0}ns) — under the \
             {:.0}% budget",
            fraction * 100.0,
            MAX_FRACTION * 100.0
        );
        true
    } else {
        eprintln!(
            "bench gate: enabled tracing {per_call_ns:.1}ns/call × {CALLS_PER_EPOCH:.0} calls is \
             {:.3}% of the serial ba_shapes epoch lower bound ({epoch_lb_ns:.0}ns) — exceeds the \
             {:.0}% budget",
            fraction * 100.0,
            MAX_FRACTION * 100.0
        );
        false
    }
}

/// Renders the JSON report. One entry per line so the baseline gate can
/// parse it back without a JSON dependency.
fn render_report(
    quick: bool,
    hardware_threads: usize,
    calib: f64,
    entries: &[Entry],
    crossovers: &[(String, usize, &'static str)],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"ses-bench-kernels/v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"hardware_threads\": {hardware_threads},\n"));
    s.push_str(&format!("  \"calibration_ns\": {calib:.1},\n"));
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"size\": \"{}\", \"threads\": {}, \"mean_ns\": {:.1}, \"norm\": {:.6}}}{comma}\n",
            e.kernel, e.size, e.threads, e.mean_ns, e.norm
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"speedups\": [\n");
    let speedups = speedups(entries);
    for (i, (kernel, size, threads, sp)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"kernel\": \"{kernel}\", \"size\": \"{size}\", \"threads\": {threads}, \"speedup\": {sp:.3}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"crossover\": [\n");
    for (i, (kernel, work, unit)) in crossovers.iter().enumerate() {
        let comma = if i + 1 < crossovers.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"kernel\": \"{kernel}\", \"crossover_work\": {work}, \"unit\": \"{unit}\"}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Serial-vs-parallel speedups derivable from the entries: for every kernel
/// and size, `t1 mean / tN mean` for each parallel thread count.
fn speedups(entries: &[Entry]) -> Vec<(String, String, usize, f64)> {
    let mut out = Vec::new();
    for e in entries.iter().filter(|e| e.threads > 1) {
        if let Some(base) = entries
            .iter()
            .find(|b| b.kernel == e.kernel && b.size == e.size && b.threads == 1)
        {
            if e.mean_ns > 0.0 {
                out.push((
                    e.kernel.clone(),
                    e.size.clone(),
                    e.threads,
                    base.mean_ns / e.mean_ns,
                ));
            }
        }
    }
    out
}

/// Extracts one `"key": value` field from a single JSON report line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next().map(str::trim)
    }
}

/// Parses the entries out of a previously written report.
fn parse_entries(text: &str) -> Vec<Entry> {
    text.lines()
        .filter_map(|line| {
            Some(Entry {
                kernel: field(line, "kernel")?.to_string(),
                size: field(line, "size")?.to_string(),
                threads: field(line, "threads")?.parse().ok()?,
                mean_ns: field(line, "mean_ns")?.parse().ok()?,
                norm: field(line, "norm")?.parse().ok()?,
            })
        })
        .collect()
}

/// Compares current entries to the committed baseline; returns false (gate
/// failure) when any matching kernel regressed beyond [`REGRESSION_FACTOR`]
/// in calibration-normalised time. Skipped: sub-noise entries, and entries
/// whose thread count exceeds the hardware (those measure spawn overhead on
/// an oversubscribed core — pure noise, and the determinism contract means
/// their results are identical anyway).
fn gate_against_baseline(
    path: &str,
    quick: bool,
    hardware_threads: usize,
    entries: &[Entry],
) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench gate: baseline {path} unreadable ({e}); skipping comparison");
            return true;
        }
    };
    let baseline_quick = text
        .lines()
        .find_map(|l| field(l, "quick"))
        .map(|v| v == "true");
    if baseline_quick != Some(quick) {
        eprintln!("bench gate: baseline {path} mode mismatch (quick={quick}); skipping comparison");
        return true;
    }
    let baseline = parse_entries(&text);
    let mut ok = true;
    let mut compared = 0usize;
    for e in entries {
        let Some(b) = baseline
            .iter()
            .find(|b| b.kernel == e.kernel && b.size == e.size && b.threads == e.threads)
        else {
            continue;
        };
        if e.mean_ns < NOISE_FLOOR_NS && b.mean_ns < NOISE_FLOOR_NS {
            continue;
        }
        if e.threads > hardware_threads {
            continue;
        }
        compared += 1;
        if e.norm > b.norm * REGRESSION_FACTOR {
            eprintln!(
                "bench gate: REGRESSION {}/{}/t{}: norm {:.4} vs baseline {:.4} (>{:.0}%)",
                e.kernel,
                e.size,
                e.threads,
                e.norm,
                b.norm,
                (REGRESSION_FACTOR - 1.0) * 100.0
            );
            ok = false;
        }
    }
    println!("bench gate: compared {compared} entries against {path}");
    ok
}

/// On machines with real parallelism, require the headline Coauthor-CS spmm
/// speedup at 4 threads to reach 2×. On narrower hardware the check is
/// skipped (and says so): a 1-core container cannot exhibit parallel
/// speedup by construction.
fn gate_speedup(hardware_threads: usize, entries: &[Entry]) -> bool {
    const WANT: f64 = 2.0;
    if hardware_threads < 4 {
        println!(
            "bench gate: {hardware_threads} hardware thread(s) — skipping the 4-thread \
             speedup check (needs >= 4)"
        );
        return true;
    }
    let sp = speedups(entries)
        .into_iter()
        .find(|(k, s, t, _)| k == "spmm" && s == "coauthor_cs" && *t == 4)
        .map(|(_, _, _, sp)| sp);
    match sp {
        Some(sp) if sp >= WANT => {
            println!("bench gate: spmm/coauthor_cs speedup at 4 threads: {sp:.2}x (>= {WANT}x)");
            true
        }
        Some(sp) => {
            eprintln!(
                "bench gate: spmm/coauthor_cs speedup at 4 threads only {sp:.2}x (< {WANT}x)"
            );
            false
        }
        None => {
            eprintln!("bench gate: spmm/coauthor_cs 4-thread entry missing");
            false
        }
    }
}
