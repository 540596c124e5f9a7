//! `ses-obs` — analysis CLI over JSONL telemetry files.
//!
//! ```text
//! ses-obs top <run.jsonl> [--n N]
//!     Top-N spans by total time across epoch kernel breakdowns.
//!
//! ses-obs trend <run.jsonl>
//!     Per-phase epoch trends: loss first→last, median/total epoch time.
//!
//! ses-obs diff <a.jsonl> <b.jsonl> [--threshold F] [--abs-floor-ms F]
//!              [--drill-slowdown F]
//!     Noise-aware comparison of two runs. A metric regresses only when it
//!     moves by more than the relative threshold AND the absolute floor.
//!     Exit code 1 on a regression verdict (CI-friendly);
//!     `--drill-slowdown F` multiplies run B's timings by F to prove the
//!     regression path fires.
//! ```

use std::process::ExitCode;

use ses_obs::analyze::{self, DiffOptions, Run, Verdict};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ses-obs top <run.jsonl> [--n N]\n  ses-obs trend <run.jsonl>\n  \
         ses-obs diff <a.jsonl> <b.jsonl> [--threshold F] [--abs-floor-ms F] [--drill-slowdown F]"
    );
    ExitCode::FAILURE
}

fn parse_flag(args: &[String], flag: &str) -> Result<Option<f64>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or(format!("{flag} needs a value"))?
            .parse()
            .map(Some)
            .map_err(|e| format!("bad {flag} value: {e}")),
    }
}

fn cmd_top(path: &str, n: usize) -> Result<(), String> {
    let run = Run::load(path)?;
    let top = analyze::top_spans(&run, n);
    if top.is_empty() {
        return Err(format!("{path}: no epoch records with kernel breakdowns"));
    }
    println!("{:<28} {:>12} {:>8}", "span", "total_ms", "epochs");
    for s in top {
        println!("{:<28} {:>12.3} {:>8}", s.name, s.total_ms, s.records);
    }
    Ok(())
}

fn cmd_trend(path: &str) -> Result<(), String> {
    let run = Run::load(path)?;
    let trends = analyze::trends(&run);
    if trends.is_empty() {
        return Err(format!("{path}: no epoch records"));
    }
    println!(
        "{:<12} {:>7} {:>12} {:>12} {:>14} {:>12}",
        "phase", "epochs", "first_loss", "last_loss", "median_ep_ms", "total_ms"
    );
    for t in trends {
        let fmt_loss = |l: Option<f64>| l.map_or("—".to_string(), |l| format!("{l:.6}"));
        println!(
            "{:<12} {:>7} {:>12} {:>12} {:>14.3} {:>12.3}",
            t.phase,
            t.epochs,
            fmt_loss(t.first_loss),
            fmt_loss(t.last_loss),
            t.median_epoch_ms,
            t.total_ms
        );
    }
    Ok(())
}

fn cmd_diff(path_a: &str, path_b: &str, opts: DiffOptions) -> Result<Verdict, String> {
    let a = Run::load(path_a)?;
    let b = Run::load(path_b)?;
    let report = analyze::diff(&a, &b, opts);
    if report.metrics.is_empty() {
        return Err("no shared time metrics between the two runs".to_string());
    }
    println!(
        "{:<40} {:>12} {:>12} {:>9}  flag",
        "metric", "a_ms", "b_ms", "rel"
    );
    for m in &report.metrics {
        let flag = if m.regressed {
            "REGRESSED"
        } else if m.improved {
            "improved"
        } else {
            ""
        };
        println!(
            "{:<40} {:>12.3} {:>12.3} {:>8.1}%  {flag}",
            m.name,
            m.a,
            m.b,
            m.rel_change * 100.0
        );
    }
    match report.behavior_identical {
        Some(true) => println!("behaviour: final losses identical (like-for-like timings)"),
        Some(false) => println!("behaviour: final losses differ — runs did different work"),
        None => println!("behaviour: no loss data to compare"),
    }
    println!(
        "verdict: {} (threshold {:.0}% rel and {:.0}ms abs)",
        report.verdict.as_str(),
        opts.rel_threshold * 100.0,
        opts.abs_floor_ms
    );
    Ok(report.verdict)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let outcome: Result<ExitCode, String> = match cmd.as_str() {
        "top" => match rest {
            [path, ..] => {
                let n = match parse_flag(rest, "--n") {
                    Ok(n) => n.unwrap_or(10.0) as usize,
                    Err(e) => {
                        eprintln!("ses-obs: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                cmd_top(path, n.max(1)).map(|()| ExitCode::SUCCESS)
            }
            _ => return usage(),
        },
        "trend" => match rest {
            [path] => cmd_trend(path).map(|()| ExitCode::SUCCESS),
            _ => return usage(),
        },
        "diff" => match rest {
            [a, b, ..] => {
                let defaults = DiffOptions::default();
                let opts = (|| -> Result<DiffOptions, String> {
                    Ok(DiffOptions {
                        rel_threshold: parse_flag(rest, "--threshold")?
                            .unwrap_or(defaults.rel_threshold),
                        abs_floor_ms: parse_flag(rest, "--abs-floor-ms")?
                            .unwrap_or(defaults.abs_floor_ms),
                        scale_b: parse_flag(rest, "--drill-slowdown")?.unwrap_or(defaults.scale_b),
                    })
                })();
                match opts {
                    Ok(opts) => cmd_diff(a, b, opts).map(|verdict| {
                        if verdict == Verdict::Regression {
                            ExitCode::FAILURE
                        } else {
                            ExitCode::SUCCESS
                        }
                    }),
                    Err(e) => Err(e),
                }
            }
            _ => return usage(),
        },
        _ => return usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ses-obs: {e}");
            ExitCode::FAILURE
        }
    }
}
