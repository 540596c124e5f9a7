//! `ses-bench` — the harness regenerating every table and figure of the SES
//! paper. One binary per experiment (`table3` … `table10`, `fig4` … `fig8`)
//! plus Criterion micro-benchmarks (`benches/micro.rs`).
//!
//! All binaries print a human-readable table to stdout **and** write CSV
//! under `target/experiments/` for EXPERIMENTS.md. Dataset sizes follow
//! [`Profile::from_env`]: set `SES_PROFILE=paper` for published sizes
//! (slow on CPU); the default `fast` profile preserves degree/homophily/
//! class structure at reduced node counts.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_core::{MaskGenerator, SesConfig};
use ses_data::{realworld, Dataset, Profile, Splits};
use ses_gnn::{Encoder, Gcn, TrainConfig};
use ses_metrics::format_duration;

/// Where experiment CSVs land (created on first use).
pub fn experiments_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes a CSV file under `target/experiments/` (header + rows).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    let path = experiments_dir()?.join(name);
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    ses_obs::info!("wrote {}", path.display());
    Ok(())
}

/// Pretty-prints a table: `header` then aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    ses_obs::outln!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    ses_obs::outln!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        ses_obs::outln!("{}", fmt_row(row));
    }
}

/// Formats fractional seconds in the human scale used across the timing
/// tables (`format_duration` on the equivalent [`Duration`]).
pub fn fmt_secs(secs: f64) -> String {
    format_duration(Duration::from_secs_f64(secs))
}

/// Accumulator for the timing tables (Tables 6–8): keeps the pretty-printed
/// rows and the CSV lines in lockstep, logs per-row progress through
/// `ses-obs`, and renders/persists both on [`TimingSheet::finish`]. Replaces
/// the parallel `rows`/`csv` vectors every timing binary used to hand-roll.
pub struct TimingSheet {
    title: String,
    csv_name: &'static str,
    csv_header: &'static str,
    header: Vec<&'static str>,
    rows: Vec<Vec<String>>,
    csv: Vec<String>,
}

impl TimingSheet {
    /// Starts an empty sheet. `header` names the pretty columns; `csv_header`
    /// names the CSV columns (they may differ, e.g. formatted vs raw seconds).
    pub fn new(
        title: impl Into<String>,
        csv_name: &'static str,
        csv_header: &'static str,
        header: &[&'static str],
    ) -> Self {
        Self {
            title: title.into(),
            csv_name,
            csv_header,
            header: header.to_vec(),
            rows: Vec::new(),
            csv: Vec::new(),
        }
    }

    /// Records a `(label, seconds)` timing row — the Table 6/8 shape — and
    /// logs a progress line.
    pub fn record(&mut self, label: &str, secs: f64) {
        ses_obs::info!("{label}: {secs:.2}s");
        self.push_row(
            vec![label.to_string(), fmt_secs(secs)],
            format!("{label},{secs:.3}"),
        );
    }

    /// Records an arbitrary row, keeping the table and CSV in lockstep.
    pub fn push_row(&mut self, cells: Vec<String>, csv_line: String) {
        if ses_obs::sink::active() {
            let mut rec = ses_obs::Record::new("bench_row").str("sheet", self.csv_name);
            for (name, cell) in self.header.iter().zip(&cells) {
                rec = rec.str(name, cell);
            }
            rec.emit();
        }
        self.rows.push(cells);
        self.csv.push(csv_line);
    }

    /// Pretty-prints the table and writes the CSV under
    /// `target/experiments/`.
    pub fn finish(self) -> std::io::Result<()> {
        print_table(&self.title, &self.header, &self.rows);
        write_csv(self.csv_name, self.csv_header, &self.csv)
    }
}

/// The four real-world stand-ins in paper order (fresh sample per seed).
pub fn realworld_datasets(profile: Profile, seed: u64) -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    realworld::all_realworld(profile, &mut rng)
}

/// Default backbone training config for the prediction benchmarks.
pub fn backbone_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 200,
        patience: 40,
        seed,
        ..Default::default()
    }
}

/// Default SES config for the prediction benchmarks (fast schedule; the
/// paper schedule is 300 + 15 — set `SES_PROFILE=paper`).
pub fn ses_prediction_config(profile: Profile, seed: u64) -> SesConfig {
    let mut cfg = SesConfig {
        seed,
        ..Default::default()
    };
    if profile == Profile::Paper {
        cfg = cfg.paper_schedule();
    }
    cfg
}

/// SES config tuned for the synthetic explanation benchmarks (Table 4):
/// mask-size penalty on, subgraph loss de-weighted, unfiltered negatives.
pub fn ses_explanation_config(seed: u64) -> SesConfig {
    SesConfig {
        seed,
        k: 2,
        lr: 0.01,
        epochs_explain: 400,
        epochs_epl: 0,
        sub_loss_weight: 0.3,
        mask_size_weight: 0.5,
        label_filtered_negatives: false,
        ..Default::default()
    }
}

/// Hidden width used across prediction experiments. The paper uses 128;
/// the fast profile uses 64 to keep the full suite CPU-friendly.
pub fn hidden_dim(profile: Profile) -> usize {
    match profile {
        Profile::Paper => 128,
        Profile::Fast => 64,
    }
}

/// Builds a fresh GCN encoder + mask generator pair for SES.
pub fn ses_gcn(graph: &ses_graph::Graph, hidden: usize, seed: u64) -> (Gcn, MaskGenerator) {
    let mut rng = StdRng::seed_from_u64(seed);
    let enc = Gcn::new(graph.n_features(), hidden, graph.n_classes(), &mut rng);
    let mg = MaskGenerator::new(enc.hidden_dim(), graph.n_features(), &mut rng);
    (enc, mg)
}

/// Classification splits for a dataset under a given seed (60/20/20).
pub fn classification_splits(dataset: &Dataset, seed: u64) -> Splits {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5e5));
    Splits::classification(dataset.graph.n_nodes(), &mut rng)
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        write_csv("unit_test.csv", "a,b", &["1,2".to_string()]).unwrap();
        let content =
            std::fs::read_to_string(experiments_dir().unwrap().join("unit_test.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn timing_sheet_keeps_table_and_csv_in_lockstep() {
        let mut sheet = TimingSheet::new(
            "unit sheet",
            "unit_sheet.csv",
            "method,seconds",
            &["method", "time"],
        );
        sheet.record("fast", 0.25);
        sheet.push_row(
            vec!["slow".into(), fmt_secs(90.0)],
            "slow,90.000".to_string(),
        );
        assert_eq!(sheet.rows.len(), sheet.csv.len());
        assert_eq!(sheet.rows[0][0], "fast");
        assert_eq!(sheet.csv[0], "fast,0.250");
        sheet.finish().unwrap();
        let content =
            std::fs::read_to_string(experiments_dir().unwrap().join("unit_sheet.csv")).unwrap();
        assert_eq!(content, "method,seconds\nfast,0.250\nslow,90.000\n");
    }

    #[test]
    fn dataset_factory_order() {
        let ds = realworld_datasets(Profile::Fast, 1);
        let names: Vec<&str> = ds.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["cora-like", "citeseer-like", "polblogs-like", "cs-like"]
        );
    }

    #[test]
    fn config_profiles() {
        assert_eq!(hidden_dim(Profile::Paper), 128);
        let c = ses_prediction_config(Profile::Paper, 3);
        assert_eq!(c.epochs_explain, 300);
        let e = ses_explanation_config(0);
        assert!(e.mask_size_weight > 0.0);
    }
}
