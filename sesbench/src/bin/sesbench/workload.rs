//! The three seeded workloads: what each builds from `--seed`, and the
//! request sequence every trained model is served with.
//!
//! The program under test only ever sees the generated inputs; nothing
//! here reads the environment (datasets use an explicit `Profile::Fast`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ses_core::{MaskGenerator, SesConfig};
use ses_data::{realworld, synthetic, Profile, Splits, SyntheticDataset};
use ses_gnn::{Encoder, Gcn, Gin};
use ses_graph::Graph;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["fit-cora", "explain-treecycle", "serve-polblogs"];

/// Phase-1 epochs of the polblogs-like schedule `serve-polblogs` trains
/// in its set-up. The default 100 take about a minute per fit on a 2-vCPU
/// host. At 30, the final (masked) test accuracy of some seeds stalled at
/// 0.71–0.75 while their plain accuracy was 0.98; at 45 the same seeds
/// reached 0.975–0.99.
pub const POLBLOGS_EPOCHS_EXPLAIN: usize = 45;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FitCora,
    ExplainTreecycle,
    ServePolblogs,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "fit-cora" => Self::FitCora,
            "explain-treecycle" => Self::ExplainTreecycle,
            "serve-polblogs" => Self::ServePolblogs,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::FitCora => NAMES[0],
            Self::ExplainTreecycle => NAMES[1],
            Self::ServePolblogs => NAMES[2],
        }
    }

    /// The accuracy a workload reports as `test_acc`: the final masked
    /// accuracy, except on tree-cycle, whose Table 4 masks are tuned for
    /// explanation and where `SesReport::test_acc_plain` is the accuracy
    /// the report designates for explanation benchmarks.
    pub fn test_acc(self, report: &ses_core::SesReport) -> f64 {
        match self {
            Self::ExplainTreecycle => report.test_acc_plain,
            _ => report.test_acc,
        }
    }

    /// Output-check floors `(test_acc, expl_auc)`, set below every seed
    /// measured (seeds 71–140): cora accuracy 0.88–0.97 and neighbour AUC
    /// 0.60–0.63; polblogs accuracy 0.975–1.00 and neighbour AUC 0.50–0.66
    /// (chance is 0.5); tree-cycle plain accuracy 0.75–1.00 and motif AUC
    /// 0.84–0.97.
    pub fn floors(self) -> (f64, f64) {
        match self {
            Self::FitCora => (0.80, 0.55),
            Self::ServePolblogs => (0.60, 0.40),
            Self::ExplainTreecycle => (0.60, 0.75),
        }
    }
}

/// The backbone each workload trains. Both are the repo's own encoders.
/// A process holds one, so the size difference between them costs nothing.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Backbone {
    Gcn(Gcn),
    Gin(Gin),
}

/// Everything a workload's set-up produces: the inputs and the untrained
/// model, ready for `ses_core::fit`.
#[derive(Clone)]
pub struct Setup {
    pub graph: Graph,
    pub splits: Splits,
    /// Ground-truth motifs (tree-cycle only).
    pub motifs: Option<SyntheticDataset>,
    pub encoder: Backbone,
    pub mask_gen: MaskGenerator,
    pub config: SesConfig,
    /// Wall time of the dataset generator call alone.
    pub generate_ns: u64,
}

/// Builds a workload's inputs and model from `seed`. Deterministic: the
/// same seed gives bit-identical datasets, splits and initial weights.
pub fn setup(w: Workload, seed: u64) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = std::time::Instant::now();
    let (graph, motifs) = match w {
        Workload::FitCora => (realworld::cora_like(Profile::Fast, &mut rng).graph, None),
        Workload::ServePolblogs => (
            realworld::polblogs_like(Profile::Fast, &mut rng).graph,
            None,
        ),
        Workload::ExplainTreecycle => {
            let data = synthetic::tree_cycle(&mut rng);
            (data.dataset.graph.clone(), Some(data))
        }
    };
    let generate_ns = elapsed_ns(t);
    let n = graph.n_nodes();
    let f = graph.n_features();
    let c = graph.n_classes();
    let (splits, encoder, config) = match w {
        Workload::ExplainTreecycle => {
            // The Table 4 SES configuration (`ses_bench::ses_explanation_config`).
            let splits = Splits::explanation(n, &mut rng);
            let enc = Gin::new(f, 32, c, &mut rng);
            let config = SesConfig {
                seed,
                k: 2,
                lr: 0.01,
                epochs_explain: 400,
                epochs_epl: 0,
                sub_loss_weight: 0.3,
                mask_size_weight: 0.5,
                label_filtered_negatives: false,
                ..SesConfig::default()
            };
            (splits, Backbone::Gin(enc), config)
        }
        _ => {
            let splits = Splits::classification(n, &mut rng);
            let enc = Gcn::new(f, 64, c, &mut rng);
            let mut config = SesConfig {
                seed,
                ..SesConfig::default()
            };
            if w != Workload::FitCora {
                config.epochs_explain = POLBLOGS_EPOCHS_EXPLAIN;
            }
            (splits, Backbone::Gcn(enc), config)
        }
    };
    let hidden = match &encoder {
        Backbone::Gcn(e) => e.hidden_dim(),
        Backbone::Gin(e) => e.hidden_dim(),
    };
    let mask_gen = MaskGenerator::new(hidden, f, &mut rng);
    Setup {
        graph,
        splits,
        motifs,
        encoder,
        mask_gen,
        config,
        generate_ns,
    }
}

/// The request sequence: node popularity is Zipf(1) over a seeded
/// permutation of the nodes, so a few nodes are hot and the working set
/// is larger than a quarter-size cache. The permutation is redrawn every
/// [`HOT_SET_REQUESTS`] requests: with one permutation per seed, the ten
/// or so hottest nodes set most of a run's cost, and the request latency
/// of one seed differed from the next by up to 60%. An endless iterator.
pub struct ZipfNodes {
    rng: StdRng,
    perm: Vec<usize>,
    cdf: Vec<f64>,
    drawn: usize,
}

/// Requests served under one popularity permutation. At 1000, the six hot
/// sets of a 6 s nominal phase left its p50 ranging 0.20–0.31 ms over ten
/// seeds.
pub const HOT_SET_REQUESTS: usize = 500;

impl ZipfNodes {
    pub fn new(n_nodes: usize, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ 0x5e55_b0a7_2f1d_c3e9);
        let mut total = 0.0f64;
        let cdf = (0..n_nodes)
            .map(|rank| {
                total += 1.0 / (rank + 1) as f64;
                total
            })
            .collect();
        Self {
            rng,
            perm: (0..n_nodes).collect(),
            cdf,
            drawn: 0,
        }
    }
}

impl Iterator for ZipfNodes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.drawn.is_multiple_of(HOT_SET_REQUESTS) {
            self.perm.shuffle(&mut self.rng);
        }
        self.drawn += 1;
        let total = *self.cdf.last()?;
        let u = self.rng.gen::<f64>() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.perm.len() - 1);
        Some(self.perm[rank])
    }
}

/// The training workloads' request sequence: every node once a pass, in
/// one seeded order, pass after pass. A pass is longer than the cache (a
/// quarter of the nodes), so every request runs the full pipeline and the
/// p50 is the median node's cost. Zipf traffic put the p50 of these small
/// graphs on the edge between cache hits and misses, where it jumped by a
/// third from one run to the next.
pub fn sweep_nodes(n_nodes: usize, seed: u64) -> impl Iterator<Item = usize> {
    let mut order: Vec<usize> = (0..n_nodes).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x73e3_9a1c_0b5d_4f21));
    order.into_iter().cycle()
}

pub fn elapsed_ns(t: std::time::Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [Workload::FitCora, Workload::ExplainTreecycle] {
            let a = setup(w, 7);
            let b = setup(w, 7);
            let c = setup(w, 8);
            assert_eq!(a.graph.features().as_slice(), b.graph.features().as_slice());
            assert_eq!(a.graph.labels(), b.graph.labels());
            assert_eq!(a.graph.adjacency().indices(), b.graph.adjacency().indices());
            assert_eq!(a.splits.train, b.splits.train);
            assert_eq!(a.mask_gen.param_values(), b.mask_gen.param_values());
            assert!(
                a.graph.adjacency().indices() != c.graph.adjacency().indices()
                    || a.graph.features().as_slice() != c.graph.features().as_slice(),
                "{}: seeds 7 and 8 built the same graph",
                w.name()
            );
        }
    }

    #[test]
    fn zipf_sequence_is_seeded_and_skewed() {
        let zipf_nodes = |seed| ZipfNodes::new(400, seed).take(5000).collect::<Vec<_>>();
        let a = zipf_nodes(3);
        assert_eq!(a, zipf_nodes(3));
        assert_ne!(a, zipf_nodes(4));
        assert!(a.iter().all(|&v| v < 400));
        let mut counts = vec![0usize; 400];
        for &v in &a[..HOT_SET_REQUESTS] {
            counts[v] += 1;
        }
        counts.sort_unstable_by(|x, y| y.cmp(x));
        // Zipf(1) over 400 ranks: the hottest node takes ~15% of requests.
        let top = counts[0] as f64 / HOT_SET_REQUESTS as f64;
        assert!(top > 0.08 && top < 0.24, "top share {top}");
        assert!(counts.iter().filter(|&&c| c > 0).count() > 100);
    }

    #[test]
    fn sweep_is_seeded_and_covers_every_node_each_pass() {
        let sweep = |seed| sweep_nodes(50, seed).take(150).collect::<Vec<_>>();
        let a = sweep(3);
        assert_eq!(a, sweep(3));
        assert_ne!(a, sweep(4));
        for pass in a.chunks(50) {
            let mut p = pass.to_vec();
            p.sort_unstable();
            assert_eq!(p, (0..50).collect::<Vec<_>>());
        }
        assert_eq!(a[..50], a[50..100], "every pass uses the same order");
    }
}
