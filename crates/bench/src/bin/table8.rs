//! Table 8: wall-clock time of Algorithm 1 (positive–negative pair
//! construction) on synthetic sparse graphs with |E| = 2|V|, swept over the
//! node counts the paper reports (0.1k – 70k).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_bench::*;
use ses_core::construct_pairs;
use ses_graph::{khop_structure, Graph, NegativeSets};
use ses_obs::Stopwatch;
use ses_tensor::Matrix;

/// Sparse random graph with |E| = 2|V| (the paper's Table 8 workload).
fn sparse_graph(n: usize, rng: &mut StdRng) -> Graph {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (v, rng.gen_range(0..v))).collect();
    while edges.len() < 2 * n {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push((u, v));
        }
    }
    Graph::new(n, &edges, Matrix::zeros(n, 1), vec![0; n])
}

fn main() {
    let sizes = [100usize, 1_000, 10_000, 50_000, 70_000];
    let mut sheet = TimingSheet::new(
        "Table 8: Algorithm 1 (pair construction) runtime",
        "table8.csv",
        "nodes,seconds,triples",
        &["nodes", "time", "triples"],
    );
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(8);
        let g = sparse_graph(n, &mut rng);
        // 1-hop structure: Table 8 times Algorithm 1 itself, not the k-hop
        // expansion (which the paper accounts to the mask generator).
        let khop = khop_structure(&g, 1);
        let negs = NegativeSets::sample(&khop, None, &mut rng);
        let weights: Vec<f32> = (0..khop.nnz())
            .map(|i| (i as f32 * 0.7).sin().abs())
            .collect();
        let sw = Stopwatch::start();
        let pairs = construct_pairs(&khop, &weights, &negs, 0.8, &mut rng);
        let secs = sw.elapsed().as_secs_f64();
        eprintln!("n={n}: {secs:.4}s ({} triples)", pairs.len());
        sheet.push_row(
            vec![
                format!("{n}"),
                format!("{secs:.4}s"),
                format!("{}", pairs.len()),
            ],
            format!("{n},{secs:.6},{}", pairs.len()),
        );
    }
    sheet.finish().expect("write experiment csv");
}
