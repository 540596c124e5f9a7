//! Property tests for graph-side CSR contracts: adjacency symmetry, self-loop
//! augmentation, the two normalisations used by the GNN encoders, and the
//! structure-only ego extraction.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_graph::generators::planted_partition;
use ses_graph::{
    bfs_distances, row_norm_values, sym_norm_values, with_self_loops, EgoNet, Graph, Subgraph,
};
use ses_tensor::Matrix;

fn random_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, edges, labels) = planted_partition(3, 20, 0.2, 0.05, &mut rng);
    Graph::new(n, &edges, Matrix::zeros(n, 1), labels)
}

/// Random edges (duplicates and self-loops included) among the first
/// `connected` nodes, a self-loop on every fifth of them, and the remaining
/// nodes isolated.
fn graph_with_loops_and_isolates(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..32usize);
    let connected = rng.gen_range(1..=n);
    let mut edges: Vec<(usize, usize)> = (0..rng.gen_range(0..3 * n))
        .map(|_| (rng.gen_range(0..connected), rng.gen_range(0..connected)))
        .collect();
    edges.extend((0..connected).step_by(5).map(|v| (v, v)));
    Graph::new(n, &edges, Matrix::zeros(n, 1), vec![0; n])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every centre and radius (0 to 4, and `n`, past any diameter),
    /// `EgoNet::extract` lists exactly `Subgraph::ego`'s members and its
    /// graph's `edges()`, element for element, and both match a reference
    /// built from BFS distances and the full graph's edge walk.
    #[test]
    fn ego_net_matches_subgraph_ego(seed in 0u64..1000) {
        let g = graph_with_loops_and_isolates(seed);
        let n = g.n_nodes();
        for center in 0..n {
            for k in (0..=4).chain([n]) {
                let ego = EgoNet::extract(&g, center, k);
                let sub = Subgraph::ego(&g, center, k);
                prop_assert_eq!(&ego.global_of, &sub.global_of);
                prop_assert_eq!(&ego.edges, &sub.graph.edges().collect::<Vec<_>>());
                prop_assert_eq!(ego.center_local, sub.center_local);

                let dist = bfs_distances(&g, center, k);
                let members: Vec<usize> = (0..n).filter(|&v| dist[v] <= k).collect();
                let local = |v: usize| members.binary_search(&v).ok();
                let induced: Vec<(usize, usize)> = g
                    .edges()
                    .filter_map(|(u, v)| Some((local(u)?, local(v)?)))
                    .collect();
                prop_assert_eq!(&ego.global_of, &members);
                prop_assert_eq!(&ego.edges, &induced);
                prop_assert_eq!(ego.global_of[ego.center_local], center);
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric_and_loop_free(seed in 0u64..1000) {
        let g = random_graph(seed);
        let a = g.adjacency();
        for (r, c, _) in a.iter_entries() {
            prop_assert!(r != c, "adjacency must be loop-free");
            prop_assert!(a.find(c, r).is_some(), "missing mirror of ({r},{c})");
        }
    }

    #[test]
    fn self_loop_augmentation_is_a_superset_plus_diagonal(seed in 0u64..1000) {
        let g = random_graph(seed);
        let a = g.adjacency();
        let aug = with_self_loops(a);
        prop_assert_eq!(aug.nnz(), a.nnz() + a.n_rows());
        for i in 0..a.n_rows() {
            prop_assert!(aug.find(i, i).is_some(), "missing self-loop at {i}");
        }
        for (r, c, _) in a.iter_entries() {
            prop_assert!(aug.find(r, c).is_some(), "augmentation dropped ({r},{c})");
        }
    }

    #[test]
    fn sym_norm_preserves_symmetry(seed in 0u64..1000) {
        let g = random_graph(seed);
        let aug = with_self_loops(g.adjacency());
        let m = sym_norm_values(&aug);
        let s = m.structure();
        for (r, c, p) in s.iter_entries() {
            let q = s.find(c, r).expect("structure is symmetric");
            let (w, wt) = (m.values()[p], m.values()[q]);
            prop_assert!((w - wt).abs() < 1e-6, "D^-1/2 A D^-1/2 must stay symmetric");
            prop_assert!(w > 0.0 && w.is_finite());
        }
    }

    #[test]
    fn row_norm_rows_sum_to_one(seed in 0u64..1000) {
        let g = random_graph(seed);
        let aug = with_self_loops(g.adjacency());
        let m = row_norm_values(&aug);
        let s = m.structure();
        for r in 0..s.n_rows() {
            let range = s.row_range(r);
            if range.is_empty() {
                continue;
            }
            let sum: f32 = m.values()[range].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5, "row {} sums to {}", r, sum);
        }
    }
}
