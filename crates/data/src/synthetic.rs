//! The four synthetic explanation benchmarks of the paper (following the
//! GNNExplainer construction): BAShapes, BACommunity, Tree-Cycle, Tree-Grid.
//!
//! Each dataset carries **ground-truth explanations**: the motif edges that
//! justify a motif node's label. Explanation AUC (Table 4) scores an
//! explainer's edge weights against this ground truth.

use std::collections::HashSet;

use rand::Rng;
use ses_graph::generators::{
    attach_motifs, balanced_binary_tree, barabasi_albert, cycle_motif, grid_motif, house_motif,
    EdgeListBuilder,
};
use ses_graph::Graph;
use ses_tensor::{init, Matrix};

use crate::dataset::Dataset;

/// Ground-truth explanation structure for a synthetic dataset.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    motif_of_node: Vec<Option<usize>>,
    motif_edges: Vec<Vec<(usize, usize)>>,
    edge_set: HashSet<(usize, usize)>,
}

impl GroundTruth {
    fn new(motif_of_node: Vec<Option<usize>>, motif_edges: Vec<Vec<(usize, usize)>>) -> Self {
        let mut edge_set = HashSet::new();
        for edges in &motif_edges {
            for &(u, v) in edges {
                edge_set.insert((u, v));
                edge_set.insert((v, u));
            }
        }
        Self {
            motif_of_node,
            motif_edges,
            edge_set,
        }
    }

    /// The motif id a node belongs to, if any.
    pub fn motif_of(&self, v: usize) -> Option<usize> {
        self.motif_of_node[v]
    }

    /// All nodes that belong to some motif.
    pub fn motif_nodes(&self) -> Vec<usize> {
        (0..self.motif_of_node.len())
            .filter(|&v| self.motif_of_node[v].is_some())
            .collect()
    }

    /// The edges of motif `m`.
    pub fn edges_of_motif(&self, m: usize) -> &[(usize, usize)] {
        &self.motif_edges[m]
    }

    /// Number of motifs.
    pub fn n_motifs(&self) -> usize {
        self.motif_edges.len()
    }

    /// True when `(u, v)` (either orientation) is a ground-truth motif edge.
    pub fn is_motif_edge(&self, u: usize, v: usize) -> bool {
        self.edge_set.contains(&(u, v))
    }
}

/// A synthetic benchmark: the dataset plus its explanation ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The graph dataset.
    pub dataset: Dataset,
    /// Ground-truth motif structure.
    pub ground_truth: GroundTruth,
}

/// Node-label conventions shared by the generators below (matching
/// GNNExplainer): base/tree nodes get class 0; motif nodes get role classes.
const BASE_CLASS: usize = 0;

/// **BAShapes**: a 300-node Barabási–Albert base graph with 80 five-node
/// "house" motifs attached. Four classes: base (0), top-of-square (1),
/// bottom-of-square (2), roof (3). Features are constant (structure must
/// carry the signal).
pub fn ba_shapes(rng: &mut impl Rng) -> SyntheticDataset {
    build_ba_houses(300, 80, 10, 0, rng)
}

/// **BACommunity**: the union of two BAShapes communities joined by random
/// inter-community edges. Eight classes (4 roles × 2 communities); features
/// are Gaussian with community-dependent mean.
pub fn ba_community(rng: &mut impl Rng) -> SyntheticDataset {
    let a = build_ba_houses(300, 80, 10, 0, rng);
    let b = build_ba_houses(300, 80, 10, 0, rng);
    let na = a.dataset.graph.n_nodes();
    let nb = b.dataset.graph.n_nodes();
    let n = na + nb;

    let mut edges: Vec<(usize, usize)> = a
        .dataset
        .graph
        .adjacency()
        .to_edges()
        .into_iter()
        .filter(|&(u, v)| u < v)
        .collect();
    edges.extend(
        b.dataset
            .graph
            .adjacency()
            .to_edges()
            .into_iter()
            .filter(|&(u, v)| u < v)
            .map(|(u, v)| (u + na, v + na)),
    );
    // sparse random inter-community bridges (~ n/100 edges)
    for _ in 0..(n / 100).max(4) {
        let u = rng.gen_range(0..na);
        let v = na + rng.gen_range(0..nb);
        edges.push((u, v));
    }

    // labels: community A keeps 0..=3, community B shifts to 4..=7
    let mut labels: Vec<usize> = a.dataset.graph.labels().to_vec();
    labels.extend(b.dataset.graph.labels().iter().map(|&c| c + 4));

    // features: N(-1, 0.5) for A, N(+1, 0.5) for B, 10 dims
    let f = 10;
    let mut features = Matrix::zeros(n, f);
    let fa = init::normal(na, f, 0.5, rng);
    let fb = init::normal(nb, f, 0.5, rng);
    for i in 0..na {
        for j in 0..f {
            features[(i, j)] = fa[(i, j)] - 1.0;
        }
    }
    for i in 0..nb {
        for j in 0..f {
            features[(na + i, j)] = fb[(i, j)] + 1.0;
        }
    }

    // ground truth: motifs of both halves, B's shifted
    let mut motif_of_node: Vec<Option<usize>> = a.ground_truth.motif_of_node.clone();
    let shift = a.ground_truth.n_motifs();
    motif_of_node.extend(
        b.ground_truth
            .motif_of_node
            .iter()
            .map(|m| m.map(|id| id + shift)),
    );
    let mut motif_edges = a.ground_truth.motif_edges.clone();
    motif_edges.extend(b.ground_truth.motif_edges.iter().map(|es| {
        es.iter()
            .map(|&(u, v)| (u + na, v + na))
            .collect::<Vec<_>>()
    }));

    let graph = Graph::new(n, &edges, features, labels);
    SyntheticDataset {
        dataset: Dataset::new("ba-community", graph),
        ground_truth: GroundTruth::new(motif_of_node, motif_edges),
    }
}

/// **Tree-Cycle**: a depth-8 balanced binary tree with 80 six-node cycle
/// motifs attached. Two classes: tree (0) vs cycle (1).
pub fn tree_cycle(rng: &mut impl Rng) -> SyntheticDataset {
    build_tree_motifs(8, 80, MotifKind::Cycle, rng)
}

/// **Tree-Grid**: a depth-8 balanced binary tree with 80 3×3 grid motifs
/// attached. Two classes: tree (0) vs grid (1).
pub fn tree_grid(rng: &mut impl Rng) -> SyntheticDataset {
    build_tree_motifs(8, 80, MotifKind::Grid, rng)
}

/// BA base + house motifs, with role labels. `extra_random_edges` adds
/// perturbation edges as in the GNNExplainer construction (we default to a
/// deterministic count of `n/10` when `0` is passed... no: pass explicitly).
fn build_ba_houses(
    base_nodes: usize,
    n_motifs: usize,
    feat_dim: usize,
    extra_random_edges: usize,
    rng: &mut impl Rng,
) -> SyntheticDataset {
    let mut builder = EdgeListBuilder::new();
    builder.add_nodes(base_nodes);
    for &(u, v) in &barabasi_albert(base_nodes, 5, rng) {
        builder.add_edge(u, v);
    }
    let mut labels = vec![BASE_CLASS; base_nodes];
    let mut motif_of_node = vec![None; base_nodes];
    let mut motif_edges = Vec::with_capacity(n_motifs);
    let mut entries = Vec::with_capacity(n_motifs);
    for m in 0..n_motifs {
        let ids = house_motif(&mut builder);
        // roles: ids[0], ids[1] top-of-square (class 1); ids[2], ids[3]
        // bottom (class 2); ids[4] roof (class 3)
        labels.extend_from_slice(&[1, 1, 2, 2, 3]);
        motif_of_node.extend(std::iter::repeat_n(Some(m), 5));
        let edges: Vec<(usize, usize)> = vec![
            (ids[0], ids[1]),
            (ids[1], ids[2]),
            (ids[2], ids[3]),
            (ids[3], ids[0]),
            (ids[0], ids[4]),
            (ids[1], ids[4]),
        ];
        motif_edges.push(edges);
        entries.push(ids[3]); // attach the house by a bottom corner
    }
    attach_motifs(&mut builder, base_nodes, &entries, rng);
    let (mut n, mut edges) = builder.finish();
    for _ in 0..extra_random_edges {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push((u, v));
        }
    }
    n = n.max(base_nodes);
    let features = Matrix::ones(n, feat_dim);
    let graph = Graph::new(n, &edges, features, labels);
    SyntheticDataset {
        dataset: Dataset::new("ba-shapes", graph),
        ground_truth: GroundTruth::new(motif_of_node, motif_edges),
    }
}

enum MotifKind {
    Cycle,
    Grid,
}

fn build_tree_motifs(
    depth: usize,
    n_motifs: usize,
    kind: MotifKind,
    rng: &mut impl Rng,
) -> SyntheticDataset {
    let (tree_n, tree_edges) = balanced_binary_tree(depth);
    let mut builder = EdgeListBuilder::new();
    builder.add_nodes(tree_n);
    for &(u, v) in &tree_edges {
        builder.add_edge(u, v);
    }
    let mut labels = vec![BASE_CLASS; tree_n];
    let mut motif_of_node = vec![None; tree_n];
    let mut motif_edges = Vec::with_capacity(n_motifs);
    let mut entries = Vec::with_capacity(n_motifs);
    for m in 0..n_motifs {
        let (ids, motif_size): (Vec<usize>, usize) = match kind {
            MotifKind::Cycle => (cycle_motif(&mut builder).to_vec(), 6),
            MotifKind::Grid => (grid_motif(&mut builder).to_vec(), 9),
        };
        labels.extend(std::iter::repeat_n(1, motif_size));
        motif_of_node.extend(std::iter::repeat_n(Some(m), motif_size));
        let start = builder.edges().len()
            - match kind {
                MotifKind::Cycle => 6,
                MotifKind::Grid => 12,
            };
        motif_edges.push(builder.edges()[start..].to_vec());
        entries.push(ids[0]);
    }
    attach_motifs(&mut builder, tree_n, &entries, rng);
    let (n, edges) = builder.finish();
    let features = Matrix::ones(n, 10);
    let graph = Graph::new(n, &edges, features, labels);
    let name = match kind {
        MotifKind::Cycle => "tree-cycle",
        MotifKind::Grid => "tree-grid",
    };
    SyntheticDataset {
        dataset: Dataset::new(name, graph),
        ground_truth: GroundTruth::new(motif_of_node, motif_edges),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use ses_graph::n_connected_components;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn ba_shapes_shape() {
        let d = ba_shapes(&mut rng());
        let g = &d.dataset.graph;
        assert_eq!(g.n_nodes(), 300 + 80 * 5);
        assert_eq!(g.n_classes(), 4);
        assert_eq!(d.ground_truth.n_motifs(), 80);
        assert_eq!(n_connected_components(g), 1, "motifs must be attached");
        // label histogram: 80 roofs, 160 top, 160 bottom
        let roofs = g.labels().iter().filter(|&&c| c == 3).count();
        assert_eq!(roofs, 80);
    }

    #[test]
    fn ba_shapes_ground_truth_edges_exist() {
        let d = ba_shapes(&mut rng());
        for m in 0..d.ground_truth.n_motifs() {
            for &(u, v) in d.ground_truth.edges_of_motif(m) {
                assert!(d.dataset.graph.has_edge(u, v));
                assert!(d.ground_truth.is_motif_edge(u, v));
                assert!(d.ground_truth.is_motif_edge(v, u));
            }
        }
    }

    #[test]
    fn ba_community_shape() {
        let d = ba_community(&mut rng());
        let g = &d.dataset.graph;
        assert_eq!(g.n_nodes(), 2 * (300 + 400));
        assert_eq!(g.n_classes(), 8);
        assert_eq!(d.ground_truth.n_motifs(), 160);
        // community feature separation
        let f = g.features();
        let mean_a: f32 =
            (0..700).map(|i| f.row(i).iter().sum::<f32>()).sum::<f32>() / (700.0 * 10.0);
        let mean_b: f32 = (700..1400)
            .map(|i| f.row(i).iter().sum::<f32>())
            .sum::<f32>()
            / (700.0 * 10.0);
        assert!(mean_a < -0.5 && mean_b > 0.5, "means {mean_a} {mean_b}");
    }

    #[test]
    fn tree_cycle_shape() {
        let d = tree_cycle(&mut rng());
        let g = &d.dataset.graph;
        assert_eq!(g.n_nodes(), 255 + 80 * 6);
        assert_eq!(g.n_classes(), 2);
        assert_eq!(n_connected_components(g), 1);
        let cyc = g.labels().iter().filter(|&&c| c == 1).count();
        assert_eq!(cyc, 480);
    }

    #[test]
    fn tree_grid_shape() {
        let d = tree_grid(&mut rng());
        let g = &d.dataset.graph;
        assert_eq!(g.n_nodes(), 255 + 80 * 9);
        assert_eq!(g.n_classes(), 2);
        // every grid motif has 12 internal edges
        for m in 0..d.ground_truth.n_motifs() {
            assert_eq!(d.ground_truth.edges_of_motif(m).len(), 12);
        }
    }

    #[test]
    fn motif_nodes_have_motif_labels() {
        let d = tree_grid(&mut rng());
        for v in d.ground_truth.motif_nodes() {
            assert_eq!(d.dataset.graph.labels()[v], 1);
        }
    }
}
