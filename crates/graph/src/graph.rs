//! The central [`Graph`] type: an undirected attributed graph with labels.

use std::sync::Arc;

use ses_tensor::{CsrStructure, Matrix};

/// An undirected attributed graph `G = (V, A, X)` with node labels `Y`,
/// stored as a symmetric CSR adjacency (both `(u, v)` and `(v, u)` present),
/// a dense feature matrix and a label vector.
#[derive(Debug, Clone)]
pub struct Graph {
    adjacency: Arc<CsrStructure>,
    features: Matrix,
    labels: Vec<usize>,
    n_classes: usize,
}

impl Graph {
    /// Builds a graph from an (unordered) undirected edge list.
    ///
    /// Both orientations of each edge are inserted; self-loops are preserved
    /// as single entries. `n_classes` is inferred as `max(labels) + 1`.
    ///
    /// # Panics
    /// Panics if `features.rows() != labels.len()` or an edge endpoint is out
    /// of range.
    pub fn new(n: usize, edges: &[(usize, usize)], features: Matrix, labels: Vec<usize>) -> Self {
        assert_eq!(
            features.rows(),
            n,
            "Graph::new: features must have one row per node"
        );
        assert_eq!(labels.len(), n, "Graph::new: one label per node required");
        let mut sym = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            assert!(
                u < n && v < n,
                "Graph::new: edge ({u},{v}) out of range for {n} nodes"
            );
            sym.push((u, v));
            if u != v {
                sym.push((v, u));
            }
        }
        let adjacency = Arc::new(CsrStructure::from_edges(n, n, &sym));
        let n_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
        Self {
            adjacency,
            features,
            labels,
            n_classes,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.adjacency.n_rows()
    }

    /// Number of *undirected* edges (stored entry pairs are counted once;
    /// self-loops count once).
    pub fn n_edges(&self) -> usize {
        let nnz = self.adjacency.nnz();
        let self_loops = (0..self.n_nodes())
            .filter(|&i| self.adjacency.find(i, i).is_some())
            .count();
        (nnz - self_loops) / 2 + self_loops
    }

    /// Feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of label classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The symmetric adjacency structure.
    pub fn adjacency(&self) -> &Arc<CsrStructure> {
        &self.adjacency
    }

    /// Node feature matrix (`n × f`).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Replaces the feature matrix (used by dataset transforms).
    pub fn set_features(&mut self, features: Matrix) {
        assert_eq!(
            features.rows(),
            self.n_nodes(),
            "set_features: row mismatch"
        );
        self.features = features;
    }

    /// Node labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Neighbours of `v` (sorted, deduplicated).
    pub fn neighbors(&self, v: usize) -> &[usize] {
        self.adjacency.row_indices(v)
    }

    /// Each undirected edge once, as `(u, v)` with `u < v`, in row-major
    /// order (by `u`, then `v`); self-loops are skipped.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency.row_nnz(v)
    }

    /// Average degree over all nodes.
    pub fn avg_degree(&self) -> f64 {
        if self.n_nodes() == 0 {
            0.0
        } else {
            self.adjacency.nnz() as f64 / self.n_nodes() as f64
        }
    }

    /// True when `u` and `v` are adjacent.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adjacency.find(u, v).is_some()
    }

    /// Edge homophily: fraction of (directed) stored edges whose endpoints
    /// share a label. A quick sanity statistic for generated datasets.
    pub fn edge_homophily(&self) -> f64 {
        if self.adjacency.nnz() == 0 {
            return 0.0;
        }
        let same = self
            .adjacency
            .iter_entries()
            .filter(|&(u, v, _)| self.labels[u] == self.labels[v])
            .count();
        same as f64 / self.adjacency.nnz() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::new(
            3,
            &[(0, 1), (1, 2), (2, 0)],
            Matrix::identity(3),
            vec![0, 0, 1],
        )
    }

    #[test]
    fn symmetry_and_counts() {
        let g = triangle();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.n_classes(), 2);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::new(
            4,
            &[(2, 0), (2, 3), (2, 1)],
            Matrix::zeros(4, 1),
            vec![0; 4],
        );
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn self_loop_counted_once() {
        let g = Graph::new(2, &[(0, 0), (0, 1)], Matrix::zeros(2, 1), vec![0, 1]);
        assert_eq!(g.n_edges(), 2);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn edges_once_row_major_without_self_loops() {
        let g = Graph::new(
            4,
            &[(3, 1), (0, 0), (2, 0), (1, 0), (2, 2)],
            Matrix::zeros(4, 1),
            vec![0; 4],
        );
        assert_eq!(g.edges().collect::<Vec<_>>(), [(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn homophily_triangle() {
        let g = triangle();
        // edges: (0,1) same, (1,2) diff, (2,0) diff -> 2/6 directed same
        assert!((g.edge_homophily() - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_out_of_range_panics() {
        Graph::new(2, &[(0, 5)], Matrix::zeros(2, 1), vec![0, 0]);
    }
}
