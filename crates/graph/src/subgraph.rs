//! k-hop ego-network extraction with index mapping — the working unit of
//! per-instance explainers (GNNExplainer, PGMExplainer operate on a node's
//! k-hop ego network, not the full graph).
//!
//! [`EgoNet`] is the structure alone (members and induced edges); the SES
//! explain pipeline needs nothing more. [`Subgraph`] adds the members'
//! features and labels as a standalone [`Graph`] for the explainers that
//! run a model over the ego network.

use ses_tensor::Matrix;

use crate::graph::Graph;

/// The structure of a k-hop ego network: its members and induced edges,
/// with no features and no CSR.
#[derive(Debug, Clone)]
pub struct EgoNet {
    /// `global_of[local] = global` node id, sorted ascending.
    pub global_of: Vec<usize>,
    /// Induced edges as local `(lu, lv)` with `lu < lv`, in row-major order
    /// (by `lu`, then `lv`); self-loops are skipped. This is the order
    /// [`Graph::edges`] walks.
    pub edges: Vec<(usize, usize)>,
    /// Local id of the centre node.
    pub center_local: usize,
}

impl EgoNet {
    /// Extracts the k-hop ego network around `center`: every node within
    /// `k` hops, and every edge between two of them.
    pub fn extract(graph: &Graph, center: usize, k: usize) -> Self {
        // Non-members stay `usize::MAX`. During the search an entry only
        // marks a visit; once the members are sorted it holds the local id.
        let mut local_of = vec![usize::MAX; graph.n_nodes()];
        local_of[center] = 0;
        let mut global_of = vec![center];
        let mut frontier = 0..1;
        for _ in 0..k {
            for i in frontier.clone() {
                let u = global_of[i];
                for &v in graph.neighbors(u) {
                    if local_of[v] == usize::MAX {
                        local_of[v] = 0;
                        global_of.push(v);
                    }
                }
            }
            frontier = frontier.end..global_of.len();
            if frontier.is_empty() {
                break;
            }
        }
        global_of.sort_unstable();
        for (l, &g) in global_of.iter().enumerate() {
            local_of[g] = l;
        }
        // Every induced edge counts in both endpoints' degrees.
        let degree_sum: usize = global_of.iter().map(|&g| graph.degree(g)).sum();
        let mut edges = Vec::with_capacity(degree_sum / 2);
        for (l, &g) in global_of.iter().enumerate() {
            // Local ids rise with global ids, so the neighbours above `g`
            // are exactly the candidates for `l < lv`.
            let nbrs = graph.neighbors(g);
            for &nb in &nbrs[nbrs.partition_point(|&x| x <= g)..] {
                let lv = local_of[nb];
                if lv != usize::MAX {
                    edges.push((l, lv));
                }
            }
        }
        Self {
            center_local: local_of[center],
            global_of,
            edges,
        }
    }
}

/// A k-hop ego network as a standalone graph, plus the mapping between
/// local and global node ids.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The induced subgraph (local ids `0..len`) with its members' features
    /// and labels.
    pub graph: Graph,
    /// `global_of[local] = global` node id.
    pub global_of: Vec<usize>,
    /// Local id of the centre node the subgraph was extracted around.
    pub center_local: usize,
}

impl Subgraph {
    /// Extracts the k-hop ego network around `center`: [`EgoNet::extract`]
    /// plus a copy of each member's feature row and label.
    pub fn ego(graph: &Graph, center: usize, k: usize) -> Self {
        let EgoNet {
            global_of,
            edges,
            center_local,
        } = EgoNet::extract(graph, center, k);
        let mut feats = Matrix::zeros(global_of.len(), graph.n_features());
        for (l, &g) in global_of.iter().enumerate() {
            feats.row_mut(l).copy_from_slice(graph.features().row(g));
        }
        let labels: Vec<usize> = global_of.iter().map(|&g| graph.labels()[g]).collect();
        Self {
            graph: Graph::new(global_of.len(), &edges, feats, labels),
            global_of,
            center_local,
        }
    }

    /// Number of nodes in the subgraph.
    pub fn len(&self) -> usize {
        self.global_of.len()
    }

    /// True when the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.global_of.is_empty()
    }

    /// Translates a local edge to global ids.
    pub fn to_global_edge(&self, u_local: usize, v_local: usize) -> (usize, usize) {
        (self.global_of[u_local], self.global_of[v_local])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> Graph {
        Graph::new(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
            Matrix::from_vec(5, 2, (0..10).map(|x| x as f32).collect()),
            vec![0, 1, 0, 1, 0],
        )
    }

    #[test]
    fn ego_radius_one() {
        let g = path5();
        let s = Subgraph::ego(&g, 2, 1);
        assert_eq!(s.global_of, vec![1, 2, 3]);
        assert_eq!(s.center_local, 1);
        assert_eq!(s.graph.n_edges(), 2);
        // features carried over
        assert_eq!(s.graph.features().row(0), g.features().row(1));
        assert_eq!(s.graph.labels(), &[1, 0, 1]);
        assert_eq!(EgoNet::extract(&g, 2, 1).edges, [(0, 1), (1, 2)]);
    }

    #[test]
    fn ego_covers_all_at_large_k() {
        let g = path5();
        let s = Subgraph::ego(&g, 0, 10);
        assert_eq!(s.len(), 5);
        assert_eq!(s.graph.n_edges(), 4);
    }

    #[test]
    fn edge_mapping_roundtrip() {
        let g = path5();
        let s = Subgraph::ego(&g, 2, 1);
        let (u, v) = s.to_global_edge(0, 1);
        assert!(g.has_edge(u, v));
    }
}
