//! Negative sampling over the complement of the k-hop adjacency.
//!
//! For the subgraph loss (Eq. 7) and the contrastive phase, SES pairs every
//! node's k-hop neighbours (`P_r`) with an equal number of nodes drawn from
//! outside the k-hop neighbourhood (`P_n`), preferring nodes with different
//! labels when label information is available.

use rand::seq::SliceRandom;
use rand::Rng;
use ses_tensor::CsrStructure;

/// Negative neighbour sets `P_n(v)` for every node: for each node `v`, a set
/// of nodes that are *not* within the k-hop neighbourhood of `v` and (when
/// possible) carry a different label, matching `|P_r(v)|` in size.
#[derive(Debug, Clone)]
pub struct NegativeSets {
    sets: Vec<Vec<usize>>,
}

impl NegativeSets {
    /// Samples negative sets given a k-hop structure.
    ///
    /// `labels_for_filter` — when `Some`, candidates sharing the node's label
    /// are skipped (the paper samples negatives "with different labels").
    /// Falls back to label-agnostic sampling when a node's candidate pool
    /// would otherwise be empty.
    pub fn sample(
        khop: &CsrStructure,
        labels_for_filter: Option<&[usize]>,
        rng: &mut impl Rng,
    ) -> Self {
        let n = khop.n_rows();
        let mut marks = Marks {
            positive: vec![false; n],
            taken: vec![false; n],
        };
        let mut sets = Vec::with_capacity(n);
        for v in 0..n {
            let need = khop.row_nnz(v);
            sets.push(sample_for_node(
                khop,
                v,
                need,
                labels_for_filter,
                &mut marks,
                rng,
            ));
        }
        Self { sets }
    }

    /// The negative set of node `v`.
    pub fn of(&self, v: usize) -> &[usize] {
        &self.sets[v]
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Draws `count` nodes (with replacement if the pool is smaller) from
    /// `P_n(v)`.
    pub fn draw(&self, v: usize, count: usize, rng: &mut impl Rng) -> Vec<usize> {
        let pool = &self.sets[v];
        if pool.is_empty() {
            return Vec::new();
        }
        (0..count)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect()
    }
}

/// Membership markers reused across nodes, all `false` between nodes:
/// `positive` flags the current node and its k-hop row, `taken` the
/// negatives drawn for it so far.
struct Marks {
    positive: Vec<bool>,
    taken: Vec<bool>,
}

/// Samples `need` negatives for one node by rejection from the complement of
/// its k-hop row. For small graphs (pool close to `need`) falls back to a
/// full enumeration + shuffle. Membership tests read `marks`, which this
/// sets for `v` on entry and clears again before returning.
fn sample_for_node(
    khop: &CsrStructure,
    v: usize,
    need: usize,
    labels: Option<&[usize]>,
    marks: &mut Marks,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let n = khop.n_rows();
    let row = khop.row_indices(v);
    for &u in row {
        marks.positive[u] = true;
    }
    marks.positive[v] = true;
    let label_ok = |u: usize| labels.is_none_or(|ls| ls[u] != ls[v]);

    // Rejection sampling is O(need) when the neighbourhood is a small
    // fraction of the graph; bail out to enumeration when it saturates.
    let mut out = Vec::with_capacity(need);
    let mut attempts = 0usize;
    let max_attempts = need.saturating_mul(20).max(64);
    while out.len() < need && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..n);
        if !marks.positive[u] && label_ok(u) && !marks.taken[u] {
            marks.taken[u] = true;
            out.push(u);
        }
    }
    for &u in &out {
        marks.taken[u] = false;
    }
    if out.len() < need {
        // Enumerate the full candidate pool (rare: dense neighbourhoods).
        let is_pos = &marks.positive;
        let mut pool: Vec<usize> = (0..n).filter(|&u| !is_pos[u] && label_ok(u)).collect();
        if pool.len() < need {
            // Relax the label constraint rather than under-sample.
            pool = (0..n).filter(|&u| !is_pos[u]).collect();
        }
        pool.shuffle(rng);
        out = pool.into_iter().take(need).collect();
    }
    for &u in row {
        marks.positive[u] = false;
    }
    marks.positive[v] = false;
    out
}

/// Uniformly samples `count` distinct nodes from `0..n` (Floyd's algorithm).
pub fn sample_distinct(n: usize, count: usize, rng: &mut impl Rng) -> Vec<usize> {
    assert!(count <= n, "sample_distinct: count {count} > n {n}");
    let mut chosen = Vec::with_capacity(count);
    for j in n - count..n {
        let t = rng.gen_range(0..=j);
        if chosen.contains(&t) {
            chosen.push(j);
        } else {
            chosen.push(t);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::khop::khop_structure;
    use rand::SeedableRng;
    use ses_tensor::Matrix;

    fn two_cliques() -> Graph {
        // nodes 0-2 clique label 0, nodes 3-5 clique label 1
        Graph::new(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
            Matrix::zeros(6, 1),
            vec![0, 0, 0, 1, 1, 1],
        )
    }

    #[test]
    fn negatives_disjoint_from_khop() {
        let g = two_cliques();
        let khop = khop_structure(&g, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let negs = NegativeSets::sample(&khop, Some(g.labels()), &mut rng);
        for v in 0..g.n_nodes() {
            for &u in negs.of(v) {
                assert_ne!(u, v);
                assert!(khop.find(v, u).is_none(), "negative {u} is in khop of {v}");
                assert_ne!(g.labels()[u], g.labels()[v], "negative shares label");
            }
        }
    }

    #[test]
    fn negative_sizes_match_positive_sizes() {
        let g = two_cliques();
        let khop = khop_structure(&g, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let negs = NegativeSets::sample(&khop, Some(g.labels()), &mut rng);
        for v in 0..g.n_nodes() {
            assert_eq!(negs.of(v).len(), khop.row_nnz(v));
        }
    }

    #[test]
    fn label_constraint_relaxes_when_pool_too_small() {
        // Single-label graph: strict filtering would yield nothing.
        let g = Graph::new(4, &[(0, 1), (2, 3)], Matrix::zeros(4, 1), vec![0; 4]);
        let khop = khop_structure(&g, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let negs = NegativeSets::sample(&khop, Some(g.labels()), &mut rng);
        // node 0 has one neighbour, so it needs one negative, which must
        // come from the other component despite sharing the label.
        assert_eq!(negs.of(0).len(), 1);
        assert!(negs.of(0)[0] == 2 || negs.of(0)[0] == 3);
    }

    #[test]
    fn draw_with_replacement() {
        let g = two_cliques();
        let khop = khop_structure(&g, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let negs = NegativeSets::sample(&khop, None, &mut rng);
        let drawn = negs.draw(0, 10, &mut rng);
        assert_eq!(drawn.len(), 10);
        assert!(drawn.iter().all(|&u| negs.of(0).contains(&u)));
    }

    /// The sampler as it was before the marker arrays: membership by
    /// binary search in the k-hop row and a linear scan of the drawn set.
    fn sample_for_node_reference(
        khop: &CsrStructure,
        v: usize,
        need: usize,
        labels: Option<&[usize]>,
        rng: &mut impl Rng,
    ) -> Vec<usize> {
        let n = khop.n_rows();
        let is_pos = |u: usize| u == v || khop.find(v, u).is_some();
        let label_ok = |u: usize| labels.is_none_or(|ls| ls[u] != ls[v]);
        let mut out = Vec::with_capacity(need);
        let mut attempts = 0usize;
        let max_attempts = need.saturating_mul(20).max(64);
        while out.len() < need && attempts < max_attempts {
            attempts += 1;
            let u = rng.gen_range(0..n);
            if !is_pos(u) && label_ok(u) && !out.contains(&u) {
                out.push(u);
            }
        }
        if out.len() < need {
            let mut pool: Vec<usize> = (0..n).filter(|&u| !is_pos(u) && label_ok(u)).collect();
            if pool.len() < need {
                pool = (0..n).filter(|&u| !is_pos(u)).collect();
            }
            pool.shuffle(rng);
            out = pool.into_iter().take(need).collect();
        }
        out
    }

    /// A random graph on `n` nodes with edge probability `p` and three
    /// labels.
    fn random_graph(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        let labels = (0..n).map(|_| rng.gen_range(0..3)).collect();
        Graph::new(n, &edges, Matrix::zeros(n, 1), labels)
    }

    #[test]
    fn marker_sampler_matches_reference_sets_and_rng_state() {
        let mut gen = rand::rngs::StdRng::seed_from_u64(8);
        // Sparse: 2-hop rows of a few nodes each, filled by rejection.
        // Dense: 2-hop rows covering most of the graph, so rejection runs
        // out of attempts and the enumeration fallback (with and without
        // relaxing the label filter) fills the sets or, when even the
        // relaxed pool is short, truncates them.
        let cases = [
            ("sparse", random_graph(120, 0.02, &mut gen), false),
            ("dense", random_graph(40, 0.25, &mut gen), true),
        ];
        for (name, g, truncates) in &cases {
            let khop = khop_structure(g, 2);
            let mut truncated = false;
            for labels in [None, Some(g.labels())] {
                for seed in 0..4 {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let got = NegativeSets::sample(&khop, labels, &mut rng);
                    let mut ref_rng = rand::rngs::StdRng::seed_from_u64(seed);
                    for v in 0..g.n_nodes() {
                        let need = khop.row_nnz(v);
                        let want = sample_for_node_reference(&khop, v, need, labels, &mut ref_rng);
                        assert_eq!(got.of(v), want, "{name}: node {v}, seed {seed}");
                        truncated |= want.len() < need;
                    }
                    assert_eq!(
                        rng.gen::<u64>(),
                        ref_rng.gen::<u64>(),
                        "{name}: next draw after seed {seed}"
                    );
                }
            }
            assert_eq!(truncated, *truncates, "{name}: fallback coverage");
        }
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = sample_distinct(50, 20, &mut rng);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "samples must be distinct");
        assert!(sorted.iter().all(|&x| x < 50));
    }
}
