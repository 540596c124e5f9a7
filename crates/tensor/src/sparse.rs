//! Compressed sparse row (CSR) matrices.
//!
//! Sparse adjacency structure is shared across the autodiff tape via
//! [`std::sync::Arc`], while edge *values* live either inside the CSR (for
//! fixed adjacencies) or in a dense `nnz × 1` autodiff variable (for learned
//! edge weights such as the SES structure mask).

use std::sync::Arc;

use crate::matrix::Matrix;

/// Immutable CSR sparsity *structure*: row pointers and column indices, but no
/// values. Shared between forward and backward passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrStructure {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
}

impl CsrStructure {
    /// Builds a structure from a COO edge list `(row, col)`. Duplicate entries
    /// are collapsed; entries are sorted within each row.
    pub fn from_edges(n_rows: usize, n_cols: usize, edges: &[(usize, usize)]) -> Self {
        let mut per_row: Vec<Vec<usize>> = vec![Vec::new(); n_rows];
        for &(r, c) in edges {
            assert!(
                r < n_rows && c < n_cols,
                "edge ({r},{c}) out of bounds {n_rows}x{n_cols}"
            );
            per_row[r].push(c);
        }
        let mut indptr = Vec::with_capacity(n_rows + 1);
        let mut indices = Vec::with_capacity(edges.len());
        indptr.push(0);
        for row in &mut per_row {
            row.sort_unstable();
            row.dedup();
            indices.extend_from_slice(row);
            indptr.push(indices.len());
        }
        Self {
            n_rows,
            n_cols,
            indptr,
            indices,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row-pointer array (`n_rows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, concatenated per row.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Column indices of row `r`.
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[usize] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Range of flat entry positions belonging to row `r`.
    #[inline]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.indptr[r]..self.indptr[r + 1]
    }

    /// Degree (stored entries) of row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Returns the flat entry position of `(r, c)` if present.
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let range = self.row_range(r);
        self.indices[range.clone()]
            .binary_search(&c)
            .ok()
            .map(|off| range.start + off)
    }

    /// Iterates `(row, col, flat_position)` over all stored entries.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.n_rows).flat_map(move |r| self.row_range(r).map(move |p| (r, self.indices[p], p)))
    }

    /// COO edge list `(row, col)` of all stored entries.
    pub fn to_edges(&self) -> Vec<(usize, usize)> {
        self.iter_entries().map(|(r, c, _)| (r, c)).collect()
    }

    /// Per-entry `(rows, cols)` arrays in flat entry order — the gather
    /// indices used by edge-wise computations (GAT attention, the SES
    /// structure mask).
    pub fn entry_endpoints(&self) -> (Vec<usize>, Vec<usize>) {
        let mut rows = Vec::with_capacity(self.nnz());
        let mut cols = Vec::with_capacity(self.nnz());
        for (r, c, _) in self.iter_entries() {
            rows.push(r);
            cols.push(c);
        }
        (rows, cols)
    }
}

/// A CSR matrix: shared [`CsrStructure`] plus per-entry values.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    structure: Arc<CsrStructure>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Creates a CSR matrix from a structure and per-entry values.
    ///
    /// # Panics
    /// Panics if `values.len() != structure.nnz()`.
    pub fn new(structure: Arc<CsrStructure>, values: Vec<f32>) -> Self {
        assert_eq!(
            values.len(),
            structure.nnz(),
            "CsrMatrix: value length != nnz"
        );
        Self { structure, values }
    }

    /// The kept entries of `m` (every value but `+0.0`) as a CSR matrix
    /// when `m` is sparse by the predicate the matmul family switches on
    /// ([`crate::kernels::support::sparse_budget`]), `None` otherwise. One
    /// row-major scan, which stops early on a dense matrix.
    pub fn support_of(m: &Matrix) -> Option<Self> {
        let rows = crate::kernels::support::SupportRows::of(m)?;
        let pairs = rows.lanes.range(0..rows.nnz());
        let indices = pairs
            .iter()
            .map(|&(c, _)| crate::kernels::lane::col(c))
            .collect();
        let values = pairs.iter().map(|&(_, v)| v).collect();
        let structure = CsrStructure {
            n_rows: m.rows(),
            n_cols: m.cols(),
            indptr: rows.indptr,
            indices,
        };
        Some(Self::new(Arc::new(structure), values))
    }

    /// Creates a CSR matrix with all stored values equal to 1.
    pub fn binary(structure: Arc<CsrStructure>) -> Self {
        let nnz = structure.nnz();
        Self::new(structure, vec![1.0; nnz])
    }

    /// Builds from COO triplets, summing duplicates.
    pub fn from_triplets(n_rows: usize, n_cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let edges: Vec<(usize, usize)> = triplets.iter().map(|&(r, c, _)| (r, c)).collect();
        let structure = Arc::new(CsrStructure::from_edges(n_rows, n_cols, &edges));
        let mut values = vec![0.0; structure.nnz()];
        for &(r, c, v) in triplets {
            let p = structure
                .find(r, c)
                // lint:allow(no-unwrap): the structure was built from these very triplets
                .expect("triplet entry must exist in structure");
            values[p] += v;
        }
        Self { structure, values }
    }

    /// The shared sparsity structure.
    #[inline]
    pub fn structure(&self) -> &Arc<CsrStructure> {
        &self.structure
    }

    /// Stored values.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.structure.n_rows()
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.structure.n_cols()
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.structure.nnz()
    }

    /// Value at `(r, c)`, zero when the entry is not stored.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.structure.find(r, c).map_or(0.0, |p| self.values[p])
    }

    /// Sparse × dense product into a new dense matrix.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        spmm(&self.structure, &self.values, dense)
    }

    /// Densifies into a full matrix (test/diagnostic helper).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n_rows(), self.n_cols());
        for (r, c, p) in self.structure.iter_entries() {
            out[(r, c)] = self.values[p];
        }
        out
    }
}

/// Sparse × dense product: `out[i, :] = Σ_p values[p] * dense[col(p), :]`.
///
/// Delegates to the row-blocked parallel kernel in [`crate::kernels`] at the
/// configured thread count; bit-identical at any thread count.
///
/// # Panics
/// Panics if `structure.n_cols() != dense.rows()` or
/// `values.len() != structure.nnz()`.
pub fn spmm(structure: &CsrStructure, values: &[f32], dense: &Matrix) -> Matrix {
    crate::kernels::spmm(structure, values, dense, crate::par::configured_threads())
}

/// Transposed sparse × dense product: `out[c, :] += values[p] * dense[row(p), :]`.
///
/// Used by the backward pass of [`spmm`] with respect to its dense operand.
/// Delegates to the block-partial parallel kernel in [`crate::kernels`].
///
/// # Panics
/// Panics if `structure.n_rows() != dense.rows()` or
/// `values.len() != structure.nnz()`.
pub fn spmm_transpose(structure: &CsrStructure, values: &[f32], dense: &Matrix) -> Matrix {
    crate::kernels::spmm_transpose(structure, values, dense, crate::par::configured_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_structure() -> Arc<CsrStructure> {
        // 3x3: entries (0,1), (0,2), (1,0), (2,2)
        Arc::new(CsrStructure::from_edges(
            3,
            3,
            &[(0, 1), (0, 2), (1, 0), (2, 2)],
        ))
    }

    #[test]
    fn structure_from_edges_sorted_deduped() {
        let s = CsrStructure::from_edges(2, 3, &[(0, 2), (0, 1), (0, 2), (1, 0)]);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.row_indices(0), &[1, 2]);
        assert_eq!(s.row_indices(1), &[0]);
    }

    #[test]
    fn find_present_and_absent() {
        let s = sample_structure();
        assert_eq!(s.find(0, 1), Some(0));
        assert_eq!(s.find(0, 2), Some(1));
        assert_eq!(s.find(1, 0), Some(2));
        assert_eq!(s.find(2, 2), Some(3));
        assert_eq!(s.find(0, 0), None);
        assert_eq!(s.find(2, 0), None);
    }

    #[test]
    fn coo_roundtrip() {
        let edges = vec![(0, 1), (0, 2), (1, 0), (2, 2)];
        let s = CsrStructure::from_edges(3, 3, &edges);
        assert_eq!(s.to_edges(), edges);
    }

    #[test]
    fn spmm_matches_dense_product() {
        let s = sample_structure();
        let csr = CsrMatrix::new(s, vec![2.0, 3.0, 4.0, 5.0]);
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let fast = csr.spmm(&x);
        let slow = csr.to_dense().matmul(&x);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn spmm_transpose_matches_dense_product() {
        let s = sample_structure();
        let vals = vec![2.0, 3.0, 4.0, 5.0];
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let fast = spmm_transpose(&s, &vals, &x);
        let dense = CsrMatrix::new(s, vals).to_dense();
        let slow = dense.transpose().matmul(&x);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 4.0)]);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn binary_values_all_one() {
        let m = CsrMatrix::binary(sample_structure());
        assert!(m.values().iter().all(|&v| v == 1.0));
    }
}
