//! Dense row-major `f32` matrices.
//!
//! This is the only dense storage type in the workspace. All autodiff values,
//! parameters and gradients are [`Matrix`] instances. Vectors are represented
//! as `n × 1` or `1 × n` matrices, scalars as `1 × 1`.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Telemetry hook for allocation churn: counts fresh dense buffers by the
/// zeroed/filled constructors (`from_vec` reuses caller storage and is not
/// counted).
fn record_alloc(elems: usize) {
    ses_obs::metrics::ALLOC_MATRICES.incr();
    ses_obs::metrics::ALLOC_BYTES.add((elems as u64) * (std::mem::size_of::<f32>() as u64));
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        record_alloc(rows * cols);
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of zeros whose storage is leased from the calling
    /// thread's scratch pool ([`crate::scratch`]): a pool hit reuses a
    /// recycled buffer instead of allocating. Observationally identical to
    /// [`Matrix::zeros`]; pair with [`Matrix::recycle`] to return the
    /// storage when the value dies.
    pub fn zeros_pooled(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: crate::scratch::take(rows * cols),
        }
    }

    /// Consumes the matrix and returns its storage to the calling thread's
    /// scratch pool for reuse by a later [`Matrix::zeros_pooled`].
    pub fn recycle(self) {
        crate::scratch::give(self.data);
    }

    /// Copies the matrix into storage leased from the calling thread's
    /// scratch pool. The pooled counterpart of `.clone()` for hot paths
    /// (tape gradients, forward copies) whose result is recycled by
    /// [`crate::tape::Tape::reset`] or [`Matrix::recycle`].
    pub fn clone_pooled(&self) -> Self {
        let mut data = crate::scratch::take(self.data.len());
        data.copy_from_slice(&self.data);
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Like [`Matrix::full`] with storage leased from the scratch pool.
    pub fn full_pooled(rows: usize, cols: usize, value: f32) -> Self {
        let mut data = crate::scratch::take(rows * cols);
        data.fill(value);
        Self { rows, cols, data }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        record_alloc(rows * cols);
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a `1 × 1` matrix holding a single scalar.
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// Creates a column vector (`n × 1`) from a slice.
    pub fn col_vec(v: &[f32]) -> Self {
        Self::from_vec(v.len(), 1, v.to_vec())
    }

    /// Creates a row vector (`1 × n`) from a slice.
    pub fn row_vec(v: &[f32]) -> Self {
        Self::from_vec(1, v.len(), v.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Value of the single element of a `1 × 1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1 × 1`.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar_value on non-scalar matrix");
        self.data[0]
    }

    /// Matrix product `self × rhs`.
    ///
    /// Delegates to the row-parallel, feature-tiled `i-k-j` kernel in
    /// [`crate::kernels`] at the configured thread count
    /// ([`crate::par::configured_threads`]); output bits are identical at
    /// any thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        crate::kernels::matmul(self, rhs, crate::par::configured_threads())
    }

    /// `selfᵀ × rhs` without materialising the transpose (parallel, see
    /// [`Matrix::matmul`]).
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        crate::kernels::t_matmul(self, rhs, crate::par::configured_threads())
    }

    /// `self × rhsᵀ` without materialising the transpose (parallel, see
    /// [`Matrix::matmul`]).
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        crate::kernels::matmul_t(self, rhs, crate::par::configured_threads())
    }

    /// Transposed copy (storage leased from the scratch pool). Copies
    /// blocks of eight source rows at a time, so each output row is written
    /// in contiguous runs while the eight source rows stream in order.
    pub fn transpose(&self) -> Matrix {
        const BLOCK: usize = 8;
        let (rows, cols) = self.shape();
        let mut out = Matrix::zeros_pooled(cols, rows);
        let mut i0 = 0;
        while i0 < rows {
            let i1 = (i0 + BLOCK).min(rows);
            for j in 0..cols {
                let dst = &mut out.data[j * rows + i0..j * rows + i1];
                for (d, i) in dst.iter_mut().zip(i0..i1) {
                    *d = self.data[i * cols + j];
                }
            }
            i0 = i1;
        }
        out
    }

    /// Element-wise map into a new matrix (storage leased from the scratch
    /// pool — tape elementwise ops dominate per-epoch allocation churn).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut data = crate::scratch::take(self.data.len());
        for (o, &x) in data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary zip into a new matrix.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip: shape mismatch");
        let mut data = crate::scratch::take(self.data.len());
        for (o, (&a, &b)) in data.iter_mut().zip(self.data.iter().zip(rhs.data.iter())) {
            *o = f(a, b);
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// Scales every element by `c`.
    pub fn scale(&self, c: f32) -> Matrix {
        self.map(|x| x * c)
    }

    /// `self += rhs` in place (laned; bit-identical to the scalar loop).
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        crate::kernels::lane::add_slices(&mut self.data, &rhs.data);
    }

    /// `self += c * rhs` in place (AXPY, laned; bit-identical to the scalar
    /// loop — separate multiply and add per element).
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, c: f32) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "add_scaled_assign: shape mismatch"
        );
        crate::kernels::lane::axpy(&mut self.data, &rhs.data, c);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            // lint:allow(no-narrowing-cast): element counts stay far below 2^24
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Per-row sums as an `n × 1` column vector.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros_pooled(self.rows, 1);
        for i in 0..self.rows {
            out[(i, 0)] = self.row(i).iter().sum();
        }
        out
    }

    /// Index of the maximum element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|i| {
                let row = self.row(i);
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Copies the rows at `idx` (with repetition allowed) into a new matrix.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros_pooled(idx.len(), self.cols);
        for (r, &i) in idx.iter().enumerate() {
            assert!(
                i < self.rows,
                "gather_rows: index {i} out of bounds (rows={})",
                self.rows
            );
            out.row_mut(r).copy_from_slice(self.row(i));
        }
        out
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "concat_cols: row mismatch");
        let mut out = Matrix::zeros_pooled(self.rows, self.cols + rhs.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(rhs.row(i));
        }
        out
    }

    /// Vertical concatenation (stacking `rhs` below `self`).
    pub fn concat_rows(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "concat_rows: column mismatch");
        let mut data = Vec::with_capacity((self.rows + rhs.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Matrix::from_vec(self.rows + rhs.rows, self.cols, data)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute element-wise difference with `rhs`.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                write!(f, "{:8.4}", self[(i, j)])?;
                if j + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn matmul_hand_case() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -2.0);
        assert!((a.frobenius_norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn row_sums_and_argmax() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 5.0, 2.0, 7.0, 0.0, 7.5]);
        assert_eq!(a.row_sums().as_slice(), &[8.0, 14.5]);
        assert_eq!(a.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn gather_and_concat() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 1, vec![9.0, 8.0, 7.0]);
        let cc = a.concat_cols(&b);
        assert_eq!(cc.shape(), (3, 3));
        assert_eq!(cc.row(1), &[3.0, 4.0, 8.0]);
        let cr = a.concat_rows(&a);
        assert_eq!(cr.shape(), (6, 2));
        assert_eq!(cr.row(4), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "matmul: shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_scaled_assign_axpy() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
    }
}
