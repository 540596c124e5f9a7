//! The sparse-operand predicate and the one-pass support scan behind it.
//!
//! A dense [`Matrix`] counts as **sparse** when at most
//! [`SPARSE_SHARE_PCT`] percent of its entries are kept (see [`kept`]).
//! The matmul family then runs its left operand through the [`spmm`] row
//! body over a packed CSR stream instead of the dense panels, and
//! `ses-core` records the Eq. 3 feature mask on the support only
//! ([`super::feature_gate`]). One predicate, [`is_sparse`], decides both.
//!
//! # Why the bits do not change
//!
//! Every output element of the CSR body still sums its kept terms in
//! ascending `k` from a `+0.0` accumulator, with separate multiply and add.
//! A skipped term `0.0 · b` is `±0.0` whenever `b` is finite, and a sum
//! that starts at `+0.0` is never `-0.0` (in round-to-nearest `x + y` is
//! `-0.0` only when both are), so adding `±0.0` never changes it. The
//! result therefore equals the dense panels and
//! [`super::reference`] bit for bit, provided the **right operand is
//! finite**: `0.0 · ∞` and `0.0 · NaN` are NaN, which the dense panels
//! would propagate and the CSR body skips. The tape sanitizer, when on,
//! rejects a non-finite forward value at `push` and a non-finite gradient
//! in `backward`.
//!
//! [`spmm`]: super::spmm

use super::lane::{self, CsrLanes, LANES};
use crate::matrix::Matrix;

/// Largest kept share, in percent of a matrix's entries, at which a
/// matrix counts as sparse. Measured at the benchmark workloads' shapes
/// (`docs/PERF.md`, "Sparse feature path"): the CSR body, scan included,
/// stays ahead of the dense panels up to about 70% kept entries at
/// 400×400 × 400×64 and 700×64 × 64×7, and up to about 90% at
/// 700×140 × 140×64; 50% keeps at least a 1.4× margin at all three.
pub const SPARSE_SHARE_PCT: usize = 50;

/// Most kept entries a matrix of `len` entries may hold and still count as
/// sparse.
pub fn sparse_budget(len: usize) -> usize {
    len / 100 * SPARSE_SHARE_PCT + len % 100 * SPARSE_SHARE_PCT / 100
}

/// Entries counted between budget checks in [`is_sparse`].
const COUNT_BLOCK: usize = 2048;

/// The predicate: at most [`sparse_budget`] of `m`'s entries are kept. The
/// count is branch-free and stops at the first block that takes it past
/// the budget, so a dense matrix pays for reading about half of itself
/// and no more.
pub fn is_sparse(m: &Matrix) -> bool {
    let budget = sparse_budget(m.len());
    let mut n = 0usize;
    for block in m.as_slice().chunks(COUNT_BLOCK) {
        // u32 lanes: twice as many per vector op as usize ones.
        let k = block.iter().fold(0u32, |k, &v| k + u32::from(kept(v)));
        n += lane::col(k);
        if n > budget {
            return false;
        }
    }
    true
}

/// True for every value but `+0.0`. A `-0.0` entry is kept: in a product
/// its terms are `±0.0` like a skipped term's, and keeping it lets
/// [`super::feature_gate`] reproduce the `-0.0` that `σ(·) · (-0.0)`
/// gives on the dense path.
#[inline(always)]
pub fn kept(v: f32) -> bool {
    v.to_bits() != 0
}

/// The kept entries of a matrix, row-compressed into a packed
/// [`CsrLanes`] stream: row `r`'s `(column, value)` pairs are
/// `lanes.range(indptr[r]..indptr[r + 1])`, in ascending column order.
pub(crate) struct SupportRows {
    pub(crate) indptr: Vec<usize>,
    pub(crate) lanes: CsrLanes,
}

impl SupportRows {
    /// The kept entries of `m` when [`is_sparse`] holds, gathered in one
    /// row-major pass; `None` (after the predicate's partial read)
    /// otherwise.
    ///
    /// # Panics
    /// Panics if `m` has more than `u32::MAX + 1` columns (the packed
    /// stream's column index is a `u32`).
    pub(crate) fn of(m: &Matrix) -> Option<Self> {
        if !is_sparse(m) {
            return None;
        }
        assert!(
            u32::try_from(m.cols().saturating_sub(1)).is_ok(),
            "support scan: column space exceeds u32::MAX"
        );
        let mut lanes = CsrLanes::pooled();
        let mut indptr = Vec::with_capacity(m.rows() + 1);
        indptr.push(0);
        for r in 0..m.rows() {
            scan_row(m.row(r), lanes.pairs_mut());
            indptr.push(lanes.len());
        }
        Some(Self { indptr, lanes })
    }

    /// The kept entries of `mᵀ`, without transposing `m`: one scan of `m`
    /// ([`SupportRows::of`]), then a counting sort of the entries by
    /// column. Within each row of `mᵀ` the entries stay in ascending row
    /// order of `m`, i.e. ascending column order of `mᵀ`.
    ///
    /// # Panics
    /// Panics if `m` has more than `u32::MAX + 1` rows or columns.
    pub(crate) fn of_transpose(m: &Matrix) -> Option<Self> {
        assert!(
            u32::try_from(m.rows().saturating_sub(1)).is_ok(),
            "support scan: row space exceeds u32::MAX"
        );
        let rows = Self::of(m)?;
        let all = rows.lanes.range(0..rows.lanes.len());
        let mut indptr = vec![0usize; m.cols() + 1];
        for &(c, _) in all {
            indptr[lane::col(c) + 1] += 1;
        }
        for c in 0..m.cols() {
            indptr[c + 1] += indptr[c];
        }
        let mut next = indptr.clone();
        let mut lanes = CsrLanes::pooled();
        let pairs = lanes.pairs_mut();
        pairs.resize(all.len(), (0, 0.0));
        for (r, w) in (0u32..).zip(rows.indptr.windows(2)) {
            for &(c, v) in rows.lanes.range(w[0]..w[1]) {
                let slot = &mut next[lane::col(c)];
                pairs[*slot] = (r, v);
                *slot += 1;
            }
        }
        Some(Self { indptr, lanes })
    }

    /// Number of kept entries.
    pub(crate) fn nnz(&self) -> usize {
        self.lanes.len()
    }
}

/// Appends `row`'s kept entries to `pairs` as `(column, value)`, in
/// ascending column order, [`LANES`] entries at a time: a branch-free
/// compare builds the chunk's kept-lane bitmask, and only its set bits are
/// visited. An all-`+0.0` chunk costs the compare alone, and no branch is
/// taken per entry (at 10–50% kept, a per-entry branch mispredicts often
/// enough to triple the scan).
#[inline]
fn scan_row(row: &[f32], pairs: &mut Vec<(u32, f32)>) {
    let mut chunks = row.chunks_exact(LANES);
    let mut base = 0u32;
    for chunk in chunks.by_ref() {
        push_kept(chunk, base, pairs);
        base += LANES as u32;
    }
    push_kept(chunks.remainder(), base, pairs);
}

/// Appends the kept entries of `vals` (at most [`LANES`] of them, columns
/// from `base`).
#[inline(always)]
fn push_kept(vals: &[f32], base: u32, pairs: &mut Vec<(u32, f32)>) {
    let mut mask = (0u32..)
        .zip(vals)
        .fold(0u32, |m, (l, &v)| m | (u32::from(kept(v)) << l));
    while mask != 0 {
        let l = mask.trailing_zeros();
        pairs.push((base + l, vals[lane::col(l)]));
        mask &= mask - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(s: &SupportRows) -> Vec<Vec<(u32, u32)>> {
        (0..s.indptr.len() - 1)
            .map(|r| {
                s.lanes
                    .range(s.indptr[r]..s.indptr[r + 1])
                    .iter()
                    .map(|&(c, v)| (c, v.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn budget_is_half_rounded_down() {
        assert_eq!(sparse_budget(0), 0);
        assert_eq!(sparse_budget(1), 0);
        assert_eq!(sparse_budget(5), 2);
        assert_eq!(sparse_budget(98_000), 49_000);
        assert_eq!(sparse_budget(usize::MAX), usize::MAX / 2);
    }

    #[test]
    fn predicate_counts_past_one_block() {
        // 3 blocks' worth: kept entries only in the last block still count.
        let len = 3 * COUNT_BLOCK;
        let mut d = vec![0.0f32; len];
        for v in d.iter_mut().skip(len - sparse_budget(len)) {
            *v = -0.0;
        }
        let m = Matrix::from_vec(3, COUNT_BLOCK, d.clone());
        assert!(is_sparse(&m), "exactly at the budget");
        d[0] = 1.0;
        assert!(!is_sparse(&Matrix::from_vec(3, COUNT_BLOCK, d)));
    }

    #[test]
    fn scan_keeps_negative_zero_and_drops_positive_zero() {
        // 2 × 19: a full chunk, a second full chunk and a ragged tail of 3.
        let mut data = vec![0.0f32; 38];
        data[1] = 2.0;
        data[9] = -0.0;
        data[18] = -1.5;
        data[19 + 17] = 0.25;
        let m = Matrix::from_vec(2, 19, data);
        let s = SupportRows::of(&m).expect("4 of 38 kept is sparse");
        let want = vec![
            vec![
                (1, 2.0f32.to_bits()),
                (9, (-0.0f32).to_bits()),
                (18, (-1.5f32).to_bits()),
            ],
            vec![(17, 0.25f32.to_bits())],
        ];
        assert_eq!(entries(&s), want);
    }

    #[test]
    fn dense_matrix_is_rejected() {
        let m = Matrix::full(6, 5, 1.0);
        assert!(SupportRows::of(&m).is_none());
        assert!(SupportRows::of_transpose(&m).is_none());
        // exactly at the budget is still sparse
        let mut d = vec![0.0f32; 20];
        for v in d.iter_mut().take(10) {
            *v = 1.0;
        }
        assert!(SupportRows::of(&Matrix::from_vec(4, 5, d.clone())).is_some());
        d[10] = 1.0;
        assert!(SupportRows::of(&Matrix::from_vec(4, 5, d)).is_none());
    }

    #[test]
    fn transpose_support_matches_support_of_transpose() {
        let mut data = vec![0.0f32; 7 * 11];
        for (i, v) in data.iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = i as f32 - 30.0;
            }
        }
        data[3] = -0.0;
        let m = Matrix::from_vec(7, 11, data);
        let direct = SupportRows::of(&m.transpose()).expect("sparse");
        let via = SupportRows::of_transpose(&m).expect("sparse");
        assert_eq!(direct.indptr, via.indptr);
        assert_eq!(entries(&direct), entries(&via));
    }

    #[test]
    fn empty_shapes() {
        for (r, c) in [(0, 0), (0, 4), (3, 0)] {
            let m = Matrix::zeros(r, c);
            let s = SupportRows::of(&m).expect("no entries is sparse");
            assert_eq!((s.indptr.len() - 1, s.nnz()), (r, 0));
            let t = SupportRows::of_transpose(&m).expect("no entries is sparse");
            assert_eq!((t.indptr.len() - 1, t.nnz()), (c, 0));
        }
    }
}
