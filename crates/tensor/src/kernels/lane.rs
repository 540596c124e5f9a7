//! Hand-vectorized lane primitives: a safe, stable-Rust `f32x8`-style value
//! type and the slice helpers the kernel inner loops are written against.
//!
//! There is no `unsafe` and no nightly intrinsic here — [`F32x8`] is a plain
//! `[f32; 8]` wrapper whose element-wise ops compile to a fixed-count,
//! dependency-free loop the autovectorizer lowers to one SIMD instruction
//! per op on every target worth having. What the wrapper buys over the old
//! scalar loops is *structure*: accumulators live in registers across whole
//! reduction sweeps (the scalar loops stored and reloaded the output row on
//! every step), multiple independent accumulation chains hide FP add
//! latency, and tails are handled explicitly instead of hoping the tile
//! divides evenly.
//!
//! # Bit-identity rules (see `docs/CORRECTNESS.md`)
//!
//! Everything here preserves the serial scalar kernels' bits exactly:
//!
//! * lanes run across **independent output elements** only — a reduction is
//!   never split across lanes, so each element keeps its serial
//!   accumulation order;
//! * multiply and add stay **separate ops** (no `mul_add`): the scalar
//!   kernels never fused, so neither do we;
//! * tails are processed with the scalar formula, **never zero-padded** —
//!   padding an accumulation with `+0.0` is not a no-op in IEEE-754
//!   (`-0.0 + 0.0 == +0.0` flips the sign of a negative-zero accumulator).

/// Lane width. Eight `f32`s = one AVX2 register; targets without 256-bit
/// vectors split each op into two 128-bit halves, still branch-free.
pub const LANES: usize = 8;

/// Unroll factor for sparse entry streams ([`CsrLanes`] groups entries in
/// fours so the spmm inner loop issues four independent loads per step).
pub const ENTRY_UNROLL: usize = 4;

/// An 8-lane `f32` value. All ops are element-wise over lane index — no op
/// ever combines two lanes of the same value, which is what keeps every
/// per-element accumulation order identical to the scalar kernels.
#[derive(Clone, Copy, Debug)]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        F32x8([0.0; LANES])
    }

    /// Loads lanes from the first [`LANES`] elements of `s`.
    ///
    /// Call with an exact-length sub-slice (`&d[j..j + LANES]`), not an
    /// open-ended one (`&d[j..]`): a fixed-length slice lets the compiler
    /// fold the length check into the caller's loop bound and lower this to
    /// a single vector load, where an unknown-length slice re-checks on
    /// every call and costs ~2× in the hot kernels.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        let mut a = [0.0f32; LANES];
        a.copy_from_slice(&s[..LANES]);
        F32x8(a)
    }

    /// Stores lanes into the first [`LANES`] elements of `d`.
    #[inline(always)]
    pub fn store(self, d: &mut [f32]) {
        d[..LANES].copy_from_slice(&self.0);
    }

    /// Lane-wise `self + o`.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)] // free fn keeps the non-operator kernel call sites explicit
    pub fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (rl, ol) in r.iter_mut().zip(o.0) {
            *rl += ol;
        }
        F32x8(r)
    }

    /// Lane-wise `self + c * o` as a **separate** multiply then add — the
    /// exact op sequence of the scalar kernels (`*acc += c * x`), never a
    /// fused `mul_add`, so the rounding matches bit for bit.
    #[inline(always)]
    pub fn add_scaled(self, c: f32, o: Self) -> Self {
        let mut r = self.0;
        for (rl, ol) in r.iter_mut().zip(o.0) {
            *rl += c * ol;
        }
        F32x8(r)
    }

    /// Lane-wise `self / d` (each lane divided by the same scalar — the
    /// edge-softmax normalize step; division, not multiplication by the
    /// reciprocal, which would round differently).
    #[inline(always)]
    pub fn div_scalar(self, d: f32) -> Self {
        let mut r = self.0;
        for rl in &mut r {
            *rl /= d;
        }
        F32x8(r)
    }
}

/// `dst += src`, laned with a scalar tail. Element-wise: trivially
/// bit-identical to the scalar loop.
#[inline]
pub fn add_slices(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let mut j = 0;
    while j + LANES <= n {
        F32x8::load(&dst[j..j + LANES])
            .add(F32x8::load(&src[j..j + LANES]))
            .store(&mut dst[j..j + LANES]);
        j += LANES;
    }
    for (d, &s) in dst[j..].iter_mut().zip(&src[j..]) {
        *d += s;
    }
}

/// AXPY: `dst += c * src`, laned with a scalar tail; separate multiply and
/// add per element, same as the scalar loop it replaces.
#[inline]
pub fn axpy(dst: &mut [f32], src: &[f32], c: f32) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let mut j = 0;
    while j + LANES <= n {
        F32x8::load(&dst[j..j + LANES])
            .add_scaled(c, F32x8::load(&src[j..j + LANES]))
            .store(&mut dst[j..j + LANES]);
        j += LANES;
    }
    for (d, &s) in dst[j..].iter_mut().zip(&src[j..]) {
        *d += c * s;
    }
}

/// `dst[i] /= denom` for every element, laned with a scalar tail. The
/// edge-softmax normalize loop.
#[inline]
pub fn div_scalar_slice(dst: &mut [f32], denom: f32) {
    let n = dst.len();
    let mut j = 0;
    while j + LANES <= n {
        F32x8::load(&dst[j..j + LANES])
            .div_scalar(denom)
            .store(&mut dst[j..j + LANES]);
        j += LANES;
    }
    for d in &mut dst[j..] {
        *d /= denom;
    }
}

/// Interleaved-values CSR entry stream for the spmm row blocks: each entry's
/// column index and value sit adjacent in one packed 8-byte `(u32, f32)`
/// pair, so the inner loop walks a single stream instead of two parallel
/// arrays — one hardware prefetch stream, and 8 bytes per entry where the
/// parallel `usize` + `f32` arrays cost 12 (and a naive `(usize, f32)`
/// tuple would cost 16 with padding).
///
/// Entries stay in exact CSR order. The spmm kernel consumes them in groups
/// of [`ENTRY_UNROLL`] full entries plus a scalar tail; groups are **never
/// zero-padded** (a padded `+ 0.0 * x` term would flip `-0.0` accumulators
/// to `+0.0` and break bit-parity with the scalar path).
pub struct CsrLanes {
    pairs: Vec<(u32, f32)>,
}

/// Widens a packed column index back to `usize` for row addressing.
#[inline(always)]
pub fn col(c: u32) -> usize {
    // lint:allow(no-narrowing-cast): u32 → usize is widening on every
    // target this runs on; u32 is what makes the packed layout 8 bytes
    c as usize
}

thread_local! {
    /// Recycled pair buffers, so steady-state `build` calls (one per spmm
    /// per epoch) rewrite a warm buffer instead of round-tripping a
    /// several-hundred-KB allocation through the allocator each time.
    static PAIR_POOL: std::cell::RefCell<Vec<Vec<(u32, f32)>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Most pair buffers this thread retains while no kernel is running.
const PAIR_POOL_CAP: usize = 2;

impl CsrLanes {
    /// Interleaves `indices` and `values` (parallel arrays, CSR entry order)
    /// into one packed stream. O(nnz), done once per kernel call and
    /// amortised over the `f / LANES` sweeps the kernel makes per row.
    ///
    /// `col_bound` is the exclusive upper bound on column indices (the
    /// matrix's column count). Checking it once here keeps the per-entry
    /// interleave branch-free, which matters: the range check was ~60% of
    /// build time on a 4k-node graph.
    ///
    /// # Panics
    /// Panics if `col_bound - 1` exceeds `u32::MAX` — a graph with more
    /// than four billion columns does not fit this layout (or in memory).
    pub fn build(indices: &[usize], values: &[f32], col_bound: usize) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        assert!(
            u32::try_from(col_bound.saturating_sub(1)).is_ok(),
            "CsrLanes: column space exceeds u32::MAX"
        );
        let mut pairs = PAIR_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        pairs.clear();
        pairs.extend(indices.iter().zip(values).map(|(&c, &v)| {
            debug_assert!(c < col_bound, "CsrLanes: column {c} out of bounds");
            (c as u32, v)
        }));
        CsrLanes { pairs }
    }

    /// The packed `(column, value)` pairs for an entry range.
    #[inline]
    pub fn range(&self, r: std::ops::Range<usize>) -> &[(u32, f32)] {
        &self.pairs[r]
    }
}

impl Drop for CsrLanes {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.pairs);
        if buf.capacity() == 0 {
            return;
        }
        PAIR_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < PAIR_POOL_CAP {
                pool.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_scaled_matches_scalar_bits() {
        // Denormals, negative zero, and values that round differently under
        // FMA all must come out bit-equal to the separate mul+add.
        let xs = [
            1.0e-38f32, -0.0, 3.3333333, -7.25, 1.0e30, -1.0e-30, 0.1, 2.0,
        ];
        let c = 0.333_333_34_f32;
        let mut lane_dst = [0.5f32; LANES];
        let mut scal_dst = [0.5f32; LANES];
        axpy(&mut lane_dst, &xs, c);
        for (d, &x) in scal_dst.iter_mut().zip(&xs) {
            *d += c * x;
        }
        for l in 0..LANES {
            assert_eq!(lane_dst[l].to_bits(), scal_dst[l].to_bits(), "lane {l}");
        }
    }

    #[test]
    fn negative_zero_survives_unpadded_tails() {
        // A -0.0 accumulator must stay -0.0 through the helpers; zero-padded
        // grouping would have destroyed it (-0.0 + 0.0 == +0.0).
        let mut dst = vec![-0.0f32; 11]; // ragged: one lane + tail of 3
        let src = vec![-0.0f32; 11];
        add_slices(&mut dst, &src);
        for (i, d) in dst.iter().enumerate() {
            assert_eq!(d.to_bits(), (-0.0f32).to_bits(), "element {i}");
        }
    }

    #[test]
    fn helpers_handle_ragged_and_empty() {
        for n in [0usize, 1, 7, 8, 9, 16, 23] {
            let mut d: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let s: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5).collect();
            let mut expect = d.clone();
            for (e, &x) in expect.iter_mut().zip(&s) {
                *e += 2.0 * x;
            }
            axpy(&mut d, &s, 2.0);
            assert_eq!(d, expect, "n={n}");

            let mut q: Vec<f32> = (0..n).map(|i| (i as f32) + 1.0).collect();
            let mut expect = q.clone();
            for e in &mut expect {
                *e /= 3.0;
            }
            div_scalar_slice(&mut q, 3.0);
            for (a, b) in q.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn csr_lanes_preserves_entry_order() {
        let idx = [5usize, 1, 3, 3, 0, 2, 7];
        let val = [0.5f32, -1.0, 2.0, 2.5, -0.25, 0.0, 9.0];
        let lanes = CsrLanes::build(&idx, &val, 8);
        let got = lanes.range(0..idx.len());
        for (p, &(c, v)) in got.iter().enumerate() {
            assert_eq!(c as usize, idx[p]);
            assert_eq!(v.to_bits(), val[p].to_bits());
        }
        assert_eq!(lanes.range(2..4), &[(3u32, 2.0f32), (3, 2.5)]);
    }
}
