//! Log-linear (HDR-style) latency histogram with bounded relative error.
//!
//! A power-of-two histogram cannot state a defensible p99: one bucket
//! spans a full octave, so a quantile read off it can be wrong by 2×. This
//! histogram subdivides each octave into [`SUB_BUCKETS`] linear
//! sub-buckets, which caps the half-width of any bucket at 1/64 of its
//! lower bound — the documented [`RELATIVE_ERROR_BOUND`] for every
//! quantile estimate. Values below [`LINEAR_MAX`] get one bucket each and
//! are reported exactly.
//!
//! The record path is the same shape as the rest of the registry: an
//! [`crate::enabled`] check, then three relaxed atomic RMWs — safe to call
//! from `par` worker threads. Analysis happens on an immutable
//! [`HistSnapshot`], which also supports `merge` so per-thread or per-run
//! histograms combine associatively (property-tested in
//! `tests/hist_props.rs`).

use std::sync::atomic::Ordering;

use crate::sync::AtomicU64;

/// Each octave `[2^e, 2^(e+1))` is split into `2^SUB_BITS` linear buckets.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (32).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Values below this are bucketed exactly (one bucket per value).
pub const LINEAR_MAX: u64 = 1 << (SUB_BITS + 1);
/// Total bucket count: 64 exact buckets + 32 per octave for exponents
/// 6..=63.
pub const NUM_BUCKETS: usize = LINEAR_MAX as usize + (63 - SUB_BITS as usize) * SUB_BUCKETS;

/// Worst-case relative error of any quantile estimate for values ≥
/// [`LINEAR_MAX`] (values below are exact). A bucket at exponent `e` has
/// width `2^(e-5)` and lower bound ≥ `2^e`; the midpoint representative is
/// at most half a bucket from the true sample, so the error is ≤ 1/64 of
/// the value.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / 64.0;

/// Bucket index for a value. Exact below [`LINEAR_MAX`]; log-linear above.
#[inline]
pub fn log_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return usize::try_from(v).unwrap_or(0);
    }
    let e = 63 - v.leading_zeros(); // 6..=63
    let sub = (v >> (e - SUB_BITS)) & (SUB_BUCKETS as u64 - 1);
    LINEAR_MAX as usize
        + (e as usize - (SUB_BITS as usize + 1)) * SUB_BUCKETS
        + usize::try_from(sub).unwrap_or(0)
}

/// Inclusive `(lo, hi)` value range of bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < LINEAR_MAX as usize {
        return (idx as u64, idx as u64);
    }
    let off = idx - LINEAR_MAX as usize;
    let e = (off / SUB_BUCKETS) as u32 + SUB_BITS + 1; // 6..=63
    let sub = (off % SUB_BUCKETS) as u64;
    let width = 1u64 << (e - SUB_BITS);
    let lo = (1u64 << e) + sub * width;
    (lo, lo + (width - 1))
}

/// Midpoint representative of bucket `idx` — the value a quantile estimate
/// reports for a sample landing in that bucket.
pub fn representative(idx: usize) -> u64 {
    let (lo, hi) = bucket_bounds(idx);
    lo + (hi - lo) / 2
}

/// Concurrent log-linear histogram; `const`-constructible for `static`
/// registry slots (the bucket array is ~15 KiB per instrument).
pub struct LogHistogram {
    name: &'static str,
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LogHistogram {
    pub const fn new(name: &'static str) -> Self {
        LogHistogram {
            name,
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[log_index(v)].fetch_add(1, Ordering::Relaxed); // ordering: per-bucket tally; no payload
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: relaxed tally; snapshots tolerate torn count/sum
        self.sum.fetch_add(v, Ordering::Relaxed); // ordering: relaxed tally; snapshots tolerate torn count/sum
        self.max.fetch_max(v, Ordering::Relaxed); // ordering: high-watermark tally
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // ordering: telemetry read; staleness is fine
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed) // ordering: telemetry read; staleness is fine
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed) // ordering: telemetry read; staleness is fine
    }

    /// Quantile estimate over everything recorded so far (see
    /// [`HistSnapshot::quantile`] for semantics and error bound).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Immutable copy of the current state for analysis/merging. Relaxed
    /// loads: concurrent recording may be torn across `count`/`sum`, which
    /// is acceptable for telemetry.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = vec![0u64; NUM_BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed); // ordering: snapshot is documented as possibly torn
        }
        HistSnapshot {
            counts,
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }

    /// Zeroes the histogram (test/bench helper).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed); // ordering: test/bench zeroing; nobody synchronises on it
        }
        self.count.store(0, Ordering::Relaxed); // ordering: test/bench zeroing
        self.sum.store(0, Ordering::Relaxed); // ordering: test/bench zeroing
        self.max.store(0, Ordering::Relaxed); // ordering: test/bench zeroing
    }
}

/// Owned, single-threaded histogram state: the analysis half of
/// [`LogHistogram`], also usable standalone (CLI aggregations, tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl HistSnapshot {
    pub fn new() -> Self {
        HistSnapshot {
            counts: vec![0u64; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[log_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Pointwise sum with another snapshot. Associative and commutative:
    /// merging per-thread histograms in any grouping yields the same
    /// result (property-tested).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket count (for exporters walking the distribution).
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`): the representative of the
    /// bucket holding the sample of rank `ceil(q·n)` (1-based, matching
    /// `sorted[ceil(q·n) - 1]`). Exact for values below [`LINEAR_MAX`];
    /// otherwise within [`RELATIVE_ERROR_BOUND`] of the true sample. Returns
    /// 0 on an empty histogram; the estimate is clamped to the observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return representative(idx).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_bounds_invert() {
        // Every bucket's bounds map back to its own index, buckets tile the
        // u64 range without gaps, and widths are as documented.
        let mut expected_lo = 0u64;
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "gap before bucket {idx}");
            assert_eq!(log_index(lo), idx);
            assert_eq!(log_index(hi), idx);
            assert!(representative(idx) >= lo && representative(idx) <= hi);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "buckets must cover u64 exactly");
        assert_eq!(log_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = HistSnapshot::new();
        for v in [0u64, 1, 5, 5, 17, 63] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 63);
    }

    #[test]
    fn quantiles_respect_relative_error_bound() {
        let mut h = HistSnapshot::new();
        let mut vals: Vec<u64> = (0..2000u64).map(|i| i * i * 37 + 100).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1];
            let est = h.quantile(q);
            let tol = (exact as f64 * RELATIVE_ERROR_BOUND).ceil() as u64 + 1;
            assert!(
                est.abs_diff(exact) <= tol,
                "q={q}: est {est} vs exact {exact} (tol {tol})"
            );
        }
    }

    #[test]
    fn static_histogram_records_concurrently() {
        let _obs = crate::force_enabled(true);
        static H: LogHistogram = LogHistogram::new("test.loghist");
        H.reset();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..1000u64 {
                        H.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(H.count(), 4000);
        assert_eq!(H.max(), 3999);
        let snap = H.snapshot();
        // p50 of 0..4000 is ~2000; bound plus bucket width slack.
        let p50 = snap.quantile(0.5);
        assert!((1900..=2100).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let _obs = crate::force_enabled(false);
        static H: LogHistogram = LogHistogram::new("test.loghist_off");
        H.record(42);
        assert_eq!(H.count(), 0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = HistSnapshot::new();
        let mut b = HistSnapshot::new();
        let mut all = HistSnapshot::new();
        for v in [3u64, 70, 900, 1_000_000] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 70, 12_345] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
