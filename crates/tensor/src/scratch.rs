//! Per-thread scratch-buffer pool: arena-style reuse of `f32` buffers for
//! the kernel/tape/plan hot paths.
//!
//! Every tape step, kernel worker and inference-plan slot used to allocate a
//! fresh `Vec<f32>` per call; at the bench sizes the allocator traffic rivals
//! the arithmetic (ROADMAP item 2). This module recycles those buffers
//! through a **thread-local pool**:
//!
//! * [`take`] hands out a zeroed buffer, reusing a pooled allocation when one
//!   is large enough (a *hit* — counted in `alloc.saved_bytes`) and falling
//!   back to a fresh allocation otherwise;
//! * [`give`] returns a buffer to the calling thread's pool for later reuse;
//! * [`lease`] wraps take/give in an RAII guard ([`ScratchLease`]) for
//!   temporaries whose lifetime is a single scope.
//!
//! Buffers never migrate between threads — a worker that recycles a buffer
//! reuses it from its own pool — so there are no locks on the hot path and
//! two concurrent leases can never alias (each `Vec` is uniquely owned; the
//! aliasing proptest below proves it with marker writes). The pool is
//! bounded ([`MAX_POOLED_BUFFERS`], [`MAX_POOLED_BYTES`]): beyond the cap,
//! returned buffers are simply dropped.
//!
//! Telemetry: `alloc.saved_bytes` accumulates bytes served from reuse and
//! `scratch.highwater` tracks the high-water mark of bytes resident in any
//! one thread's pool, so the quickstart run can prove the ≥90% allocation
//! reduction claimed in docs/PERF.md.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Most buffers one thread's pool retains; excess returns are dropped.
pub const MAX_POOLED_BUFFERS: usize = 256;

/// Most bytes one thread's pool retains across all buffers (256 MiB). Sized
/// to hold a training epoch's full buffer working set — the SES pair
/// matrices are several MB each, and dropping them on `give` would push the
/// epoch-over-epoch pool hit rate from ~95% down to single digits.
pub const MAX_POOLED_BYTES: usize = 256 << 20;

/// One thread's recycled-buffer pool plus its local statistics.
#[derive(Default)]
struct Pool {
    /// Idle buffers, unordered. Small (≤ [`MAX_POOLED_BUFFERS`]), so a
    /// linear best-fit scan beats any index structure.
    buffers: Vec<Vec<f32>>,
    /// Total capacity bytes currently resident in `buffers`.
    resident_bytes: usize,
    /// Lifetime take() calls served from the pool on this thread.
    hits: u64,
    /// Lifetime take() calls that had to allocate on this thread.
    misses: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Point-in-time view of the calling thread's pool (for tests and the
/// trainer's end-of-run report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Idle buffers resident in this thread's pool.
    pub pooled_buffers: usize,
    /// Capacity bytes resident in this thread's pool.
    pub resident_bytes: usize,
    /// take() calls served from the pool on this thread.
    pub hits: u64,
    /// take() calls that allocated fresh on this thread.
    pub misses: u64,
}

/// Stats for the calling thread's pool.
pub fn stats() -> ScratchStats {
    POOL.with(|p| {
        let p = p.borrow();
        ScratchStats {
            pooled_buffers: p.buffers.len(),
            resident_bytes: p.resident_bytes,
            hits: p.hits,
            misses: p.misses,
        }
    })
}

/// Drops every idle buffer in the calling thread's pool and zeroes its local
/// hit/miss statistics. Tests use this to isolate measurements.
pub fn clear() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.buffers.clear();
        p.resident_bytes = 0;
        p.hits = 0;
        p.misses = 0;
    });
}

/// Hands out a zeroed buffer of exactly `len` elements, reusing a pooled
/// allocation when one with sufficient capacity is idle on this thread.
///
/// The returned `Vec` is uniquely owned: nothing else can read or write it
/// until it is recycled via [`give`] (or dropped). Reused buffers are
/// zero-filled before return, so a pool hit is observationally identical to
/// `vec![0.0; len]`.
pub fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let reused = POOL.with(|p| {
        let mut p = p.borrow_mut();
        // Best fit: the smallest idle buffer whose capacity suffices, so big
        // buffers stay available for big requests.
        let mut best: Option<usize> = None;
        for (i, b) in p.buffers.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < p.buffers[j].capacity()) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let b = p.buffers.swap_remove(i);
                p.resident_bytes -= b.capacity() * std::mem::size_of::<f32>();
                p.hits += 1;
                Some(b)
            }
            None => {
                p.misses += 1;
                None
            }
        }
    });
    match reused {
        Some(mut b) => {
            ses_obs::metrics::ALLOC_SAVED_BYTES
                .add((len as u64) * (std::mem::size_of::<f32>() as u64));
            b.clear();
            b.resize(len, 0.0);
            b
        }
        None => {
            // A fresh buffer is ordinary allocation churn; count it under the
            // same instruments as `Matrix::zeros` so saved/total stays honest.
            ses_obs::metrics::ALLOC_MATRICES.incr();
            ses_obs::metrics::ALLOC_BYTES.add((len as u64) * (std::mem::size_of::<f32>() as u64));
            vec![0.0; len]
        }
    }
}

/// Returns `buf` to the calling thread's pool for later reuse. Buffers with
/// no capacity, or that would push the pool past its byte cap, are dropped.
/// When the buffer-count cap is hit, the smallest resident buffer is evicted
/// in favour of a larger incoming one — a tape reset returns scalars and
/// column vectors by the dozen, and letting those crowd out the multi-MB
/// backward buffers would turn every big `take` into a fresh allocation.
pub fn give(buf: Vec<f32>) {
    let bytes = buf.capacity() * std::mem::size_of::<f32>();
    if bytes == 0 {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.resident_bytes + bytes > MAX_POOLED_BYTES {
            return; // drop: byte cap reached
        }
        if p.buffers.len() >= MAX_POOLED_BUFFERS {
            let Some(smallest) = (0..p.buffers.len())
                .min_by_key(|&i| p.buffers[i].capacity())
                .filter(|&i| p.buffers[i].capacity() < buf.capacity())
            else {
                return; // drop: pool is full of buffers at least this large
            };
            let evicted = p.buffers.swap_remove(smallest);
            p.resident_bytes -= evicted.capacity() * std::mem::size_of::<f32>();
        }
        p.buffers.push(buf);
        p.resident_bytes += bytes;
        // lint:allow(no-narrowing-cast): pool caps bound this below 2^29
        ses_obs::metrics::SCRATCH_HIGHWATER.record_max(p.resident_bytes as i64);
    });
}

/// RAII lease over a pooled scratch buffer: derefs to `[f32]`, returns the
/// buffer to the pool on drop. For temporaries whose lifetime is one scope;
/// buffers that outlive a scope (tape node values, plan slots) use
/// [`take`]/[`give`] directly.
pub struct ScratchLease {
    buf: Vec<f32>,
}

/// Leases a zeroed `len`-element scratch buffer from this thread's pool.
pub fn lease(len: usize) -> ScratchLease {
    ScratchLease { buf: take(len) }
}

impl ScratchLease {
    /// Consumes the lease *without* recycling, handing the buffer to the
    /// caller (used when a temp graduates into a long-lived value).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.buf)
    }
}

impl Deref for ScratchLease {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for ScratchLease {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for ScratchLease {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn take_returns_zeroed_exact_length() {
        clear();
        let a = take(17);
        assert_eq!(a.len(), 17);
        assert!(a.iter().all(|&x| x == 0.0));
        give(a);
        // Reuse path must also come back zeroed even after dirty writes.
        let mut b = take(9);
        b.iter_mut().for_each(|x| *x = 3.5);
        give(b);
        let c = take(9);
        assert!(c.iter().all(|&x| x == 0.0));
        let st = stats();
        assert!(st.hits >= 2, "expected pool hits, got {st:?}");
    }

    #[test]
    fn pool_caps_are_respected() {
        clear();
        for _ in 0..MAX_POOLED_BUFFERS + 8 {
            give(vec![0.0; 4]);
        }
        assert!(stats().pooled_buffers <= MAX_POOLED_BUFFERS);
        clear();
        // One buffer over the byte cap is dropped, not pooled.
        give(vec![0.0; MAX_POOLED_BYTES / 2]);
        assert_eq!(stats().pooled_buffers, 0);
    }

    #[test]
    fn zero_len_take_never_touches_pool() {
        clear();
        let a = take(0);
        assert!(a.is_empty());
        give(a);
        let st = stats();
        assert_eq!((st.hits, st.misses, st.pooled_buffers), (0, 0, 0));
    }

    /// The lease-aliasing proof from the ISSUE: concurrent workers each lease
    /// buffers, stamp them with a worker-unique marker, and verify no other
    /// worker's marker ever appears — i.e. two live leases never share
    /// memory, across threads or within one.
    #[test]
    fn leases_never_alias_under_concurrent_workers() {
        let mut rng = StdRng::seed_from_u64(42);
        let seeds: Vec<u64> = (0..8).map(|_| rng.gen::<u64>()).collect();
        std::thread::scope(|s| {
            for (w, seed) in seeds.into_iter().enumerate() {
                s.spawn(move || {
                    clear();
                    let marker = (w as f32) + 1.0;
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..200 {
                        let n_live = rng.gen_range(1..5usize);
                        let mut live: Vec<ScratchLease> = (0..n_live)
                            .map(|_| lease(rng.gen_range(1..64usize)))
                            .collect();
                        for l in &mut live {
                            assert!(
                                l.iter().all(|&x| x == 0.0),
                                "lease handed out non-zero memory (stale or aliased)"
                            );
                            l.iter_mut().for_each(|x| *x = marker);
                        }
                        // Every live lease still holds exactly our marker:
                        // a second write through an alias would have been
                        // visible here.
                        for l in &live {
                            assert!(l.iter().all(|&x| x == marker), "marker clobbered: alias!");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn lease_into_vec_skips_recycling() {
        clear();
        let l = lease(32);
        let v = l.into_vec();
        assert_eq!(v.len(), 32);
        assert_eq!(stats().pooled_buffers, 0);
    }
}
