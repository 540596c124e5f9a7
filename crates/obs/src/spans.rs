//! Span-based tracer: RAII guards aggregate wall-clock time per static span
//! name into a fixed table of atomics.
//!
//! Design constraints (shared with the kernel `par` layer):
//!
//! * **Lock-free record path.** A guard dropping on a `par` worker thread
//!   only touches relaxed atomics — no mutex, no allocation.
//! * **Static names.** Span names are `&'static str` literals
//!   (`"kernel.spmm"`, `"tape.backward"`, …), so slot lookup is a linear
//!   scan over a small table comparing string contents. The table has
//!   [`CAP`] slots; the workspace uses a couple of dozen distinct names.
//! * **Nesting awareness.** A thread-local depth counter tracks how deeply
//!   spans nest on the current thread; [`depth`] exposes it for tests and
//!   indented debug output. Aggregation itself is flat per name: a span's
//!   recorded time includes its children (self-time can be derived from the
//!   table when needed).

use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use crate::sync::AtomicU64;
use std::time::Instant;

/// Maximum number of distinct span names per process. Claiming a slot past
/// this capacity silently drops the span (never panics in the hot path).
const CAP: usize = 128;

struct Slot {
    name: OnceLock<&'static str>,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            name: OnceLock::new(),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

static TABLE: [Slot; CAP] = [const { Slot::new() }; CAP];

thread_local! {
    static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Current span nesting depth on this thread (0 outside any span).
pub fn depth() -> usize {
    DEPTH.with(|d| d.get())
}

/// Finds or claims the slot for `name`. Lock-free: an empty slot is claimed
/// with `OnceLock::set`; on a lost race the scan simply continues (the
/// winner may have claimed it for the same or a different name).
fn slot_for(name: &'static str) -> Option<&'static Slot> {
    for slot in TABLE.iter() {
        match slot.name.get() {
            Some(n) if *n == name => return Some(slot),
            Some(_) => continue,
            None => {
                if slot.name.set(name).is_ok() || slot.name.get() == Some(&name) {
                    return Some(slot);
                }
            }
        }
    }
    None
}

/// RAII timing guard returned by [`span`]. Records elapsed wall-clock time
/// into the aggregation table when dropped; inert when telemetry is off.
/// While a trace is active on the opening thread (see [`crate::trace`]),
/// the guard additionally carries a trace frame and emits a
/// [`crate::trace::SpanEvent`] on drop.
pub struct SpanGuard {
    slot: Option<&'static Slot>,
    start: Option<Instant>,
    trace: Option<crate::trace::Frame>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(slot), Some(start)) = (self.slot, self.start) {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            slot.count.fetch_add(1, Ordering::Relaxed); // ordering: relaxed tally; rows read as telemetry
            slot.total_ns.fetch_add(ns, Ordering::Relaxed); // ordering: relaxed tally; rows read as telemetry
            slot.max_ns.fetch_max(ns, Ordering::Relaxed); // ordering: high-watermark tally
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            if let Some(frame) = self.trace.take() {
                let name = slot.name.get().copied().unwrap_or("span");
                crate::trace::exit_span(frame, name, start, ns);
            }
        }
    }
}

/// Opens a named span. Prefer the [`crate::span!`] macro at call sites.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            slot: None,
            start: None,
            trace: None,
        };
    }
    let slot = slot_for(name);
    let mut trace = None;
    if slot.is_some() {
        DEPTH.with(|d| d.set(d.get() + 1));
        trace = crate::trace::enter_span();
    }
    SpanGuard {
        slot,
        start: slot.map(|_| Instant::now()),
        trace,
    }
}

/// One row of the aggregated span table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// Snapshot of all spans recorded so far (unordered; callers sort).
pub fn snapshot() -> Vec<SpanStat> {
    let mut out = Vec::new();
    for slot in TABLE.iter() {
        let Some(name) = slot.name.get() else { break };
        let count = slot.count.load(Ordering::Relaxed); // ordering: telemetry read; staleness is fine
        if count == 0 {
            continue;
        }
        out.push(SpanStat {
            name,
            count,
            total_ns: slot.total_ns.load(Ordering::Relaxed), // ordering: telemetry read; staleness is fine
            max_ns: slot.max_ns.load(Ordering::Relaxed), // ordering: telemetry read; staleness is fine
        });
    }
    out
}

/// Difference between the current table and an earlier [`snapshot`]: spans
/// whose count grew, with count/total deltas. Used for per-epoch kernel
/// time breakdowns (`max_ns` is carried from the current table, not
/// differenced — maxima don't subtract).
pub fn delta_since(before: &[SpanStat]) -> Vec<SpanStat> {
    let now = snapshot();
    now.into_iter()
        .filter_map(|s| {
            let prev = before.iter().find(|p| p.name == s.name);
            let (c0, t0) = prev.map_or((0, 0), |p| (p.count, p.total_ns));
            (s.count > c0).then(|| SpanStat {
                name: s.name,
                count: s.count - c0,
                total_ns: s.total_ns.saturating_sub(t0),
                max_ns: s.max_ns,
            })
        })
        .collect()
}

/// Zeroes all span statistics (names stay claimed). Test/bench helper.
pub fn reset() {
    for slot in TABLE.iter() {
        if slot.name.get().is_none() {
            break;
        }
        slot.count.store(0, Ordering::Relaxed); // ordering: test/bench zeroing; nobody synchronises on it
        slot.total_ns.store(0, Ordering::Relaxed); // ordering: test/bench zeroing
        slot.max_ns.store(0, Ordering::Relaxed); // ordering: test/bench zeroing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_tracks_depth_and_aggregates() {
        let _obs = crate::force_enabled(true);
        let before = snapshot();
        let base = depth();
        {
            let _a = span("test.outer");
            assert_eq!(depth(), base + 1);
            {
                let _b = span("test.inner");
                assert_eq!(depth(), base + 2);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(depth(), base + 1);
            let _b2 = span("test.inner");
        }
        assert_eq!(depth(), base);
        let delta = delta_since(&before);
        let outer = delta.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = delta.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        // outer encloses inner's sleep, so its total must be at least as large
        assert!(outer.total_ns >= inner.max_ns);
        assert!(inner.total_ns > 0);
        assert!(inner.max_ns <= inner.total_ns);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _obs = crate::force_enabled(false);
        let before = snapshot();
        {
            let _g = span("test.disabled");
        }
        let delta = delta_since(&before);
        assert!(delta.iter().all(|s| s.name != "test.disabled"));
    }

    #[test]
    fn cross_thread_aggregation_sums() {
        let _obs = crate::force_enabled(true);
        let before = snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let _g = span("test.worker");
                    }
                });
            }
        });
        let delta = delta_since(&before);
        let w = delta.iter().find(|s| s.name == "test.worker").unwrap();
        assert_eq!(w.count, 40);
    }
}
