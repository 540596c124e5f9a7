//! Concurrency property tests for the observability runtime, companion to
//! the `ses-race` model-checked suite: where ses-race explores interleavings
//! of a few operations exhaustively, these tests hammer the real atomics
//! with real threads at volume and assert the documented accounting
//! invariants hold exactly.
//!
//! 1. Concurrent-writer `LogHistogram`: N writer threads × M records each
//!    must produce the same count, sum, and quantiles as a single-threaded
//!    reference recording of the same values (relaxed per-bucket tallies
//!    lose nothing once all writers are joined).
//! 2. Trace-buffer overflow: pushing past the [`EVENT_CAP`] completed-event
//!    buffer must account for every single span — `trace.dropped` equals
//!    issued minus buffered, with the buffer pinned at exactly `EVENT_CAP`.

use proptest::prelude::*;
use ses_obs::hist::{HistSnapshot, LogHistogram, RELATIVE_ERROR_BOUND};
use ses_obs::trace::{self, EVENT_CAP};

/// Exact rank-based quantile matching `HistSnapshot::quantile` semantics.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_writers_match_single_threaded_reference(
        chunks in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000_000_000, 1..256), 2..7),
    ) {
        let _obs = ses_obs::force_enabled(true);
        static H: LogHistogram = LogHistogram::new("test.concurrency_props");
        H.reset();
        std::thread::scope(|s| {
            for chunk in &chunks {
                s.spawn(move || {
                    for &v in chunk {
                        H.record(v);
                    }
                });
            }
        });
        let concurrent = H.snapshot();

        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let mut reference = HistSnapshot::new();
        for &v in &all {
            reference.record(v);
        }

        // Exact accounting: nothing lost or double-counted across writers.
        prop_assert_eq!(concurrent.count(), all.len() as u64);
        prop_assert_eq!(concurrent.count(), reference.count());
        prop_assert_eq!(concurrent.sum(), all.iter().sum::<u64>());
        prop_assert_eq!(concurrent.max(), reference.max());
        prop_assert_eq!(&concurrent, &reference);

        // Quantiles agree with the reference exactly, and both stay inside
        // the documented relative-error bound of the true sample quantile.
        let mut sorted = all;
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let est = concurrent.quantile(q);
            prop_assert_eq!(est, reference.quantile(q));
            let exact = exact_quantile(&sorted, q);
            let tol = (exact as f64 * RELATIVE_ERROR_BOUND).ceil() as u64 + 1;
            prop_assert!(
                est.abs_diff(exact) <= tol,
                "q={}: concurrent estimate {} vs exact {} exceeds tolerance {}",
                q, est, exact, tol
            );
        }
    }
}

proptest! {
    // Each case issues >2^16 spans; a handful of cases is plenty.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn trace_dropped_equals_issued_minus_buffered_on_overflow(
        extra in 1usize..512,
    ) {
        let _obs = ses_obs::force_enabled(true);
        trace::reset_events();
        let dropped_before = ses_obs::metrics::TRACE_DROPPED.get();

        // One completed event per span drop, plus one for the request root;
        // everything past EVENT_CAP must land in `trace.dropped`.
        let mut issued = 0u64;
        {
            let req = trace::request("props.overflow");
            prop_assert!(req.trace_id().is_some());
            for _ in 0..(EVENT_CAP + extra) {
                let _s = ses_obs::spans::span("props.overflow_span");
                issued += 1;
            }
            drop(req);
            issued += 1;
        }

        let buffered = trace::take_events().len();
        let dropped = ses_obs::metrics::TRACE_DROPPED.get() - dropped_before;

        prop_assert_eq!(buffered, EVENT_CAP, "buffer must clamp at EVENT_CAP");
        prop_assert_eq!(
            dropped,
            issued - buffered as u64,
            "every span past the cap must be counted: issued={} buffered={}",
            issued, buffered
        );
    }
}
