//! Property tests for the log-linear histogram: quantile estimates stay
//! within the documented relative-error bound of exact sorted-sample
//! quantiles for arbitrary inputs, and snapshot merging is associative —
//! per-thread histograms combine to the same distribution in any grouping.

use proptest::prelude::*;
use ses_obs::hist::{HistSnapshot, LogHistogram, RELATIVE_ERROR_BOUND};

/// Exact rank-based quantile matching `HistSnapshot::quantile` semantics:
/// `sorted[ceil(q·n) - 1]`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn snapshot_of(values: &[u64]) -> HistSnapshot {
    let mut h = HistSnapshot::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantiles_within_documented_relative_error(
        values in proptest::collection::vec(0u64..10_000_000_000, 1..512),
    ) {
        let h = snapshot_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q);
            // The documented contract: exact below the linear cutoff,
            // otherwise within RELATIVE_ERROR_BOUND of the true sample
            // (+1 for integer midpoint rounding).
            let tol = (exact as f64 * RELATIVE_ERROR_BOUND).ceil() as u64 + 1;
            prop_assert!(
                est.abs_diff(exact) <= tol,
                "q={}: estimate {} vs exact {} exceeds tolerance {}",
                q, est, exact, tol
            );
        }
    }

    #[test]
    fn merge_is_associative_and_commutative(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..128),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..128),
        c in proptest::collection::vec(0u64..1_000_000_000, 0..128),
    ) {
        let (ha, hb, hc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));

        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        // c ⊕ b ⊕ a (commuted)
        let mut commuted = hc.clone();
        commuted.merge(&hb);
        commuted.merge(&ha);
        // Recording everything into one histogram directly.
        let mut all: Vec<u64> = a.clone();
        all.extend(&b);
        all.extend(&c);
        let direct = snapshot_of(&all);

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &commuted);
        prop_assert_eq!(&left, &direct);
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(left.quantile(q), direct.quantile(q));
        }
    }

    #[test]
    fn per_thread_recording_merges_to_the_serial_distribution(
        chunks in proptest::collection::vec(
            proptest::collection::vec(0u64..100_000_000, 1..64), 1..4),
    ) {
        // Record each chunk into one shared atomic histogram from its own
        // thread; the result must equal the serial single-thread snapshot.
        let _obs = ses_obs::force_enabled(true);
        static H: LogHistogram = LogHistogram::new("test.props_mt");
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
        let serial = snapshot_of(&all);
        prop_assert_eq!(concurrent, serial);
    }
}
