//! Property tests for the explanation cache (satellite of the serving
//! runtime): the content-hash key is deterministic and invariant to
//! enumeration order, eviction honours both the entry and byte caps on any
//! operation sequence, and the `serve.cache.{hit,miss,evict}` counters
//! reconcile exactly with the operations performed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_obs::metrics;
use ses_serve::cache::{content_key, Explanation, ExplanationCache, Lookup};

/// Fisher–Yates with a seeded rng (workspace rule: no thread_rng).
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..=i);
        out.swap(i, j);
    }
    out
}

fn edges_of_len(n: usize) -> Explanation {
    (0..n).map(|i| (i, i + 1, i as f32 * 0.25)).collect()
}

/// The vendored proptest stub has no tuple strategies, so fuzzed edge lists
/// and op sequences arrive as packed `u64`s and are decoded here.
fn decode_edge(x: u64) -> (usize, usize) {
    ((x & 0xff) as usize, ((x >> 8) & 0xff) as usize)
}

/// One cache op: `(key, payload_len, is_put)` unpacked from fuzz bits.
fn decode_op(x: u64, key_space: u64, max_len: usize) -> (u64, usize, bool) {
    (
        x & (key_space - 1),
        1 + ((x >> 8) as usize % max_len),
        (x >> 16) & 1 == 1,
    )
}

proptest! {
    /// The key must not depend on how the subgraph was enumerated: any
    /// permutation of the node list, any permutation of the edge list, and
    /// any per-edge orientation flip produce the same key.
    #[test]
    fn content_key_is_enumeration_order_invariant(
        center in 0usize..64,
        k in 1usize..4,
        nodes in proptest::collection::vec(0usize..256, 1..24),
        packed_edges in proptest::collection::vec(0u64..u64::MAX, 0..24),
        seed in 0u64..u64::MAX,
    ) {
        let edges: Vec<(usize, usize)> = packed_edges.iter().map(|&x| decode_edge(x)).collect();
        let base = content_key(center, k, &nodes, &edges);
        // Deterministic: same input, same key.
        prop_assert_eq!(base, content_key(center, k, &nodes, &edges));
        let nodes2 = shuffled(&nodes, seed);
        let mut edges2 = shuffled(&edges, seed ^ 0x9e37_79b9);
        let mut flip = StdRng::seed_from_u64(seed.wrapping_mul(3));
        for e in edges2.iter_mut() {
            if flip.gen::<bool>() {
                *e = (e.1, e.0);
            }
        }
        prop_assert_eq!(base, content_key(center, k, &nodes2, &edges2));
    }

    /// Distinct subgraph content should (essentially always) produce a
    /// distinct key: perturbing one node id changes the hash.
    #[test]
    fn content_key_tracks_content(
        center in 0usize..64,
        nodes in proptest::collection::vec(0usize..256, 1..16),
        bump in 1usize..7,
    ) {
        let mut other = nodes.clone();
        other[0] += 256 * bump; // guaranteed outside the generated domain
        prop_assert_ne!(
            content_key(center, 2, &nodes, &[]),
            content_key(center, 2, &other, &[])
        );
    }

    /// After every operation of an arbitrary put/get sequence, both caps
    /// hold and the byte ledger matches the sum of resident entries.
    #[test]
    fn eviction_respects_entry_and_byte_caps(
        max_entries in 0usize..8,
        cap_units in 0usize..12,
        packed_ops in proptest::collection::vec(0u64..u64::MAX, 1..48),
    ) {
        // Moves the process-global cache counters, so it holds the telemetry
        // guard too: a reconciliation window never sees foreign increments.
        let _obs = ses_obs::force_enabled(true);
        let unit = std::mem::size_of::<(usize, usize, f32)>() + 64;
        let max_bytes = cap_units * unit;
        let cache = ExplanationCache::new(max_entries, max_bytes);
        for (key, len, is_put) in packed_ops.iter().map(|&x| decode_op(x, 16, 12)) {
            if is_put {
                cache.put(key, edges_of_len(len));
            } else {
                let _ = cache.get(key);
            }
            prop_assert!(cache.len() <= max_entries, "entry cap violated");
            prop_assert!(cache.bytes() <= max_bytes, "byte cap violated");
        }
    }

    /// Counter reconciliation over an arbitrary op sequence: every `get` is
    /// exactly one hit or one miss, and every eviction is counted — the
    /// counter deltas must equal the observed outcomes exactly.
    #[test]
    fn cache_counters_reconcile(
        max_entries in 1usize..6,
        packed_ops in proptest::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let _obs = ses_obs::force_enabled(true);
        let cache = ExplanationCache::new(max_entries, usize::MAX);
        let hit_0 = metrics::SERVE_CACHE_HIT.get();
        let miss_0 = metrics::SERVE_CACHE_MISS.get();
        let evict_0 = metrics::SERVE_CACHE_EVICT.get();

        let (mut gets, mut hits) = (0u64, 0u64);
        let mut resident: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut puts_evicting = 0u64;
        for (key, len, is_put) in packed_ops.iter().map(|&x| decode_op(x, 8, 7)) {
            if is_put {
                let was_resident = resident.contains(&key);
                cache.put(key, edges_of_len(len));
                resident.insert(key);
                if !was_resident && resident.len() > max_entries {
                    // Exactly one LRU victim leaves; we don't model which.
                    puts_evicting += 1;
                    prop_assert_eq!(cache.len(), max_entries);
                    // Resync the resident model from the cache's own ledger.
                    resident = (0u64..8).filter(|k| {
                        matches!(cache.get(*k), Lookup::Hit(_))
                    }).collect();
                    gets += 8;
                    hits += cache.len() as u64;
                }
            } else {
                gets += 1;
                match cache.get(key) {
                    Lookup::Hit(_) => {
                        hits += 1;
                        prop_assert!(resident.contains(&key));
                    }
                    Lookup::Miss => prop_assert!(!resident.contains(&key)),
                    Lookup::Poisoned => prop_assert!(false, "nothing armed poison"),
                }
            }
        }
        prop_assert_eq!(
            metrics::SERVE_CACHE_HIT.get() - hit_0,
            hits,
            "every hit counted once"
        );
        prop_assert_eq!(
            metrics::SERVE_CACHE_MISS.get() - miss_0,
            gets - hits,
            "every non-hit get counted as a miss"
        );
        prop_assert_eq!(
            metrics::SERVE_CACHE_EVICT.get() - evict_0,
            puts_evicting,
            "every cap-driven eviction counted once"
        );
    }
}

#[test]
fn poison_counts_are_separate_from_evictions() {
    let _obs = ses_obs::force_enabled(true);
    let cache = ExplanationCache::new(4, usize::MAX);
    let evict_0 = metrics::SERVE_CACHE_EVICT.get();
    let poison_0 = metrics::SERVE_CACHE_POISONED.get();
    cache.arm_poison();
    cache.put(1, edges_of_len(3));
    assert_eq!(cache.get(1), Lookup::Poisoned);
    assert_eq!(
        metrics::SERVE_CACHE_POISONED.get(),
        poison_0 + 1,
        "integrity discard counted as a poisoning"
    );
    assert_eq!(
        metrics::SERVE_CACHE_EVICT.get(),
        evict_0,
        "…and not as a cap eviction"
    );
}
