//! Node-keyed explanation cache with bounded memory and integrity
//! checksums.
//!
//! SES reads a node's explanation off its trained global structure mask,
//! and a [`crate::Server`] owns one immutable artifact, so the explanation
//! is a pure function of the node. The cache is therefore keyed by node id,
//! and the runtime probes it before it extracts anything: a hit costs one
//! lookup and one checksum. Values carry an FNV-1a checksum over their
//! payload words; a hit whose checksum no longer matches (bit rot, a bug
//! scribbling over the entry, the `cache-poison` fault drill) is detected
//! *before* it is served and counted in `serve.cache.poisoned`.
//!
//! Capacity is bounded twice — max entries and max payload bytes — and
//! eviction is least-recently-used until both caps hold, each eviction
//! counted in `serve.cache.evict`. The counters reconcile by construction:
//! every `get` is exactly one hit or one miss, every cap-driven removal is
//! one eviction (poison discards are counted separately as poisonings).

use std::collections::HashMap;
use std::sync::Mutex;

use ses_obs::metrics;

/// One ranked-edge explanation: `(global_u, global_v, weight)`.
pub type Explanation = Vec<(usize, usize, f32)>;

/// Order-independent content hash of a computation subgraph: the key is
/// identical for any enumeration order of `nodes` and `edges`, and for
/// either orientation of an edge. Commutative mixing (wrapping sums of
/// per-element FNV-1a hashes) buys the order independence; hashing each
/// element through FNV first keeps the sum from being fooled by swapped
/// coordinates.
///
/// The server does not call it: its cache is keyed by node id. It stays
/// public only because the end-to-end benchmark (`sesbench`) still times
/// it in its request-path probe.
pub fn content_key(center: usize, k: usize, nodes: &[usize], edges: &[(usize, usize)]) -> u64 {
    let mut node_acc: u64 = 0;
    for &n in nodes {
        node_acc = node_acc.wrapping_add(fnv1a(&(n as u64).to_le_bytes()));
    }
    let mut edge_acc: u64 = 0;
    for &(u, v) in edges {
        // Canonical orientation before hashing so (u,v) == (v,u).
        let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&(lo as u64).to_le_bytes());
        bytes[8..].copy_from_slice(&(hi as u64).to_le_bytes());
        edge_acc = edge_acc.wrapping_add(fnv1a(&bytes));
    }
    let mut head = [0u8; 32];
    head[..8].copy_from_slice(&(center as u64).to_le_bytes());
    head[8..16].copy_from_slice(&(k as u64).to_le_bytes());
    head[16..24].copy_from_slice(&node_acc.to_le_bytes());
    head[24..].copy_from_slice(&edge_acc.to_le_bytes());
    fnv1a(&head)
}

/// FNV-1a offset basis and prime (same constants as the `SESCKPT1`
/// trailer).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Checksum of an explanation payload: FNV-1a over each edge's three
/// 64-bit words `u`, `v` and the weight's bit pattern (so NaN corruption is
/// caught too). Each step `(h ^ word)·P` is a bijection in `h` because `P`
/// is odd, so a change confined to any one word always changes the sum.
fn payload_checksum(edges: &Explanation) -> u64 {
    edges.iter().fold(FNV_OFFSET, |h, &(u, v, w)| {
        [u as u64, v as u64, u64::from(w.to_bits())]
            .into_iter()
            .fold(h, |h, word| (h ^ word).wrapping_mul(FNV_PRIME))
    })
}

/// Approximate resident bytes of one entry's payload.
fn entry_bytes(edges: &Explanation) -> usize {
    edges.len() * std::mem::size_of::<(usize, usize, f32)>() + 64
}

struct Entry {
    edges: Explanation,
    checksum: u64,
    bytes: usize,
    last_used: u64,
}

/// What a cache lookup found.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// Node present, checksum valid — the cached explanation.
    Hit(Explanation),
    /// Node absent.
    Miss,
    /// Node present but the payload failed its checksum; the entry has been
    /// evicted. The caller decides whether to recompute (recovery on) or
    /// fail the request (recovery off).
    Poisoned,
}

/// Bounded, checksummed, LRU explanation cache keyed by node id. All
/// operations take an internal mutex; the runtime shares one cache across
/// workers.
pub struct ExplanationCache {
    state: Mutex<CacheState>,
    max_entries: usize,
    max_bytes: usize,
}

struct CacheState {
    map: HashMap<usize, Entry>,
    bytes: usize,
    tick: u64,
    poison_next: bool,
}

impl ExplanationCache {
    /// A cache holding at most `max_entries` explanations and `max_bytes`
    /// of payload. Zero caps are honoured literally (every insert evicts
    /// immediately), which keeps cap accounting proptestable.
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        Self {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                poison_next: false,
            }),
            max_entries,
            max_bytes,
        }
    }

    /// Looks up `node`, validating the checksum on a hit. Exactly one of
    /// `serve.cache.hit` / `serve.cache.miss` moves per call; a checksum
    /// failure counts the miss *and* `serve.cache.poisoned`, and removes
    /// the entry.
    pub fn get(&self, node: usize) -> Lookup {
        let mut st = self.lock();
        st.tick += 1;
        let tick = st.tick;
        match st.map.get_mut(&node) {
            None => {
                metrics::SERVE_CACHE_MISS.incr();
                Lookup::Miss
            }
            Some(entry) => {
                if payload_checksum(&entry.edges) != entry.checksum {
                    metrics::SERVE_CACHE_MISS.incr();
                    metrics::SERVE_CACHE_POISONED.incr();
                    let bytes = entry.bytes;
                    st.map.remove(&node);
                    st.bytes -= bytes;
                    return Lookup::Poisoned;
                }
                entry.last_used = tick;
                metrics::SERVE_CACHE_HIT.incr();
                Lookup::Hit(entry.edges.clone())
            }
        }
    }

    /// Inserts (or replaces) the explanation for `node`, then evicts
    /// least-recently-used entries until both caps hold. Each eviction
    /// counts `serve.cache.evict`; replacing an entry in place does not.
    pub fn put(&self, node: usize, edges: Explanation) {
        let mut st = self.lock();
        st.tick += 1;
        let tick = st.tick;
        let mut checksum = payload_checksum(&edges);
        if st.poison_next {
            // Injected `cache-poison` fault: store a checksum that cannot
            // match, so the *next hit* trips the integrity net.
            st.poison_next = false;
            checksum = !checksum;
        }
        let bytes = entry_bytes(&edges);
        if let Some(old) = st.map.insert(
            node,
            Entry {
                edges,
                checksum,
                bytes,
                last_used: tick,
            },
        ) {
            st.bytes -= old.bytes;
        }
        st.bytes += bytes;
        self.evict_to_caps(&mut st);
    }

    fn evict_to_caps(&self, st: &mut CacheState) {
        while st.map.len() > self.max_entries || st.bytes > self.max_bytes {
            let Some((&victim, _)) = st.map.iter().min_by_key(|(_, e)| e.last_used) else {
                return; // caps unsatisfiable with an empty map (max_bytes=0)
            };
            // lint:allow(no-unwrap): victim key was just produced by iterating the map
            let e = st.map.remove(&victim).expect("victim present");
            st.bytes -= e.bytes;
            metrics::SERVE_CACHE_EVICT.incr();
        }
    }

    /// Arms the `cache-poison` fault: the next `put` stores a corrupt
    /// checksum. Drill/test hook — never armed in normal operation.
    pub fn arm_poison(&self) {
        self.lock().poison_next = true;
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current payload byte total.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // lint:allow(no-unwrap): mutex poisoning is unreachable — no code path
        // panics while holding this lock (cache ops are pure data shuffling)
        self.state.lock().expect("cache mutex poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(n: usize) -> Explanation {
        (0..n).map(|i| (i, i + 1, i as f32 * 0.5)).collect()
    }

    #[test]
    fn hit_after_put_miss_before() {
        let _obs = ses_obs::force_enabled(true);
        let c = ExplanationCache::new(8, 1 << 20);
        assert_eq!(c.get(1), Lookup::Miss);
        c.put(1, ex(3));
        assert_eq!(c.get(1), Lookup::Hit(ex(3)));
    }

    #[test]
    fn poisoned_entry_detected_and_removed() {
        let _obs = ses_obs::force_enabled(true);
        let c = ExplanationCache::new(8, 1 << 20);
        c.arm_poison();
        c.put(9, ex(2));
        let before = metrics::SERVE_CACHE_POISONED.get();
        assert_eq!(c.get(9), Lookup::Poisoned);
        assert_eq!(metrics::SERVE_CACHE_POISONED.get(), before + 1);
        assert_eq!(c.get(9), Lookup::Miss, "poisoned entry was evicted");
    }

    /// Flipping any one bit of any word of any stored edge (`u`, `v`, the
    /// weight's 32 bits) must read back as poisoned and evict the entry.
    #[test]
    fn any_single_bit_flip_in_a_stored_payload_is_poisoned() {
        let _obs = ses_obs::force_enabled(true);
        let c = ExplanationCache::new(8, 1 << 20);
        let stored: Explanation = vec![(3, 17, 0.75), (17, 40, f32::NAN), (0, 3, -0.0)];
        for edge in 0..stored.len() {
            for (word, bits) in [(0, usize::BITS), (1, usize::BITS), (2, u32::BITS)] {
                for bit in 0..bits {
                    c.put(5, stored.clone());
                    {
                        let mut st = c.lock();
                        let e = &mut st.map.get_mut(&5).expect("just stored").edges[edge];
                        match word {
                            0 => e.0 ^= 1 << bit,
                            1 => e.1 ^= 1 << bit,
                            _ => e.2 = f32::from_bits(e.2.to_bits() ^ (1 << bit)),
                        }
                    }
                    assert_eq!(
                        c.get(5),
                        Lookup::Poisoned,
                        "edge {edge} word {word} bit {bit}"
                    );
                    assert_eq!((c.len(), c.bytes()), (0, 0), "poisoned entry evicted");
                }
            }
        }
    }

    #[test]
    fn entry_cap_evicts_lru() {
        let _obs = ses_obs::force_enabled(true);
        let c = ExplanationCache::new(2, 1 << 20);
        c.put(1, ex(1));
        c.put(2, ex(1));
        let _ = c.get(1); // 1 is now more recent than 2
        c.put(3, ex(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(2), Lookup::Miss, "LRU entry 2 evicted");
        assert!(matches!(c.get(1), Lookup::Hit(_)));
        assert!(matches!(c.get(3), Lookup::Hit(_)));
    }

    #[test]
    fn byte_cap_respected() {
        let _obs = ses_obs::force_enabled(true);
        let per = entry_bytes(&ex(4));
        let c = ExplanationCache::new(100, 2 * per);
        c.put(1, ex(4));
        c.put(2, ex(4));
        c.put(3, ex(4));
        assert!(c.bytes() <= 2 * per);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn content_key_ignores_enumeration_order_and_orientation() {
        let k1 = content_key(5, 2, &[1, 2, 3], &[(1, 2), (2, 3)]);
        let k2 = content_key(5, 2, &[3, 1, 2], &[(3, 2), (2, 1)]);
        assert_eq!(k1, k2);
        // ... but not the content itself.
        assert_ne!(k1, content_key(5, 2, &[1, 2, 4], &[(1, 2), (2, 3)]));
        assert_ne!(k1, content_key(6, 2, &[1, 2, 3], &[(1, 2), (2, 3)]));
        assert_ne!(k1, content_key(5, 3, &[1, 2, 3], &[(1, 2), (2, 3)]));
    }
}
