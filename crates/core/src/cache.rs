//! Query-result caching: a stable fingerprint hasher and a sharded,
//! bounded LRU cache.
//!
//! Cache keys are persisted on disk by `polygamy-store` sessions, so the
//! fingerprint must be *stable* — identical across processes, platforms and
//! compiler releases. [`Fnv1a`] implements the 64-bit FNV-1a hash with
//! explicit little-endian framing; `std`'s `DefaultHasher` is documented to
//! change between releases and is never used for persisted keys.
//!
//! [`ShardedLruCache`] replaces the framework's original unbounded
//! `Mutex<HashMap>`: entries are spread over independently locked shards so
//! concurrent readers rarely contend, and each shard evicts its
//! least-recently-used entry once full, bounding memory under sustained
//! query traffic.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher with explicit framing helpers.
///
/// Unlike `std::hash::Hasher` implementations, the byte stream it consumes
/// is fully specified here (little-endian integers, length-prefixed
/// strings), so a fingerprint computed today can be compared against one
/// stored on disk years from now.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts a new hash at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Hashes a whole byte slice in one call.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.write(bytes);
        h.finish()
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Feeds a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` (stable across word sizes).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` by its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a length-prefixed string (framing prevents `"ab", "c"` from
    /// colliding with `"a", "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard: a bounded map with LRU eviction via monotonic access stamps.
///
/// Shards are small (capacity / shard count), so the O(capacity) eviction
/// scan on overflow is cheaper than maintaining an intrusive list and keeps
/// the structure trivially correct.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, (V, u64)>,
    tick: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            tick: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = tick;
            v.clone()
        })
    }

    fn insert(&mut self, key: K, value: V, capacity: usize) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.map.contains_key(&key) && self.map.len() >= capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(key, (value, self.tick));
        evicted
    }
}

/// A sharded, bounded, LRU-evicting cache safe for concurrent readers.
#[derive(Debug)]
pub struct ShardedLruCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_capacity: usize,
}

/// Shard count (power of two so the selector is a mask).
const N_SHARDS: usize = 8;

impl<K: Hash + Eq + Clone, V: Clone> ShardedLruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries overall
    /// (rounded up to at least one entry per shard).
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: (0..N_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity: capacity.div_ceil(N_SHARDS).max(1),
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * N_SHARDS
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        // Shard selection only needs good dispersion, not stability, but
        // FNV over std::hash keeps it deterministic for tests too.
        let mut h = Fnv1a::new();
        let mut adapter = FnvStdAdapter(&mut h);
        key.hash(&mut adapter);
        &self.shards[(h.finish() as usize) & (N_SHARDS - 1)]
    }

    /// Locks a shard, whether or not an earlier holder panicked: each
    /// step of `get` and `insert` leaves the shard a valid cache (at
    /// worst one entry short), so a panic elsewhere in a query never
    /// takes the cache down with it.
    fn lock(shard: &Mutex<Shard<K, V>>) -> MutexGuard<'_, Shard<K, V>> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        Self::lock(self.shard(key)).get(key)
    }

    /// Inserts `key → value`, evicting the shard's least-recently-used
    /// entry when the shard is full. Returns `true` when an older entry
    /// was evicted to make room — callers feed this into the registry's
    /// eviction counters.
    pub fn insert(&self, key: K, value: V) -> bool {
        Self::lock(self.shard(&key)).insert(key, value, self.per_shard_capacity)
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).map.len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            Self::lock(shard).map.clear();
        }
    }
}

/// Adapts [`Fnv1a`] to `std::hash::Hasher` for shard selection only (the
/// `Hash` impls of tuple keys feed through here; persisted fingerprints
/// never do).
struct FnvStdAdapter<'a>(&'a mut Fnv1a);

impl std::hash::Hasher for FnvStdAdapter<'_> {
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }
}

/// The framework/session query cache: per-pair results keyed by
/// `(dataset a, dataset b, clause fingerprint)`.
pub type QueryCache = ShardedLruCache<(usize, usize, u64), Arc<Vec<crate::Relationship>>>;

/// Default bound on cached per-pair results. At ~10 relationships per pair
/// this is a few MB — generous for serving, bounded under adversarial query
/// streams.
pub const DEFAULT_QUERY_CACHE_CAPACITY: usize = 4_096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv1a::hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_framing_prevents_concat_collisions() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn cache_get_insert() {
        let c: ShardedLruCache<u64, u64> = ShardedLruCache::new(64);
        assert!(c.is_empty());
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        // Capacity 8 over 8 shards = 1 entry per shard: inserting two keys
        // that land in the same shard must evict the older one.
        let c: ShardedLruCache<u64, u64> = ShardedLruCache::new(8);
        let mut evictions = 0usize;
        for k in 0..64 {
            if c.insert(k, k) {
                evictions += 1;
            }
        }
        assert!(c.len() <= c.capacity());
        // The insert return value accounts exactly for the entries that
        // went missing — the contract the registry's eviction counters
        // are built on.
        assert_eq!(evictions, 64 - c.len());
        // The last key inserted into its shard is still present.
        assert_eq!(c.get(&63), Some(63));
    }

    #[test]
    fn cache_recency_refresh_on_get() {
        // Single-shard-capacity 2: touch `a`, insert two more keys that hash
        // to the same shard; `a` must outlive the untouched middle key when
        // eviction strikes that shard.
        let c: ShardedLruCache<u64, u64> = ShardedLruCache::new(16); // 2/shard
                                                                     // Find three keys in one shard by probing.
        let mut same: Vec<u64> = Vec::new();
        let probe = |k: &u64| {
            let mut h = Fnv1a::new();
            let mut a = FnvStdAdapter(&mut h);
            std::hash::Hash::hash(k, &mut a);
            (h.finish() as usize) & (N_SHARDS - 1)
        };
        let target = probe(&0);
        for k in 0..1_000u64 {
            if probe(&k) == target {
                same.push(k);
                if same.len() == 3 {
                    break;
                }
            }
        }
        let (a, b, d) = (same[0], same[1], same[2]);
        c.insert(a, 1);
        c.insert(b, 2);
        assert_eq!(c.get(&a), Some(1)); // refresh a
        c.insert(d, 3); // shard full: evicts b (least recent)
        assert_eq!(c.get(&a), Some(1));
        assert_eq!(c.get(&b), None);
        assert_eq!(c.get(&d), Some(3));
    }

    /// A thread that panics while it holds a shard leaves the cache
    /// serving: the next reader of that shard still gets its entries, and
    /// inserts still land.
    #[test]
    fn lock_survives_holder_panic() {
        let c: QueryCache = ShardedLruCache::new(64);
        let key = (0, 1, 7);
        c.insert(key, Arc::new(Vec::new()));
        let held = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = ShardedLruCache::lock(c.shard(&key));
                panic!("query panicked while holding a shard");
            })
            .join()
        });
        assert!(held.is_err());
        assert!(c.shard(&key).is_poisoned());
        assert_eq!(c.get(&key).map(|rels| rels.len()), Some(0));
        c.insert((0, 1, 8), Arc::new(Vec::new()));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cache_concurrent_readers() {
        let c: std::sync::Arc<ShardedLruCache<u64, u64>> =
            std::sync::Arc::new(ShardedLruCache::new(1_024));
        for k in 0..256 {
            c.insert(k, k * 2);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        let k = (i * 7 + t) % 256;
                        assert_eq!(c.get(&k), Some(k * 2));
                    }
                });
            }
        });
    }
}
