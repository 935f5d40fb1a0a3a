//! The ν-cache: memoized certainty measures per canonical formula,
//! bounded and sharded.
//!
//! Every estimate this crate produces is a *deterministic* function of
//! (formula, method, options): the exact evaluators are closed forms, and
//! both Monte-Carlo schemes derive their RNG streams from the configured
//! seed. That makes ν safe to memoize — the cached value is bit-identical
//! to what a fresh run would produce — provided the key captures
//! everything the computation depends on. A key is one byte string:
//!
//! * an **options fingerprint** first, 8 bytes of
//!   [`crate::MeasureOptions::fingerprint`], which hashes the method
//!   choice and every option that can influence the output bits (ε, δ,
//!   seeds, thread counts, sampling policy, DNF budget, order limit);
//! * then a **formula group key**: the bytes a
//!   [`qarith_constraints::canonical::KeyEncoder`] builds (the
//!   structural key in general; the batch engine substitutes the coarser
//!   asymptotic key on the sampling route, where it is
//!   evaluation-equivalent — see `pipeline`). Equal keys are equal
//!   canonical forms under equal options, compared byte for byte —
//!   never a hash.
//!
//! [`crate::CertaintyEngine::prepare_batch`] writes both parts once per
//! group, so a plan's keys carry the fingerprint of the engine that
//! prepared it and a lookup is one probe with the key alone. An insert
//! shares the plan's `Arc<[u8]>` key instead of copying it.
//!
//! [`NuCache`] is the one cache every route attaches, from a single
//! `fig1` run to a serving process that runs for weeks:
//!
//! * **Sharding** — entries are distributed over N independently locked
//!   shards by a hash of the key, so concurrent lookups of different
//!   formulas contend only `1/N` of the time. The shard choice affects
//!   *placement only*: which shard holds a key can never influence the
//!   value returned for it.
//! * **Bounded memory** — each shard is one [`Lru`] map holding at most
//!   `budget_bytes / shards`, with least-recently-used eviction (every
//!   hit refreshes recency). The resident size is accounted per entry
//!   as key bytes + estimate size + a fixed bookkeeping overhead.
//! * **Observability** — hit/miss/entry/eviction/byte counters exported
//!   through the workspace's `as_pairs` convention
//!   ([`CacheStats::as_pairs`]), like every other stats block in
//!   `BENCH_*.json`.
//! * **Entries outlive writes** — a key is a canonical formula, not a
//!   relation, so a database write cannot make a resident entry wrong:
//!   a candidate's certainty is ν of its ground formula (Prop. 5.3),
//!   and a write that changes a grounding changes the key it looks up.
//!   The serving layer drops its plans on a write and keeps every
//!   entry; keys no grounding produces any more age out under the
//!   byte budget like any other cold entry.
//!
//! **Why eviction cannot change answers.** Evicting an entry only
//! moves the next request for it from the lookup path to the recompute
//! path, which produces the *bit-identical* value the cache would have
//! returned. Eviction changes cost, never certainties; the serving
//! tests and `tests/method_consistency.rs` lock this in by forcing a
//! tiny budget and comparing bits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::estimate::CertaintyEstimate;
use crate::lru::Lru;

/// Fixed per-entry bookkeeping charge (map nodes, the recency index,
/// and the `Arc<[u8]>` header) on top of key and estimate bytes. The
/// point of the budget is a reliable *order of magnitude*, not
/// allocator-exact accounting. With the key's 8-byte options
/// fingerprint that makes 96 fixed bytes per entry, the charge the
/// gated `resident_bytes` counters were recorded under.
const ENTRY_OVERHEAD_BYTES: usize = 88;

/// Configuration of a [`NuCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NuCacheConfig {
    /// Number of independently locked shards. Rounded up to at least 1.
    pub shards: usize,
    /// Total memory budget across all shards, in (accounted) bytes.
    /// Each shard enforces `budget_bytes / shards`.
    pub budget_bytes: usize,
}

impl Default for NuCacheConfig {
    /// 16 shards, 64 MiB — roomy for the workload suite at every scale
    /// while still bounding a service that runs for weeks.
    fn default() -> Self {
        NuCacheConfig { shards: 16, budget_bytes: 64 << 20 }
    }
}

/// Aggregate counters of a [`NuCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Entries evicted under the memory budget since creation.
    pub evictions: u64,
    /// Accounted bytes currently resident.
    pub resident_bytes: u64,
    /// Number of shards (constant; exported so one stats block is
    /// self-describing).
    pub shards: u64,
}

impl CacheStats {
    /// The counters as stable `(name, value)` pairs, in declaration
    /// order — the machine-readable export `serve_bench` serializes
    /// into `BENCH_*.json`. Names are part of the JSON schema: renaming
    /// one is a baseline-breaking change.
    pub fn as_pairs(&self) -> [(&'static str, u64); 6] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("entries", self.entries),
            ("evictions", self.evictions),
            ("resident_bytes", self.resident_bytes),
            ("shards", self.shards),
        ]
    }
}

/// A bounded, sharded, LRU-evicting memo table for `ν` results. See
/// the module docs for the policy and its soundness argument.
#[derive(Debug)]
pub struct NuCache {
    shards: Vec<Mutex<Lru<Arc<[u8]>, CertaintyEstimate>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for NuCache {
    /// An empty cache under [`NuCacheConfig::default`].
    fn default() -> Self {
        NuCache::new(NuCacheConfig::default())
    }
}

impl NuCache {
    /// An empty cache under the given configuration.
    pub fn new(config: NuCacheConfig) -> NuCache {
        let shards = config.shards.max(1);
        NuCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Lru::new(config.budget_bytes / shards)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up the estimate for a key (options fingerprint, then group
    /// key; see the module docs). Served entries are marked
    /// [`CertaintyEstimate::cached`].
    pub fn get(&self, key: &[u8]) -> Option<CertaintyEstimate> {
        // Poison policy: a poisoned shard degrades to a permanent miss.
        // This is sound for the same reason eviction is — every entry
        // is a deterministic function of its key, so losing access to a
        // shard costs recomputation, never correctness. Requests keep
        // flowing at 15/16ths capacity instead of failing.
        let found = match self.shard_of(key).lock() {
            Ok(mut shard) => shard.get(key).cloned(),
            Err(_) => None,
        };
        match found {
            Some(mut estimate) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                estimate.cached = true;
                Some(estimate)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records an estimate, evicting least-recently-used entries past
    /// the shard's budget. The entry shares the caller's key (a plan's
    /// group key) instead of copying it; it is still charged the key's
    /// length. Last write wins; racing writers hold bit-identical values
    /// by construction.
    pub fn insert(&self, key: &Arc<[u8]>, estimate: CertaintyEstimate) {
        let bytes = NuCache::entry_bytes(key);
        // Poisoned shard: drop the insert (see `get` — the shard is a
        // permanent miss, so storing into it would never be observed).
        // What the insert displaces is freed after the guard.
        let _displaced = match self.shard_of(key).lock() {
            Ok(mut shard) => shard.insert(Arc::clone(key), estimate, bytes),
            Err(_) => return,
        };
    }

    /// Current aggregate counters.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            shards: self.shards.len() as u64,
            ..CacheStats::default()
        };
        for shard in &self.shards {
            // A poisoned shard is skipped: its entries are unreachable
            // (lookups treat it as a permanent miss), so not counting
            // them matches what requests observe.
            let Ok(shard) = shard.lock() else { continue };
            stats.entries += shard.len() as u64;
            stats.resident_bytes += shard.cost() as u64;
            stats.evictions += shard.evictions();
        }
        stats
    }

    /// FNV-1a shard placement. Stability across processes is not
    /// required (placement is invisible in results), but a fixed
    /// function keeps eviction traces reproducible for a fixed request
    /// order, which the serving tests rely on.
    fn shard_of(&self, key: &[u8]) -> &Mutex<Lru<Arc<[u8]>, CertaintyEstimate>> {
        let h = qarith_numeric::Fnv1a64::digest(key);
        // analyze: allow(panic-index, reason = "h % len < len by construction, and len >= 1 is forced in new()")
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn entry_bytes(key: &[u8]) -> usize {
        key.len() + std::mem::size_of::<CertaintyEstimate>() + ENTRY_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_numeric::Rational;

    fn est(v: i128, d: i128) -> CertaintyEstimate {
        CertaintyEstimate::exact_rational(Rational::new(v, d), 1)
    }

    fn key(i: usize) -> Arc<[u8]> {
        Arc::from(format!("a:group-key-{i:04}").into_bytes())
    }

    fn bytes(key: &[u8]) -> Arc<[u8]> {
        Arc::from(key)
    }

    #[test]
    fn get_insert_roundtrip_marks_cached() {
        let cache = NuCache::default();
        assert!(cache.get(b"k").is_none());
        cache.insert(&bytes(b"k"), est(1, 2));
        let got = cache.get(b"k").expect("present");
        assert_eq!(got.exact, Some(Rational::new(1, 2)));
        assert!(got.cached);
        assert!(cache.get(b"kk").is_none(), "keys match byte for byte");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn an_entry_shares_the_callers_key() {
        let cache = NuCache::default();
        let key = key(0);
        cache.insert(&key, est(1, 2));
        // The caller's handle, plus the shard's map and recency index:
        // three handles on one allocation, where a copy would leave one.
        assert_eq!(Arc::strong_count(&key), 3, "the entry holds the caller's allocation");
        // Still charged the key's length.
        assert_eq!(cache.stats().resident_bytes, NuCache::entry_bytes(&key) as u64);
        cache.insert(&key, est(1, 2));
        assert_eq!(Arc::strong_count(&key), 3, "a replacement releases the handles it displaces");
        drop(cache);
        assert_eq!(Arc::strong_count(&key), 1);
    }

    #[test]
    fn budget_is_respected_and_eviction_is_lru() {
        // Room for ~4 entries per shard in a single shard.
        let per_entry = NuCache::entry_bytes(&key(0));
        let config = NuCacheConfig { shards: 1, budget_bytes: 4 * per_entry };
        let cache = NuCache::new(config);
        for i in 0..4 {
            cache.insert(&key(i), est(1, i as i128 + 1));
        }
        assert_eq!(cache.stats().evictions, 0);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.get(&key(0)).is_some());
        cache.insert(&key(4), est(1, 5));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= config.budget_bytes as u64);
        assert!(cache.get(&key(1)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(0)).is_some(), "recently used entry survives");
        assert!(cache.get(&key(4)).is_some(), "new entry resident");
    }

    #[test]
    fn eviction_only_costs_recomputation() {
        // A degenerate budget evicts constantly; values must still be
        // exactly what was inserted whenever they are present.
        let config = NuCacheConfig { shards: 2, budget_bytes: 3 * NuCache::entry_bytes(&key(0)) };
        let cache = NuCache::new(config);
        for round in 0..3 {
            for i in 0..16 {
                cache.insert(&key(i), est(1, i as i128 + 1));
                let got = cache.get(&key(i)).expect("just inserted (fits one entry)");
                assert_eq!(got.exact, Some(Rational::new(1, i as i128 + 1)), "round {round}");
            }
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "tiny budget must evict");
        assert!(stats.resident_bytes <= config.budget_bytes as u64);
    }

    #[test]
    fn replacement_does_not_leak_accounting() {
        let cache = NuCache::new(NuCacheConfig { shards: 1, budget_bytes: 1 << 20 });
        for _ in 0..100 {
            cache.insert(&bytes(b"same"), est(1, 3));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.resident_bytes, NuCache::entry_bytes(b"same") as u64);
    }

    #[test]
    fn shared_across_threads() {
        let cache = NuCache::default();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50 {
                        let key: Arc<[u8]> = Arc::from(format!("t{t}-{i}").into_bytes());
                        cache.insert(&key, est(1, 4));
                        assert!(cache.get(&key).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 200);
    }
}
