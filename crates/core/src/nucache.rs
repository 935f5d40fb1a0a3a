//! The ν-cache: memoized certainty measures per canonical formula,
//! bounded and sharded.
//!
//! Every estimate this crate produces is a *deterministic* function of
//! (formula, method, options): the exact evaluators are closed forms, and
//! both Monte-Carlo schemes derive their RNG streams from the configured
//! seed. That makes ν safe to memoize — the cached value is bit-identical
//! to what a fresh run would produce — provided the key captures
//! everything the computation depends on:
//!
//! * a **formula group key** from [`qarith_constraints::canonical`]
//!   (the structural key in general; the batch engine substitutes the
//!   coarser asymptotic key on the sampling route, where it is
//!   evaluation-equivalent — see `pipeline`);
//! * an **options fingerprint** hashing the method choice and every
//!   option that can influence the output bits (ε, δ, seeds, thread
//!   counts, sampling policy, DNF budget, order limit).
//!
//! [`NuCache`] is the one cache every route attaches, from a single
//! `fig1` run to a serving process that runs for weeks:
//!
//! * **Sharding** — entries are distributed over N independently locked
//!   shards by a hash of the group key, so concurrent lookups of
//!   different formulas contend only `1/N` of the time. The shard
//!   choice affects *placement only*: which shard holds a key can never
//!   influence the value returned for it.
//! * **Bounded memory** — each shard enforces `budget_bytes / shards`
//!   with least-recently-used eviction (every hit refreshes recency).
//!   The resident size is accounted per entry as key bytes + estimate
//!   size + a fixed bookkeeping overhead.
//! * **Observability** — hit/miss/entry/eviction/byte counters exported
//!   through the workspace's `as_pairs` convention
//!   ([`CacheStats::as_pairs`]), like every other stats block in
//!   `BENCH_*.json`.
//! * **Delta-aware invalidation** — a relation → group-key index
//!   ([`NuCache::register`]), fed by the serving layer at plan-build
//!   time, lets a committed write drop exactly the keys whose
//!   grounding consulted a touched relation
//!   ([`NuCache::invalidate_relations`]) instead of nuking the
//!   cache. Like eviction, this is *hygiene, not correctness*: keys
//!   are content-addressed canonical formulas, so an entry a write
//!   logically supersedes is simply never looked up again by the new
//!   grounding — invalidation reclaims its memory and keeps the
//!   counters honest. Over-registration (a key filed under a relation
//!   whose change doesn't affect it) is therefore sound too: it can
//!   only cost recomputation, and so can a key the index forgets.
//!
//! **Why eviction cannot change answers.** Evicting an entry only
//! moves the next request for it from the lookup path to the recompute
//! path, which produces the *bit-identical* value the cache would have
//! returned. Eviction changes cost, never certainties; the serving
//! tests and `tests/method_consistency.rs` lock this in by forcing a
//! tiny budget and comparing bits.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::estimate::CertaintyEstimate;

/// Fixed per-entry bookkeeping charge (map nodes, the recency index,
/// and the `Arc<str>` header) on top of key and estimate bytes. The
/// point of the budget is a reliable *order of magnitude*, not
/// allocator-exact accounting.
const ENTRY_OVERHEAD_BYTES: usize = 96;

/// The smallest delta-index size (relation → key memberships) at which
/// [`NuCache::register`] sweeps out keys no shard holds.
const DELTA_SWEEP_FLOOR: usize = 1024;

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
    /// Distinct group keys dropped by delta-aware invalidation since
    /// creation (only keys that actually held entries count — draining
    /// an already-evicted key is not an invalidation).
    pub invalidations: u64,
    /// Entries dropped by invalidation (≥ `invalidations`: one key may
    /// hold several fingerprints).
    pub invalidated_entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters as stable `(name, value)` pairs, in declaration
    /// order — the machine-readable export `serve_bench` serializes
    /// into `BENCH_*.json`. Names are part of the JSON schema: renaming
    /// one is a baseline-breaking change.
    pub fn as_pairs(&self) -> [(&'static str, u64); 8] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("entries", self.entries),
            ("evictions", self.evictions),
            ("resident_bytes", self.resident_bytes),
            ("shards", self.shards),
            ("invalidations", self.invalidations),
            ("invalidated_entries", self.invalidated_entries),
        ]
    }
}

/// One stored estimate.
struct Entry {
    estimate: CertaintyEstimate,
    /// Position in the shard's recency index.
    tick: u64,
    /// Accounted size (subtracted back on eviction).
    bytes: usize,
}

/// One shard: a two-level map (group key → fingerprint → entry, so
/// lookups probe with `&str` and never allocate) plus a recency index.
/// The key `Arc<str>` is shared between map and index, so a recency
/// touch moves 16 bytes, not the (large) key string.
#[derive(Default)]
struct ShardInner {
    map: HashMap<Arc<str>, HashMap<u64, Entry>>,
    /// tick → (group key, fingerprint); the smallest tick is the least
    /// recently used entry. Ticks are unique within a shard.
    recency: BTreeMap<u64, (Arc<str>, u64)>,
    next_tick: u64,
    resident_bytes: usize,
    evictions: u64,
}

impl ShardInner {
    fn touch(&mut self, key: &Arc<str>, fingerprint: u64) {
        let tick = self.next_tick;
        self.next_tick += 1;
        let entry = self.map.get_mut(key).and_then(|by_fp| by_fp.get_mut(&fingerprint));
        // Callers pass a key they just found under this same lock, so
        // the entry is present; tolerating absence anyway (a skipped
        // recency refresh) keeps the request path panic-free.
        let Some(entry) = entry else { return };
        let old = std::mem::replace(&mut entry.tick, tick);
        self.recency.remove(&old);
        self.recency.insert(tick, (key.clone(), fingerprint));
    }

    /// Drops every fingerprint stored under `key`, returning how many
    /// entries that was (0 when the key is absent — evicted, or never
    /// resident in this shard).
    fn remove_key(&mut self, key: &str) -> usize {
        let Some(by_fp) = self.map.remove(key) else { return 0 };
        for entry in by_fp.values() {
            self.recency.remove(&entry.tick);
            self.resident_bytes -= entry.bytes;
        }
        by_fp.len()
    }

    fn evict_to(&mut self, budget: usize) {
        while self.resident_bytes > budget {
            let Some((_, (key, fingerprint))) = self.recency.pop_first() else { break };
            let Some(by_fp) = self.map.get_mut(&key) else { continue };
            if let Some(entry) = by_fp.remove(&fingerprint) {
                self.resident_bytes -= entry.bytes;
                self.evictions += 1;
            }
            if by_fp.is_empty() {
                self.map.remove(&key);
            }
        }
    }
}

// ShardInner has no Debug (Arc<str> maps are noise); summarize instead.
impl std::fmt::Debug for ShardInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardInner")
            .field("entries", &self.recency.len())
            .field("resident_bytes", &self.resident_bytes)
            .field("evictions", &self.evictions)
            .finish()
    }
}

/// The delta index: relation name → group keys whose grounding
/// consulted it. Keys are `Arc<str>` shared across relations.
#[derive(Debug)]
struct DeltaIndex {
    by_relation: HashMap<String, HashSet<Arc<str>>>,
    /// (relation, key) memberships across every set.
    memberships: usize,
    /// The size at which the next registration first sweeps out keys
    /// no shard holds: twice the survivors of the last sweep, and at
    /// least [`DELTA_SWEEP_FLOOR`].
    sweep_at: usize,
}

impl Default for DeltaIndex {
    fn default() -> Self {
        DeltaIndex { by_relation: HashMap::new(), memberships: 0, sweep_at: DELTA_SWEEP_FLOOR }
    }
}

impl DeltaIndex {
    /// Removes every key registered under any of `touched` from every
    /// relation's set, returning the keys.
    fn drain(&mut self, touched: &[String]) -> BTreeSet<Arc<str>> {
        let keys: BTreeSet<Arc<str>> =
            touched.iter().filter_map(|rel| self.by_relation.remove(rel)).flatten().collect();
        let mut memberships = 0;
        // analyze: allow(hash-iteration, reason = "removing one key set from each relation's set, and counting what remains, is order-insensitive")
        for set in self.by_relation.values_mut() {
            for key in &keys {
                set.remove(key);
            }
            memberships += set.len();
        }
        self.memberships = memberships;
        keys
    }

    /// Keeps only the keys `resident` accepts and moves the mark.
    fn sweep(&mut self, resident: impl Fn(&str) -> bool) {
        let mut memberships = 0;
        // analyze: allow(hash-iteration, reason = "a per-key residency filter and a count of survivors are order-insensitive")
        for set in self.by_relation.values_mut() {
            set.retain(|key| resident(key));
            memberships += set.len();
        }
        self.memberships = memberships;
        self.sweep_at = DELTA_SWEEP_FLOOR.max(2 * memberships);
    }
}

/// A bounded, sharded, LRU-evicting memo table for `ν` results. See
/// the module docs for the policy and its soundness argument.
#[derive(Debug)]
pub struct NuCache {
    shards: Vec<Mutex<ShardInner>>,
    per_shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// `NuCacheDeltaIndex` in the declared lock hierarchy — above the
    /// shard locks, so registration may probe the shards while holding
    /// it. [`NuCache::invalidate_relations`] drains the touched
    /// relations' keys from every set, and registration sweeps out
    /// keys the shards evicted, so the index stays proportional to the
    /// cache it indexes.
    delta: Mutex<DeltaIndex>,
    invalidations: AtomicU64,
    invalidated_entries: AtomicU64,
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
            shards: (0..shards).map(|_| Mutex::new(ShardInner::default())).collect(),
            per_shard_budget: config.budget_bytes / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            delta: Mutex::new(DeltaIndex::default()),
            invalidations: AtomicU64::new(0),
            invalidated_entries: AtomicU64::new(0),
        }
    }

    /// Looks up the estimate for a formula group key under an options
    /// fingerprint. Served entries are marked
    /// [`CertaintyEstimate::cached`].
    pub fn get(&self, group_key: &str, fingerprint: u64) -> Option<CertaintyEstimate> {
        // Poison policy: a poisoned shard degrades to a permanent miss.
        // This is sound for the same reason eviction is — every entry
        // is a deterministic function of its key, so losing access to a
        // shard costs recomputation, never correctness. Requests keep
        // flowing at 15/16ths capacity instead of failing.
        let Ok(mut inner) = self.shard_of(group_key).lock() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let found = inner.map.get_key_value(group_key).and_then(|(key, by_fp)| {
            by_fp.get(&fingerprint).map(|e| (key.clone(), e.estimate.clone()))
        });
        match found {
            Some((key, mut estimate)) => {
                inner.touch(&key, fingerprint);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                estimate.cached = true;
                Some(estimate)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records an estimate, evicting least-recently-used entries past
    /// the shard's budget. Last write wins; racing writers hold
    /// bit-identical values by construction.
    pub fn insert(&self, group_key: String, fingerprint: u64, estimate: CertaintyEstimate) {
        let bytes = NuCache::entry_bytes(&group_key);
        // Poisoned shard: drop the insert (see `get` — the shard is a
        // permanent miss, so storing into it would never be observed).
        let Ok(mut inner) = self.shard_of(&group_key).lock() else { return };
        let key: Arc<str> = match inner.map.get_key_value(group_key.as_str()) {
            Some((key, _)) => key.clone(),
            None => Arc::from(group_key.into_boxed_str()),
        };
        let tick = inner.next_tick;
        inner.next_tick += 1;
        let replaced = inner
            .map
            .entry(key.clone())
            .or_default()
            .insert(fingerprint, Entry { estimate, tick, bytes });
        if let Some(old) = replaced {
            // Replacement: racing writers hold bit-identical values, so
            // only the recency/accounting bookkeeping changes.
            inner.resident_bytes -= old.bytes;
            inner.recency.remove(&old.tick);
        }
        inner.resident_bytes += bytes;
        inner.recency.insert(tick, (key, fingerprint));
        inner.evict_to(self.per_shard_budget);
    }

    /// Files `group_keys` under each of `relations` in the delta
    /// index. The serving layer calls this at plan-build time, when
    /// both the plan's relation footprint and its group keys are in
    /// hand. Once the index reaches its sweep mark, keys no shard holds
    /// (evicted, or never measured) leave it first. Over-registration
    /// and forgetting are both sound (see the module docs); so is a
    /// poisoned index, which registers nothing — stale entries are
    /// unreachable by construction.
    pub fn register<'k>(&self, relations: &[String], group_keys: impl Iterator<Item = &'k str>) {
        if relations.is_empty() {
            return;
        }
        let keys: Vec<Arc<str>> = group_keys.map(Arc::from).collect();
        if keys.is_empty() {
            return;
        }
        let Ok(mut delta) = self.delta.lock() else { return };
        if delta.memberships >= delta.sweep_at {
            delta.sweep(|key| self.holds(key));
        }
        let delta = &mut *delta;
        for relation in relations {
            let set = delta.by_relation.entry(relation.clone()).or_default();
            for key in &keys {
                if set.insert(key.clone()) {
                    delta.memberships += 1;
                }
            }
        }
    }

    /// Drops every entry whose group key is registered under any of
    /// `touched`, returning `(distinct keys dropped, entries
    /// dropped)`. The drained keys leave every relation's set;
    /// survivors (keys registered only under untouched relations) keep
    /// their entries *and* their index membership.
    pub fn invalidate_relations(&self, touched: &[String]) -> (u64, u64) {
        if touched.is_empty() {
            return (0, 0);
        }
        // Drain under the index lock, mutate shards after it is
        // released (the hierarchy permits holding it, but the drain
        // doesn't need to).
        let keys = {
            let Ok(mut delta) = self.delta.lock() else { return (0, 0) };
            delta.drain(touched)
        };
        let mut dropped_keys = 0u64;
        let mut dropped_entries = 0u64;
        for key in keys {
            let Ok(mut inner) = self.shard_of(&key).lock() else { continue };
            let removed = inner.remove_key(&key);
            drop(inner);
            if removed > 0 {
                dropped_keys += 1;
                dropped_entries += removed as u64;
            }
        }
        self.invalidations.fetch_add(dropped_keys, Ordering::Relaxed);
        self.invalidated_entries.fetch_add(dropped_entries, Ordering::Relaxed);
        (dropped_keys, dropped_entries)
    }

    /// Current aggregate counters.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            shards: self.shards.len() as u64,
            invalidations: self.invalidations.load(Ordering::Relaxed),
            invalidated_entries: self.invalidated_entries.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            // A poisoned shard is skipped: its entries are unreachable
            // (lookups treat it as a permanent miss), so not counting
            // them matches what requests observe.
            let Ok(inner) = shard.lock() else { continue };
            stats.entries += inner.recency.len() as u64;
            stats.resident_bytes += inner.resident_bytes as u64;
            stats.evictions += inner.evictions;
        }
        stats
    }

    /// Whether some shard holds an entry under `key` (a poisoned shard
    /// holds nothing a lookup can reach).
    fn holds(&self, key: &str) -> bool {
        self.shard_of(key).lock().is_ok_and(|inner| inner.map.contains_key(key))
    }

    /// FNV-1a shard placement. Stability across processes is not
    /// required (placement is invisible in results), but a fixed
    /// function keeps eviction traces reproducible for a fixed request
    /// order, which the serving tests rely on.
    fn shard_of(&self, group_key: &str) -> &Mutex<ShardInner> {
        let h = qarith_numeric::Fnv1a64::digest(group_key.as_bytes());
        // analyze: allow(panic-index, reason = "h % len < len by construction, and len >= 1 is forced in new()")
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn entry_bytes(key: &str) -> usize {
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

    fn key(i: usize) -> String {
        format!("a:group-key-{i:04}")
    }

    #[test]
    fn get_insert_roundtrip_marks_cached() {
        let cache = NuCache::default();
        assert!(cache.get("k", 7).is_none());
        cache.insert("k".into(), 7, est(1, 2));
        let got = cache.get("k", 7).expect("present");
        assert_eq!(got.exact, Some(Rational::new(1, 2)));
        assert!(got.cached);
        assert!(cache.get("k", 8).is_none(), "fingerprint is part of the key");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn budget_is_respected_and_eviction_is_lru() {
        // Room for ~4 entries per shard in a single shard.
        let per_entry = NuCache::entry_bytes(&key(0));
        let config = NuCacheConfig { shards: 1, budget_bytes: 4 * per_entry };
        let cache = NuCache::new(config);
        for i in 0..4 {
            cache.insert(key(i), 0, est(1, i as i128 + 1));
        }
        assert_eq!(cache.stats().evictions, 0);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.get(&key(0), 0).is_some());
        cache.insert(key(4), 0, est(1, 5));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= config.budget_bytes as u64);
        assert!(cache.get(&key(1), 0).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(0), 0).is_some(), "recently used entry survives");
        assert!(cache.get(&key(4), 0).is_some(), "new entry resident");
    }

    #[test]
    fn eviction_only_costs_recomputation() {
        // A degenerate budget evicts constantly; values must still be
        // exactly what was inserted whenever they are present.
        let config = NuCacheConfig { shards: 2, budget_bytes: 3 * NuCache::entry_bytes(&key(0)) };
        let cache = NuCache::new(config);
        for round in 0..3 {
            for i in 0..16 {
                cache.insert(key(i), 9, est(1, i as i128 + 1));
                let got = cache.get(&key(i), 9).expect("just inserted (fits one entry)");
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
            cache.insert("same".into(), 1, est(1, 3));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.resident_bytes, NuCache::entry_bytes("same") as u64);
    }

    #[test]
    fn shared_across_threads() {
        let cache = NuCache::default();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50 {
                        cache.insert(format!("t{t}-{i}"), 0, est(1, 4));
                        assert!(cache.get(&format!("t{t}-{i}"), 0).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 200);
    }

    #[test]
    fn invalidation_is_selective_and_survivors_hit() {
        let cache = NuCache::default();
        for i in 0..4 {
            cache.insert(key(i), 1, est(1, i as i128 + 1));
        }
        cache.register(&["Orders".to_string()], [key(0), key(1)].iter().map(String::as_str));
        cache.register(&["Market".to_string()], [key(1), key(2)].iter().map(String::as_str));
        // key(3) is unregistered: writes can never touch it.

        let (keys, entries) = cache.invalidate_relations(&["Orders".to_string()]);
        assert_eq!((keys, entries), (2, 2), "both Orders keys drop, nothing else");
        assert!(cache.get(&key(0), 1).is_none());
        assert!(cache.get(&key(1), 1).is_none(), "shared key drops with either relation");
        assert!(cache.get(&key(2), 1).is_some(), "Market-only key survives");
        assert!(cache.get(&key(3), 1).is_some(), "unregistered key survives");
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.invalidated_entries), (2, 2));
        assert_eq!(stats.entries, 2);

        // Draining Market again only drops what is still resident:
        // key(1) is gone, so only key(2) counts.
        let (keys, entries) = cache.invalidate_relations(&["Market".to_string()]);
        assert_eq!((keys, entries), (1, 1));
        assert!(cache.get(&key(2), 1).is_none());
        assert!(cache.get(&key(3), 1).is_some());
    }

    #[test]
    fn invalidation_drops_a_key_from_every_relation() {
        let cache = NuCache::default();
        cache.insert(key(0), 1, est(1, 2));
        let both = ["Orders".to_string(), "Market".to_string()];
        cache.register(&both, [key(0)].iter().map(String::as_str));
        assert_eq!(cache.invalidate_relations(&both[..1]), (1, 1));
        let delta = cache.delta.lock().expect("index");
        assert_eq!(delta.memberships, 0);
        assert!(delta.by_relation.values().all(HashSet::is_empty), "{delta:?}");
    }

    #[test]
    fn delta_index_is_bounded_by_the_cache_it_indexes() {
        // Room for 4 entries; register-then-insert as a plan build and
        // its first execution do, for 4× the sweep floor's worth of keys.
        let config = NuCacheConfig { shards: 1, budget_bytes: 4 * NuCache::entry_bytes(&key(0)) };
        let cache = NuCache::new(config);
        let relations = ["Orders".to_string()];
        for i in 0..4 * DELTA_SWEEP_FLOOR {
            cache.register(&relations, [key(i)].iter().map(String::as_str));
            cache.insert(key(i), 1, est(1, 2));
        }
        let resident = cache.stats().entries as usize;
        let indexed = cache.delta.lock().expect("index").memberships;
        assert!(
            indexed <= DELTA_SWEEP_FLOOR.max(2 * resident),
            "{indexed} keys indexed for {resident} resident entries"
        );
    }

    #[test]
    fn invalidating_unregistered_relations_is_a_noop() {
        let cache = NuCache::default();
        cache.insert(key(0), 1, est(1, 2));
        assert_eq!(cache.invalidate_relations(&["Nothing".to_string()]), (0, 0));
        assert_eq!(cache.invalidate_relations(&[]), (0, 0));
        assert!(cache.get(&key(0), 1).is_some());
    }
}
