//! One bounded least-recently-used map, the eviction policy of every
//! serving cache: each [`crate::NuCache`] shard (cost = an entry's
//! accounted bytes), and `qarith-serve`'s plan cache and text memo
//! (cost 1 per entry).
//!
//! Every entry carries a cost, and the map holds at most its budget's
//! worth: an insert evicts least-recently-used entries until the summed
//! cost fits, and a hit refreshes its entry's recency. Whatever an
//! insert or [`Lru::retain`] takes out is handed back to the caller, so
//! a caller holding the map behind a lock can free it after the guard.
//!
//! Recency is a tick per entry, listed in a `BTreeMap` from tick to key:
//! the smallest tick is the least recently used entry, and
//! [`Lru::retain`] walks that order, never the hash map's, so which
//! entries a sweep visits first is a function of the access history
//! alone.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A map bounded by the summed cost of its entries, evicting least
/// recently used entries first. Keys are cheap to clone (`Arc<[u8]>`,
/// `Arc<str>`): the map and the recency index share each one.
pub struct Lru<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// tick → key, one record per entry; ticks are unique.
    recency: BTreeMap<u64, K>,
    next_tick: u64,
    cost: usize,
    budget: usize,
    evictions: u64,
}

struct Entry<V> {
    value: V,
    /// The entry's key in the recency index.
    tick: u64,
    cost: usize,
}

impl<K: Clone + Eq + Hash, V> Lru<K, V> {
    /// An empty map that holds at most `budget` summed cost.
    pub fn new(budget: usize) -> Lru<K, V> {
        Lru {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            next_tick: 0,
            cost: 0,
            budget,
            evictions: 0,
        }
    }

    /// The value under `key`, made the most recently used entry: one
    /// hash probe, plus moving the key's record in the recency index.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.entries.get_mut(key)?;
        let old = std::mem::replace(&mut entry.tick, self.next_tick);
        if let Some(key) = self.recency.remove(&old) {
            self.recency.insert(self.next_tick, key);
        }
        self.next_tick += 1;
        Some(&entry.value)
    }

    /// Stores `value` under `key` as the most recently used entry, then
    /// evicts least-recently-used entries until the summed cost fits the
    /// budget (an entry costlier than the whole budget evicts itself).
    /// Returns every value taken out: the one `key` held before, then
    /// the evicted ones, least recent first.
    pub fn insert(&mut self, key: K, value: V, cost: usize) -> Vec<V> {
        let mut displaced = Vec::new();
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(old) = self.entries.insert(key.clone(), Entry { value, tick, cost }) {
            self.recency.remove(&old.tick);
            self.cost -= old.cost;
            displaced.push(old.value);
        }
        self.recency.insert(tick, key);
        self.cost += cost;
        while self.cost > self.budget {
            let Some((_, key)) = self.recency.pop_first() else { break };
            if let Some(entry) = self.entries.remove(&key) {
                self.cost -= entry.cost;
                self.evictions += 1;
                displaced.push(entry.value);
            }
        }
        displaced
    }

    /// Keeps the entries `keep` accepts (it may update them), visiting
    /// them least recently used first, and returns the values of the
    /// rest. Recency is left as it was.
    pub fn retain(&mut self, mut keep: impl FnMut(&mut V) -> bool) -> Vec<V> {
        let mut removed = Vec::new();
        let (entries, cost) = (&mut self.entries, &mut self.cost);
        self.recency.retain(|_, key| {
            if entries.get_mut(key).is_some_and(|entry| keep(&mut entry.value)) {
                return true;
            }
            if let Some(entry) = entries.remove(key) {
                *cost -= entry.cost;
                removed.push(entry.value);
            }
            false
        });
        removed
    }

    /// Entries resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The summed cost of the resident entries (at most the budget).
    pub fn cost(&self) -> usize {
        self.cost
    }

    /// Entries evicted under the budget since creation (replacements
    /// and [`Lru::retain`] removals are not evictions).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

// Keys and values are noise in a service's debug output; summarize.
impl<K, V> std::fmt::Debug for Lru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lru")
            .field("entries", &self.entries.len())
            .field("cost", &self.cost)
            .field("budget", &self.budget)
            .field("evictions", &self.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn lru(budget: usize) -> Lru<Arc<str>, u32> {
        Lru::new(budget)
    }

    /// A hit refreshes recency, so the next insert past the budget
    /// evicts the entry used least recently, not the oldest one.
    #[test]
    fn a_hit_moves_its_entry_to_the_back_of_the_eviction_order() {
        let mut cache = lru(3);
        for (i, key) in ["a", "b", "c"].into_iter().enumerate() {
            assert!(cache.insert(key.into(), i as u32, 1).is_empty());
        }
        assert_eq!(cache.get("a"), Some(&0));
        assert_eq!(cache.insert("d".into(), 3, 1), [1], "b is the least recently used");
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.insert("e".into(), 4, 1), [2]);
        assert_eq!((cache.len(), cache.cost(), cache.evictions()), (3, 3, 2));
        assert_eq!(cache.get("a"), Some(&0));
    }

    /// Costs add up against the budget; a replacement hands back the
    /// old value without counting an eviction, and an entry costlier
    /// than the whole budget evicts itself last.
    #[test]
    fn costs_bound_the_map_and_every_displaced_value_comes_back() {
        let mut cache = lru(10);
        assert!(cache.insert("a".into(), 1, 4).is_empty());
        assert!(cache.insert("b".into(), 2, 4).is_empty());
        assert_eq!(cache.insert("a".into(), 3, 5), [1], "a replacement, not an eviction");
        assert_eq!((cache.cost(), cache.evictions()), (9, 0));
        assert_eq!(cache.insert("c".into(), 4, 2), [2], "b is least recent");
        assert_eq!(cache.cost(), 7);
        assert_eq!(cache.insert("huge".into(), 5, 11), [3, 4, 5]);
        assert!(cache.is_empty());
        assert_eq!((cache.cost(), cache.evictions()), (0, 4));
    }

    /// `retain` visits least recently used first, may update what it
    /// keeps, and hands back what it drops without touching recency.
    #[test]
    fn retain_walks_recency_order() {
        let mut cache = lru(4);
        for (i, key) in ["a", "b", "c", "d"].into_iter().enumerate() {
            cache.insert(key.into(), i as u32, 1);
        }
        cache.get("a");
        let mut visited = Vec::new();
        let removed = cache.retain(|v| {
            visited.push(*v);
            *v += 10;
            *v % 2 == 0
        });
        assert_eq!(visited, [1, 2, 3, 0]);
        assert_eq!(removed, [11, 13]);
        assert_eq!((cache.len(), cache.cost(), cache.evictions()), (2, 2, 0));
        assert_eq!(cache.get("c"), Some(&12));
        assert!(cache.insert("e".into(), 5, 1).is_empty());
        assert!(cache.insert("f".into(), 6, 1).is_empty());
        assert_eq!(cache.insert("g".into(), 7, 1), [10], "a, untouched since, goes first");
    }
}
