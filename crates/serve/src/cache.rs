//! Hot-row LRU cache.
//!
//! Power-law traffic (§4 of the paper) concentrates most lookups on a few
//! popular ids; a small per-shard LRU in front of the paged store answers
//! those with a copy of the already-reconstructed fp32 row, skipping the
//! recipe (row maps, page reads, dequantization, combine). That is all a
//! hit skips: [`memcom_ondevice::PagedTable`] row reads are lock-free and
//! just as in-memory as the cache, while every cached lookup — hit or
//! miss — takes the shard's cache mutex and hashes the id through a
//! SipHash [`HashMap`]. Whether the trade pays depends on the stored
//! dtype and the traffic skew, so it is measured, not assumed: compare
//! `serve.store_lookup_ns_per_row` (the cache-off store read) with the
//! served path at the `serve.cache_hit_rate` that `memcom-perf --trace 1`
//! reports, and set `ServeConfig::cache_capacity` (`0` disables the
//! cache) accordingly. Implemented as a slab-backed doubly-linked list +
//! index map — O(1) `get`/`insert`, no external dependencies.

use std::collections::HashMap;

const NIL: usize = usize::MAX;

struct Entry {
    key: usize,
    value: Vec<f32>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache from row id to row values.
pub struct LruCache {
    capacity: usize,
    map: HashMap<usize, usize>,
    slab: Vec<Entry>,
    head: usize,
    tail: usize,
    /// Entries pushed out by capacity pressure (refreshes of an existing
    /// key are not evictions).
    evictions: u64,
    /// Total `f32` values held across all entries — kept incrementally
    /// so [`resident_bytes`](Self::resident_bytes) is O(1) under the
    /// cache lock.
    resident_values: usize,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` rows (`0` disables it).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            evictions: 0,
            resident_values: 0,
        }
    }

    /// Entries evicted by capacity pressure since construction (a
    /// [`clone_retaining`](Self::clone_retaining) copy restarts at 0,
    /// like the shard hit/miss counters across a snapshot refresh).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bytes of row data currently held (entry values only; the index
    /// map and list links are bookkeeping, not cached rows).
    pub fn resident_bytes(&self) -> usize {
        self.resident_values * std::mem::size_of::<f32>()
    }

    /// Maximum number of rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of rows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently used on a hit.
    pub fn get(&mut self, key: usize) -> Option<&[f32]> {
        let &slot = self.map.get(&key)?;
        self.detach(slot);
        self.attach_front(slot);
        Some(&self.slab[slot].value)
    }

    /// Inserts (or refreshes) `key`, taking ownership of `value` without
    /// copying. Returns the evicted `(key, value)` when the insert pushed
    /// out the least-recently-used row; a refresh hands back the
    /// *previous* value for `key` so the caller can recycle its storage.
    pub fn insert(&mut self, key: usize, value: Vec<f32>) -> Option<(usize, Vec<f32>)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.resident_values += value.len();
            let old = std::mem::replace(&mut self.slab[slot].value, value);
            self.resident_values -= old.len();
            self.detach(slot);
            self.attach_front(slot);
            return Some((key, old));
        }
        if self.map.len() < self.capacity {
            let slot = self.slab.len();
            self.resident_values += value.len();
            self.slab.push(Entry {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, slot);
            self.attach_front(slot);
            return None;
        }
        // Full: recycle the tail slot in place.
        let victim = self.tail;
        self.detach(victim);
        let old_key = self.slab[victim].key;
        self.map.remove(&old_key);
        self.resident_values += value.len();
        let old_value = std::mem::replace(&mut self.slab[victim].value, value);
        self.resident_values -= old_value.len();
        self.evictions += 1;
        self.slab[victim].key = key;
        self.map.insert(key, victim);
        self.attach_front(victim);
        Some((old_key, old_value))
    }

    /// Inserts (or refreshes) `key` by copying `row` into recycled
    /// storage: a refresh rewrites the existing entry's buffer and a
    /// full-cache insert rewrites the evicted victim's buffer, so at
    /// steady state (cache at capacity, stable row width) this performs
    /// **no heap allocation** — the serving hot path's fill.
    pub fn insert_from(&mut self, key: usize, row: &[f32]) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.resident_values += row.len();
            self.resident_values -= self.slab[slot].value.len();
            let value = &mut self.slab[slot].value;
            value.clear();
            value.extend_from_slice(row);
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        if self.map.len() < self.capacity {
            let slot = self.slab.len();
            self.resident_values += row.len();
            self.slab.push(Entry {
                key,
                value: row.to_vec(),
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, slot);
            self.attach_front(slot);
            return;
        }
        let victim = self.tail;
        self.detach(victim);
        let old_key = self.slab[victim].key;
        self.map.remove(&old_key);
        self.resident_values += row.len();
        self.resident_values -= self.slab[victim].value.len();
        self.evictions += 1;
        let value = &mut self.slab[victim].value;
        value.clear();
        value.extend_from_slice(row);
        self.slab[victim].key = key;
        self.map.insert(key, victim);
        self.attach_front(victim);
    }

    /// A copy of this cache holding every entry whose key `keep`
    /// accepts, preserving recency order — the delta-refresh carry-over:
    /// a new store snapshot keeps the old snapshot's hot rows warm and
    /// invalidates **only** the changed ids, instead of restarting every
    /// shard cache cold the way a full-store swap does.
    pub fn clone_retaining(&self, keep: impl Fn(usize) -> bool) -> Self {
        let mut out = LruCache::new(self.capacity);
        // Collect MRU -> LRU, then insert in reverse so the copy ends up
        // with identical recency ordering.
        let mut slots = Vec::with_capacity(self.map.len());
        let mut cursor = self.head;
        while cursor != NIL {
            slots.push(cursor);
            cursor = self.slab[cursor].next;
        }
        for &slot in slots.iter().rev() {
            let entry = &self.slab[slot];
            if keep(entry.key) {
                out.insert_from(entry.key, &entry.value);
            }
        }
        out
    }

    /// Keys from most- to least-recently used (test/debug helper).
    pub fn keys_mru_order(&self) -> Vec<usize> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut cursor = self.head;
        while cursor != NIL {
            keys.push(self.slab[cursor].key);
            cursor = self.slab[cursor].next;
        }
        keys
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        match prev {
            NIL => {
                if self.head == slot {
                    self.head = next;
                }
            }
            p => self.slab[p].next = next,
        }
        match next {
            NIL => {
                if self.tail == slot {
                    self.tail = prev;
                }
            }
            n => self.slab[n].prev = prev,
        }
        self.slab[slot].prev = NIL;
        self.slab[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

impl std::fmt::Debug for LruCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(x: f32) -> Vec<f32> {
        vec![x, x + 0.5]
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        assert!(c.insert(1, row(1.0)).is_none());
        assert!(c.insert(2, row(2.0)).is_none());
        assert!(c.insert(3, row(3.0)).is_none());
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(1), Some(row(1.0).as_slice()));
        let evicted = c.insert(4, row(4.0));
        assert_eq!(evicted, Some((2, row(2.0))));
        assert_eq!(c.keys_mru_order(), vec![4, 1, 3]);
        assert!(c.get(2).is_none());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert(10, row(1.0));
        c.insert(20, row(2.0));
        assert_eq!(c.keys_mru_order(), vec![20, 10]);
        c.get(10);
        assert_eq!(c.keys_mru_order(), vec![10, 20]);
        assert_eq!(c.insert(30, row(3.0)).map(|(k, _)| k), Some(20));
    }

    #[test]
    fn reinsert_updates_value_and_returns_old_storage() {
        let mut c = LruCache::new(2);
        c.insert(1, row(1.0));
        c.insert(2, row(2.0));
        // A refresh hands the displaced value back for recycling.
        assert_eq!(c.insert(1, row(9.0)), Some((1, row(1.0))));
        assert_eq!(c.get(1), Some(row(9.0).as_slice()));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_from_recycles_storage_in_place() {
        let mut c = LruCache::new(2);
        c.insert_from(1, &row(1.0));
        c.insert_from(2, &row(2.0));
        // Refresh: same entry, new contents, no length change.
        c.insert_from(1, &row(9.0));
        assert_eq!(c.get(1), Some(row(9.0).as_slice()));
        assert_eq!(c.len(), 2);
        // At capacity: the LRU victim's buffer is rewritten for the new key.
        c.insert_from(3, &row(3.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none(), "2 was the LRU victim");
        assert_eq!(c.get(3), Some(row(3.0).as_slice()));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        assert!(c.insert(1, row(1.0)).is_none());
        c.insert_from(2, &row(2.0));
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn single_slot_cache() {
        let mut c = LruCache::new(1);
        c.insert(1, row(1.0));
        assert_eq!(c.insert(2, row(2.0)), Some((1, row(1.0))));
        assert_eq!(c.keys_mru_order(), vec![2]);
        assert_eq!(c.get(2), Some(row(2.0).as_slice()));
    }

    #[test]
    fn clone_retaining_drops_only_excluded_keys_and_keeps_order() {
        let mut c = LruCache::new(4);
        for (k, x) in [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)] {
            c.insert_from(k, &row(x));
        }
        c.get(2); // MRU order now: 2, 4, 3, 1
        let copy = c.clone_retaining(|k| k != 3);
        assert_eq!(copy.keys_mru_order(), vec![2, 4, 1]);
        assert_eq!(copy.capacity(), 4);
        let mut copy = copy;
        assert_eq!(copy.get(2), Some(row(2.0).as_slice()));
        assert!(copy.get(3).is_none(), "changed id invalidated");
        // The original is untouched.
        assert_eq!(c.len(), 4);
        // Keeping everything is a faithful copy; keeping nothing empties.
        assert_eq!(
            c.clone_retaining(|_| true).keys_mru_order(),
            vec![2, 4, 3, 1]
        );
        assert!(c.clone_retaining(|_| false).is_empty());
    }

    #[test]
    fn tracks_evictions_and_resident_bytes() {
        let mut c = LruCache::new(2);
        assert_eq!((c.evictions(), c.resident_bytes()), (0, 0));
        c.insert_from(1, &row(1.0)); // 2 values
        c.insert(2, row(2.0)); // 2 values
        assert_eq!(c.resident_bytes(), 4 * std::mem::size_of::<f32>());
        // Refreshes are not evictions; resident bytes track the new row.
        c.insert_from(1, &[9.0]);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.resident_bytes(), 3 * std::mem::size_of::<f32>());
        // Capacity pressure evicts, once per displaced entry.
        c.insert_from(3, &row(3.0));
        c.insert(4, row(4.0));
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.resident_bytes(), 4 * std::mem::size_of::<f32>());
        // A retained copy restarts the eviction counter but keeps the
        // resident accounting of what it actually holds.
        let copy = c.clone_retaining(|_| true);
        assert_eq!(copy.evictions(), 0);
        assert_eq!(copy.resident_bytes(), c.resident_bytes());
        // Zero capacity never holds bytes or evicts.
        let mut off = LruCache::new(0);
        off.insert_from(1, &row(1.0));
        assert_eq!((off.evictions(), off.resident_bytes()), (0, 0));
    }

    #[test]
    fn stays_within_capacity_under_churn() {
        let mut c = LruCache::new(16);
        for i in 0..1000 {
            if i % 2 == 0 {
                c.insert(i % 37, row(i as f32));
            } else {
                c.insert_from(i % 37, &row(i as f32));
            }
            assert!(c.len() <= 16);
            let keys = c.keys_mru_order();
            assert_eq!(keys.len(), c.len(), "list and map stay in sync");
        }
    }
}
