//! A single cache shard: hash map + intrusive LRU list + byte budget.
//!
//! The LRU list is a slab of nodes linked by indices (no unsafe, no
//! per-access allocation). Dirty entries — written back to storage
//! asynchronously — are pinned: eviction walks past them, and when only
//! dirty entries remain the shard reports backpressure instead of
//! dropping unsynchronized data. The dirty entries are additionally
//! threaded on a second intrusive list (same slab, same recency order),
//! so the write-back flush finds them in O(dirty) instead of walking
//! the whole shard.

use std::collections::HashMap;
use tb_common::hash::FxBuildHasher;
use tb_common::{Error, Key, Result, Value};

/// A slab index as the links store it: half a word, so threading a
/// node on two lists costs what one list of `usize` links did (node
/// size, and with it the cache's hot-path footprint, is unchanged).
type Idx = u32;

const NIL: Idx = Idx::MAX;

/// One cache entry.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    pub value: Value,
    pub dirty: bool,
    /// Absolute clock-nanosecond deadline after which the entry is
    /// logically gone (`None` = never expires).
    pub expires_at: Option<u64>,
}

/// The two intrusive lists a node can be on.
const LRU: usize = 0;
const DIRTY: usize = 1;

#[derive(Clone, Copy)]
struct Link {
    prev: Idx,
    next: Idx,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

/// Both ends of one list: `head` is the most recently used node.
#[derive(Clone, Copy)]
struct Ends {
    head: Idx,
    tail: Idx,
}

struct Node {
    key: Key,
    entry: CacheEntry,
    /// `links[LRU]`: every node, most recently used first.
    /// `links[DIRTY]`: the dirty nodes, in the same relative order.
    links: [Link; 2],
}

/// A bounded LRU map of `Key → CacheEntry`.
pub struct LruShard {
    map: HashMap<Key, usize, FxBuildHasher>,
    /// Exactly the live nodes: removal moves a node out and the last
    /// one fills its slot, so no slot keeps a removed entry's bytes.
    slab: Vec<Node>,
    ends: [Ends; 2],
    used_bytes: usize,
    budget_bytes: usize,
    dirty_bytes: usize,
}

/// What [`LruShard::insert`] evicted to make room.
pub type Evicted = Vec<(Key, CacheEntry)>;

impl LruShard {
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            map: HashMap::default(),
            slab: Vec::new(),
            ends: [Ends {
                head: NIL,
                tail: NIL,
            }; 2],
            used_bytes: 0,
            budget_bytes,
            dirty_bytes: 0,
        }
    }

    pub(crate) fn entry_cost(key: &Key, value: &Value) -> usize {
        // Key + value + fixed index overhead per entry.
        key.len() + value.len() + 64
    }

    /// The entry's cost, or [`Error::InvalidArgument`] when it exceeds
    /// `budget`: no eviction could make room for it.
    pub(crate) fn admit(budget: usize, key: &Key, value: &Value) -> Result<usize> {
        let cost = Self::entry_cost(key, value);
        if cost > budget {
            return Err(Error::InvalidArgument(format!(
                "entry of {cost} bytes exceeds shard budget {budget}"
            )));
        }
        Ok(cost)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes used (entries + overhead).
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Bytes held by dirty (unsynchronized) entries.
    pub fn dirty_bytes(&self) -> usize {
        self.dirty_bytes
    }

    /// Looks up and promotes the entry to most-recently-used.
    ///
    /// Lazy expiration: an entry past its deadline reads as absent. If
    /// it is clean it is removed on the spot; a dirty expired entry is
    /// retained (invisible) until the write-back flush cleans it, so no
    /// unsynchronized data is dropped.
    pub fn get(&mut self, key: &Key, now_nanos: u64) -> Option<&CacheEntry> {
        let idx = *self.map.get(key)?;
        if tb_common::is_expired(self.slab[idx].entry.expires_at, now_nanos) {
            if !self.slab[idx].entry.dirty {
                self.map.remove(key);
                self.take(idx);
            }
            return None;
        }
        self.touch(idx);
        Some(&self.slab[idx].entry)
    }

    /// Looks up without touching recency (monitoring paths).
    pub fn peek(&self, key: &Key) -> Option<&CacheEntry> {
        self.map.get(key).map(|&i| &self.slab[i].entry)
    }

    /// Inserts/overwrites; evicts clean LRU entries to fit the budget.
    ///
    /// Errors with [`Error::Backpressure`] when the needed space cannot
    /// be reclaimed because remaining entries are dirty.
    pub fn insert(&mut self, key: Key, value: Value, dirty: bool) -> Result<Evicted> {
        self.insert_full(key, value, dirty, None)
    }

    /// [`insert`](Self::insert) with an expiry deadline. Overwriting a
    /// key replaces its expiry (Redis `SET` semantics).
    pub fn insert_full(
        &mut self,
        key: Key,
        value: Value,
        dirty: bool,
        expires_at: Option<u64>,
    ) -> Result<Evicted> {
        let cost = Self::admit(self.budget_bytes, &key, &value)?;

        // Replace = remove + insert-fresh; when the bigger replacement
        // cannot fit, the old entry is restored so a failed insert never
        // leaves the shard over budget or missing the key.
        if self.map.contains_key(&key) {
            let old = self.remove(&key).expect("key present");
            return match self.insert_fresh(key.clone(), value, dirty, expires_at, cost) {
                Ok(evicted) => Ok(evicted),
                Err(e) => {
                    let old_cost = Self::entry_cost(&key, &old.value);
                    self.insert_fresh(key, old.value, old.dirty, old.expires_at, old_cost)
                        .expect("restoring the previous entry always fits");
                    Err(e)
                }
            };
        }
        self.insert_fresh(key, value, dirty, expires_at, cost)
    }

    fn insert_fresh(
        &mut self,
        key: Key,
        value: Value,
        dirty: bool,
        expires_at: Option<u64>,
        cost: usize,
    ) -> Result<Evicted> {
        // Evict before inserting so the budget holds afterwards.
        let mut evicted = Vec::new();
        while self.used_bytes + cost > self.budget_bytes {
            match self.evict_one() {
                Some(pair) => evicted.push(pair),
                None => {
                    // Undo speculative evictions? They were clean LRU
                    // entries — dropping them early is harmless, the
                    // caller treats them as evicted either way.
                    return Err(Error::backpressure("cache full of dirty entries"));
                }
            }
        }

        let node = Node {
            key: key.clone(),
            entry: CacheEntry {
                value,
                dirty,
                expires_at,
            },
            links: [UNLINKED; 2],
        };
        assert!(
            self.slab.len() < NIL as usize,
            "shard outgrew its {}-bit slab indices",
            Idx::BITS
        );
        let idx = self.slab.len();
        self.slab.push(node);
        self.map.insert(key, idx);
        self.push_front::<LRU>(idx);
        self.used_bytes += cost;
        if dirty {
            self.push_front::<DIRTY>(idx);
            self.dirty_bytes += cost;
        }
        Ok(evicted)
    }

    /// Evicts the least-recently-used *clean* entry.
    fn evict_one(&mut self) -> Option<(Key, CacheEntry)> {
        let mut idx = self.ends[LRU].tail;
        while idx != NIL {
            let node = &self.slab[idx as usize];
            if !node.entry.dirty {
                self.map.remove(&node.key);
                let node = self.take(idx as usize);
                return Some((node.key, node.entry));
            }
            idx = node.links[LRU].prev;
        }
        None
    }

    /// Removes an entry outright.
    pub fn remove(&mut self, key: &Key) -> Option<CacheEntry> {
        let idx = self.map.remove(key)?;
        Some(self.take(idx).entry)
    }

    /// Moves the node at `idx` (already out of the map) out of the
    /// shard: unlinks it, releases its cost, and fills its slot with
    /// the last node.
    fn take(&mut self, idx: usize) -> Node {
        self.unlink::<LRU>(idx);
        let cost = Self::entry_cost(&self.slab[idx].key, &self.slab[idx].entry.value);
        self.used_bytes -= cost;
        if self.slab[idx].entry.dirty {
            self.unlink::<DIRTY>(idx);
            self.dirty_bytes -= cost;
        }
        let node = self.slab.swap_remove(idx);
        if idx < self.slab.len() {
            self.moved(self.slab.len(), idx);
        }
        node
    }

    /// Repoints the node's map entry, its list neighbours and the list
    /// ends from slot `from` to slot `to`, where it now sits.
    fn moved(&mut self, from: usize, to: usize) {
        *self.map.get_mut(&self.slab[to].key).expect("live node") = to;
        let (from, to) = (from as Idx, to as Idx);
        for list in [LRU, DIRTY] {
            let Link { prev, next } = self.slab[to as usize].links[list];
            if prev != NIL {
                self.slab[prev as usize].links[list].next = to;
            } else if self.ends[list].head == from {
                self.ends[list].head = to;
            }
            if next != NIL {
                self.slab[next as usize].links[list].prev = to;
            } else if self.ends[list].tail == from {
                self.ends[list].tail = to;
            }
        }
    }

    /// Clears the dirty flag unconditionally.
    pub fn mark_clean(&mut self, key: &Key) {
        if let Some(&idx) = self.map.get(key) {
            self.clean_at(idx);
        }
    }

    /// Clears the dirty flag after a successful storage write of
    /// `flushed` — only if the entry still holds exactly those bytes.
    /// An overwrite that landed after the flush took its snapshot stays
    /// dirty (and pinned) until a later flush writes *it*; cleaning by
    /// key alone would let it be evicted with storage still holding the
    /// older value. Returns whether the entry is clean now.
    pub fn mark_clean_if(&mut self, key: &Key, flushed: &Value) -> bool {
        match self.map.get(key) {
            Some(&idx) if self.slab[idx].entry.value == *flushed => {
                self.clean_at(idx);
                true
            }
            _ => false,
        }
    }

    fn clean_at(&mut self, idx: usize) {
        if self.slab[idx].entry.dirty {
            let cost = Self::entry_cost(&self.slab[idx].key, &self.slab[idx].entry.value);
            self.dirty_bytes -= cost;
            self.slab[idx].entry.dirty = false;
            self.unlink::<DIRTY>(idx);
        }
    }

    /// Sets or clears an entry's expiry deadline. Returns `false` when
    /// the key is absent.
    pub fn set_expiry(&mut self, key: &Key, expires_at: Option<u64>) -> bool {
        match self.map.get(key) {
            Some(&idx) => {
                self.slab[idx].entry.expires_at = expires_at;
                true
            }
            None => false,
        }
    }

    /// The entry's expiry deadline: `None` = key absent,
    /// `Some(None)` = present without expiry, `Some(Some(at))` = expires
    /// at `at`. Does not touch recency.
    pub fn expiry_of(&self, key: &Key) -> Option<Option<u64>> {
        self.map
            .get(key)
            .map(|&idx| self.slab[idx].entry.expires_at)
    }

    /// Active expiration pass: removes every *clean* entry whose
    /// deadline has passed and returns them (callers propagate deletes
    /// to the storage tier). Dirty expired entries stay pinned until
    /// the write-back flush cleans them.
    pub fn sweep_expired(&mut self, now_nanos: u64) -> Vec<(Key, CacheEntry)> {
        let expired: Vec<Key> = {
            let mut keys = Vec::new();
            let mut idx = self.ends[LRU].head;
            while idx != NIL {
                let n = &self.slab[idx as usize];
                if !n.entry.dirty && tb_common::is_expired(n.entry.expires_at, now_nanos) {
                    keys.push(n.key.clone());
                }
                idx = n.links[LRU].next;
            }
            keys
        };
        expired
            .into_iter()
            .map(|key| {
                let e = self.remove(&key).expect("key just listed");
                (key, e)
            })
            .collect()
    }

    /// Snapshot of all dirty entries, most recently used first
    /// (batch-flush input). Walks the dirty list: O(dirty).
    pub fn dirty_entries(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        let mut idx = self.ends[DIRTY].head;
        while idx != NIL {
            let n = &self.slab[idx as usize];
            out.push((n.key.clone(), n.entry.value.clone()));
            idx = n.links[DIRTY].next;
        }
        out
    }

    /// Entries with `start <= key < end` (`end = None` = unbounded
    /// above) that are live at `now_nanos`: expired entries are skipped,
    /// not reclaimed — scans stay read-only — and recency is untouched.
    pub fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        now_nanos: u64,
    ) -> Vec<(Key, CacheEntry)> {
        self.map
            .iter()
            .filter(|(k, _)| k.as_slice() >= start && end.is_none_or(|e| k.as_slice() < e))
            .filter_map(|(k, &idx)| {
                let e = &self.slab[idx].entry;
                if tb_common::is_expired(e.expires_at, now_nanos) {
                    None
                } else {
                    Some((k.clone(), e.clone()))
                }
            })
            .collect()
    }

    /// Keys in LRU order, most recent first (diagnostics).
    pub fn keys_mru_first(&self) -> Vec<Key> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut idx = self.ends[LRU].head;
        while idx != NIL {
            out.push(self.slab[idx as usize].key.clone());
            idx = self.slab[idx as usize].links[LRU].next;
        }
        out
    }

    /// Moves a node to the front of the LRU list — and of the dirty
    /// list when it is on it, which keeps both in one recency order.
    fn touch(&mut self, idx: usize) {
        self.unlink::<LRU>(idx);
        self.push_front::<LRU>(idx);
        if self.slab[idx].entry.dirty {
            self.unlink::<DIRTY>(idx);
            self.push_front::<DIRTY>(idx);
        }
    }

    fn push_front<const L: usize>(&mut self, idx: usize) {
        let head = self.ends[L].head;
        self.slab[idx].links[L] = Link {
            prev: NIL,
            next: head,
        };
        let idx = idx as Idx;
        if head != NIL {
            self.slab[head as usize].links[L].prev = idx;
        }
        self.ends[L].head = idx;
        if self.ends[L].tail == NIL {
            self.ends[L].tail = idx;
        }
    }

    fn unlink<const L: usize>(&mut self, idx: usize) {
        let Link { prev, next } = self.slab[idx].links[L];
        if prev != NIL {
            self.slab[prev as usize].links[L].next = next;
        } else if self.ends[L].head == idx as Idx {
            self.ends[L].head = next;
        }
        if next != NIL {
            self.slab[next as usize].links[L].prev = prev;
        } else if self.ends[L].tail == idx as Idx {
            self.ends[L].tail = prev;
        }
        self.slab[idx].links[L] = UNLINKED;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn k(i: usize) -> Key {
        Key::from(format!("k{i}"))
    }

    fn v(len: usize) -> Value {
        Value::from(vec![b'v'; len])
    }

    #[test]
    fn insert_get_remove() {
        let mut s = LruShard::new(10_000);
        s.insert(k(1), v(10), false).unwrap();
        assert_eq!(s.get(&k(1), 0).unwrap().value, v(10));
        assert!(s.remove(&k(1)).is_some());
        assert!(s.get(&k(1), 0).is_none());
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn lru_eviction_order() {
        // Budget fits ~3 entries of cost (2 + 10 + 64).
        let mut s = LruShard::new(230);
        s.insert(k(1), v(10), false).unwrap();
        s.insert(k(2), v(10), false).unwrap();
        s.insert(k(3), v(10), false).unwrap();
        // Touch k1 so k2 becomes LRU.
        s.get(&k(1), 0);
        let evicted = s.insert(k(4), v(10), false).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, k(2), "k2 was least recently used");
        assert!(s.get(&k(1), 0).is_some());
        assert!(s.get(&k(2), 0).is_none());
    }

    #[test]
    fn dirty_entries_are_pinned() {
        let mut s = LruShard::new(230);
        s.insert(k(1), v(10), true).unwrap(); // dirty, LRU
        s.insert(k(2), v(10), false).unwrap();
        s.insert(k(3), v(10), false).unwrap();
        let evicted = s.insert(k(4), v(10), false).unwrap();
        // k1 is oldest but dirty → k2 goes instead.
        assert_eq!(evicted[0].0, k(2));
        assert!(s.peek(&k(1)).is_some());
    }

    #[test]
    fn all_dirty_causes_backpressure() {
        let mut s = LruShard::new(230);
        s.insert(k(1), v(10), true).unwrap();
        s.insert(k(2), v(10), true).unwrap();
        s.insert(k(3), v(10), true).unwrap();
        let err = s.insert(k(4), v(10), false).unwrap_err();
        assert!(matches!(err, Error::Backpressure { .. }));
        // Cleaning one unblocks the insert.
        s.mark_clean(&k(1));
        s.insert(k(4), v(10), false).unwrap();
        assert!(s.peek(&k(1)).is_none(), "cleaned entry became evictable");
    }

    #[test]
    fn overwrite_adjusts_sizes_and_dirty() {
        let mut s = LruShard::new(10_000);
        s.insert(k(1), v(100), true).unwrap();
        let d1 = s.dirty_bytes();
        assert!(d1 > 0);
        s.insert(k(1), v(10), false).unwrap();
        assert_eq!(s.dirty_bytes(), 0);
        assert_eq!(s.len(), 1);
        s.mark_clean(&k(1)); // no-op on clean entry
        assert_eq!(s.dirty_bytes(), 0);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut s = LruShard::new(100);
        assert!(matches!(
            s.insert(k(1), v(200), false),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn dirty_entries_snapshot() {
        let mut s = LruShard::new(10_000);
        s.insert(k(1), v(5), true).unwrap();
        s.insert(k(2), v(5), false).unwrap();
        s.insert(k(3), v(5), true).unwrap();
        let dirty = s.dirty_entries();
        let keys: Vec<&Key> = dirty.iter().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&&k(1)) && keys.contains(&&k(3)));
    }

    #[test]
    fn mru_ordering_reflects_access() {
        let mut s = LruShard::new(10_000);
        for i in 0..4 {
            s.insert(k(i), v(1), false).unwrap();
        }
        s.get(&k(0), 0);
        let order = s.keys_mru_first();
        assert_eq!(order[0], k(0));
        assert_eq!(order.last().unwrap(), &k(1));
    }

    #[test]
    fn expired_clean_entry_removed_on_get() {
        let mut s = LruShard::new(10_000);
        s.insert_full(k(1), v(5), false, Some(100)).unwrap();
        assert!(s.get(&k(1), 99).is_some());
        assert!(s.get(&k(1), 100).is_none(), "deadline == now expires");
        assert_eq!(s.len(), 0, "clean expired entry removed eagerly");
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn expired_dirty_entry_pinned_but_invisible() {
        let mut s = LruShard::new(10_000);
        s.insert_full(k(1), v(5), true, Some(100)).unwrap();
        assert!(s.get(&k(1), 200).is_none());
        assert_eq!(s.len(), 1, "dirty entry survives until flushed");
        assert_eq!(s.sweep_expired(200).len(), 0, "sweep skips dirty");
        s.mark_clean(&k(1));
        let swept = s.sweep_expired(200);
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].0, k(1));
    }

    /// Every way an entry leaves the shard — delete, eviction, lazy
    /// and swept expiry, overwrite — moves its key and value out: no
    /// slab slot keeps a removed entry's bytes allocated.
    #[test]
    fn removed_entries_leave_no_bytes_in_the_slab() {
        let mut s = LruShard::new(330);
        for i in 1..=4 {
            let ttl = (i == 3).then_some(100);
            s.insert_full(k(i), v(20 + i), false, ttl).unwrap();
        }
        s.remove(&k(2));
        assert!(s.get(&k(3), 100).is_none(), "expired on read");
        s.insert(k(5), v(30), true).unwrap();
        s.insert(k(6), v(30), false).unwrap();
        assert_eq!(s.insert(k(7), v(30), false).unwrap().len(), 1);
        s.insert(k(6), v(5), false).unwrap();
        s.set_expiry(&k(7), Some(200));
        assert_eq!(s.sweep_expired(200).len(), 1);

        let live: Vec<Key> = s.keys_mru_first();
        assert_eq!(s.slab.len(), live.len(), "a slot outlived its entry");
        let held: usize = s
            .slab
            .iter()
            .map(|n| n.key.len() + n.entry.value.len())
            .sum();
        let owed: usize = live
            .iter()
            .map(|key| key.len() + s.peek(key).unwrap().value.len())
            .sum();
        assert_eq!(held, owed);
        assert_eq!(s.dirty_entries().len(), 1);
        for key in &live {
            assert!(s.get(key, 0).is_some());
        }
    }

    #[test]
    fn set_expiry_roundtrip() {
        let mut s = LruShard::new(10_000);
        s.insert(k(1), v(5), false).unwrap();
        assert_eq!(s.expiry_of(&k(1)), Some(None));
        assert!(s.set_expiry(&k(1), Some(42)));
        assert_eq!(s.expiry_of(&k(1)), Some(Some(42)));
        assert!(s.set_expiry(&k(1), None));
        assert_eq!(s.expiry_of(&k(1)), Some(None));
        assert!(!s.set_expiry(&k(2), Some(1)), "absent key");
        assert_eq!(s.expiry_of(&k(2)), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Budget is never exceeded and the map/list stay consistent
        /// Expiry invariants under arbitrary interleavings of inserts
        /// (with and without deadlines), clock advances, and sweeps: a
        /// live read never returns an expired entry, and sweeping never
        /// touches unexpired or dirty entries.
        #[test]
        fn prop_expiry_never_leaks(
            ops in proptest::collection::vec((0usize..20, proptest::option::of(1u64..100), any::<bool>()), 1..200),
            advances in proptest::collection::vec(1u64..50, 1..20)
        ) {
            let mut s = LruShard::new(1 << 20);
            let mut now = 0u64;
            let mut ai = 0;
            for (i, (ki, ttl, dirty)) in ops.into_iter().enumerate() {
                let deadline = ttl.map(|t| now + t);
                s.insert_full(k(ki), v(8), dirty, deadline).unwrap();
                if i % 3 == 0 {
                    now += advances[ai % advances.len()];
                    ai += 1;
                }
                // A successful read is never of an expired entry.
                if let Some(e) = s.get(&k(ki), now) {
                    prop_assert!(e.expires_at.is_none_or(|at| at > now));
                }
            }
            let before = s.len();
            let swept = s.sweep_expired(now);
            for (_, e) in &swept {
                prop_assert!(!e.dirty);
                prop_assert!(e.expires_at.is_some_and(|at| at <= now));
            }
            prop_assert_eq!(s.len(), before - swept.len());
            // Everything left is live or dirty.
            for key in s.keys_mru_first() {
                let e = s.peek(&key).unwrap();
                prop_assert!(e.dirty || e.expires_at.is_none_or(|at| at > now));
            }
        }

        /// The intrusive dirty list is exactly the dirty sub-sequence
        /// of the LRU list, and `dirty_bytes` its summed cost, under
        /// arbitrary interleavings of every operation that links,
        /// unlinks, promotes, cleans, evicts or reclaims a node.
        #[test]
        fn prop_dirty_list_matches_lru_walk(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..24, 0usize..120, any::<bool>(), proptest::option::of(1u64..40)),
                1..300,
            )
        ) {
            // Small budget: inserts evict, and all-dirty shards refuse.
            let mut s = LruShard::new(1500);
            let mut now = 0u64;
            for (op, ki, vlen, dirty, ttl) in ops {
                match op {
                    // Insert or overwrite (dirty or clean, with or
                    // without a deadline); may evict or hit backpressure.
                    0..=2 => {
                        let _ = s.insert_full(k(ki), v(vlen), dirty, ttl.map(|t| now + t));
                    }
                    3 => {
                        s.remove(&k(ki));
                    }
                    4 => s.mark_clean(&k(ki)),
                    // Conditional clean: against the held bytes
                    // (cleans) or against other bytes (must not).
                    5 => {
                        let held = s.peek(&k(ki)).map(|e| e.value.clone());
                        let flushed = if dirty { held.clone() } else { Some(v(vlen + 1)) };
                        if let Some(flushed) = flushed {
                            let cleaned = s.mark_clean_if(&k(ki), &flushed);
                            prop_assert_eq!(cleaned, held.as_ref() == Some(&flushed));
                        }
                    }
                    // Promote (or lazily reclaim), advance time, sweep.
                    _ => {
                        s.get(&k(ki), now);
                        now += ttl.unwrap_or(0);
                        if dirty {
                            s.sweep_expired(now);
                        }
                    }
                }
                let walk: Vec<Key> = s
                    .keys_mru_first()
                    .into_iter()
                    .filter(|key| s.peek(key).unwrap().dirty)
                    .collect();
                let listed: Vec<Key> = s.dirty_entries().into_iter().map(|(key, _)| key).collect();
                prop_assert_eq!(&listed, &walk);
                prop_assert_eq!(s.keys_mru_first().len(), s.len());
                prop_assert_eq!(s.slab.len(), s.len());
                let cost: usize = walk
                    .iter()
                    .map(|key| LruShard::entry_cost(key, &s.peek(key).unwrap().value))
                    .sum();
                prop_assert_eq!(s.dirty_bytes(), cost);
            }
        }

        /// under arbitrary operation sequences.
        #[test]
        fn prop_budget_invariant(ops in proptest::collection::vec((0usize..50, 0usize..200, any::<bool>()), 1..300)) {
            let mut s = LruShard::new(2000);
            for (ki, vlen, dirty) in ops {
                // Dirty inserts may hit backpressure; that's fine.
                let _ = s.insert(k(ki), v(vlen.min(1800)), dirty);
                prop_assert!(s.used_bytes() <= 2000);
                prop_assert_eq!(s.keys_mru_first().len(), s.len());
            }
            // Sum of entry costs equals used_bytes.
            let keys = s.keys_mru_first();
            let sum: usize = keys.iter().map(|key| {
                LruShard::entry_cost(key, &s.peek(key).unwrap().value)
            }).sum();
            prop_assert_eq!(sum, s.used_bytes());
        }
    }
}
