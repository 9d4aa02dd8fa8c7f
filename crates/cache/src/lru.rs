//! A single cache shard: one allocation per entry, a slab of small
//! nodes, an open-addressed index and a byte budget.
//!
//! An entry holds, and [`entry_cost`] counts, these heap bytes:
//! * its *record*, one allocation: `varint(key length) | key | value`.
//!   Inserts copy key and value in, so a key or value that is a window
//!   into a larger buffer (a request burst) never keeps that buffer
//!   alive;
//! * a 24-byte slab `Node`: the record and the exact LRU links (`u32`
//!   slab indices), nothing else;
//! * its share of an `Index` slot: 8-byte slots (hash + slab index),
//!   billed at the index's maximum load of 4/5, so 10 bytes.
//!
//! An entry that is dirty or has an expiry deadline also holds a
//! 32-byte `Extra` ([`EXTRA_BYTES`]): its place on the dirty list and
//! its deadline. The nodes that have one are the first ones of the
//! slab, and node `i`'s is `extras[i]`: where a node sits says whether
//! it has an `Extra` and which, so a node needs no field for it, and a
//! clean entry's lookup reads nothing but its index slot and its node.
//! The key's hash, which the index slot holds, is recomputed from the
//! record when a node is moved or removed.
//!
//! The budget is these requested bytes. Not counted are the system
//! allocator's own header and size-class rounding on each allocation,
//! and the spare capacity of the slab and the index, which grow a
//! fraction at a time to keep it small.
//!
//! Dirty entries — written back to storage asynchronously — are pinned:
//! eviction walks past them, and when only dirty entries remain the
//! shard reports backpressure instead of dropping unsynchronized data.
//! The dirty entries are additionally threaded on a second list (same
//! recency order), so the write-back flush finds them in O(dirty)
//! instead of walking the whole shard.

use std::mem::size_of;
use tb_common::{fx_hash, is_expired, read_bytes, write_bytes, Error, Key, Result, Value};

/// A slab index as the links and the index store it.
type Idx = u32;

const NIL: Idx = Idx::MAX;

/// One cache entry as reads hand it out: owned copies.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    pub value: Value,
    pub dirty: bool,
    /// Absolute clock-nanosecond deadline after which the entry is
    /// logically gone (`None` = never expires).
    pub expires_at: Option<u64>,
}

/// Outcome of a lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// The key is cached and live.
    Live(Value),
    /// The key was cached but its TTL has passed.
    Expired,
    /// The key is not cached.
    Absent,
}

/// The two lists a node can be on.
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
    /// `varint(key length) | key | value`.
    record: Box<[u8]>,
    /// Every node, most recently used first.
    lru: Link,
}

/// What only dirty or expiring entries carry: node `i`'s is
/// `extras[i]`, so exactly the first `extras.len()` nodes have one.
struct Extra {
    expires_at: Option<u64>,
    /// `Some` exactly while the entry is dirty: its links on the dirty
    /// list, the dirty nodes in the LRU list's relative order.
    dirty: Option<Link>,
}

const _: () = assert!(size_of::<Node>() == 24);

/// Heap bytes of one slab node.
const NODE_BYTES: usize = size_of::<Node>();

/// Heap bytes of the side record (dirty-list links, deadline) a dirty
/// or expiring entry holds beyond its [`entry_cost`].
pub const EXTRA_BYTES: usize = size_of::<Extra>();

/// One entry's share of the index: a slot at the maximum load.
const SLOT_SHARE: usize = size_of::<Slot>() * MAX_LOAD.1 / MAX_LOAD.0;

/// The heap bytes a clean entry without a deadline holds: its record,
/// its slab node and its share of an index slot (see the module docs;
/// a dirty or expiring entry holds [`EXTRA_BYTES`] more).
pub fn entry_cost(key_len: usize, value_len: usize) -> usize {
    billed(record_len(key_len, value_len), false)
}

/// The bytes an entry with this record holds.
fn billed(record_len: usize, has_extra: bool) -> usize {
    record_len + NODE_BYTES + SLOT_SHARE + if has_extra { EXTRA_BYTES } else { 0 }
}

fn record_len(key_len: usize, value_len: usize) -> usize {
    let varint = (usize::BITS - (key_len | 1).leading_zeros()).div_ceil(7) as usize;
    varint + key_len + value_len
}

fn record(key: &[u8], value: &[u8]) -> Box<[u8]> {
    let mut record = Vec::with_capacity(record_len(key.len(), value.len()));
    write_bytes(&mut record, key);
    record.extend_from_slice(value);
    record.into_boxed_slice()
}

/// A record's key and value.
fn split(record: &[u8]) -> (&[u8], &[u8]) {
    let mut pos = 0;
    let key = read_bytes(record, &mut pos).expect("a record starts with its key");
    (key, &record[pos..])
}

/// The index's hash of a key: the high half of `fx_hash`, whose low
/// bits pick the shard.
fn hash(key: &[u8]) -> u32 {
    (fx_hash(key) >> 32) as u32
}

/// Pushes without `Vec`'s doubling: the slab grows by an eighth, so at
/// most an eighth of its bytes are spare.
fn push_exact<T>(v: &mut Vec<T>, item: T) {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len() / 8 + 4);
    }
    v.push(item);
}

/// Gives back spare capacity once three quarters of it is unused.
fn trim<T>(v: &mut Vec<T>) {
    if v.len() * 4 < v.capacity() {
        v.shrink_to(v.len() + v.len() / 8);
    }
}

#[derive(Clone, Copy)]
struct Slot {
    hash: u32,
    idx: Idx,
}

const EMPTY: Slot = Slot { hash: 0, idx: NIL };

/// Most full the index gets, as `(numerator, denominator)`.
const MAX_LOAD: (usize, usize) = (4, 5);

const MIN_SLOTS: usize = 8;

/// An open-addressed, linearly probed table of slab indices. A hash's
/// home slot is found by multiply-shift, so the table can have any
/// length: it grows by a quarter at a time, keeping its load between
/// 0.64 and 0.8 while it grows.
#[derive(Default)]
struct Index {
    slots: Vec<Slot>,
    len: usize,
}

impl Index {
    fn home(&self, hash: u32) -> usize {
        ((hash as u64 * self.slots.len() as u64) >> 32) as usize
    }

    fn next(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// Position of the first slot of `hash` whose index `is` accepts.
    fn position(&self, hash: u32, mut is: impl FnMut(Idx) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(hash);
        loop {
            let slot = self.slots[i];
            if slot.idx == NIL {
                return None;
            }
            if slot.hash == hash && is(slot.idx) {
                return Some(i);
            }
            i = self.next(i);
        }
    }

    fn insert(&mut self, hash: u32, idx: Idx) {
        let mut slots = self.slots.len().max(MIN_SLOTS);
        while (self.len + 1) * MAX_LOAD.1 > slots * MAX_LOAD.0 {
            slots += slots / 4;
        }
        if slots != self.slots.len() {
            self.resize(slots);
        }
        self.place(Slot { hash, idx });
        self.len += 1;
    }

    fn place(&mut self, slot: Slot) {
        let mut i = self.home(slot.hash);
        while self.slots[i].idx != NIL {
            i = self.next(i);
        }
        self.slots[i] = slot;
    }

    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        for slot in old.into_iter().filter(|s| s.idx != NIL) {
            self.place(slot);
        }
    }

    /// Position of live node `idx`'s slot.
    fn slot(&self, hash: u32, idx: Idx) -> usize {
        self.position(hash, |i| i == idx).expect("live node")
    }

    /// Removes node `idx`'s slot: the later slots of its run shift back
    /// so that no probe meets a hole before its key.
    fn remove(&mut self, hash: u32, idx: Idx) {
        let mut hole = self.slot(hash, idx);
        let mut j = hole;
        loop {
            j = self.next(j);
            let slot = self.slots[j];
            if slot.idx == NIL {
                break;
            }
            // The slot stays unless the hole lies between its home and it.
            let home = self.home(slot.hash);
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        if self.len * MAX_LOAD.1 < self.slots.len() && self.slots.len() > MIN_SLOTS {
            self.resize((self.len + self.len / 2).max(MIN_SLOTS));
        }
    }

    /// Points the slot of node `from` at slot `to`, where it now sits.
    fn repoint(&mut self, hash: u32, from: Idx, to: Idx) {
        let i = self.slot(hash, from);
        self.slots[i].idx = to;
    }
}

/// A bounded LRU map of keys to values.
pub(crate) struct LruShard {
    index: Index,
    /// Exactly the live nodes, those with an [`Extra`] first: removal
    /// moves a node out and others fill its slot, so no slot keeps a
    /// removed entry's bytes.
    slab: Vec<Node>,
    /// The extras of the first `extras.len()` nodes, in slab order.
    extras: Vec<Extra>,
    ends: [Ends; 2],
    used_bytes: usize,
    dirty_bytes: usize,
    /// Bytes of the entries billed to PMem, see [`Self::placed`].
    pmem_bytes: usize,
    pmem_from: usize,
    budget_bytes: usize,
}

impl LruShard {
    /// A shard that bills every entry whose value is at least
    /// `pmem_from` bytes long to PMem ([`Self::pmem_bytes`]).
    pub(crate) fn placed(budget_bytes: usize, pmem_from: Option<usize>) -> Self {
        Self {
            index: Index::default(),
            slab: Vec::new(),
            extras: Vec::new(),
            ends: [Ends {
                head: NIL,
                tail: NIL,
            }; 2],
            used_bytes: 0,
            dirty_bytes: 0,
            pmem_bytes: 0,
            pmem_from: pmem_from.unwrap_or(usize::MAX),
            budget_bytes,
        }
    }

    /// Refuses, with [`Error::InvalidArgument`], an entry that would
    /// not fit `budget` even after every eviction: one whose cost, with
    /// an [`Extra`], exceeds it.
    pub(crate) fn admit(budget: usize, key_len: usize, value_len: usize) -> Result<()> {
        let cost = billed(record_len(key_len, value_len), true);
        if cost > budget {
            return Err(Error::InvalidArgument(format!(
                "entry of {cost} bytes exceeds shard budget {budget}"
            )));
        }
        Ok(())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Heap bytes the entries hold.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Bytes held by dirty (unsynchronized) entries.
    pub fn dirty_bytes(&self) -> usize {
        self.dirty_bytes
    }

    /// Bytes held by entries billed to PMem.
    pub(crate) fn pmem_bytes(&self) -> usize {
        self.pmem_bytes
    }

    fn find(&self, key: &[u8]) -> Option<Idx> {
        let slab = &self.slab;
        let pos = self
            .index
            .position(hash(key), |idx| split(&slab[idx as usize].record).0 == key)?;
        Some(self.index.slots[pos].idx)
    }

    /// Whether the key is cached, expired or not. Does not touch
    /// recency.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        self.find(key.as_ref()).is_some()
    }

    /// Looks up the key and promotes a live entry to most recently
    /// used, in one probe.
    ///
    /// Lazy expiration: an entry past its deadline reads as
    /// [`Lookup::Expired`]. If it is clean it is removed on the spot; a
    /// dirty expired entry is retained (invisible) until the write-back
    /// flush cleans it, so no unsynchronized data is dropped.
    pub fn lookup(&mut self, key: impl AsRef<[u8]>, now_nanos: u64) -> Lookup {
        let Some(idx) = self.find(key.as_ref()) else {
            return Lookup::Absent;
        };
        let (dirty, expires_at) = self.marks(idx);
        if is_expired(expires_at, now_nanos) {
            if !dirty {
                self.take(idx);
            }
            return Lookup::Expired;
        }
        self.touch(idx);
        Lookup::Live(Value::copy_from(split(&self.slab[idx as usize].record).1))
    }

    /// Looks up without touching recency (monitoring paths).
    pub fn peek(&self, key: impl AsRef<[u8]>) -> Option<CacheEntry> {
        let idx = self.find(key.as_ref())?;
        let (dirty, expires_at) = self.marks(idx);
        Some(CacheEntry {
            value: Value::copy_from(split(&self.slab[idx as usize].record).1),
            dirty,
            expires_at,
        })
    }

    /// Inserts/overwrites with an optional expiry deadline; evicts
    /// clean LRU entries to fit the budget. Returns how many it evicted.
    /// Overwriting a key replaces its expiry (Redis `SET` semantics).
    ///
    /// Errors with [`Error::Backpressure`] when the needed space cannot
    /// be reclaimed because remaining entries are dirty.
    pub fn insert_full(
        &mut self,
        key: impl AsRef<[u8]>,
        value: impl AsRef<[u8]>,
        dirty: bool,
        expires_at: Option<u64>,
    ) -> Result<usize> {
        let (key, value) = (key.as_ref(), value.as_ref());
        Self::admit(self.budget_bytes, key.len(), value.len())?;
        let record = record(key, value);
        let hash = hash(key);
        let Some(idx) = self.find(key) else {
            return self.insert_fresh(hash, record, dirty, expires_at);
        };
        // Replace = remove + insert-fresh; when the bigger replacement
        // cannot fit, the old entry is restored so a failed insert never
        // leaves the shard over budget or missing the key.
        let (old, old_dirty, old_expiry) = self.take(idx);
        match self.insert_fresh(hash, record, dirty, expires_at) {
            Ok(evicted) => Ok(evicted),
            Err(e) => {
                self.insert_fresh(hash, old, old_dirty, old_expiry)
                    .expect("restoring the previous entry always fits");
                Err(e)
            }
        }
    }

    fn insert_fresh(
        &mut self,
        hash: u32,
        record: Box<[u8]>,
        dirty: bool,
        expires_at: Option<u64>,
    ) -> Result<usize> {
        let has_extra = dirty || expires_at.is_some();
        let cost = billed(record.len(), has_extra);
        // Evict before inserting so the budget holds afterwards.
        let mut evicted = 0;
        while self.used_bytes + cost > self.budget_bytes {
            if !self.evict_one() {
                // The clean entries evicted so far stay evicted: the
                // caller would treat them as evicted either way.
                return Err(Error::backpressure("cache full of dirty entries"));
            }
            evicted += 1;
        }

        assert!(
            self.slab.len() < NIL as usize,
            "shard outgrew its {}-bit slab indices",
            Idx::BITS
        );
        let mut idx = self.slab.len() as Idx;
        push_exact(
            &mut self.slab,
            Node {
                record,
                lru: UNLINKED,
            },
        );
        if has_extra {
            // The new node takes the place of the first node without an
            // extra, which moves to the end.
            let first = self.extras.len() as Idx;
            if first < idx {
                self.slab.swap(first as usize, idx as usize);
                self.moved(first, idx);
                idx = first;
            }
            push_exact(
                &mut self.extras,
                Extra {
                    expires_at,
                    dirty: dirty.then_some(UNLINKED),
                },
            );
        }
        self.index.insert(hash, idx);
        self.push_front(LRU, idx);
        if dirty {
            self.push_front(DIRTY, idx);
        }
        self.charge(idx, true);
        Ok(evicted)
    }

    /// Evicts the least-recently-used *clean* entry, if there is one.
    fn evict_one(&mut self) -> bool {
        let mut idx = self.ends[LRU].tail;
        while idx != NIL {
            if !self.marks(idx).0 {
                self.take(idx);
                return true;
            }
            idx = self.slab[idx as usize].lru.prev;
        }
        false
    }

    /// Removes an entry outright. Returns whether it was there.
    pub fn remove(&mut self, key: impl AsRef<[u8]>) -> bool {
        match self.find(key.as_ref()) {
            Some(idx) => {
                self.take(idx);
                true
            }
            None => false,
        }
    }

    /// The node's dirty flag and deadline.
    fn marks(&self, idx: Idx) -> (bool, Option<u64>) {
        match self.extras.get(idx as usize) {
            None => (false, None),
            Some(extra) => (extra.dirty.is_some(), extra.expires_at),
        }
    }

    /// The hash of node `idx`'s key, as its index slot holds it.
    fn hash_of(&self, idx: Idx) -> u32 {
        hash(split(&self.slab[idx as usize].record).0)
    }

    /// Adds the node's bytes to the counters, or takes them off.
    fn charge(&mut self, idx: Idx, add: bool) {
        let node = &self.slab[idx as usize];
        let cost = billed(node.record.len(), (idx as usize) < self.extras.len());
        let pmem = split(&node.record).1.len() >= self.pmem_from;
        let dirty = self.marks(idx).0;
        let apply = |n: &mut usize| {
            if add {
                *n += cost
            } else {
                *n -= cost
            }
        };
        apply(&mut self.used_bytes);
        if pmem {
            apply(&mut self.pmem_bytes);
        }
        if dirty {
            apply(&mut self.dirty_bytes);
        }
    }

    /// Moves the node at `idx` out of the shard: takes its bytes off
    /// the counters, unlinks it and drops its index slot. If it had an
    /// extra, the last node with one fills its place; then the last
    /// node fills the place left. Returns its record, dirty flag and
    /// deadline.
    fn take(&mut self, idx: Idx) -> (Box<[u8]>, bool, Option<u64>) {
        self.charge(idx, false);
        let (dirty, expires_at) = self.marks(idx);
        self.unlink(LRU, idx);
        if dirty {
            self.unlink(DIRTY, idx);
        }
        self.index.remove(self.hash_of(idx), idx);
        let mut idx = idx;
        if (idx as usize) < self.extras.len() {
            let last = self.extras.len() as Idx - 1;
            self.extras.swap_remove(idx as usize);
            self.slab.swap(idx as usize, last as usize);
            if idx < last {
                self.moved(last, idx);
            }
            idx = last;
            trim(&mut self.extras);
        }
        let node = self.slab.swap_remove(idx as usize);
        let last = self.slab.len() as Idx;
        if idx < last {
            self.moved(last, idx);
        }
        trim(&mut self.slab);
        (node.record, dirty, expires_at)
    }

    /// Repoints the node's index slot, its list neighbours and the list
    /// ends from slot `from` to slot `to`, where it now sits with its
    /// extra, if it has one.
    fn moved(&mut self, from: Idx, to: Idx) {
        self.index.repoint(self.hash_of(to), from, to);
        let lists = if self.marks(to).0 { 2 } else { 1 };
        for list in [LRU, DIRTY].into_iter().take(lists) {
            let Link { prev, next } = *self.link(list, to);
            match prev {
                NIL => self.ends[list].head = to,
                p => self.link(list, p).next = to,
            }
            match next {
                NIL => self.ends[list].tail = to,
                n => self.link(list, n).prev = to,
            }
        }
    }

    /// Swaps live nodes `a` and `b`, which both have an extra, with
    /// their extras, and repoints their index slots, list neighbours
    /// and the list ends.
    fn swap(&mut self, a: Idx, b: Idx) {
        let (slot_a, slot_b) = (
            self.index.slot(self.hash_of(a), a),
            self.index.slot(self.hash_of(b), b),
        );
        self.index.slots[slot_a].idx = b;
        self.index.slots[slot_b].idx = a;
        let other = |i: Idx| match i {
            i if i == a => b,
            i if i == b => a,
            i => i,
        };
        for list in [LRU, DIRTY] {
            for x in [a, b] {
                if list == DIRTY && !self.marks(x).0 {
                    continue;
                }
                // Neighbours outside the pair point at x's new place;
                // a link within the pair is remapped on x itself.
                let Link { prev, next } = *self.link(list, x);
                match prev {
                    NIL => self.ends[list].head = other(x),
                    p if other(p) == p => self.link(list, p).next = other(x),
                    _ => {}
                }
                match next {
                    NIL => self.ends[list].tail = other(x),
                    n if other(n) == n => self.link(list, n).prev = other(x),
                    _ => {}
                }
                *self.link(list, x) = Link {
                    prev: other(prev),
                    next: other(next),
                };
            }
        }
        self.slab.swap(a as usize, b as usize);
        self.extras.swap(a as usize, b as usize);
    }

    /// Clears the dirty flag after a successful storage write of
    /// `flushed` — only if the entry still holds exactly those bytes.
    /// An overwrite that landed after the flush took its snapshot stays
    /// dirty (and pinned) until a later flush writes *it*; cleaning by
    /// key alone would let it be evicted with storage still holding the
    /// older value. Returns whether the entry is clean now.
    pub fn mark_clean_if(&mut self, key: impl AsRef<[u8]>, flushed: &[u8]) -> bool {
        match self.find(key.as_ref()) {
            Some(idx) if split(&self.slab[idx as usize].record).1 == flushed => {
                self.clean_at(idx);
                true
            }
            _ => false,
        }
    }

    /// Takes the dirty flag off node `idx`. Without a deadline it then
    /// gives up its extra: it trades places with the last node that has
    /// one, and drops the last extra, which is now its own.
    fn clean_at(&mut self, mut idx: Idx) {
        let (dirty, expires_at) = self.marks(idx);
        if !dirty {
            return;
        }
        self.charge(idx, false);
        self.unlink(DIRTY, idx);
        self.extras[idx as usize].dirty = None;
        if expires_at.is_none() {
            let last = self.extras.len() as Idx - 1;
            if idx < last {
                self.swap(idx, last);
                idx = last;
            }
            self.extras.pop();
            trim(&mut self.extras);
        }
        self.charge(idx, true);
    }

    /// Active expiration pass: removes every *clean* entry whose
    /// deadline has passed and returns their keys (callers propagate
    /// deletes to the storage tier). Dirty expired entries stay pinned
    /// until the write-back flush cleans them. Only entries with an
    /// `Extra` can expire, so this walks those.
    pub fn sweep_expired(&mut self, now_nanos: u64) -> Vec<Key> {
        let expired: Vec<Key> = self
            .extras
            .iter()
            .zip(&self.slab)
            .filter(|(e, _)| e.dirty.is_none() && is_expired(e.expires_at, now_nanos))
            .map(|(_, node)| Key::copy_from(split(&node.record).0))
            .collect();
        for key in &expired {
            let idx = self.find(key.as_slice()).expect("key just listed");
            self.take(idx);
        }
        expired
    }

    /// Snapshot of all dirty entries, most recently used first
    /// (batch-flush input). Walks the dirty list: O(dirty).
    pub fn dirty_entries(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        let mut idx = self.ends[DIRTY].head;
        while idx != NIL {
            let (key, value) = split(&self.slab[idx as usize].record);
            out.push((Key::copy_from(key), Value::copy_from(value)));
            idx = self.extras[idx as usize]
                .dirty
                .expect("on the dirty list")
                .next;
        }
        out
    }

    /// Calls `f(key, value, dirty, expires_at)` for every entry live at
    /// `now_nanos`, in slab order: expired entries are skipped, not
    /// reclaimed, and recency is untouched. Nothing is copied.
    pub fn for_each_live(
        &self,
        now_nanos: u64,
        mut f: impl FnMut(&[u8], &[u8], bool, Option<u64>),
    ) {
        for (idx, node) in self.slab.iter().enumerate() {
            let (dirty, expires_at) = self.marks(idx as Idx);
            if !is_expired(expires_at, now_nanos) {
                let (key, value) = split(&node.record);
                f(key, value, dirty, expires_at);
            }
        }
    }

    /// Entries with `start <= key < end` (`end = None` = unbounded
    /// above) that are live at `now_nanos`, as
    /// [`for_each_live`](Self::for_each_live) visits them.
    pub fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        now_nanos: u64,
    ) -> Vec<(Key, CacheEntry)> {
        let mut out = Vec::new();
        self.for_each_live(now_nanos, |key, value, dirty, expires_at| {
            if key >= start && end.is_none_or(|e| key < e) {
                let entry = CacheEntry {
                    value: Value::copy_from(value),
                    dirty,
                    expires_at,
                };
                out.push((Key::copy_from(key), entry));
            }
        });
        out
    }

    /// Keys in LRU order, most recent first.
    #[cfg(test)]
    pub fn keys_mru_first(&self) -> Vec<Key> {
        let mut out = Vec::with_capacity(self.slab.len());
        let mut idx = self.ends[LRU].head;
        while idx != NIL {
            let node = &self.slab[idx as usize];
            out.push(Key::copy_from(split(&node.record).0));
            idx = node.lru.next;
        }
        out
    }

    /// Moves a node to the front of the LRU list — and of the dirty
    /// list when it is on it, which keeps both in one recency order.
    fn touch(&mut self, idx: Idx) {
        if self.ends[LRU].head == idx {
            // Already first, and so first among the dirty too.
            return;
        }
        self.unlink(LRU, idx);
        self.push_front(LRU, idx);
        if self.marks(idx).0 {
            self.unlink(DIRTY, idx);
            self.push_front(DIRTY, idx);
        }
    }

    /// The node's links on `list`.
    fn link(&mut self, list: usize, idx: Idx) -> &mut Link {
        if list == LRU {
            return &mut self.slab[idx as usize].lru;
        }
        self.extras[idx as usize]
            .dirty
            .as_mut()
            .expect("only dirty nodes are on the dirty list")
    }

    fn push_front(&mut self, list: usize, idx: Idx) {
        let head = self.ends[list].head;
        *self.link(list, idx) = Link {
            prev: NIL,
            next: head,
        };
        match head {
            NIL => self.ends[list].tail = idx,
            h => self.link(list, h).prev = idx,
        }
        self.ends[list].head = idx;
    }

    fn unlink(&mut self, list: usize, idx: Idx) {
        let Link { prev, next } = *self.link(list, idx);
        match prev {
            NIL => self.ends[list].head = next,
            p => self.link(list, p).next = next,
        }
        match next {
            NIL => self.ends[list].tail = prev,
            n => self.link(list, n).prev = prev,
        }
        *self.link(list, idx) = UNLINKED;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Shorthands the tests drive a shard through.
    impl LruShard {
        fn new(budget_bytes: usize) -> Self {
            Self::placed(budget_bytes, None)
        }

        /// [`lookup`](Self::lookup) that reads an expired entry as absent.
        fn get(&mut self, key: impl AsRef<[u8]>, now_nanos: u64) -> Option<Value> {
            match self.lookup(key, now_nanos) {
                Lookup::Live(value) => Some(value),
                Lookup::Expired | Lookup::Absent => None,
            }
        }

        /// [`insert_full`](Self::insert_full) without a deadline.
        fn insert(
            &mut self,
            key: impl AsRef<[u8]>,
            value: impl AsRef<[u8]>,
            dirty: bool,
        ) -> Result<usize> {
            self.insert_full(key, value, dirty, None)
        }

        /// Clears the dirty flag unconditionally.
        fn mark_clean(&mut self, key: impl AsRef<[u8]>) {
            if let Some(idx) = self.find(key.as_ref()) {
                self.clean_at(idx);
            }
        }
    }

    fn k(i: usize) -> Key {
        Key::from(format!("k{i}"))
    }

    fn v(len: usize) -> Value {
        Value::from(vec![b'v'; len])
    }

    /// The cost of a clean entry `k(i) = v(len)` without a deadline.
    fn cost(i: usize, len: usize) -> usize {
        entry_cost(k(i).len(), len)
    }

    /// The shard's bytes `(used, pmem, dirty)` summed entry by entry
    /// from what `peek` reports, values of at least `pmem_from` bytes
    /// billed to PMem.
    fn walk(s: &LruShard, pmem_from: usize) -> (usize, usize, usize) {
        let (mut used, mut pmem, mut dirty) = (0, 0, 0);
        for key in s.keys_mru_first() {
            let e = s.peek(&key).unwrap();
            let extra = e.dirty || e.expires_at.is_some();
            let c = entry_cost(key.len(), e.value.len()) + if extra { EXTRA_BYTES } else { 0 };
            used += c;
            if e.value.len() >= pmem_from {
                pmem += c;
            }
            if e.dirty {
                dirty += c;
            }
        }
        (used, pmem, dirty)
    }

    #[test]
    fn a_node_is_24_bytes_an_extra_32_and_a_record_one_allocation() {
        assert_eq!(NODE_BYTES, 24);
        assert_eq!(EXTRA_BYTES, 32);
        assert_eq!(SLOT_SHARE, 10);
        assert_eq!(record(b"key", b"value").len(), 1 + 3 + 5);
        assert_eq!(record_len(127, 0), 128);
        assert_eq!(record_len(128, 0), 130);
        assert_eq!(record(&[7; 200], b"").len(), record_len(200, 0));
        assert_eq!(
            split(&record(b"key", b"value")),
            (&b"key"[..], &b"value"[..])
        );
        assert_eq!(entry_cost(20, 95), 1 + 20 + 95 + 24 + 10);
        // A dirty or expiring entry is billed less than the 32-byte
        // node with a 32-byte extra cost.
        assert!(entry_cost(20, 95) + EXTRA_BYTES <= 1 + 20 + 95 + 32 + 10 + 32);
    }

    #[test]
    fn insert_get_remove() {
        let mut s = LruShard::new(10_000);
        s.insert(k(1), v(10), false).unwrap();
        assert_eq!(s.used_bytes(), cost(1, 10));
        assert_eq!(s.get(k(1), 0).unwrap(), v(10));
        assert!(s.remove(k(1)));
        assert!(!s.remove(k(1)));
        assert!(s.get(k(1), 0).is_none());
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn lru_eviction_order() {
        // Budget fits 3 clean entries of `entry_cost(2, 10)`, not 4.
        let mut s = LruShard::new(4 * cost(1, 10) - 1);
        s.insert(k(1), v(10), false).unwrap();
        s.insert(k(2), v(10), false).unwrap();
        s.insert(k(3), v(10), false).unwrap();
        // Touch k1 so k2 becomes LRU.
        s.get(k(1), 0);
        let evicted = s.insert(k(4), v(10), false).unwrap();
        assert_eq!(evicted, 1);
        assert_eq!(
            s.keys_mru_first(),
            [k(4), k(1), k(3)],
            "k2 was least recently used"
        );
        assert!(s.get(k(1), 0).is_some());
        assert!(s.get(k(2), 0).is_none());
    }

    #[test]
    fn dirty_entries_are_pinned() {
        // Room for one dirty entry (with its extra) and two clean ones.
        let mut s = LruShard::new(3 * cost(1, 10) + EXTRA_BYTES);
        s.insert(k(1), v(10), true).unwrap(); // dirty, LRU
        s.insert(k(2), v(10), false).unwrap();
        s.insert(k(3), v(10), false).unwrap();
        assert_eq!(s.insert(k(4), v(10), false).unwrap(), 1);
        // k1 is oldest but dirty → k2 goes instead.
        assert!(!s.contains(k(2)));
        assert!(s.peek(k(1)).is_some());
    }

    #[test]
    fn all_dirty_causes_backpressure() {
        let mut s = LruShard::new(3 * (cost(1, 10) + EXTRA_BYTES));
        s.insert(k(1), v(10), true).unwrap();
        s.insert(k(2), v(10), true).unwrap();
        s.insert(k(3), v(10), true).unwrap();
        let err = s.insert(k(4), v(10), false).unwrap_err();
        assert!(matches!(err, Error::Backpressure { .. }));
        // Cleaning one unblocks the insert.
        s.mark_clean(k(1));
        s.insert(k(4), v(10), false).unwrap();
        assert!(s.peek(k(1)).is_none(), "cleaned entry became evictable");
    }

    #[test]
    fn overwrite_adjusts_sizes_and_dirty() {
        let mut s = LruShard::new(10_000);
        s.insert(k(1), v(100), true).unwrap();
        assert_eq!(s.dirty_bytes(), cost(1, 100) + EXTRA_BYTES);
        s.insert(k(1), v(10), false).unwrap();
        assert_eq!(s.dirty_bytes(), 0);
        assert_eq!(s.used_bytes(), cost(1, 10));
        assert_eq!(s.len(), 1);
        s.mark_clean(k(1)); // no-op on clean entry
        assert_eq!(s.dirty_bytes(), 0);
    }

    /// A bigger overwrite that cannot fit leaves the old entry in place.
    #[test]
    fn failed_overwrite_restores_the_old_entry() {
        let mut s = LruShard::new(2 * (cost(1, 10) + EXTRA_BYTES));
        s.insert(k(1), v(10), true).unwrap();
        s.insert(k(2), v(10), true).unwrap();
        let before = (s.used_bytes(), s.dirty_bytes());
        assert!(s.insert(k(1), v(30), true).is_err());
        assert_eq!(s.peek(k(1)).unwrap().value, v(10));
        assert_eq!((s.used_bytes(), s.dirty_bytes()), before);
        assert_eq!(s.dirty_entries().len(), 2);
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
        assert_eq!(keys, [&k(3), &k(1)], "most recently used first");
        assert_eq!(dirty[0].1, v(5));
    }

    #[test]
    fn mru_ordering_reflects_access() {
        let mut s = LruShard::new(10_000);
        for i in 0..4 {
            s.insert(k(i), v(1), false).unwrap();
        }
        s.get(k(0), 0);
        let order = s.keys_mru_first();
        assert_eq!(order[0], k(0));
        assert_eq!(order.last().unwrap(), &k(1));
    }

    #[test]
    fn expired_clean_entry_removed_on_get() {
        let mut s = LruShard::new(10_000);
        s.insert_full(k(1), v(5), false, Some(100)).unwrap();
        assert_eq!(s.used_bytes(), cost(1, 5) + EXTRA_BYTES);
        assert!(s.get(k(1), 99).is_some());
        assert_eq!(
            s.lookup(k(1), 100),
            Lookup::Expired,
            "deadline == now expires"
        );
        assert_eq!(s.len(), 0, "clean expired entry removed eagerly");
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(s.lookup(k(1), 100), Lookup::Absent);
    }

    #[test]
    fn expired_dirty_entry_pinned_but_invisible() {
        let mut s = LruShard::new(10_000);
        s.insert_full(k(1), v(5), true, Some(100)).unwrap();
        assert!(s.get(k(1), 200).is_none());
        assert_eq!(s.len(), 1, "dirty entry survives until flushed");
        assert_eq!(s.sweep_expired(200).len(), 0, "sweep skips dirty");
        s.mark_clean(k(1));
        assert_eq!(s.peek(k(1)).unwrap().expires_at, Some(100));
        let swept = s.sweep_expired(200);
        assert_eq!(swept, [k(1)]);
        assert_eq!(s.used_bytes(), 0);
    }

    /// Every way an entry leaves the shard — delete, eviction, lazy
    /// and swept expiry, overwrite — moves its record out: no slab
    /// slot keeps a removed entry's bytes allocated.
    #[test]
    fn removed_entries_leave_no_bytes_in_the_slab() {
        let mut s = LruShard::new(4 * cost(1, 30) + 2 * EXTRA_BYTES);
        for i in 1..=4 {
            let ttl = (i == 3).then_some(100);
            s.insert_full(k(i), v(20 + i), false, ttl).unwrap();
        }
        assert!(s.remove(k(2)));
        assert!(s.get(k(3), 100).is_none(), "expired on read");
        s.insert(k(5), v(30), true).unwrap();
        s.insert(k(6), v(30), false).unwrap();
        assert_eq!(s.insert(k(7), v(30), false).unwrap(), 1);
        s.insert(k(6), v(5), false).unwrap();
        s.insert_full(k(7), v(30), false, Some(200)).unwrap();
        assert_eq!(s.sweep_expired(200).len(), 1);

        let live: Vec<Key> = s.keys_mru_first();
        assert_eq!(s.slab.len(), live.len(), "a slot outlived its entry");
        assert_eq!(s.index.len, live.len(), "an index slot outlived its entry");
        assert_eq!(s.extras.len(), 1, "only the dirty k5 has an extra");
        let held: usize = s.slab.iter().map(|n| n.record.len()).sum();
        let owed: usize = live
            .iter()
            .map(|key| record_len(key.len(), s.peek(key).unwrap().value.len()))
            .sum();
        assert_eq!(held, owed);
        assert_eq!(s.dirty_entries().len(), 1);
        for key in &live {
            assert!(s.get(key, 0).is_some());
        }
    }

    /// The slab and the index give back their spare room once most
    /// entries are gone.
    #[test]
    fn emptied_shards_shrink() {
        let mut s = LruShard::new(1 << 30);
        for i in 0..10_000 {
            s.insert(k(i), v(4), false).unwrap();
        }
        assert!(s.slab.capacity() <= 10_000 + 10_000 / 8 + 4);
        assert!(s.index.slots.len() <= 10_000 * 25 / 16, "load under 0.64");
        for i in 0..9_900 {
            assert!(s.remove(k(i)));
        }
        assert!(s.slab.capacity() < 400, "{}", s.slab.capacity());
        assert!(s.index.slots.len() < 500, "{}", s.index.slots.len());
        for i in 9_900..10_000 {
            assert_eq!(s.get(k(i), 0), Some(v(4)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
                if s.get(k(ki), now).is_some() {
                    let e = s.peek(k(ki)).unwrap();
                    prop_assert!(e.expires_at.is_none_or(|at| at > now));
                }
            }
            let before: Vec<(Key, CacheEntry)> = s
                .keys_mru_first()
                .into_iter()
                .map(|key| { let e = s.peek(&key).unwrap(); (key, e) })
                .collect();
            let swept = s.sweep_expired(now);
            for key in &swept {
                let (_, e) = before.iter().find(|(k, _)| k == key).unwrap();
                prop_assert!(!e.dirty);
                prop_assert!(e.expires_at.is_some_and(|at| at <= now));
            }
            prop_assert_eq!(s.len(), before.len() - swept.len());
            // Everything left is live or dirty.
            for key in s.keys_mru_first() {
                let e = s.peek(&key).unwrap();
                prop_assert!(e.dirty || e.expires_at.is_none_or(|at| at > now));
            }
        }

        /// The dirty list is exactly the dirty sub-sequence of the LRU
        /// list, and `dirty_bytes` its summed cost, under arbitrary
        /// interleavings of every operation that links, unlinks,
        /// promotes, cleans, evicts or reclaims a node.
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
                        s.remove(k(ki));
                    }
                    4 => s.mark_clean(k(ki)),
                    // Conditional clean: against the held bytes
                    // (cleans) or against other bytes (must not).
                    5 => {
                        let held = s.peek(k(ki)).map(|e| e.value);
                        let flushed = if dirty { held.clone() } else { Some(v(vlen + 1)) };
                        if let Some(flushed) = flushed {
                            let cleaned = s.mark_clean_if(k(ki), flushed.as_slice());
                            prop_assert_eq!(cleaned, held.as_ref() == Some(&flushed));
                        }
                    }
                    // Promote (or lazily reclaim), advance time, sweep.
                    _ => {
                        s.get(k(ki), now);
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
                prop_assert_eq!(s.index.len, s.len());
                let cost: usize = walk
                    .iter()
                    .map(|key| entry_cost(key.len(), s.peek(key).unwrap().value.len()) + EXTRA_BYTES)
                    .sum();
                prop_assert_eq!(s.dirty_bytes(), cost);
                // The nodes with an extra are exactly the dirty or
                // expiring ones.
                let marked = s
                    .keys_mru_first()
                    .iter()
                    .filter(|key| s.peek(key).is_some_and(|e| e.dirty || e.expires_at.is_some()))
                    .count();
                prop_assert_eq!(s.extras.len(), marked);
            }
        }

        /// The budget is never exceeded, and `used_bytes` is the summed
        /// cost of the entries, under arbitrary operation sequences.
        #[test]
        fn prop_budget_invariant(ops in proptest::collection::vec((0usize..50, 0usize..200, any::<bool>()), 1..300)) {
            let mut s = LruShard::new(2000);
            for (ki, vlen, dirty) in ops {
                // Dirty inserts may hit backpressure; that's fine.
                let _ = s.insert(k(ki), v(vlen.min(1800)), dirty);
                prop_assert!(s.used_bytes() <= 2000);
                prop_assert_eq!(s.keys_mru_first().len(), s.len());
            }
            prop_assert_eq!(walk(&s, usize::MAX).0, s.used_bytes());
        }

        /// The byte counters — all, PMem-billed and dirty — equal a
        /// walk over the entries, and stay within the budget, after
        /// every insert, overwrite, remove, eviction, deadline change,
        /// expiry and clean.
        #[test]
        fn prop_byte_counters_match_a_walk(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..24, 0usize..120, any::<bool>(), proptest::option::of(1u64..40)),
                1..300,
            )
        ) {
            const PMEM_FROM: usize = 60;
            let mut s = LruShard::placed(2500, Some(PMEM_FROM));
            let mut now = 0u64;
            for (op, ki, vlen, dirty, ttl) in ops {
                match op {
                    0..=2 => {
                        let _ = s.insert_full(k(ki), v(vlen), dirty, ttl.map(|t| now + t));
                    }
                    3 => {
                        s.remove(k(ki));
                    }
                    4 => {
                        let held = s.peek(k(ki)).map(|e| e.value);
                        if let Some(held) = held {
                            s.mark_clean_if(k(ki), held.as_slice());
                        }
                    }
                    // A new deadline on the held value and flag gains,
                    // drops or keeps an extra; backpressure leaves the
                    // entry as it was.
                    5 => {
                        if let Some(before) = s.peek(k(ki)) {
                            let deadline = ttl.map(|t| now + t);
                            let expected = match s.insert_full(k(ki), &before.value, before.dirty, deadline) {
                                Ok(_) => CacheEntry { expires_at: deadline, ..before },
                                Err(_) => before,
                            };
                            prop_assert_eq!(s.peek(k(ki)), Some(expected));
                        }
                    }
                    _ => {
                        s.lookup(k(ki), now);
                        now += ttl.unwrap_or(0);
                        if dirty {
                            s.sweep_expired(now);
                        }
                    }
                }
                prop_assert_eq!(
                    walk(&s, PMEM_FROM),
                    (s.used_bytes(), s.pmem_bytes(), s.dirty_bytes())
                );
                prop_assert!(s.used_bytes() <= 2500);
            }
        }
    }
}
