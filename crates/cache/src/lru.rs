//! A single cache shard: records kept inline in size classes, an
//! open-addressed index, CLOCK eviction and a byte budget.
//!
//! An entry holds, and [`entry_cost`] counts, these heap bytes:
//! * its *cell* in one of the shard's size classes. An inline class is
//!   one byte array of fixed-stride cells, one class per 8-byte stride
//!   up to `INLINE_CAP` (256 bytes); a cell is `pad | varint(key
//!   length) | key | value`, then `pad` zero bytes up to the stride, so
//!   the stride and the pad byte give the record's length. A longer
//!   record is one allocation of its own, and its cell in the boxed
//!   class is the 16-byte `Box` that holds it. Inserts copy key and
//!   value in, so a key or value that is a window into a larger buffer
//!   (a request burst) never keeps that buffer alive;
//! * its share of an `Index` slot: 8-byte slots (hash + class and
//!   cell), billed at the index's maximum load of 4/5, so 10 bytes.
//!
//! An entry that is dirty or has an expiry deadline also holds a
//! 16-byte `Extra` ([`EXTRA_BYTES`]): its dirty flag and its deadline.
//! In each class the cells that have one come first, and cell `i`'s is
//! the class's `extras[i]`: where a cell sits says whether it has an
//! `Extra` and which, so a cell needs no field for it, and a clean
//! entry's lookup reads nothing but its index slot and its cell. The
//! key's hash, which the index slot holds, is recomputed from the
//! record when a cell is moved or removed. A removed cell's place is
//! taken by its class's last cell, so a class has no holes, no free
//! list and nothing to compact.
//!
//! The budget is these requested bytes, stride padding included. Not
//! counted are the system allocator's own header and size-class
//! rounding on each boxed record, and the spare capacity of the
//! classes and the index, which grow a fraction at a time to keep it
//! small.
//!
//! Eviction is CLOCK (second chance). Each entry has one reference bit,
//! the top bit of its index slot's hash: an insert leaves it clear, a
//! hit or an overwrite sets it. To evict, a hand moves over the cells,
//! class by class, clears each set bit it passes and takes the first
//! clean entry whose bit is clear. CLOCK keeps nearly all of exact
//! LRU's hit ratio for one bit per entry instead of two links, and a
//! hit writes only the slot its probe has just read, never a cell.
//!
//! Dirty entries — written back to storage asynchronously — are pinned:
//! the hand walks past them, and when only dirty entries remain the
//! shard reports backpressure instead of dropping unsynchronized data.
//! Only a cell with an `Extra` can be dirty, so the write-back flush
//! finds the dirty entries by walking the extras, O(dirty + expiring),
//! not the whole shard.

use std::mem::size_of;
use tb_common::{fx_hash, is_expired, read_bytes, write_bytes, Error, Key, Result, Value};

/// A cell's place as the index stores it: its class in the top bits,
/// its cell in the class below them.
type Idx = u32;

const NIL: Idx = Idx::MAX;

/// Bits of an [`Idx`] that number a cell within its class.
const CELL_BITS: u32 = 26;

/// Inline cells are a multiple of this many bytes long.
const STRIDE: usize = 8;

/// The longest inline cell; a longer record is boxed.
const INLINE_CAP: usize = 256;

/// Index of the boxed class; the inline classes come before it.
const BOXED: usize = INLINE_CAP / STRIDE;

const CLASSES: usize = BOXED + 1;

const _: () = assert!(CLASSES < (NIL >> CELL_BITS) as usize);

fn pack(class: usize, cell: usize) -> Idx {
    ((class as Idx) << CELL_BITS) | cell as Idx
}

fn unpack(idx: Idx) -> (usize, usize) {
    (
        (idx >> CELL_BITS) as usize,
        (idx & ((1 << CELL_BITS) - 1)) as usize,
    )
}

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

/// What only dirty or expiring entries carry: cell `i`'s is its
/// class's `extras[i]`, so exactly the class's first `extras.len()`
/// cells have one.
struct Extra {
    /// The deadline, if `expires`: a real one can be any `u64`.
    deadline: u64,
    expires: bool,
    dirty: bool,
}

impl Extra {
    fn new(dirty: bool, expires_at: Option<u64>) -> Self {
        Self {
            deadline: expires_at.unwrap_or(0),
            expires: expires_at.is_some(),
            dirty,
        }
    }

    fn expires_at(&self) -> Option<u64> {
        self.expires.then_some(self.deadline)
    }
}

/// Heap bytes of a boxed record's cell, beside the record itself.
const BOX_BYTES: usize = size_of::<Box<[u8]>>();

/// Heap bytes of the side record (dirty flag, deadline) a dirty or
/// expiring entry holds beyond its [`entry_cost`].
pub const EXTRA_BYTES: usize = size_of::<Extra>();

/// One entry's share of the index: a slot at the maximum load.
const SLOT_SHARE: usize = size_of::<Slot>() * MAX_LOAD.1 / MAX_LOAD.0;

/// The heap bytes a clean entry without a deadline holds: its cell —
/// the record and a pad byte rounded up to the 8-byte stride, or, for
/// a record whose cell would be longer than 256 bytes, the record
/// plus the 16-byte box that holds it — and its share of an index slot
/// (see the module docs; a dirty or expiring entry holds
/// [`EXTRA_BYTES`] more).
pub fn entry_cost(key_len: usize, value_len: usize) -> usize {
    billed(record_len(key_len, value_len), false)
}

/// The bytes an entry with this record holds.
fn billed(record_len: usize, has_extra: bool) -> usize {
    cell_bytes(record_len) + SLOT_SHARE + if has_extra { EXTRA_BYTES } else { 0 }
}

/// The heap bytes a record's cell holds.
fn cell_bytes(record_len: usize) -> usize {
    match class_of(record_len) {
        BOXED => record_len + BOX_BYTES,
        class => stride(class),
    }
}

fn record_len(key_len: usize, value_len: usize) -> usize {
    let varint = (usize::BITS - (key_len | 1).leading_zeros()).div_ceil(7) as usize;
    varint + key_len + value_len
}

/// The class whose cells hold a record this long: the one whose stride
/// fits it and its pad byte, or the boxed class.
fn class_of(record_len: usize) -> usize {
    match (record_len + 1).div_ceil(STRIDE) {
        strides if strides * STRIDE <= INLINE_CAP => strides - 1,
        _ => BOXED,
    }
}

/// An inline class's cell length.
fn stride(class: usize) -> usize {
    (class + 1) * STRIDE
}

/// A record's key and value.
fn split(record: &[u8]) -> (&[u8], &[u8]) {
    let mut pos = 0;
    let key = read_bytes(record, &mut pos).expect("a record starts with its key");
    (key, &record[pos..])
}

/// The index's 31-bit hash of a key: the top bits of `fx_hash`, whose
/// low bits pick the shard.
fn hash(key: &[u8]) -> u32 {
    (fx_hash(key) >> 33) as u32
}

/// A vector's growth step: a 32nd of its `len` items, in whole cells
/// of `unit` items, so a vector of fewer than 32 cells grows and
/// shrinks a cell at a time and holds no spare room.
fn step(len: usize, unit: usize) -> usize {
    len / 32 / unit * unit
}

/// Makes room for a cell of `unit` more items without `Vec`'s
/// doubling: a full vector grows by its [`step`] and the cell.
fn reserve<T>(v: &mut Vec<T>, unit: usize) {
    if v.capacity() - v.len() < unit {
        v.reserve_exact(step(v.len(), unit) + unit);
    }
}

/// Gives back spare room once it is more than twice the [`step`],
/// keeping one step. A shard has a vector per size class, most of them
/// short, and entries that move between classes would otherwise leave
/// each one as long as it ever was.
fn trim<T>(v: &mut Vec<T>, unit: usize) {
    let step = step(v.len(), unit);
    if v.capacity() - v.len() > 2 * step {
        v.shrink_to(v.len() + step);
    }
}

/// A size class's cells, back to back.
enum Cells {
    /// `stride`-byte cells: `pad | record`, then `pad` zero bytes.
    Inline { stride: usize, bytes: Vec<u8> },
    /// Records too long to keep inline, one allocation each.
    Boxed(Vec<Box<[u8]>>),
}

impl Cells {
    fn len(&self) -> usize {
        match self {
            Cells::Inline { stride, bytes } => bytes.len() / stride,
            Cells::Boxed(records) => records.len(),
        }
    }

    /// Cell `i`'s record: `varint(key length) | key | value`.
    fn record(&self, i: usize) -> &[u8] {
        match self {
            Cells::Inline { stride, bytes } => {
                let cell = &bytes[i * stride..(i + 1) * stride];
                &cell[1..stride - cell[0] as usize]
            }
            Cells::Boxed(records) => &records[i],
        }
    }

    /// Appends a cell holding the record of `key` and `value`, which
    /// must belong to this class.
    fn push(&mut self, key: &[u8], value: &[u8]) {
        let len = record_len(key.len(), value.len());
        match self {
            Cells::Inline { stride, bytes } => {
                let pad = *stride - 1 - len;
                reserve(bytes, *stride);
                bytes.push(pad as u8);
                write_bytes(bytes, key);
                bytes.extend_from_slice(value);
                bytes.resize(bytes.len() + pad, 0);
            }
            Cells::Boxed(records) => {
                let mut record = Vec::with_capacity(len);
                write_bytes(&mut record, key);
                record.extend_from_slice(value);
                reserve(records, 1);
                records.push(record.into_boxed_slice());
            }
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        match self {
            Cells::Inline { stride, bytes } => {
                let (lo, hi) = (a.min(b) * *stride, a.max(b) * *stride);
                if lo != hi {
                    let (head, tail) = bytes.split_at_mut(hi);
                    head[lo..lo + *stride].swap_with_slice(&mut tail[..*stride]);
                }
            }
            Cells::Boxed(records) => records.swap(a, b),
        }
    }

    /// Drops cell `i`; the last cell takes its place.
    fn swap_remove(&mut self, i: usize) {
        match self {
            Cells::Inline { stride, bytes } => {
                let last = bytes.len() - *stride;
                bytes.copy_within(last.., i * *stride);
                bytes.truncate(last);
                trim(bytes, *stride);
            }
            Cells::Boxed(records) => {
                records.swap_remove(i);
                trim(records, 1);
            }
        }
    }
}

/// One size class: its cells, and the extras of the first
/// `extras.len()` of them, in cell order.
struct Class {
    cells: Cells,
    extras: Vec<Extra>,
}

impl Class {
    fn new(class: usize) -> Self {
        let cells = match class {
            BOXED => Cells::Boxed(Vec::new()),
            class => Cells::Inline {
                stride: stride(class),
                bytes: Vec::new(),
            },
        };
        Self {
            cells,
            extras: Vec::new(),
        }
    }
}

/// An index slot: the key's [`hash`] with the entry's reference bit on
/// top, and its cell.
#[derive(Clone, Copy)]
struct Slot {
    tag: u32,
    idx: Idx,
}

/// The reference bit of a slot's `tag`.
const REFERENCED: u32 = 1 << 31;

impl Slot {
    fn hash(self) -> u32 {
        self.tag & !REFERENCED
    }
}

const EMPTY: Slot = Slot { tag: 0, idx: NIL };

/// Most full the index gets, as `(numerator, denominator)`.
const MAX_LOAD: (usize, usize) = (4, 5);

const MIN_SLOTS: usize = 8;

/// An open-addressed, linearly probed table of cells. A hash's home
/// slot is found by multiply-shift, so the table can have any length:
/// it grows by a quarter at a time, keeping its load between 0.64 and
/// 0.8 while it grows.
#[derive(Default)]
struct Index {
    slots: Vec<Slot>,
    len: usize,
}

impl Index {
    fn home(&self, hash: u32) -> usize {
        ((hash as u64 * self.slots.len() as u64) >> 31) as usize
    }

    fn next(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// Position of the first slot of `hash` whose cell `is` accepts.
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
            if slot.hash() == hash && is(slot.idx) {
                return Some(i);
            }
            i = self.next(i);
        }
    }

    fn insert(&mut self, tag: u32, idx: Idx) {
        let mut slots = self.slots.len().max(MIN_SLOTS);
        while (self.len + 1) * MAX_LOAD.1 > slots * MAX_LOAD.0 {
            slots += slots / 4;
        }
        if slots != self.slots.len() {
            self.resize(slots);
        }
        self.place(Slot { tag, idx });
        self.len += 1;
    }

    fn place(&mut self, slot: Slot) {
        let mut i = self.home(slot.hash());
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

    /// Position of live cell `idx`'s slot.
    fn slot(&self, hash: u32, idx: Idx) -> usize {
        self.position(hash, |i| i == idx).expect("live cell")
    }

    /// Removes the slot at `hole`: the later slots of its run shift back
    /// so that no probe meets a hole before its key.
    fn remove(&mut self, mut hole: usize) {
        let mut j = hole;
        loop {
            j = self.next(j);
            let slot = self.slots[j];
            if slot.idx == NIL {
                break;
            }
            // The slot stays unless the hole lies between its home and it.
            let home = self.home(slot.hash());
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

    /// Points the slot of cell `from` at cell `to`, where it now sits.
    fn repoint(&mut self, hash: u32, from: Idx, to: Idx) {
        let i = self.slot(hash, from);
        self.slots[i].idx = to;
    }
}

/// A bounded map of keys to values that evicts by CLOCK.
pub(crate) struct LruShard {
    index: Index,
    /// The size classes, the boxed one last. Each holds exactly its
    /// live cells, those with an [`Extra`] first: removal moves a cell
    /// out and the class's last cell fills its place, so no cell keeps
    /// a removed entry's bytes.
    classes: Vec<Class>,
    /// Number of entries.
    len: usize,
    /// The class and cell the CLOCK hand looks at next.
    hand: (usize, usize),
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
            classes: (0..CLASSES).map(Class::new).collect(),
            len: 0,
            hand: (0, 0),
            used_bytes: 0,
            dirty_bytes: 0,
            pmem_bytes: 0,
            pmem_from: pmem_from.unwrap_or(usize::MAX),
            budget_bytes,
        }
    }

    /// Sets the byte budget and evicts clean entries by CLOCK until the
    /// shard fits it, or only dirty entries are left. Returns how many
    /// it evicted.
    pub(crate) fn set_budget(&mut self, budget_bytes: usize) -> usize {
        self.budget_bytes = budget_bytes;
        let mut evicted = 0;
        while self.used_bytes > budget_bytes && self.evict_one() {
            evicted += 1;
        }
        evicted
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
        self.len
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

    /// Cell `idx`'s record.
    fn record(&self, idx: Idx) -> &[u8] {
        let (class, cell) = unpack(idx);
        self.classes[class].cells.record(cell)
    }

    /// Position of the key's index slot.
    fn position(&self, key: &[u8]) -> Option<usize> {
        self.index
            .position(hash(key), |idx| split(self.record(idx)).0 == key)
    }

    fn find(&self, key: &[u8]) -> Option<Idx> {
        Some(self.index.slots[self.position(key)?].idx)
    }

    /// Whether the key is cached, expired or not. Does not set its
    /// reference bit.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        self.find(key.as_ref()).is_some()
    }

    /// Looks up the key and sets a live entry's reference bit, in one
    /// probe.
    ///
    /// Lazy expiration: an entry past its deadline reads as
    /// [`Lookup::Expired`]. If it is clean it is removed on the spot; a
    /// dirty expired entry is retained (invisible) until the write-back
    /// flush cleans it, so no unsynchronized data is dropped.
    pub fn lookup(&mut self, key: impl AsRef<[u8]>, now_nanos: u64) -> Lookup {
        let Some(pos) = self.position(key.as_ref()) else {
            return Lookup::Absent;
        };
        let idx = self.index.slots[pos].idx;
        let (dirty, expires_at) = self.marks(idx);
        if is_expired(expires_at, now_nanos) {
            if !dirty {
                self.take(pos);
            }
            return Lookup::Expired;
        }
        self.index.slots[pos].tag |= REFERENCED;
        Lookup::Live(Value::copy_from(split(self.record(idx)).1))
    }

    /// Looks up without setting the reference bit (monitoring paths).
    pub fn peek(&self, key: impl AsRef<[u8]>) -> Option<CacheEntry> {
        let idx = self.find(key.as_ref())?;
        let (dirty, expires_at) = self.marks(idx);
        Some(CacheEntry {
            value: Value::copy_from(split(self.record(idx)).1),
            dirty,
            expires_at,
        })
    }

    /// Inserts/overwrites with an optional expiry deadline; evicts
    /// clean entries to fit the budget. Returns how many it evicted.
    /// Overwriting a key replaces its expiry (Redis `SET` semantics)
    /// and sets its reference bit; a new key's starts clear.
    ///
    /// Errors with [`Error::Backpressure`] when the needed space cannot
    /// be reclaimed because remaining entries are dirty; the shard is
    /// then left as it was, nothing evicted and the key's old entry in
    /// place.
    pub fn insert_full(
        &mut self,
        key: impl AsRef<[u8]>,
        value: impl AsRef<[u8]>,
        dirty: bool,
        expires_at: Option<u64>,
    ) -> Result<usize> {
        let (key, value) = (key.as_ref(), value.as_ref());
        Self::admit(self.budget_bytes, key.len(), value.len())?;
        let cost = billed(
            record_len(key.len(), value.len()),
            dirty || expires_at.is_some(),
        );
        let old = self.position(key);
        // Eviction can free every clean entry's bytes, and the key's own
        // old entry's go whether it is clean or dirty: what stays is the
        // other dirty entries.
        let old_dirty = match old.map(|pos| self.index.slots[pos].idx) {
            Some(idx) if self.marks(idx).0 => self.cost_of(idx),
            _ => 0,
        };
        if self.dirty_bytes - old_dirty + cost > self.budget_bytes {
            return Err(Error::backpressure("cache full of dirty entries"));
        }
        let tag = match old {
            Some(pos) => {
                self.take(pos);
                hash(key) | REFERENCED
            }
            None => hash(key),
        };
        let mut evicted = 0;
        while self.used_bytes + cost > self.budget_bytes {
            assert!(self.evict_one(), "clean entries hold the room needed");
            evicted += 1;
        }
        self.place(tag, key, value, dirty, expires_at);
        Ok(evicted)
    }

    /// Adds an entry whose index slot is `tag` (see [`Slot`]), room or
    /// not.
    fn place(&mut self, tag: u32, key: &[u8], value: &[u8], dirty: bool, expires_at: Option<u64>) {
        let c = class_of(record_len(key.len(), value.len()));
        let class = &mut self.classes[c];
        let mut cell = class.cells.len();
        assert!(
            cell < 1 << CELL_BITS,
            "shard outgrew its {CELL_BITS}-bit cell indices"
        );
        class.cells.push(key, value);
        if dirty || expires_at.is_some() {
            // The new cell takes the place of the class's first cell
            // without an extra, which moves to the end.
            let first = class.extras.len();
            if first < cell {
                class.cells.swap(first, cell);
                self.moved(pack(c, first), pack(c, cell));
                cell = first;
            }
            let extras = &mut self.classes[c].extras;
            reserve(extras, 1);
            extras.push(Extra::new(dirty, expires_at));
        }
        let idx = pack(c, cell);
        self.index.insert(tag, idx);
        self.len += 1;
        self.charge(idx, true);
    }

    /// The cell under the CLOCK hand, which then moves on to the next:
    /// cell by cell through a class, class by class through the shard,
    /// a fixed cyclic order over every entry. The shard must not be
    /// empty.
    fn advance_hand(&mut self) -> Idx {
        let (mut class, mut cell) = self.hand;
        while cell >= self.classes[class].cells.len() {
            class = (class + 1) % CLASSES;
            cell = 0;
        }
        self.hand = (class, cell + 1);
        pack(class, cell)
    }

    /// Evicts one clean entry by CLOCK, if there is one: the hand moves
    /// over the cells, skips dirty entries, clears each set reference
    /// bit it passes and takes the first clean entry whose bit is clear;
    /// two passes find one. The hand walks the cells, not the index:
    /// evicting in slot order would fill the slots just ahead of the
    /// hand, and linear probing there would run long.
    fn evict_one(&mut self) -> bool {
        // Every entry is dirty exactly when they hold all the bytes.
        if self.dirty_bytes == self.used_bytes {
            return false;
        }
        for _ in 0..2 * self.len {
            let idx = self.advance_hand();
            if self.marks(idx).0 {
                continue;
            }
            let pos = self.index.slot(self.hash_of(idx), idx);
            let slot = &mut self.index.slots[pos];
            if slot.tag & REFERENCED == 0 {
                // The class's last cell, most often its newest entry,
                // moves into its place behind the hand and so waits a
                // whole turn.
                self.take(pos);
                return true;
            }
            slot.tag &= !REFERENCED;
        }
        unreachable!("two passes of the hand meet a clean entry with its bit clear")
    }

    /// Removes an entry outright. Returns whether it was there.
    pub fn remove(&mut self, key: impl AsRef<[u8]>) -> bool {
        match self.position(key.as_ref()) {
            Some(pos) => {
                self.take(pos);
                true
            }
            None => false,
        }
    }

    /// The cell's dirty flag and deadline.
    fn marks(&self, idx: Idx) -> (bool, Option<u64>) {
        let (class, cell) = unpack(idx);
        match self.classes[class].extras.get(cell) {
            None => (false, None),
            Some(extra) => (extra.dirty, extra.expires_at()),
        }
    }

    /// The hash of cell `idx`'s key, as its index slot holds it.
    fn hash_of(&self, idx: Idx) -> u32 {
        hash(split(self.record(idx)).0)
    }

    /// The bytes cell `idx`'s entry is billed.
    fn cost_of(&self, idx: Idx) -> usize {
        let (class, cell) = unpack(idx);
        let has_extra = cell < self.classes[class].extras.len();
        billed(self.record(idx).len(), has_extra)
    }

    /// Adds the cell's bytes to the counters, or takes them off.
    fn charge(&mut self, idx: Idx, add: bool) {
        let cost = self.cost_of(idx);
        let pmem = split(self.record(idx)).1.len() >= self.pmem_from;
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

    /// Moves the cell whose index slot is at `pos` out of the shard:
    /// takes its bytes off the counters and drops the slot. If it had an
    /// extra, the class's last cell with one fills its place; then the
    /// class's last cell fills the place left.
    fn take(&mut self, pos: usize) {
        let idx = self.index.slots[pos].idx;
        self.charge(idx, false);
        self.index.remove(pos);
        let (c, mut cell) = unpack(idx);
        let class = &mut self.classes[c];
        if cell < class.extras.len() {
            let last = class.extras.len() - 1;
            class.extras.swap_remove(cell);
            trim(&mut class.extras, 1);
            class.cells.swap(cell, last);
            if cell < last {
                self.moved(pack(c, last), pack(c, cell));
            }
            cell = last;
        }
        let cells = &mut self.classes[c].cells;
        cells.swap_remove(cell);
        let last = cells.len();
        if cell < last {
            self.moved(pack(c, last), pack(c, cell));
        }
        self.len -= 1;
    }

    /// Repoints the index slot of the cell that moved from `from` to
    /// `to`.
    fn moved(&mut self, from: Idx, to: Idx) {
        self.index.repoint(self.hash_of(to), from, to);
    }

    /// Swaps live cells `a` and `b` of one class, which both have an
    /// extra, with their extras, and repoints their index slots.
    fn swap(&mut self, a: Idx, b: Idx) {
        let (slot_a, slot_b) = (
            self.index.slot(self.hash_of(a), a),
            self.index.slot(self.hash_of(b), b),
        );
        self.index.slots[slot_a].idx = b;
        self.index.slots[slot_b].idx = a;
        let ((c, a), (_, b)) = (unpack(a), unpack(b));
        let class = &mut self.classes[c];
        class.cells.swap(a, b);
        class.extras.swap(a, b);
    }

    /// Clears the dirty flag after a successful storage write of
    /// `flushed` — only if the entry still holds exactly those bytes.
    /// An overwrite that landed after the flush took its snapshot stays
    /// dirty (and pinned) until a later flush writes *it*; cleaning by
    /// key alone would let it be evicted with storage still holding the
    /// older value. Returns whether the entry is clean now.
    pub fn mark_clean_if(&mut self, key: impl AsRef<[u8]>, flushed: &[u8]) -> bool {
        match self.find(key.as_ref()) {
            Some(idx) if split(self.record(idx)).1 == flushed => {
                self.clean_at(idx);
                true
            }
            _ => false,
        }
    }

    /// Takes the dirty flag off cell `idx`. Without a deadline it then
    /// gives up its extra: it trades places with its class's last cell
    /// that has one, and drops the class's last extra, which is now its
    /// own.
    fn clean_at(&mut self, mut idx: Idx) {
        let (dirty, expires_at) = self.marks(idx);
        if !dirty {
            return;
        }
        self.charge(idx, false);
        let (c, cell) = unpack(idx);
        self.classes[c].extras[cell].dirty = false;
        if expires_at.is_none() {
            let last = self.classes[c].extras.len() - 1;
            if cell < last {
                self.swap(idx, pack(c, last));
                idx = pack(c, last);
            }
            let extras = &mut self.classes[c].extras;
            extras.pop();
            trim(extras, 1);
        }
        self.charge(idx, true);
    }

    /// Active expiration pass: removes every *clean* entry whose
    /// deadline has passed and returns their keys (callers propagate
    /// deletes to the storage tier). Dirty expired entries stay pinned
    /// until the write-back flush cleans them. Only entries with an
    /// `Extra` can expire, so this walks those.
    pub fn sweep_expired(&mut self, now_nanos: u64) -> Vec<Key> {
        let mut expired = Vec::new();
        for class in &self.classes {
            for (cell, e) in class.extras.iter().enumerate() {
                if !e.dirty && is_expired(e.expires_at(), now_nanos) {
                    expired.push(Key::copy_from(split(class.cells.record(cell)).0));
                }
            }
        }
        for key in &expired {
            let pos = self.position(key.as_slice()).expect("key just listed");
            self.take(pos);
        }
        expired
    }

    /// Snapshot of all dirty entries, class by class (batch-flush
    /// input). Only cells with an extra can be dirty, so this walks
    /// those, O(dirty + expiring), and stops once the entries it has
    /// found hold all of `dirty_bytes`: at once in a shard with none.
    pub fn dirty_entries(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        let mut left = self.dirty_bytes;
        for class in &self.classes {
            if left == 0 {
                break;
            }
            for (cell, e) in class.extras.iter().enumerate() {
                if e.dirty {
                    let record = class.cells.record(cell);
                    left -= billed(record.len(), true);
                    let (key, value) = split(record);
                    out.push((Key::copy_from(key), Value::copy_from(value)));
                }
            }
        }
        out
    }

    /// Calls `f(key, value, dirty, expires_at)` for every entry live at
    /// `now_nanos`, class by class: expired entries are skipped, not
    /// reclaimed, and reference bits are untouched. Nothing is copied.
    pub fn for_each_live(
        &self,
        now_nanos: u64,
        mut f: impl FnMut(&[u8], &[u8], bool, Option<u64>),
    ) {
        for (c, class) in self.classes.iter().enumerate() {
            for cell in 0..class.cells.len() {
                let (dirty, expires_at) = self.marks(pack(c, cell));
                if !is_expired(expires_at, now_nanos) {
                    let (key, value) = split(class.cells.record(cell));
                    f(key, value, dirty, expires_at);
                }
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

        /// Every key, expired or not, class by class.
        fn keys(&self) -> Vec<Key> {
            let mut keys = Vec::new();
            for class in &self.classes {
                for cell in 0..class.cells.len() {
                    keys.push(Key::copy_from(split(class.cells.record(cell)).0));
                }
            }
            keys
        }

        /// The bytes the classes' cells hold, boxed records included.
        fn held(&self) -> usize {
            let held = |cells: &Cells| match cells {
                Cells::Inline { bytes, .. } => bytes.len(),
                Cells::Boxed(records) => records.iter().map(|r| r.len() + BOX_BYTES).sum(),
            };
            self.classes.iter().map(|c| held(&c.cells)).sum()
        }

        /// The extras the classes hold.
        fn extras(&self) -> usize {
            self.classes.iter().map(|c| c.extras.len()).sum()
        }

        /// The cached key's reference bit.
        fn referenced(&self, key: impl AsRef<[u8]>) -> bool {
            let pos = self.position(key.as_ref()).expect("cached key");
            self.index.slots[pos].tag & REFERENCED != 0
        }
    }

    fn k(i: usize) -> Key {
        Key::from(format!("k{i}"))
    }

    fn v(len: usize) -> Value {
        Value::from(vec![b'v'; len])
    }

    /// Value lengths whose records fall in most strides and on both
    /// sides of the inline cap (for `k(i)`'s 2- and 3-byte keys it lies
    /// at 251–252 bytes of value), so overwrites move keys across
    /// classes and in and out of the boxed one.
    fn value_len() -> impl Strategy<Value = usize> {
        prop_oneof![3 => 0usize..120, 1 => 236usize..268]
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
        for key in s.keys() {
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
    fn a_cell_is_its_record_and_pad_byte_rounded_to_the_stride() {
        assert_eq!(BOX_BYTES, 16);
        assert_eq!(EXTRA_BYTES, 16);
        assert_eq!(SLOT_SHARE, 10);
        assert_eq!(record_len(3, 5), 1 + 3 + 5);
        assert_eq!(record_len(127, 0), 128);
        assert_eq!(record_len(128, 0), 130);
        // A record and its pad byte, rounded up to 8 bytes.
        assert_eq!(entry_cost(20, 95), 120 + 10);
        assert_eq!(entry_cost(16, 46), 64 + 10);
        assert_eq!(entry_cost(16, 47), 72 + 10);
        assert_eq!(entry_cost(0, 0), 8 + 10);
        // The last inline stride, then boxed: the record and its box.
        assert_eq!(class_of(INLINE_CAP - 1), BOXED - 1);
        assert_eq!(entry_cost(16, INLINE_CAP - 18), INLINE_CAP + 10);
        assert_eq!(class_of(INLINE_CAP), BOXED);
        assert_eq!(entry_cost(16, INLINE_CAP - 17), INLINE_CAP + 16 + 10);
        assert_eq!(entry_cost(8, 4096), 1 + 8 + 4096 + 16 + 10);
        // Every class hands back the key and value it was given.
        let mut s = LruShard::new(1 << 20);
        for len in 0..INLINE_CAP + 20 {
            s.insert(k(len), v(len), false).unwrap();
        }
        for len in 0..INLINE_CAP + 20 {
            assert_eq!(s.peek(k(len)).unwrap().value, v(len));
        }
        assert!(s.classes.iter().all(|c| c.cells.len() > 0));
        let owed: usize = (0..INLINE_CAP + 20)
            .map(|len| cost(len, len) - SLOT_SHARE)
            .sum();
        assert_eq!(s.held(), owed);
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

    /// Of the clean entries, one whose reference bit is clear goes
    /// before those whose bit is set: whichever of four entries was not
    /// hit is the one evicted, wherever its slot lies.
    #[test]
    fn a_clear_bit_goes_before_a_set_one() {
        for cold in 0..4 {
            // Budget fits 4 clean entries of `cost(1, 10)`, not 5.
            let mut s = LruShard::new(5 * cost(1, 10) - 1);
            for i in 0..4 {
                s.insert(k(i), v(10), false).unwrap();
            }
            for i in (0..4).filter(|&i| i != cold) {
                assert!(s.get(k(i), 0).is_some());
                assert!(s.referenced(k(i)), "a hit sets the bit");
            }
            assert!(!s.referenced(k(cold)), "an insert leaves the bit clear");
            assert_eq!(s.insert(k(4), v(10), false).unwrap(), 1);
            assert!(!s.contains(k(cold)), "k{cold} was the one not hit");
            assert_eq!(s.len(), 4);
        }
    }

    /// An entry hit since the hand last passed it survives that pass:
    /// once an eviction has cleared every bit, a hit entry outlives the
    /// next three evictions, each of which has an entry with a clear bit
    /// to take before the hand comes round to it again.
    #[test]
    fn a_hit_since_the_hand_passed_survives_that_pass() {
        for hit in 0..4 {
            let mut s = LruShard::new(5 * cost(1, 10) - 1);
            for i in 0..4 {
                s.insert(k(i), v(10), false).unwrap();
                s.get(k(i), 0);
            }
            // Every bit set: the hand clears all four, then takes one.
            assert_eq!(s.insert(k(4), v(10), false).unwrap(), 1);
            let survivors: Vec<Key> = (0..5).map(k).filter(|key| s.contains(key)).collect();
            assert_eq!(survivors.len(), 4);
            assert!(survivors.iter().all(|key| !s.referenced(key)));
            let hit = &survivors[hit];
            s.get(hit, 0);
            for i in 5..8 {
                assert_eq!(s.insert(k(i), v(10), false).unwrap(), 1);
                assert!(s.contains(hit), "{hit:?} evicted by the insert of k{i}");
            }
        }
    }

    /// A dirty entry is never evicted: every insert into a full shard
    /// takes a clean entry instead.
    #[test]
    fn dirty_entries_are_pinned() {
        // Room for one dirty entry (with its extra) and two clean ones.
        let mut s = LruShard::new(3 * cost(1, 10) + EXTRA_BYTES);
        s.insert(k(1), v(10), true).unwrap();
        s.insert(k(2), v(10), false).unwrap();
        s.insert(k(3), v(10), false).unwrap();
        for i in 4..10 {
            assert_eq!(s.insert(k(i), v(10), false).unwrap(), 1);
            assert!(s.peek(k(1)).unwrap().dirty);
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn all_dirty_causes_backpressure() {
        let mut s = LruShard::new(3 * (cost(1, 40) + EXTRA_BYTES));
        s.insert(k(1), v(40), true).unwrap();
        s.insert(k(2), v(40), true).unwrap();
        s.insert(k(3), v(40), true).unwrap();
        let err = s.insert(k(4), v(40), false).unwrap_err();
        assert!(matches!(err, Error::Backpressure { .. }));
        // Cleaning one unblocks the insert.
        s.mark_clean(k(1));
        s.insert(k(4), v(40), false).unwrap();
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

    /// A bigger overwrite that cannot fit, even with every clean entry
    /// evicted, is refused: the old entry stays in place, and so do the
    /// clean entries, whose eviction would not have made room.
    #[test]
    fn refused_overwrite_leaves_the_shard_as_it_was() {
        let mut s = LruShard::new(2 * (cost(1, 10) + EXTRA_BYTES) + cost(3, 10));
        s.insert(k(1), v(10), true).unwrap();
        s.insert(k(2), v(10), true).unwrap();
        s.insert(k(3), v(10), false).unwrap();
        let before = (s.used_bytes(), s.dirty_bytes());
        assert!(matches!(
            s.insert(k(1), v(60), true),
            Err(Error::Backpressure { .. })
        ));
        assert_eq!(s.peek(k(1)).unwrap().value, v(10));
        assert!(s.contains(k(3)), "a refused insert evicts nothing");
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

    /// The dirty entries, key and value, whatever their order; a clean
    /// entry with a deadline, which holds an extra too, is not one.
    #[test]
    fn dirty_entries_snapshot() {
        let mut s = LruShard::new(10_000);
        s.insert(k(1), v(5), true).unwrap();
        s.insert(k(2), v(5), false).unwrap();
        s.insert(k(3), v(6), true).unwrap();
        s.insert_full(k(4), v(5), false, Some(100)).unwrap();
        let dirty = |s: &LruShard| {
            let mut entries = s.dirty_entries();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries
        };
        let expected = [(k(1), v(5)), (k(3), v(6))];
        assert_eq!(dirty(&s), expected, "each once");
        // A hit leaves the dirty entries as they are.
        s.get(k(1), 0);
        assert_eq!(dirty(&s), expected);
        s.mark_clean(k(1));
        s.mark_clean(k(3));
        assert!(s.dirty_entries().is_empty());
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
    /// and swept expiry, overwrite into another class or the boxed one
    /// — moves its cell out: no class keeps a removed entry's bytes.
    #[test]
    fn removed_entries_leave_no_bytes_in_their_class() {
        let mut s = LruShard::new(4 * cost(1, 30) + 2 * EXTRA_BYTES + cost(1, 300));
        for i in 1..=4 {
            let ttl = (i == 3).then_some(100);
            s.insert_full(k(i), v(20 + i), false, ttl).unwrap();
        }
        assert!(s.remove(k(2)));
        assert!(s.get(k(3), 100).is_none(), "expired on read");
        s.insert(k(5), v(30), true).unwrap();
        s.insert(k(6), v(300), false).unwrap();
        s.insert(k(7), v(30), false).unwrap();
        assert_eq!(s.insert(k(8), v(30), false).unwrap(), 1);
        // Boxed to inline, inline to boxed, and back to another stride.
        s.insert(k(6), v(5), false).unwrap();
        s.insert(k(4), v(300), false).unwrap();
        s.insert(k(4), v(50), false).unwrap();
        s.insert_full(k(7), v(30), false, Some(200)).unwrap();
        assert_eq!(s.sweep_expired(200).len(), 1);

        let live: Vec<Key> = s.keys();
        assert_eq!(s.len(), live.len(), "a cell outlived its entry");
        assert_eq!(s.index.len, live.len(), "an index slot outlived its entry");
        assert_eq!(s.extras(), 1, "only the dirty k5 has an extra");
        let owed: usize = live
            .iter()
            .map(|key| entry_cost(key.len(), s.peek(key).unwrap().value.len()) - SLOT_SHARE)
            .sum();
        assert_eq!(s.held(), owed);
        assert_eq!(s.dirty_entries().len(), 1);
        for key in &live {
            assert!(s.get(key, 0).is_some());
        }
    }

    /// A class grows by a 32nd at a time, and the classes and the index
    /// give back their spare room once most entries are gone.
    #[test]
    fn emptied_shards_shrink() {
        let mut s = LruShard::new(1 << 30);
        for i in 0..10_000 {
            s.insert(k(i), v(4), false).unwrap();
            s.insert(k(i + 10_000), v(300), false).unwrap();
        }
        let spare = |s: &LruShard| -> Vec<usize> {
            let spare = |cells: &Cells| match cells {
                Cells::Inline { bytes, .. } => bytes.capacity(),
                Cells::Boxed(records) => records.capacity() * BOX_BYTES,
            };
            s.classes.iter().map(|c| spare(&c.cells)).collect()
        };
        let inline = class_of(record_len(k(9_999).len(), 4));
        let (one, boxed) = (cost(9_999, 4) - SLOT_SHARE, 10_000 * BOX_BYTES);
        let grown = spare(&s);
        assert!(
            grown[inline] <= 10_000 * one + 10_000 * one / 32,
            "{grown:?}"
        );
        assert!(grown[BOXED] <= boxed + boxed / 32, "{grown:?}");
        assert!(s.index.slots.len() <= 20_000 * 25 / 16, "load under 0.64");
        for i in 0..9_900 {
            assert!(s.remove(k(i)));
            assert!(s.remove(k(i + 10_000)));
        }
        let shrunk = spare(&s);
        assert!(shrunk[inline] < 400 * one, "{shrunk:?}");
        assert!(shrunk[BOXED] < 400 * BOX_BYTES, "{shrunk:?}");
        assert!(s.index.slots.len() < 1_000, "{}", s.index.slots.len());
        for i in 9_900..10_000 {
            assert_eq!(s.get(k(i), 0), Some(v(4)));
            assert_eq!(s.get(k(i + 10_000), 0), Some(v(300)));
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
                .keys()
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
            for key in s.keys() {
                let e = s.peek(&key).unwrap();
                prop_assert!(e.dirty || e.expires_at.is_none_or(|at| at > now));
            }
        }

        /// `dirty_entries` holds exactly the dirty cells, once each, and
        /// `dirty_bytes` is their summed cost, under arbitrary
        /// interleavings of every operation that dirties, cleans, moves,
        /// evicts or reclaims a cell. A hit leaves the set as it was.
        #[test]
        fn prop_dirty_entries_are_the_dirty_cells(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..24, value_len(), any::<bool>(), proptest::option::of(1u64..40)),
                1..300,
            )
        ) {
            // Small budget: inserts evict, and all-dirty shards refuse.
            let mut s = LruShard::new(1500);
            let mut now = 0u64;
            let listed = |s: &LruShard| -> Vec<Key> {
                let mut keys: Vec<Key> = s.dirty_entries().into_iter().map(|(key, _)| key).collect();
                keys.sort();
                keys
            };
            for (op, ki, vlen, dirty, ttl) in ops {
                let before = listed(&s);
                match op {
                    // Insert or overwrite (dirty or clean, with or
                    // without a deadline); may evict or hit backpressure.
                    0..=2 => {
                        let done = s.insert_full(k(ki), v(vlen), dirty, ttl.map(|t| now + t));
                        if done.is_ok() && dirty {
                            prop_assert!(listed(&s).contains(&k(ki)));
                        }
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
                    // Hit (or lazily reclaim), advance time, sweep.
                    _ => {
                        if s.get(k(ki), now).is_some() {
                            prop_assert_eq!(&listed(&s), &before);
                        }
                        now += ttl.unwrap_or(0);
                        if dirty {
                            s.sweep_expired(now);
                        }
                    }
                }
                let mut walk: Vec<Key> = s
                    .keys()
                    .into_iter()
                    .filter(|key| s.peek(key).unwrap().dirty)
                    .collect();
                let cost: usize = walk
                    .iter()
                    .map(|key| entry_cost(key.len(), s.peek(key).unwrap().value.len()) + EXTRA_BYTES)
                    .sum();
                prop_assert_eq!(s.dirty_bytes(), cost);
                walk.sort();
                prop_assert_eq!(&listed(&s), &walk);
                prop_assert_eq!(s.keys().len(), s.len());
                prop_assert_eq!(s.index.len, s.len());
                // The cells with an extra are exactly the dirty or
                // expiring ones.
                let marked = s
                    .keys()
                    .iter()
                    .filter(|key| s.peek(key).is_some_and(|e| e.dirty || e.expires_at.is_some()))
                    .count();
                prop_assert_eq!(s.extras(), marked);
            }
        }

        /// What CLOCK promises, under arbitrary inserts (clean or dirty,
        /// with or without a deadline), overwrites, hits, cleans,
        /// removes and single evictions:
        /// * a hit sets the entry's bit; a new key's insert leaves it
        ///   clear and an overwrite sets it;
        /// * an eviction takes a clean entry, one whose bit was clear
        ///   if there was one; if every clean entry's bit was set, it
        ///   leaves every clean entry's bit clear;
        /// * eviction fails exactly when every entry is dirty, and an
        ///   insert fails with backpressure exactly when the free
        ///   budget, the clean entries and the key's own old entry
        ///   together cannot make room for it; no insert evicts a dirty
        ///   entry.
        #[test]
        fn prop_clock_evicts_clean_entries_with_clear_bits_first(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..24, value_len(), any::<bool>(), proptest::option::of(1u64..40)),
                1..300,
            )
        ) {
            const BUDGET: usize = 1500;
            let mut s = LruShard::new(BUDGET);
            for (op, ki, vlen, dirty, deadline) in ops {
                let key = k(ki);
                // Every entry with its dirty flag and reference bit.
                let before: Vec<(Key, CacheEntry, bool)> = s
                    .keys()
                    .into_iter()
                    .map(|other| {
                        let (e, r) = (s.peek(&other).unwrap(), s.referenced(&other));
                        (other, e, r)
                    })
                    .collect();
                let gone = |s: &LruShard| -> Vec<(Key, CacheEntry, bool)> {
                    before
                        .iter()
                        .filter(|(other, ..)| *other != key && !s.contains(other))
                        .cloned()
                        .collect()
                };
                match op {
                    0..=2 => {
                        let cost = |key: &Key, vlen: usize, extra: bool| {
                            entry_cost(key.len(), vlen) + if extra { EXTRA_BYTES } else { 0 }
                        };
                        let room = BUDGET - s.used_bytes()
                            + before
                                .iter()
                                .filter(|(other, e, _)| *other == key || !e.dirty)
                                .map(|(other, e, _)| {
                                    cost(other, e.value.len(), e.dirty || e.expires_at.is_some())
                                })
                                .sum::<usize>();
                        let needed = cost(&key, vlen, dirty || deadline.is_some());
                        let existed = s.contains(&key);
                        let done = s.insert_full(&key, v(vlen), dirty, deadline);
                        prop_assert_eq!(done.is_ok(), needed <= room);
                        let victims = gone(&s);
                        match done {
                            Ok(evicted) => {
                                prop_assert_eq!(evicted, victims.len());
                                prop_assert_eq!(s.referenced(&key), existed);
                            }
                            Err(e) => {
                                prop_assert!(matches!(e, Error::Backpressure { .. }), "{:?}", e);
                                // A refused write leaves the key as it was,
                                // reference bit included.
                                let old_bit = before.iter().find(|(other, ..)| *other == key).map(|b| b.2);
                                prop_assert_eq!(s.contains(&key).then(|| s.referenced(&key)), old_bit);
                            }
                        }
                        prop_assert!(victims.iter().all(|(_, e, _)| !e.dirty), "evicted a dirty entry");
                    }
                    3 => {
                        s.remove(&key);
                    }
                    4 => {
                        if let Some(e) = s.peek(&key) {
                            s.mark_clean_if(&key, e.value.as_slice());
                        }
                    }
                    5 => {
                        let any_clean = before.iter().any(|(_, e, _)| !e.dirty);
                        prop_assert_eq!(s.evict_one(), any_clean);
                        let victims: Vec<_> = before.iter().filter(|(other, ..)| !s.contains(other)).collect();
                        prop_assert_eq!(victims.len(), usize::from(any_clean));
                        if let Some((_, e, r)) = victims.first() {
                            prop_assert!(!e.dirty, "evicted a dirty entry");
                            let clear = before.iter().any(|(_, e, r)| !e.dirty && !r);
                            prop_assert!(!r || !clear, "took a set bit before a clear one");
                            if *r {
                                for (other, ..) in before.iter().filter(|(_, e, _)| !e.dirty) {
                                    prop_assert!(!s.contains(other) || !s.referenced(other));
                                }
                            }
                        }
                    }
                    // Deadlines are at least 1 and the clock stays at 0,
                    // so every cached key is live.
                    _ => {
                        if s.get(&key, 0).is_some() {
                            prop_assert!(s.referenced(&key));
                        }
                    }
                }
            }
        }

        /// The classes hold exactly the live entries, under inserts and
        /// overwrites that move keys across classes, removes,
        /// evictions, cleans and expiry: each entry's cell is in the
        /// class its record's length picks, padded with zeros, and its
        /// index slot points at it; each reads back the value last
        /// written to its key; and the cells, slot shares and extras
        /// add up to `used_bytes`.
        #[test]
        fn prop_cells_hold_exactly_the_live_records(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..24, value_len(), any::<bool>(), proptest::option::of(1u64..40)),
                1..300,
            )
        ) {
            let mut s = LruShard::new(3000);
            let mut written = std::collections::HashMap::new();
            let mut now = 0u64;
            for (op, ki, vlen, dirty, ttl) in ops {
                match op {
                    0..=2 => {
                        if s.insert_full(k(ki), v(vlen), dirty, ttl.map(|t| now + t)).is_ok() {
                            written.insert(k(ki), v(vlen));
                        }
                    }
                    3 => {
                        s.remove(k(ki));
                    }
                    4 => {
                        if let Some(e) = s.peek(k(ki)) {
                            s.mark_clean_if(k(ki), e.value.as_slice());
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
                for (c, class) in s.classes.iter().enumerate() {
                    for cell in 0..class.cells.len() {
                        let record = class.cells.record(cell);
                        prop_assert_eq!(class_of(record.len()), c);
                        if let Cells::Inline { stride, bytes } = &class.cells {
                            let whole = &bytes[cell * stride..(cell + 1) * stride];
                            prop_assert_eq!(1 + record.len() + whole[0] as usize, *stride);
                            prop_assert!(whole[1 + record.len()..].iter().all(|&b| b == 0));
                        }
                        let (key, value) = split(record);
                        prop_assert_eq!(s.find(key), Some(pack(c, cell)));
                        prop_assert_eq!(Some(value), written.get(&Key::copy_from(key)).map(|v: &Value| v.as_slice()));
                    }
                }
                prop_assert_eq!(s.index.len, s.len());
                prop_assert_eq!(
                    s.held() + s.len() * SLOT_SHARE + s.extras() * EXTRA_BYTES,
                    s.used_bytes()
                );
            }
        }

        /// The budget is never exceeded, and `used_bytes` is the summed
        /// cost of the entries, under arbitrary operation sequences.
        #[test]
        fn prop_budget_invariant(ops in proptest::collection::vec((0usize..50, 0usize..300, any::<bool>()), 1..300)) {
            let mut s = LruShard::new(2000);
            for (ki, vlen, dirty) in ops {
                // Dirty inserts may hit backpressure; that's fine.
                let _ = s.insert(k(ki), v(vlen.min(1800)), dirty);
                prop_assert!(s.used_bytes() <= 2000);
                prop_assert_eq!(s.keys().len(), s.len());
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
                (0u8..7, 0usize..24, value_len(), any::<bool>(), proptest::option::of(1u64..40)),
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
