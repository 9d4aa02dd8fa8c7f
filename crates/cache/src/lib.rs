//! TierBase cache tier (§3, §4.1).
//!
//! In-memory hash tables with CLOCK eviction, sized to a byte budget
//! and split across shards for concurrency. CLOCK keeps one reference
//! bit per entry, in its index slot, where exact LRU kept two links in
//! every node and rewrote them on every hit; it loses little hit ratio
//! for that. The pieces the synchronization
//! policies need live here too:
//!
//! * [`lru`] / [`cache`] — the sharded CLOCK store with dirty-entry
//!   pinning (a dirty entry must never be evicted before it reaches the
//!   storage tier) and §4.3's DRAM/PMem split as one config rule,
//!   [`PmemPlacement`]: values at or above a size threshold live in
//!   PMem.
//! * [`ShardedCache::fill`] — the insert-if-absent a storage-tier fetch
//!   fills the cache with, so an older fetched copy never replaces a
//!   write that landed during the fetch.
//! * [`snapshot`] — point-in-time snapshots for warm restarts.
//!
//! The byte budget is the heap the entries hold. A shard keeps its
//! records inline in size classes, one per 8-byte stride: an entry's
//! cell is `pad | varint(key length) | key | value`, padded to its
//! stride, in its class's one byte array; a record too long for the
//! largest stride, 256 bytes, is an allocation of its own behind a
//! 16-byte box. Add a 10-byte share of an index slot (hash, reference
//! bit, class and cell; [`entry_cost`]); a dirty or expiring entry
//! holds a 16-byte side record more, its dirty flag and deadline
//! ([`EXTRA_BYTES`]). Three rules:
//! * the budget, `used_bytes` and `bytes_by_medium` count requested
//!   heap bytes, stride padding included;
//! * the system allocator's own per-allocation header and size-class
//!   rounding are not counted; they apply only to boxed records;
//! * inserts copy the key and value, so no entry keeps a caller's
//!   buffer — a request burst the key was a window into — alive.
//!
//! A 20-byte key with a 95-byte stored value costs 130 bytes, 1.13×
//! its key and value; measured against the heap in
//! `tests/cache_footprint.rs`.
//!
//! Write-back dirty data survives the loss of its node through a
//! replica node (`tb_cluster::NodeStore::with_replica`), which holds
//! its copy on another node; this crate keeps one copy.
//!
//! §4.1.1's write-through queue and temporary update buffer are not
//! here: they are the writes a `TierBase` batch pass stages for its one
//! storage round trip, which reach this cache only once storage has
//! acknowledged them.

#![deny(unsafe_code)]

pub mod cache;
pub mod lru;
pub mod snapshot;

pub use cache::{CacheConfig, CacheStats, PmemPlacement, ShardedCache};
pub use lru::{entry_cost, CacheEntry, Lookup, EXTRA_BYTES};
pub use snapshot::{load_snapshot, write_snapshot};
