//! TierBase cache tier (§3, §4.1).
//!
//! In-memory hash tables with LRU eviction, sized to a byte budget and
//! split across shards for concurrency. The pieces the synchronization
//! policies need live here too:
//!
//! * [`lru`] / [`cache`] — the sharded LRU store with DRAM/PMem value
//!   placement and dirty-entry pinning (a dirty entry must never be
//!   evicted before it reaches the storage tier).
//! * [`ShardedCache::fill`] — the insert-if-absent a storage-tier fetch
//!   fills the cache with, so an older fetched copy never replaces a
//!   write that landed during the fetch.
//! * [`replica`] — master→replica replication of cache contents and
//!   dirty data (write-back reliability, §4.1.2).
//!
//! §4.1.1's write-through queue and temporary update buffer are not
//! here: they are the writes a `TierBase` batch pass stages for its one
//! storage round trip, which reach this cache only once storage has
//! acknowledged them.

pub mod cache;
pub mod lru;
pub mod replica;
pub mod snapshot;

pub use cache::{CacheConfig, CacheStats, Lookup, ShardedCache};
pub use lru::{CacheEntry, LruShard};
pub use replica::{ReplicatedCache, ReplicationMode};
pub use snapshot::{load_snapshot, write_snapshot};
