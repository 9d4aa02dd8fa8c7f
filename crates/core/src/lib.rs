//! TierBase — a workload-driven, cost-optimized key-value store.
//!
//! Reproduction of *"TierBase: A Workload-Driven Cost-Optimized
//! Key-Value Store"* (Shen et al., ICDE 2025). The store combines:
//!
//! * a **cache tier** of sharded in-memory hash tables (DRAM and/or
//!   simulated PMem) with CLOCK eviction, one reference bit per entry
//!   (a replicated store is a `tb-cluster` node with a replica),
//! * a **storage tier**, any `KvEngine` (by default an `LsmDb` at
//!   `<dir>/storage`), synchronized by **write-through** or
//!   **write-back** policies (§4.1),
//! * **persistence modes** for cache-resident deployments: WAL on disk
//!   or WAL on a persistent-memory ring buffer (§4.3),
//! * **pre-trained compression** (dictionary LZ or pattern-based PBC)
//!   of values (§4.2),
//! * **elastic threading** between single- and multi-thread modes
//!   (§4.4),
//! * Redis-style data types over the byte-string core's CAS (§3).
//!
//! ```no_run
//! use tierbase_core::{TierBase, TierBaseConfig, SyncPolicy};
//! use tb_common::{Key, Value, KvEngine};
//!
//! let tb = TierBase::open(
//!     TierBaseConfig::builder("/tmp/tierbase-demo")
//!         .cache_capacity(64 << 20)
//!         .policy(SyncPolicy::WriteThrough)
//!         .build(),
//! ).unwrap();
//! tb.put(Key::from("user:1"), Value::from("alice")).unwrap();
//! assert_eq!(tb.get(&Key::from("user:1")).unwrap(), Some(Value::from("alice")));
//! ```

#![deny(unsafe_code)]

pub mod config;
pub mod elastic;
pub mod interval;
pub mod store;
mod store_batch;
mod store_read;
mod store_stats;
mod store_sync;
mod store_write;
pub mod types;

pub use config::{
    PersistenceMode, PmemTuning, SyncPolicy, TierBaseConfig, TierBaseConfigBuilder, WriteBackTuning,
};
pub use interval::AccessIntervalTracker;
pub use store::{TierBase, TierBaseStats};
pub use tb_compress::CompressorChoice;
pub use types::{DataTypes, ListEnd};

/// Every named fault point on the cache tier's published files:
/// `cache.rdb` (`tb_cache::write_snapshot`) and `cache.model.<g>` (a
/// trained compression model), one per `tb_common::durable::publish`
/// step. The cache log's hits are `tb_lsm`'s `wal.*`. The
/// `cache_sites_all_reachable` test in `tests/fault_torture.rs` keeps
/// this list honest against the code.
pub const CACHE_FAULT_SITES: &[&str] = &[
    "cache.rdb.write",
    "cache.rdb.sync",
    "cache.rdb.rename",
    "cache.rdb.dir_sync",
    "cache.model.write",
    "cache.model.sync",
    "cache.model.rename",
    "cache.model.dir_sync",
];

/// The subset of [`CACHE_FAULT_SITES`] that are buffer writes, where a
/// torn injection is meaningful.
pub const CACHE_FAULT_WRITE_SITES: &[&str] = &["cache.rdb.write", "cache.model.write"];
