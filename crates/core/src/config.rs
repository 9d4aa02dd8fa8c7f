//! TierBase configuration: the `s` in the cost model's `C(w, i, s)`.
//!
//! Every knob here is a point in the configuration space the cost
//! optimization framework (§5.3) searches: cache capacity moves `SC`;
//! the sync policy and persistence mode move `PC` and durability;
//! compression and PMem trade one for the other. Replication is not a
//! store knob: a replicated TierBase is a `tb_cluster::NodeStore` with
//! a replica node.

use crate::elastic::ThreadMode;
use std::path::PathBuf;
use std::sync::Arc;
use tb_common::{Clock, KvEngine, SystemClock};
use tb_compress::CompressorChoice;

/// How the cache tier synchronizes with the storage tier (§4.1), or
/// persists itself when it *is* the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Cache only: the store is the cache tier, made durable (or not) by
    /// its [`PersistenceMode`].
    InMemory,
    /// Synchronous storage update before acknowledging (§4.1.1).
    WriteThrough,
    /// Asynchronous batched storage update (§4.1.2). Until a flush,
    /// dirty data's only copy is this cache; to survive losing it, run
    /// the store as a `tb_cluster::NodeStore::with_replica` node.
    WriteBack,
}

/// Durability of the cache tier itself (used with [`SyncPolicy::InMemory`]
/// when no storage tier exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistenceMode {
    /// No persistence.
    None,
    /// Write-ahead log on disk, asynchronous fsync (paper's "WAL").
    Wal,
    /// WAL on a PMem persistent ring buffer, synced per transaction and
    /// batch-drained ("WAL-PMem").
    WalPmem,
}

/// Write-back pacing.
#[derive(Debug, Clone, Copy)]
pub struct WriteBackTuning {
    /// Flush when dirty bytes exceed this.
    pub max_dirty_bytes: u64,
    /// Flush at least every N write operations.
    pub flush_every_ops: u64,
    /// Storage batch size per flush RPC.
    pub batch_size: usize,
}

impl Default for WriteBackTuning {
    fn default() -> Self {
        Self {
            max_dirty_bytes: 8 << 20,
            flush_every_ops: 1024,
            batch_size: 256,
        }
    }
}

/// PMem usage for the cache tier (§4.3).
#[derive(Debug, Clone, Copy)]
pub struct PmemTuning {
    /// Values at or above this size are placed in PMem.
    pub value_threshold: usize,
    /// PMem $/GB relative to DRAM (discounts `SC`).
    pub cost_factor: f64,
}

impl Default for PmemTuning {
    fn default() -> Self {
        Self {
            value_threshold: 64,
            cost_factor: 0.4,
        }
    }
}

/// Full store configuration.
#[derive(Clone)]
pub struct TierBaseConfig {
    /// Data directory for WAL / storage-tier files.
    pub dir: PathBuf,
    /// Cache tier byte budget (per node).
    pub cache_capacity: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Cache/storage synchronization policy.
    pub policy: SyncPolicy,
    /// Cache-tier persistence (only meaningful without a storage tier).
    pub persistence: PersistenceMode,
    /// Which value compressor the cache tier pre-trains (§4.2). The
    /// default is `TzstdDict`: the first 256 values put train a
    /// dictionary of the strings they share (COVER, ≤ 4 KiB) and entropy
    /// tables for their parses after it (the model, ~44 KiB), and later
    /// values are stored compressed under it. On ~100-byte Cities
    /// records the store then holds ~0.66 bytes per user byte, model
    /// billed, where raw values take 1.14 (`tests/cache_space_amp.rs`'s
    /// load). `Tzstd` leaves the dictionary out: ~0.76, for about half
    /// the encode CPU (~0.6 µs less a put) and ~0.1 µs less a get. The model's heap comes out of
    /// `cache_capacity` and is billed in `resident_bytes`.
    /// `CompressorChoice::Raw` turns compression off.
    pub compression: CompressorChoice,
    /// Enable the DRAM/PMem split for cache values.
    pub pmem: Option<PmemTuning>,
    /// Threading mode (single, multi, elastic).
    pub threading: ThreadMode,
    /// Write-back pacing.
    pub write_back: WriteBackTuning,
    /// The storage tier of a tiered policy. `None` opens an `LsmDb` at
    /// `<dir>/storage`; an `InMemory` store takes none.
    pub storage: Option<Arc<dyn KvEngine>>,
    /// PMem ring capacity for WAL-PMem.
    pub pmem_ring_bytes: usize,
    /// Time source for TTL expiry (tests inject a `ManualClock`).
    pub clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for TierBaseConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierBaseConfig")
            .field("dir", &self.dir)
            .field("cache_capacity", &self.cache_capacity)
            .field("cache_shards", &self.cache_shards)
            .field("policy", &self.policy)
            .field("persistence", &self.persistence)
            .field("compression", &self.compression)
            .field("pmem", &self.pmem)
            .field("threading", &self.threading)
            .field("write_back", &self.write_back)
            .field("storage", &self.storage.as_ref().map(|s| s.label()))
            .field("pmem_ring_bytes", &self.pmem_ring_bytes)
            .finish_non_exhaustive()
    }
}

impl TierBaseConfig {
    pub fn builder(dir: impl Into<PathBuf>) -> TierBaseConfigBuilder {
        TierBaseConfigBuilder {
            config: TierBaseConfig {
                dir: dir.into(),
                cache_capacity: 64 << 20,
                cache_shards: 16,
                policy: SyncPolicy::InMemory,
                persistence: PersistenceMode::None,
                compression: CompressorChoice::TzstdDict,
                pmem: None,
                threading: ThreadMode::Single,
                write_back: WriteBackTuning::default(),
                storage: None,
                pmem_ring_bytes: 8 << 20,
                clock: Arc::new(SystemClock::new()),
            },
        }
    }

    /// True when a storage tier must be opened.
    pub fn needs_storage_tier(&self) -> bool {
        matches!(
            self.policy,
            SyncPolicy::WriteThrough | SyncPolicy::WriteBack
        )
    }
}

/// Fluent builder for [`TierBaseConfig`].
pub struct TierBaseConfigBuilder {
    config: TierBaseConfig,
}

impl TierBaseConfigBuilder {
    pub fn cache_capacity(mut self, bytes: usize) -> Self {
        self.config.cache_capacity = bytes;
        self
    }

    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.config.cache_shards = shards;
        self
    }

    pub fn policy(mut self, p: SyncPolicy) -> Self {
        self.config.policy = p;
        self
    }

    pub fn persistence(mut self, p: PersistenceMode) -> Self {
        self.config.persistence = p;
        self
    }

    pub fn compression(mut self, c: CompressorChoice) -> Self {
        self.config.compression = c;
        self
    }

    pub fn pmem(mut self, tuning: PmemTuning) -> Self {
        self.config.pmem = Some(tuning);
        self
    }

    pub fn threading(mut self, mode: ThreadMode) -> Self {
        self.config.threading = mode;
        self
    }

    pub fn write_back(mut self, tuning: WriteBackTuning) -> Self {
        self.config.write_back = tuning;
        self
    }

    /// Sets the storage tier (a tiered policy's `KvEngine`).
    pub fn storage(mut self, engine: Arc<dyn KvEngine>) -> Self {
        self.config.storage = Some(engine);
        self
    }

    pub fn pmem_ring_bytes(mut self, bytes: usize) -> Self {
        self.config.pmem_ring_bytes = bytes;
        self
    }

    /// Injects a time source (deterministic TTL tests).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.config.clock = clock;
        self
    }

    pub fn build(self) -> TierBaseConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let c = TierBaseConfig::builder("/tmp/x").build();
        assert_eq!(c.policy, SyncPolicy::InMemory);
        assert_eq!(c.persistence, PersistenceMode::None);
        assert_eq!(c.compression, CompressorChoice::TzstdDict);
        assert!(!c.needs_storage_tier());
        assert!(c.pmem.is_none());
    }

    #[test]
    fn tiered_policies_need_storage() {
        for p in [SyncPolicy::WriteThrough, SyncPolicy::WriteBack] {
            let c = TierBaseConfig::builder("/tmp/x").policy(p).build();
            assert!(c.needs_storage_tier());
        }
    }

    #[test]
    fn builder_sets_fields() {
        let c = TierBaseConfig::builder("/tmp/x")
            .cache_capacity(1234)
            .compression(CompressorChoice::Pbc)
            .pmem(PmemTuning::default())
            .threading(ThreadMode::Elastic(4))
            .build();
        assert_eq!(c.cache_capacity, 1234);
        assert_eq!(c.compression, CompressorChoice::Pbc);
        assert!(c.pmem.is_some());
        assert_eq!(c.threading, ThreadMode::Elastic(4));
    }
}
