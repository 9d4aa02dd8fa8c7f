//! The tiered store: cache tier + storage tier + synchronization
//! policies + persistence + compression + elastic threading.
//!
//! This file holds the store's state, its public API and the value
//! envelope. Gets and puts, point or batched, take the one data path in
//! `store_batch.rs`. TTL reads and scans are in `store_read.rs`; deletes,
//! CAS and the persistence log in `store_write.rs`; storage-tier
//! synchronization (`sync`, the write-back flush) in `store_sync.rs`;
//! the counters in `store_stats.rs`.

use crate::config::{CompressionChoice, PersistenceMode, SyncPolicy, TierBaseConfig};
use crate::interval::AccessIntervalTracker;
use crate::store_write::{apply_log_record, COLD_LOG};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tb_cache::{CacheConfig, ReplicatedCache};
use tb_common::{
    deadline_after, read_varint, write_varint, EngineOp, Error, Key, KvEngine, OpOutcome, Result,
    TtlState, Value,
};
use tb_compress::{CompressorChoice, PretrainedCompression, TzstdLevel};
use tb_elastic::ElasticGate;
use tb_lsm::{DisaggregatedStore, LsmConfig, LsmDb, NetworkModel};
use tb_pmem::{
    DramOnly, LatencyModel, PersistentRingBuffer, PmemDevice, RingConfig, SplitPlacement,
};

use tb_pmem::placement::PlacementPolicy;

pub use crate::store_stats::TierBaseStats;

/// Envelope flag bit: payload compressed by the trained compressor.
/// (A zero flags byte — the legacy `ENV_RAW` tag — still decodes.)
const ENV_COMPRESSED: u8 = 0b01;
/// Envelope flag bit: a varint expiry deadline (absolute clock
/// nanoseconds) precedes the payload.
const ENV_HAS_EXPIRY: u8 = 0b10;

/// Parses an envelope header: `(compressed, expires_at, payload offset)`.
pub(crate) fn parse_envelope(stored: &[u8]) -> Result<(bool, Option<u64>, usize)> {
    let (&flags, rest) = stored
        .split_first()
        .ok_or_else(|| Error::Corruption("empty stored value".into()))?;
    if flags & !(ENV_COMPRESSED | ENV_HAS_EXPIRY) != 0 {
        return Err(Error::Corruption(format!("bad value envelope {flags}")));
    }
    let compressed = flags & ENV_COMPRESSED != 0;
    if flags & ENV_HAS_EXPIRY != 0 {
        let mut pos = 0usize;
        let deadline = read_varint(rest, &mut pos)?;
        Ok((compressed, Some(deadline), 1 + pos))
    } else {
        Ok((compressed, None, 1))
    }
}

/// Reads just the expiry deadline from an envelope (cache re-population
/// and WAL replay need it without decompressing the payload).
pub(crate) fn envelope_expiry(stored: &Value) -> Option<u64> {
    parse_envelope(stored.as_slice())
        .map(|(_, exp, _)| exp)
        .unwrap_or(None)
}

/// Number of values sampled before compression auto-trains.
const AUTO_TRAIN_SAMPLES: usize = 256;

struct Compression {
    unit: PretrainedCompression,
}

pub(crate) struct Inner {
    pub(crate) config: TierBaseConfig,
    pub(crate) cache: ReplicatedCache,
    pub(crate) storage: Option<DisaggregatedStore>,
    pub(crate) wal: Option<Mutex<tb_lsm::wal::Wal>>,
    /// Frame sequence for the cache WAL: the cache log is positional,
    /// so records carry a local counter to satisfy the LSN framing.
    pub(crate) wal_seq: AtomicU64,
    pub(crate) ring: Option<PersistentRingBuffer>,
    compression: Mutex<Option<Compression>>,
    train_samples: Mutex<Vec<Vec<u8>>>,
    pub(crate) ops_since_flush: AtomicU64,
    pub(crate) cas_lock: Mutex<()>,
    /// Fail the next N storage write calls (failure-injection hook).
    pub(crate) inject_storage_failures: AtomicU64,
    /// §6.5.3 statistic: sampled mean key re-access interval, compared
    /// against Table 3 break-even intervals to pick a configuration.
    pub(crate) intervals: AccessIntervalTracker,
    pub(crate) stats: Arc<TierBaseStats>,
    _obs: tb_obs::SourceGuard,
}

/// The TierBase store.
pub struct TierBase {
    inner: Arc<Inner>,
    /// The container's CPU allocation: 1 permit in single-thread mode,
    /// N in multi-thread, 1..N under elastic control (§4.4).
    gate: Arc<ElasticGate>,
}

impl TierBase {
    /// Opens a store, running recovery appropriate to its configuration.
    pub fn open(config: TierBaseConfig) -> Result<Self> {
        std::fs::create_dir_all(&config.dir)?;

        let placement: Arc<dyn PlacementPolicy> = match &config.pmem {
            Some(t) => Arc::new(SplitPlacement {
                value_threshold: t.value_threshold,
            }),
            None => Arc::new(DramOnly),
        };
        let cache = ReplicatedCache::with_mode(
            CacheConfig {
                capacity_bytes: config.cache_capacity,
                shards: config.cache_shards,
                placement,
                // PMem-resident values pay Optane-like access latency.
                pmem_latency: config.pmem.map(|_| LatencyModel::optane()),
                clock: config.clock.clone(),
            },
            config.replicas,
            config.replication_mode,
        );

        let storage = if config.needs_storage_tier() {
            let db = Arc::new(LsmDb::open(LsmConfig::new(config.dir.join("storage")))?);
            let net = NetworkModel {
                rtt_us: config.storage_rtt_us,
                per_kib_us: if config.storage_rtt_us > 0 { 2 } else { 0 },
            };
            Some(DisaggregatedStore::new(db, net))
        } else {
            None
        };

        // Warm restart: restore the cache tier from the last snapshot
        // before any WAL replay (the WAL holds the newer writes).
        let snapshot_path = config.dir.join("cache.rdb");
        if snapshot_path.exists() {
            tb_cache::load_snapshot(cache.primary(), &snapshot_path)?;
        }

        let mut wal = None;
        let mut wal_seq = 0u64;
        let mut ring = None;
        match config.persistence {
            PersistenceMode::None => {}
            PersistenceMode::Wal => {
                let path = config.dir.join("cache.wal");
                // Replay persisted cache contents.
                for (lsn, rec) in tb_lsm::wal::Wal::replay(&path)? {
                    apply_log_record(&cache, &rec)?;
                    wal_seq = wal_seq.max(lsn);
                }
                wal = Some(Mutex::new(tb_lsm::wal::Wal::open(
                    &path,
                    tb_lsm::wal::SyncPolicy::OsBuffer,
                )?));
            }
            PersistenceMode::WalPmem => {
                // The records a full ring drained, older than the ring's.
                for (lsn, rec) in tb_lsm::wal::Wal::replay(&config.dir.join(COLD_LOG))? {
                    apply_log_record(&cache, &rec)?;
                    wal_seq = wal_seq.max(lsn);
                }
                let path = config.dir.join("cache.pmem");
                let device = if path.exists() {
                    Arc::new(PmemDevice::open(&path, LatencyModel::optane())?)
                } else {
                    Arc::new(PmemDevice::create(
                        &path,
                        config.pmem_ring_bytes,
                        LatencyModel::optane(),
                    )?)
                };
                let rb = if path.exists() {
                    PersistentRingBuffer::recover(device, RingConfig::default()).or_else(|_| {
                        // Fresh device: format it.
                        let d = Arc::new(PmemDevice::create(
                            &config.dir.join("cache.pmem"),
                            config.pmem_ring_bytes,
                            LatencyModel::optane(),
                        )?);
                        PersistentRingBuffer::create(d, RingConfig::default())
                    })?
                } else {
                    PersistentRingBuffer::create(device, RingConfig::default())?
                };
                for rec in rb.peek_all()? {
                    apply_log_record(&cache, &rec)?;
                }
                ring = Some(rb);
            }
        }

        // Threading model: operations execute in the caller's thread
        // but must hold one of the gate's permits — 1 permit is the
        // single-threaded event loop, N permits the multi-thread mode,
        // and elastic mode moves the permit count with load.
        let gate = ElasticGate::for_mode(config.threading);
        let intervals = AccessIntervalTracker::new(config.clock.clone());

        let stats = Arc::new(TierBaseStats::default());
        let obs = TierBaseStats::register(&stats);
        Ok(Self {
            inner: Arc::new(Inner {
                config,
                cache,
                storage,
                wal,
                wal_seq: AtomicU64::new(wal_seq),
                ring,
                compression: Mutex::new(None),
                train_samples: Mutex::new(Vec::new()),
                ops_since_flush: AtomicU64::new(0),
                cas_lock: Mutex::new(()),
                inject_storage_failures: AtomicU64::new(0),
                intervals,
                stats,
                _obs: obs,
            }),
            gate,
        })
    }

    /// Store-wide counters.
    pub fn stats(&self) -> &TierBaseStats {
        &self.inner.stats
    }

    /// The store's configuration.
    pub fn config(&self) -> &TierBaseConfig {
        &self.inner.config
    }

    /// Pre-trains the configured compressor on sample values (the §4.2
    /// offline pre-training phase). No-op for `CompressionChoice::None`.
    pub fn train_compression(&self, samples: &[Vec<u8>]) {
        self.inner.train_compression(samples);
    }

    /// Retrains compression on fresh samples (monitor-triggered).
    pub fn retrain_compression(&self, samples: &[Vec<u8>]) {
        let guard = self.inner.compression.lock();
        if let Some(c) = guard.as_ref() {
            c.unit.retrain(samples);
        }
    }

    /// True when the compression monitor advises retraining.
    pub fn compression_should_retrain(&self) -> bool {
        self.inner
            .compression
            .lock()
            .as_ref()
            .map(|c| c.unit.should_retrain())
            .unwrap_or(false)
    }

    /// Fails the next `n` storage-tier write calls (failure injection).
    /// Under write-through one armed failure refuses every write of the
    /// next storage round trip that carries writes: all the puts a batch
    /// pass staged together. A write-back flush consumes one per chunk.
    pub fn inject_storage_write_failures(&self, n: u64) {
        self.inner
            .inject_storage_failures
            .store(n, Ordering::SeqCst);
    }

    /// Flushes write-back dirty data to the storage tier now.
    pub fn flush_dirty(&self) -> Result<usize> {
        self.inner.flush_dirty()
    }

    /// Writes queued but not yet replicated cache writes (only nonzero
    /// under [`tb_cache::ReplicationMode::Async`]).
    pub fn replication_lag(&self) -> usize {
        self.inner.cache.replication_lag()
    }

    /// Applies queued async replication to the replicas (the background
    /// replication thread's work, driven explicitly for determinism).
    pub fn drain_replication(&self) -> Result<usize> {
        self.inner.cache.drain_replication(usize::MAX)
    }

    /// Writes a point-in-time snapshot of the cache tier (Redis RDB
    /// analog) to `<dir>/cache.rdb`. [`open`](Self::open) restores it
    /// automatically for a warm restart. Returns the entry count.
    pub fn save_cache_snapshot(&self) -> Result<usize> {
        let path = self.inner.config.dir.join("cache.rdb");
        tb_cache::write_snapshot(self.inner.cache.primary(), &path)
    }

    /// Inserts a value that expires `ttl` from now (Redis `SETEX`). The
    /// deadline travels in the value envelope, so both tiers and the
    /// persistence log agree on when the key dies.
    pub fn put_with_ttl(&self, key: Key, value: Value, ttl: Duration) -> Result<()> {
        self.dispatch(move |inner| {
            let deadline = deadline_after(inner.config.clock.now_nanos(), ttl);
            inner.put(key, value, Some(deadline))
        })
    }

    /// Sets a TTL on an existing key (Redis `EXPIRE`). Returns `false`
    /// when the key does not exist.
    pub fn expire(&self, key: &Key, ttl: Duration) -> Result<bool> {
        let key = key.clone();
        self.dispatch(move |inner| inner.do_set_ttl(&key, Some(ttl)))
    }

    /// Removes a key's TTL (Redis `PERSIST`). Returns `false` when the
    /// key does not exist.
    pub fn persist(&self, key: &Key) -> Result<bool> {
        let key = key.clone();
        self.dispatch(move |inner| inner.do_set_ttl(&key, None))
    }

    /// The key's TTL (Redis `TTL`): missing, no expiry, or remaining
    /// lifetime.
    pub fn ttl(&self, key: &Key) -> Result<TtlState> {
        let key = key.clone();
        self.dispatch(move |inner| inner.do_ttl(&key))
    }

    /// Ordered scan of live keys starting with `prefix`, merged across
    /// both tiers: the storage tier provides the base set (one remote
    /// round-trip) and live cache entries shadow it, so unflushed
    /// write-back data is visible. Read-only — no recency updates and
    /// no lazy reclamation. Like Redis's lazy expiry, a key whose
    /// freshest (dirty, unflushed) version has expired may transiently
    /// reappear from its older storage copy until a read or sweep
    /// reclaims it.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Key, Value)>> {
        let prefix = prefix.to_vec();
        self.dispatch(move |inner| inner.do_scan_prefix(&prefix))
    }

    /// Ordered range scan of live keys (`start <= key < end`,
    /// `end = None` = unbounded above, at most `limit` rows), merged
    /// across both tiers with the same semantics as
    /// [`TierBase::scan_prefix`]: the storage tier provides the base
    /// set (one remote round-trip through the engine's batched scan)
    /// and live cache entries shadow it. TTL-expired versions are
    /// masked in both tiers. Cost is proportional to the key range, not
    /// to `limit` — the cache merge needs the full range before
    /// truncating.
    pub fn scan_range(
        &self,
        start: &Key,
        end: Option<&Key>,
        limit: usize,
    ) -> Result<Vec<(Key, Value)>> {
        let start = start.clone();
        let end = end.cloned();
        self.dispatch(move |inner| inner.do_scan_range(&start, end.as_ref(), limit))
    }

    /// Active expiration pass (Redis's periodic expire cycle): reclaims
    /// every expired cache entry and propagates the deletes to the
    /// storage tier and persistence log. Returns the number of keys
    /// reclaimed.
    pub fn sweep_expired(&self) -> Result<usize> {
        self.dispatch(move |inner| inner.do_sweep_expired())
    }

    /// Bytes of not-yet-synchronized dirty data.
    pub fn dirty_bytes(&self) -> u64 {
        self.inner.cache.primary().dirty_bytes()
    }

    /// The concurrency gate (permit count, boost/shrink statistics).
    pub fn gate(&self) -> &Arc<ElasticGate> {
        &self.gate
    }

    /// The §6.5.3 statistic: sampled mean key re-access interval in
    /// seconds (`None` until some key has been re-accessed). Compare
    /// against `tb_costmodel::BreakEvenTable` break-even intervals to
    /// choose between Raw / PMem / compression configurations.
    pub fn mean_access_interval_secs(&self) -> Option<f64> {
        self.inner.intervals.mean_interval_secs()
    }

    /// The underlying access-interval tracker (diagnostics).
    pub fn access_intervals(&self) -> &AccessIntervalTracker {
        &self.inner.intervals
    }

    fn dispatch<T: Send + 'static>(&self, f: impl FnOnce(&Inner) -> T + Send + 'static) -> T {
        self.gate.run(|| f(&self.inner))
    }
}

impl KvEngine for TierBase {
    /// The one data path (`store_batch.rs`): a single gate permit, one
    /// storage round trip for the batch's misses and write-through
    /// writes. Every provided point and multi-key method is a one-op
    /// batch through here.
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        self.dispatch(move |inner| inner.apply_batch(ops))
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn label(&self) -> String {
        let i = &self.inner;
        let mut parts = vec!["tierbase".to_string()];
        parts.push(
            match i.config.policy {
                SyncPolicy::InMemory => "mem",
                SyncPolicy::WriteThrough => "wt",
                SyncPolicy::WriteBack => "wb",
            }
            .into(),
        );
        match i.config.persistence {
            PersistenceMode::Wal => parts.push("wal".into()),
            PersistenceMode::WalPmem => parts.push("wal-pmem".into()),
            PersistenceMode::None => {}
        }
        match i.config.compression {
            CompressionChoice::Tzstd => parts.push("tzstd".into()),
            CompressionChoice::TzstdDict => parts.push("tzstd-d".into()),
            CompressionChoice::Pbc => parts.push("pbc".into()),
            CompressionChoice::None => {}
        }
        if i.config.pmem.is_some() {
            parts.push("pmem".into());
        }
        parts.join("-")
    }

    fn sync(&self) -> Result<()> {
        let inner = self.inner.clone();
        self.dispatch(move |_| inner.do_sync())
    }
}

impl Inner {
    // ----- value envelope ------------------------------------------------

    fn seal_envelope(payload: &[u8], compressed: bool, expires_at: Option<u64>) -> Value {
        let mut out = Vec::with_capacity(payload.len() + 11);
        let mut flags = 0u8;
        if compressed {
            flags |= ENV_COMPRESSED;
        }
        if expires_at.is_some() {
            flags |= ENV_HAS_EXPIRY;
        }
        out.push(flags);
        if let Some(deadline) = expires_at {
            write_varint(&mut out, deadline);
        }
        out.extend_from_slice(payload);
        Value::from(out)
    }

    pub(crate) fn encode_value(&self, value: &Value, expires_at: Option<u64>) -> Value {
        if self.config.compression == CompressionChoice::None {
            return Self::seal_envelope(value.as_slice(), false, expires_at);
        }
        // Auto-train once enough samples accumulate.
        {
            let guard = self.compression.lock();
            if guard.is_none() {
                drop(guard);
                let mut samples = self.train_samples.lock();
                samples.push(value.as_slice().to_vec());
                if samples.len() >= AUTO_TRAIN_SAMPLES {
                    let taken = std::mem::take(&mut *samples);
                    drop(samples);
                    self.train_compression(&taken);
                } else {
                    return Self::seal_envelope(value.as_slice(), false, expires_at);
                }
            }
        }
        let guard = self.compression.lock();
        let unit = &guard.as_ref().expect("trained above").unit;
        let compressed = unit.compress(value.as_slice());
        if compressed.len() + 1 < value.len() {
            Self::seal_envelope(&compressed, true, expires_at)
        } else {
            Self::seal_envelope(value.as_slice(), false, expires_at)
        }
    }

    /// Decodes an envelope into `(value, expires_at)`.
    pub(crate) fn decode_envelope(&self, stored: &Value) -> Result<(Value, Option<u64>)> {
        let (compressed, expires_at, off) = parse_envelope(stored.as_slice())?;
        if compressed {
            let guard = self.compression.lock();
            let unit = &guard
                .as_ref()
                .ok_or_else(|| Error::Corruption("compressed value but no trained model".into()))?
                .unit;
            Ok((
                Value::from(unit.decompress(&stored.as_slice()[off..])?),
                expires_at,
            ))
        } else {
            // Zero-copy: the stored Bytes minus the envelope header.
            Ok((Value::from_bytes(stored.0.slice(off..)), expires_at))
        }
    }

    pub(crate) fn decode_value(&self, stored: &Value) -> Result<Value> {
        self.decode_envelope(stored).map(|(v, _)| v)
    }

    fn train_compression(&self, samples: &[Vec<u8>]) {
        let choice = match self.config.compression {
            CompressionChoice::None => return,
            CompressionChoice::Tzstd => CompressorChoice::Tzstd,
            CompressionChoice::TzstdDict => CompressorChoice::TzstdDict,
            CompressionChoice::Pbc => CompressorChoice::Pbc,
        };
        let unit = PretrainedCompression::train(choice, samples, TzstdLevel(1));
        *self.compression.lock() = Some(Compression { unit });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PmemTuning, WriteBackTuning};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tb-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn k(i: usize) -> Key {
        Key::from(format!("key-{i:05}"))
    }

    /// Round trips the store has made to its storage tier.
    fn storage_calls(tb: &TierBase) -> u64 {
        let storage = tb.inner.storage.as_ref().expect("a tiered store");
        storage.stats.calls.load(Ordering::Relaxed)
    }

    fn v(i: usize) -> Value {
        Value::from(format!("value-{i}-{}", "d".repeat(i % 90)))
    }

    #[test]
    fn in_memory_roundtrip() {
        let tb = TierBase::open(TierBaseConfig::builder(tmpdir("mem")).build()).unwrap();
        tb.put(k(1), v(1)).unwrap();
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(1)));
        tb.delete(&k(1)).unwrap();
        assert_eq!(tb.get(&k(1)).unwrap(), None);
        assert_eq!(tb.label(), "tierbase-mem");
    }

    #[test]
    fn write_through_persists_to_storage() {
        let dir = tmpdir("wt");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        for i in 0..200 {
            tb.put(k(i), v(i)).unwrap();
        }
        tb.sync().unwrap();
        drop(tb);
        // Reopen: storage tier has everything; cache starts cold.
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        for i in 0..200 {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
        }
        // Second read hits cache.
        let misses_before = tb.stats().cache_misses.load(Ordering::Relaxed);
        tb.get(&k(0)).unwrap();
        assert_eq!(
            tb.stats().cache_misses.load(Ordering::Relaxed),
            misses_before
        );
    }

    #[test]
    fn write_through_failure_invalidates_cache() {
        let dir = tmpdir("wtfail");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        tb.put(k(1), v(1)).unwrap();
        tb.inject_storage_write_failures(1);
        let err = tb.put(k(1), Value::from("rejected")).unwrap_err();
        assert!(matches!(err, Error::StorageWriteFailed(_)));
        // The cache entry was invalidated; the next read refetches the
        // authoritative (old) value from storage.
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(1)));
        assert_eq!(tb.stats().write_through_failures.load(Ordering::Relaxed), 1);
        assert!(tb.stats().storage_fetches.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn write_back_defers_and_batches() {
        let dir = tmpdir("wb");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteBack)
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX, // manual flush only
                    batch_size: 64,
                })
                .build(),
        )
        .unwrap();
        for i in 0..100 {
            tb.put(k(i), v(i)).unwrap();
        }
        assert!(tb.dirty_bytes() > 0, "writes should be dirty in cache");
        let flushed = tb.flush_dirty().unwrap();
        assert_eq!(flushed, 100);
        assert_eq!(tb.dirty_bytes(), 0);
        // Storage saw batched calls, far fewer than 100.
        let calls = storage_calls(&tb);
        assert!(calls <= 3, "expected batched flush, got {calls} calls");
    }

    #[test]
    fn write_back_update_merging() {
        let dir = tmpdir("wbmerge");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteBack)
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .build(),
        )
        .unwrap();
        // 50 updates to the same key merge into one dirty entry.
        for i in 0..50 {
            tb.put(k(7), v(i)).unwrap();
        }
        let flushed = tb.flush_dirty().unwrap();
        assert_eq!(flushed, 1, "same-key updates must merge");
        assert_eq!(tb.get(&k(7)).unwrap(), Some(v(49)));
    }

    #[test]
    fn put_racing_a_flush_stays_dirty_until_it_is_flushed_itself() {
        // The interleaving `ThreadMode::Multi`/`Elastic` allows, made
        // deterministic by running the flush's two halves by hand:
        // snapshot, *then* a put of the same key, then the storage
        // write + clean of the (now stale) snapshot.
        let dir = tmpdir("wbrace");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteBack)
                .cache_capacity(64 << 10)
                .cache_shards(1)
                .threading(tb_elastic::ThreadMode::Multi(2))
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .build(),
        )
        .unwrap();
        tb.put(k(1), Value::from("old")).unwrap();
        let snapshot = tb.inner.cache.primary().dirty_entries();
        tb.put(k(1), Value::from("new")).unwrap();
        assert_eq!(tb.inner.write_back(snapshot).unwrap(), 1);
        // Storage holds "old"; the entry holding "new" was never
        // flushed, so it must still be dirty — and therefore pinned.
        assert!(
            tb.dirty_bytes() > 0,
            "the racing put was marked clean without ever reaching storage"
        );
        // Push enough clean data through the cache to evict every
        // evictable entry, then read: a lost update serves "old".
        let filler = Value::from(vec![b'f'; 512]);
        for i in 100..400 {
            tb.inner
                .cache
                .insert_full(
                    k(i),
                    Inner::seal_envelope(filler.as_slice(), false, None),
                    false,
                    None,
                )
                .unwrap();
        }
        assert_eq!(tb.get(&k(1)).unwrap(), Some(Value::from("new")));
        // The next flush writes the survivor down and only then cleans it.
        assert_eq!(tb.flush_dirty().unwrap(), 1);
        assert_eq!(tb.dirty_bytes(), 0);
        tb.inner.cache.remove(&k(1));
        assert_eq!(tb.get(&k(1)).unwrap(), Some(Value::from("new")));
    }

    #[test]
    fn write_back_data_survives_via_storage() {
        let dir = tmpdir("wbdur");
        {
            let tb = TierBase::open(
                TierBaseConfig::builder(&dir)
                    .policy(SyncPolicy::WriteBack)
                    .build(),
            )
            .unwrap();
            for i in 0..100 {
                tb.put(k(i), v(i)).unwrap();
            }
            tb.sync().unwrap(); // flush dirty + storage sync
        }
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteBack)
                .build(),
        )
        .unwrap();
        for i in 0..100 {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)));
        }
    }

    #[test]
    fn wal_persistence_recovers_cache() {
        let dir = tmpdir("wal");
        {
            let tb = TierBase::open(
                TierBaseConfig::builder(&dir)
                    .persistence(PersistenceMode::Wal)
                    .build(),
            )
            .unwrap();
            tb.put(k(1), v(1)).unwrap();
            tb.put(k(2), v(2)).unwrap();
            tb.delete(&k(1)).unwrap();
            tb.sync().unwrap();
        }
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .persistence(PersistenceMode::Wal)
                .build(),
        )
        .unwrap();
        assert_eq!(tb.get(&k(1)).unwrap(), None);
        assert_eq!(tb.get(&k(2)).unwrap(), Some(v(2)));
        assert_eq!(tb.label(), "tierbase-mem-wal");
    }

    #[test]
    fn wal_pmem_persistence_recovers_cache() {
        let dir = tmpdir("walpmem");
        {
            let tb = TierBase::open(
                TierBaseConfig::builder(&dir)
                    .persistence(PersistenceMode::WalPmem)
                    .pmem_ring_bytes(1 << 20)
                    .build(),
            )
            .unwrap();
            for i in 0..50 {
                tb.put(k(i), v(i)).unwrap();
            }
        }
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .persistence(PersistenceMode::WalPmem)
                .pmem_ring_bytes(1 << 20)
                .build(),
        )
        .unwrap();
        for i in 0..50 {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
        }
    }

    #[test]
    fn compression_reduces_resident_bytes() {
        let samples: Vec<Vec<u8>> = (0..300)
            .map(|i| {
                format!(
                    "{{\"uid\":\"{i:016x}\",\"dev\":\"android\",\"geo\":\"CN-ZJ\",\"score\":{i}}}"
                )
                .into_bytes()
            })
            .collect();

        let open = |name: &str, comp: CompressionChoice| {
            let tb = TierBase::open(
                TierBaseConfig::builder(tmpdir(name))
                    .compression(comp)
                    .build(),
            )
            .unwrap();
            tb.train_compression(&samples);
            for (i, s) in samples.iter().enumerate() {
                tb.put(k(i), Value::from(s.clone())).unwrap();
            }
            // Round-trip integrity.
            for (i, s) in samples.iter().enumerate() {
                assert_eq!(tb.get(&k(i)).unwrap(), Some(Value::from(s.clone())));
            }
            tb.resident_bytes()
        };

        let raw = open("comp-raw", CompressionChoice::None);
        let pbc = open("comp-pbc", CompressionChoice::Pbc);
        let tzd = open("comp-tzd", CompressionChoice::TzstdDict);
        assert!(pbc < raw, "PBC {pbc} should be below raw {raw}");
        assert!(tzd < raw, "tzstd-d {tzd} should be below raw {raw}");
    }

    #[test]
    fn auto_training_kicks_in() {
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("autotrain"))
                .compression(CompressionChoice::TzstdDict)
                .build(),
        )
        .unwrap();
        // Push enough templated values to trigger auto-training.
        for i in 0..(AUTO_TRAIN_SAMPLES + 50) {
            let val = Value::from(format!(
                "EVT|user={i:016}|act=click|page=/home|ts={}",
                1_700_000_000 + i
            ));
            tb.put(k(i), val).unwrap();
        }
        // All values still read back correctly.
        for i in 0..(AUTO_TRAIN_SAMPLES + 50) {
            let expect = Value::from(format!(
                "EVT|user={i:016}|act=click|page=/home|ts={}",
                1_700_000_000 + i
            ));
            assert_eq!(tb.get(&k(i)).unwrap(), Some(expect));
        }
    }

    #[test]
    fn pmem_discount_lowers_resident_bytes() {
        let build = |name: &str, pmem: Option<PmemTuning>| {
            let mut b = TierBaseConfig::builder(tmpdir(name));
            if let Some(t) = pmem {
                b = b.pmem(t);
            }
            let tb = TierBase::open(b.build()).unwrap();
            for i in 0..200 {
                tb.put(k(i), Value::from(vec![b'x'; 300])).unwrap();
            }
            tb.resident_bytes()
        };
        let dram_only = build("pm-dram", None);
        let with_pmem = build(
            "pm-split",
            Some(PmemTuning {
                value_threshold: 64,
                cost_factor: 0.4,
            }),
        );
        assert!(
            (with_pmem as f64) < dram_only as f64 * 0.7,
            "PMem should discount SC: {with_pmem} vs {dram_only}"
        );
    }

    #[test]
    fn replicas_multiply_resident_bytes() {
        let build = |name: &str, replicas: usize| {
            let tb = TierBase::open(
                TierBaseConfig::builder(tmpdir(name))
                    .replicas(replicas)
                    .build(),
            )
            .unwrap();
            for i in 0..50 {
                tb.put(k(i), v(i)).unwrap();
            }
            tb.resident_bytes()
        };
        let single = build("rep0", 0);
        let dual = build("rep1", 1);
        assert_eq!(dual, single * 2);
    }

    #[test]
    fn cache_snapshot_warm_restart() {
        let dir = tmpdir("rdb");
        {
            let tb = TierBase::open(TierBaseConfig::builder(&dir).build()).unwrap();
            for i in 0..200 {
                tb.put(k(i), v(i)).unwrap();
            }
            assert_eq!(tb.save_cache_snapshot().unwrap(), 200);
        }
        // Reopen: the snapshot warms the cache — no storage tier, yet
        // everything is there.
        let tb = TierBase::open(TierBaseConfig::builder(&dir).build()).unwrap();
        for i in 0..200 {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
        }
        assert_eq!(tb.stats().cache_misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cache_snapshot_with_tiered_store_warms_cache() {
        let dir = tmpdir("rdb-wt");
        {
            let tb = TierBase::open(
                TierBaseConfig::builder(&dir)
                    .policy(SyncPolicy::WriteThrough)
                    .build(),
            )
            .unwrap();
            for i in 0..100 {
                tb.put(k(i), v(i)).unwrap();
            }
            tb.save_cache_snapshot().unwrap();
            tb.sync().unwrap();
        }
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        let fetches_before = tb.stats().storage_fetches.load(Ordering::Relaxed);
        for i in 0..100 {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)));
        }
        assert_eq!(
            tb.stats().storage_fetches.load(Ordering::Relaxed),
            fetches_before,
            "warm cache serves everything without storage fetches"
        );
    }

    #[test]
    fn ttl_in_memory_mode() {
        let clock = tb_common::ManualClock::new();
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("ttl-mem"))
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        tb.put_with_ttl(k(1), v(1), std::time::Duration::from_secs(30))
            .unwrap();
        tb.put(k(2), v(2)).unwrap();
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(1)));
        assert!(matches!(tb.ttl(&k(1)).unwrap(), TtlState::Remaining(_)));
        assert_eq!(tb.ttl(&k(2)).unwrap(), TtlState::NoExpiry);
        assert_eq!(tb.ttl(&k(3)).unwrap(), TtlState::Missing);

        clock.advance(std::time::Duration::from_secs(30));
        assert_eq!(tb.get(&k(1)).unwrap(), None);
        assert_eq!(tb.ttl(&k(1)).unwrap(), TtlState::Missing);
        assert_eq!(tb.get(&k(2)).unwrap(), Some(v(2)));
        assert_eq!(tb.stats().expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ttl_expiry_does_not_resurrect_from_storage() {
        // Write-through: the key reaches the storage tier; after the
        // TTL passes the storage copy must not come back on a read.
        let clock = tb_common::ManualClock::new();
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("ttl-wt"))
                .policy(SyncPolicy::WriteThrough)
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        tb.put_with_ttl(k(1), v(1), std::time::Duration::from_secs(10))
            .unwrap();
        clock.advance(std::time::Duration::from_secs(11));
        assert_eq!(tb.get(&k(1)).unwrap(), None, "expired in cache");
        // Second read exercises the storage path (cache copy gone).
        assert_eq!(tb.get(&k(1)).unwrap(), None, "not resurrected");
    }

    #[test]
    fn ttl_respected_after_cache_eviction() {
        // The deadline travels in the envelope, so even when the cache
        // entry is evicted (not expired) and later refetched from
        // storage, the expiry still applies.
        let clock = tb_common::ManualClock::new();
        let dir = tmpdir("ttl-evict");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .cache_capacity(16 << 10)
                .cache_shards(2)
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        tb.put_with_ttl(k(0), v(0), std::time::Duration::from_secs(60))
            .unwrap();
        // Evict k(0) by flooding the tiny cache.
        for i in 1..500 {
            tb.put(k(i), v(i)).unwrap();
        }
        clock.advance(std::time::Duration::from_secs(30));
        assert_eq!(tb.get(&k(0)).unwrap(), Some(v(0)), "refetched, still live");
        assert!(matches!(tb.ttl(&k(0)).unwrap(), TtlState::Remaining(_)));
        clock.advance(std::time::Duration::from_secs(31));
        assert_eq!(tb.get(&k(0)).unwrap(), None, "expired after refetch");
    }

    #[test]
    fn expire_and_persist_roundtrip() {
        let clock = tb_common::ManualClock::new();
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("ttl-expire"))
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        tb.put(k(1), v(1)).unwrap();
        assert!(tb.expire(&k(1), std::time::Duration::from_secs(5)).unwrap());
        assert!(!tb.expire(&k(9), std::time::Duration::from_secs(5)).unwrap());
        assert!(tb.persist(&k(1)).unwrap());
        clock.advance(std::time::Duration::from_secs(60));
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(1)), "persist cleared TTL");
        // Re-arm and let it die.
        assert!(tb.expire(&k(1), std::time::Duration::from_secs(1)).unwrap());
        clock.advance(std::time::Duration::from_secs(2));
        assert!(
            !tb.persist(&k(1)).unwrap(),
            "expired key can't be persisted"
        );
    }

    #[test]
    fn sweep_expired_reclaims_both_tiers() {
        let clock = tb_common::ManualClock::new();
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("ttl-sweep"))
                .policy(SyncPolicy::WriteThrough)
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        for i in 0..50 {
            tb.put_with_ttl(k(i), v(i), std::time::Duration::from_secs(5))
                .unwrap();
        }
        for i in 50..60 {
            tb.put(k(i), v(i)).unwrap();
        }
        clock.advance(std::time::Duration::from_secs(6));
        let swept = tb.sweep_expired().unwrap();
        assert_eq!(swept, 50);
        assert_eq!(tb.sweep_expired().unwrap(), 0, "idempotent");
        for i in 0..50 {
            assert_eq!(tb.get(&k(i)).unwrap(), None);
        }
        for i in 50..60 {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)));
        }
    }

    #[test]
    fn ttl_with_compression_envelope() {
        // Expiry deadline and compression share the envelope.
        let clock = tb_common::ManualClock::new();
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("ttl-comp"))
                .compression(CompressionChoice::TzstdDict)
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        let samples: Vec<Vec<u8>> = (0..300)
            .map(|i| format!("REC|user={i:08}|plan=premium|region=eu").into_bytes())
            .collect();
        tb.train_compression(&samples);
        for (i, s) in samples.iter().enumerate() {
            tb.put_with_ttl(
                k(i),
                Value::from(s.clone()),
                std::time::Duration::from_secs(100 + i as u64),
            )
            .unwrap();
        }
        clock.advance(std::time::Duration::from_secs(50));
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(Value::from(s.clone())));
        }
        clock.advance(std::time::Duration::from_secs(150));
        assert_eq!(tb.get(&k(0)).unwrap(), None, "t=200 > 100s TTL");
        assert_eq!(
            tb.get(&k(299)).unwrap(),
            Some(Value::from(samples[299].clone())),
            "t=200 < 399s TTL"
        );
        clock.advance(std::time::Duration::from_secs(300));
        assert_eq!(tb.get(&k(299)).unwrap(), None, "t=500 > 399s TTL");
    }

    #[test]
    fn ttl_survives_wal_recovery() {
        let clock = tb_common::ManualClock::starting_at(0);
        let dir = tmpdir("ttl-wal");
        {
            let tb = TierBase::open(
                TierBaseConfig::builder(&dir)
                    .persistence(PersistenceMode::Wal)
                    .clock(clock.clone())
                    .build(),
            )
            .unwrap();
            tb.put_with_ttl(k(1), v(1), std::time::Duration::from_secs(100))
                .unwrap();
            tb.put(k(2), v(2)).unwrap();
            tb.sync().unwrap();
        }
        // Reopen sharing the same (advanced) clock.
        clock.advance(std::time::Duration::from_secs(150));
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .persistence(PersistenceMode::Wal)
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        assert_eq!(tb.get(&k(1)).unwrap(), None, "TTL enforced after replay");
        assert_eq!(tb.get(&k(2)).unwrap(), Some(v(2)));
    }

    #[test]
    fn access_interval_statistic_matches_drive() {
        let clock = tb_common::ManualClock::new();
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("interval"))
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        for i in 0..500 {
            tb.put(k(i), v(i)).unwrap();
        }
        assert_eq!(tb.mean_access_interval_secs(), None, "no re-access yet");
        // Re-access every key every 20 seconds, 4 rounds.
        for _ in 0..4 {
            clock.advance(std::time::Duration::from_secs(20));
            for i in 0..500 {
                tb.get(&k(i)).unwrap();
            }
        }
        let mean = tb.mean_access_interval_secs().expect("intervals observed");
        assert!(
            (mean - 20.0).abs() < 1.0,
            "driven at 20s intervals, measured {mean}"
        );
        assert!(tb.access_intervals().tracked_keys() > 0);
    }

    #[test]
    fn async_replication_through_store() {
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("async-rep"))
                .replicas(1)
                .replication_mode(tb_cache::ReplicationMode::Async)
                .build(),
        )
        .unwrap();
        for i in 0..20 {
            tb.put(k(i), v(i)).unwrap();
        }
        assert_eq!(tb.replication_lag(), 20);
        assert_eq!(tb.drain_replication().unwrap(), 20);
        assert_eq!(tb.replication_lag(), 0);
        // resident_bytes now counts both copies.
        assert!(tb.resident_bytes() > 0);
    }

    #[test]
    fn quorum_replication_through_store() {
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("quorum-rep"))
                .replicas(2)
                .replication_mode(tb_cache::ReplicationMode::Quorum)
                .build(),
        )
        .unwrap();
        tb.put(k(1), v(1)).unwrap();
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(1)));
    }

    #[test]
    fn cas_is_atomic_under_contention() {
        let tb = Arc::new(TierBase::open(TierBaseConfig::builder(tmpdir("cas")).build()).unwrap());
        tb.put(Key::from("ctr"), Value::from("0")).unwrap();
        let mut handles = vec![];
        for _ in 0..4 {
            let tb = tb.clone();
            handles.push(std::thread::spawn(move || {
                let mut successes = 0;
                while successes < 50 {
                    let cur = tb.get(&Key::from("ctr")).unwrap().unwrap();
                    let n: u64 = String::from_utf8(cur.as_slice().to_vec())
                        .unwrap()
                        .parse()
                        .unwrap();
                    let next = Value::from((n + 1).to_string());
                    if tb.cas(Key::from("ctr"), Some(&cur), next).is_ok() {
                        successes += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_val = tb.get(&Key::from("ctr")).unwrap().unwrap();
        let n: u64 = String::from_utf8(final_val.as_slice().to_vec())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(n, 200);
    }

    #[test]
    fn multi_get_batches_storage_fetches() {
        let dir = tmpdir("mget");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        for i in 0..100 {
            tb.put(k(i), v(i)).unwrap();
        }
        drop(tb);
        // Cold cache: every key must come from storage.
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        let calls_before = storage_calls(&tb);
        let keys: Vec<Key> = (0..100).map(k).collect();
        let got = tb.multi_get(&keys).unwrap();
        for (i, val) in got.iter().enumerate() {
            assert_eq!(val.as_ref(), Some(&v(i)), "key {i}");
        }
        let calls_after = storage_calls(&tb);
        assert_eq!(
            calls_after - calls_before,
            1,
            "100 cold misses must collapse into one storage round-trip"
        );
        // Second multi_get is all cache hits: zero further calls.
        let got = tb.multi_get(&keys).unwrap();
        assert!(got.iter().all(|v| v.is_some()));
        assert_eq!(storage_calls(&tb), calls_after);
    }

    #[test]
    fn multi_get_mixes_hits_misses_and_absent() {
        let clock = tb_common::ManualClock::new();
        let dir = tmpdir("mget-mixed");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        tb.put(k(0), v(0)).unwrap(); // cached
        tb.put_with_ttl(k(1), v(1), std::time::Duration::from_secs(1))
            .unwrap(); // will expire
        clock.advance(std::time::Duration::from_secs(2));
        let got = tb.multi_get(&[k(0), k(1), k(2)]).unwrap();
        assert_eq!(got[0], Some(v(0)));
        assert_eq!(got[1], None, "expired key");
        assert_eq!(got[2], None, "never written");
    }

    #[test]
    fn multi_put_write_through_batches_and_fails_atomically() {
        let dir = tmpdir("mput");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        let pairs: Vec<(Key, Value)> = (0..100).map(|i| (k(i), v(i))).collect();
        let calls_before = storage_calls(&tb);
        tb.multi_put(pairs).unwrap();
        let calls_after = storage_calls(&tb);
        assert_eq!(calls_after - calls_before, 1, "one batched storage write");
        for i in 0..100 {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)));
        }
        // Injected failure: the batch reports an error and the cache is
        // invalidated for all its keys (reads refetch from storage).
        tb.inject_storage_write_failures(1);
        let pairs: Vec<(Key, Value)> = (0..10).map(|i| (k(i), Value::from("new"))).collect();
        assert!(matches!(
            tb.multi_put(pairs),
            Err(Error::StorageWriteFailed(_))
        ));
        let failures = tb.stats().write_through_failures.load(Ordering::Relaxed);
        assert_eq!(failures, 1, "one failed op, however many keys");
        for i in 0..10 {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)), "old value survives");
        }
    }

    #[test]
    fn multi_put_write_back_stays_deferred() {
        let dir = tmpdir("mput-wb");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteBack)
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .build(),
        )
        .unwrap();
        let pairs: Vec<(Key, Value)> = (0..50).map(|i| (k(i), v(i))).collect();
        tb.multi_put(pairs).unwrap();
        assert!(tb.dirty_bytes() > 0, "write-back keeps the batch dirty");
        assert_eq!(tb.flush_dirty().unwrap(), 50);
    }

    #[test]
    fn scan_prefix_merges_cache_over_storage() {
        let dir = tmpdir("scan-wb");
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteBack)
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .build(),
        )
        .unwrap();
        // Base data flushed to storage.
        for i in 0..20 {
            tb.put(Key::from(format!("acct:{i:03}")), v(i)).unwrap();
        }
        tb.flush_dirty().unwrap();
        // Fresh unflushed updates + an unrelated prefix.
        tb.put(Key::from("acct:005"), Value::from("updated"))
            .unwrap();
        tb.put(Key::from("sess:001"), Value::from("x")).unwrap();
        tb.delete(&Key::from("acct:010")).unwrap();

        let rows = tb.scan_prefix(b"acct:").unwrap();
        assert_eq!(rows.len(), 19, "20 minus the delete");
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        let updated = rows
            .iter()
            .find(|(k, _)| k == &Key::from("acct:005"))
            .unwrap();
        assert_eq!(updated.1, Value::from("updated"), "dirty data visible");
        assert!(!rows.iter().any(|(k, _)| k == &Key::from("acct:010")));
    }

    #[test]
    fn scan_prefix_in_memory_and_expired() {
        let clock = tb_common::ManualClock::new();
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("scan-mem"))
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        tb.put(Key::from("a:1"), v(1)).unwrap();
        tb.put_with_ttl(Key::from("a:2"), v(2), std::time::Duration::from_secs(5))
            .unwrap();
        tb.put(Key::from("b:1"), v(3)).unwrap();
        assert_eq!(tb.scan_prefix(b"a:").unwrap().len(), 2);
        clock.advance(std::time::Duration::from_secs(6));
        let rows = tb.scan_prefix(b"a:").unwrap();
        assert_eq!(rows.len(), 1, "expired key filtered");
        assert_eq!(rows[0].0, Key::from("a:1"));
        assert_eq!(tb.scan_prefix(b"").unwrap().len(), 2, "full scan");
    }

    #[test]
    fn scan_range_merges_tiers_masks_ttl_and_truncates() {
        let clock = tb_common::ManualClock::new();
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("scan-range"))
                .policy(SyncPolicy::WriteBack)
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        // Base data flushed to storage, then fresh unflushed state on
        // top: an update, a delete, and a short-TTL key.
        for i in 0..20 {
            tb.put(Key::from(format!("r{i:03}")), v(i)).unwrap();
        }
        tb.put_with_ttl(
            Key::from("r007"),
            Value::from("fleeting"),
            std::time::Duration::from_secs(5),
        )
        .unwrap();
        // Flush so storage holds the TTL envelope too: the expiry must
        // be masked by the *storage* side of the merge once it passes.
        tb.flush_dirty().unwrap();
        tb.put(Key::from("r005"), Value::from("updated")).unwrap();
        tb.delete(&Key::from("r010")).unwrap();
        clock.advance(std::time::Duration::from_secs(6));

        // KvEngine::scan and the inherent scan_range agree.
        let rows = KvEngine::scan(
            &tb,
            &Key::from("r003"),
            Some(&Key::from("r015")),
            usize::MAX,
        )
        .unwrap();
        assert_eq!(
            rows,
            tb.scan_range(&Key::from("r003"), Some(&Key::from("r015")), usize::MAX)
                .unwrap()
        );
        // 12 keys in [r003, r015), minus the delete and the expired one.
        assert_eq!(rows.len(), 10, "delete and expired TTL masked: {rows:?}");
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert!(rows
            .iter()
            .all(|(k, _)| k != &Key::from("r010") && k != &Key::from("r007")));
        let updated = rows.iter().find(|(k, _)| k == &Key::from("r005")).unwrap();
        assert_eq!(updated.1, Value::from("updated"), "dirty data visible");
        // Limit truncation in key order; unbounded end reaches the tail.
        let limited = tb.scan_range(&Key::from("r003"), None, 3).unwrap();
        assert_eq!(
            limited.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            vec![Key::from("r003"), Key::from("r004"), Key::from("r005")]
        );
        let tail = tb.scan_range(&Key::from("r018"), None, usize::MAX).unwrap();
        assert_eq!(tail.len(), 2);
    }

    #[test]
    fn scan_prefix_matches_model_under_random_ops() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        use std::collections::BTreeMap;

        let mut runner = TestRunner::new(Config {
            cases: 16,
            ..Config::default()
        });
        let ops = proptest::collection::vec((0usize..30, 0usize..8, any::<bool>()), 1..120);
        runner
            .run(&ops, |ops| {
                let dir = std::env::temp_dir().join(format!(
                    "tb-scanprop-{}-{}",
                    std::process::id(),
                    rand::random::<u64>()
                ));
                let tb = TierBase::open(
                    TierBaseConfig::builder(&dir)
                        .policy(SyncPolicy::WriteThrough)
                        .build(),
                )
                .unwrap();
                let mut model: BTreeMap<Key, Value> = BTreeMap::new();
                for (i, (ki, pfx, del)) in ops.into_iter().enumerate() {
                    let key = Key::from(format!("p{pfx}:{ki:03}"));
                    if del {
                        tb.delete(&key).unwrap();
                        model.remove(&key);
                    } else {
                        let val = Value::from(format!("v{i}"));
                        tb.put(key.clone(), val.clone()).unwrap();
                        model.insert(key, val);
                    }
                }
                for pfx in 0..8 {
                    let prefix = format!("p{pfx}:");
                    let got = tb.scan_prefix(prefix.as_bytes()).unwrap();
                    let want: Vec<(Key, Value)> = model
                        .iter()
                        .filter(|(k, _)| k.as_slice().starts_with(prefix.as_bytes()))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(&got, &want, "prefix {}", prefix);
                }
                let _ = std::fs::remove_dir_all(&dir);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn miss_ratio_tracks_tiering() {
        let dir = tmpdir("mr");
        // Tiny cache forces misses.
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .cache_capacity(16 << 10)
                .cache_shards(2)
                .build(),
        )
        .unwrap();
        for i in 0..500 {
            tb.put(k(i), v(i)).unwrap();
        }
        for i in 0..500 {
            tb.get(&k(i)).unwrap();
        }
        let mr = tb.stats().miss_ratio();
        assert!(mr > 0.1, "tiny cache must miss: {mr}");
        // Values still correct through the storage tier.
        assert_eq!(tb.get(&k(123)).unwrap(), Some(v(123)));
    }

    #[test]
    fn multi_thread_mode_works() {
        let tb = Arc::new(
            TierBase::open(
                TierBaseConfig::builder(tmpdir("mt"))
                    .threading(tb_elastic::ThreadMode::Multi(4))
                    .build(),
            )
            .unwrap(),
        );
        assert_eq!(tb.gate().current_permits(), 4);
        let mut handles = vec![];
        for t in 0..4 {
            let tb = tb.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let key = k(t * 1000 + i);
                    tb.put(key.clone(), v(i)).unwrap();
                    assert_eq!(tb.get(&key).unwrap(), Some(v(i)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn miss_fill_never_replaces_a_newer_write() {
        // A reader misses on a cold key and fetches it over a 50 ms
        // storage round trip; a writer overwrites the key during that
        // trip. The fetched copy is older than the write, so filling the
        // cache with it would lose an acknowledged write for good. The
        // round trip has no hook to park on, so a sleep places the put
        // inside it; a put that lands outside it makes the test pass
        // without exercising the race, never fail.
        let tb = Arc::new(
            TierBase::open(
                TierBaseConfig::builder(tmpdir("missfill"))
                    .policy(SyncPolicy::WriteBack)
                    .threading(tb_elastic::ThreadMode::Multi(2))
                    .storage_rtt_us(50_000)
                    .build(),
            )
            .unwrap(),
        );
        tb.put(k(1), Value::from("old")).unwrap();
        tb.flush_dirty().unwrap();
        tb.inner.cache.remove(&k(1));
        let reader = {
            let tb = tb.clone();
            std::thread::spawn(move || tb.get(&k(1)).unwrap())
        };
        std::thread::sleep(Duration::from_millis(10));
        tb.put(k(1), Value::from("new")).unwrap();
        let read = reader.join().unwrap();
        assert!(
            read == Some(Value::from("old")) || read == Some(Value::from("new")),
            "{read:?}"
        );
        assert_eq!(tb.get(&k(1)).unwrap(), Some(Value::from("new")));
        tb.flush_dirty().unwrap();
        tb.inner.cache.remove(&k(1));
        assert_eq!(
            tb.get(&k(1)).unwrap(),
            Some(Value::from("new")),
            "the acknowledged write never reached storage"
        );
    }

    /// Applies a batch one op at a time: a one-op batch per op.
    struct PerOp<'a>(&'a TierBase);

    impl KvEngine for PerOp<'_> {
        fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
            ops.into_iter()
                .flat_map(|op| self.0.apply_batch(vec![op]))
                .collect()
        }
        fn resident_bytes(&self) -> u64 {
            self.0.resident_bytes()
        }
        fn label(&self) -> String {
            "per-op".into()
        }
    }

    fn open_policy(name: &str, policy: SyncPolicy) -> TierBase {
        TierBase::open(
            TierBaseConfig::builder(tmpdir(name))
                .policy(policy)
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .build(),
        )
        .unwrap()
    }

    #[test]
    fn write_through_batch_is_one_storage_call_and_matches_per_op() {
        // Keys 0..8 are written; 0..4 then leave the cache (cold).
        let setup = |name: &str| {
            let tb = open_policy(name, SyncPolicy::WriteThrough);
            tb.multi_put((0..8).map(|i| (k(i), v(i))).collect())
                .unwrap();
            for i in 0..4 {
                tb.inner.cache.remove(&k(i));
            }
            tb
        };
        let ops = vec![
            EngineOp::Get(k(0)),
            EngineOp::Get(k(4)),
            EngineOp::Put(k(20), v(20)),
            EngineOp::Get(k(1)),
            EngineOp::Get(k(5)),
            EngineOp::Put(k(6), v(60)),
            EngineOp::Get(k(6)),
            EngineOp::MultiGet(vec![k(2), k(7)]),
            EngineOp::Put(k(21), v(21)),
            EngineOp::Get(k(4)),
            EngineOp::MultiPut(vec![(k(22), v(22))]),
            EngineOp::Get(k(3)),
            EngineOp::Get(k(20)),
            EngineOp::Get(k(5)),
            EngineOp::MultiGet(vec![k(7), k(21)]),
            EngineOp::Get(k(22)),
        ];
        assert_eq!(ops.len(), 16);

        let batched = setup("wtbatch");
        let before = storage_calls(&batched);
        let got = batched.apply_batch(ops.clone());
        assert_eq!(
            storage_calls(&batched) - before,
            1,
            "4 cold misses, 4 puts and the gets behind them share one round trip"
        );
        let per_op = setup("wtbatch-perop");
        assert_eq!(got, PerOp(&per_op).apply_batch(ops));
        assert_eq!(
            got[6],
            Ok(OpOutcome::Value(Some(v(60)))),
            "get behind its put"
        );
        // The staged writes reached the cache clean once storage had them.
        for key in [k(6), k(20), k(21), k(22)] {
            assert!(
                !batched
                    .inner
                    .cache
                    .primary()
                    .peek_entry(&key)
                    .unwrap()
                    .dirty
            );
        }
    }

    #[test]
    fn write_back_miss_then_put_in_one_batch_keeps_the_put() {
        let tb = open_policy("wbmissput", SyncPolicy::WriteBack);
        tb.put(k(1), v(1)).unwrap();
        tb.flush_dirty().unwrap();
        tb.inner.cache.remove(&k(1));
        let got = tb.apply_batch(vec![EngineOp::Get(k(1)), EngineOp::Put(k(1), v(2))]);
        assert_eq!(got[0], Ok(OpOutcome::Value(Some(v(1)))));
        assert!(matches!(got[1], Ok(OpOutcome::Done(_))));
        // The miss completed after the put: its fill must not replace it.
        let entry = tb.inner.cache.primary().peek_entry(&k(1)).unwrap();
        assert!(entry.dirty);
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(2)));
        assert_eq!(tb.flush_dirty().unwrap(), 1);
        tb.inner.cache.remove(&k(1));
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(2)), "storage holds v2");
    }

    #[test]
    fn write_back_put_behind_an_expired_fetch_is_not_reclaimed() {
        let clock = tb_common::ManualClock::new();
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("wbexpiredput"))
                .policy(SyncPolicy::WriteBack)
                .clock(clock.clone())
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .build(),
        )
        .unwrap();
        tb.put_with_ttl(k(1), v(1), std::time::Duration::from_secs(1))
            .unwrap();
        tb.flush_dirty().unwrap();
        tb.inner.cache.remove(&k(1));
        clock.advance(std::time::Duration::from_secs(2));
        // The get's fetch finds the expired storage copy after the put
        // went into the cache: reclaiming the key must not drop the put.
        let got = tb.apply_batch(vec![EngineOp::Get(k(1)), EngineOp::Put(k(1), v(2))]);
        assert_eq!(
            got[0],
            Ok(OpOutcome::Value(None)),
            "the storage copy expired"
        );
        assert!(matches!(got[1], Ok(OpOutcome::Done(_))));
        let entry = tb.inner.cache.primary().peek_entry(&k(1)).unwrap();
        assert!(entry.dirty, "the put is still owed to storage");
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(2)));
        assert_eq!(tb.flush_dirty().unwrap(), 1);
        tb.inner.cache.remove(&k(1));
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(2)), "storage holds v2");
    }

    #[test]
    fn write_back_flush_waits_for_staged_fetches() {
        // Every put flushes. A fetch staged before the put must read
        // what storage held then, not the put the flush wrote down.
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("wbflushbarrier"))
                .policy(SyncPolicy::WriteBack)
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: 1,
                    batch_size: 64,
                })
                .build(),
        )
        .unwrap();
        tb.put(k(1), v(1)).unwrap();
        tb.inner.cache.remove(&k(1));
        let got = tb.apply_batch(vec![EngineOp::Get(k(1)), EngineOp::Put(k(1), v(2))]);
        assert_eq!(got[0], Ok(OpOutcome::Value(Some(v(1)))));
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(2)));
    }

    #[test]
    fn failed_write_through_put_is_never_read_back() {
        let tb = open_policy("wtrefused", SyncPolicy::WriteThrough);
        tb.put(k(1), v(1)).unwrap();
        tb.inject_storage_write_failures(1);
        let got = tb.apply_batch(vec![EngineOp::Put(k(1), v(2)), EngineOp::Get(k(1))]);
        assert!(
            matches!(got[0], Err(Error::StorageWriteFailed(_))),
            "{:?}",
            got[0]
        );
        assert_eq!(got[1], Ok(OpOutcome::Value(Some(v(1)))), "the old value");
        // No trace of v2: the cache holds storage's v1, clean.
        let entry = tb.inner.cache.primary().peek_entry(&k(1)).unwrap();
        assert!(!entry.dirty);
        assert_eq!(tb.inner.decode_value(&entry.value).unwrap(), v(1));
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(1)));
    }

    #[test]
    fn delete_is_a_barrier_between_gets() {
        let tb = open_policy("delbarrier", SyncPolicy::WriteThrough);
        tb.put(k(1), v(1)).unwrap();
        tb.inner.cache.remove(&k(1));
        let before = storage_calls(&tb);
        let got = tb.apply_batch(vec![
            EngineOp::Get(k(1)),
            EngineOp::Delete(k(1)),
            EngineOp::Get(k(1)),
        ]);
        assert_eq!(got[0], Ok(OpOutcome::Value(Some(v(1)))));
        assert!(matches!(got[1], Ok(OpOutcome::Done(_))));
        assert_eq!(got[2], Ok(OpOutcome::Value(None)));
        // The first get's fetch went down before the delete, the delete
        // alone, and the second get's fetch after it.
        assert_eq!(storage_calls(&tb) - before, 3);
        assert_eq!(tb.get(&k(1)).unwrap(), None);
    }
}
