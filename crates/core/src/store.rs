//! The tiered store: cache tier + storage tier + synchronization
//! policies + persistence + compression + elastic threading.
//!
//! This file holds the store's state, its public API and the value
//! envelope. Gets and puts, point or batched, take the one data path in
//! `store_batch.rs`. TTL reads and scans are in `store_read.rs`; deletes,
//! CAS and the persistence log in `store_write.rs`; storage-tier
//! synchronization (`sync`, the write-back flush) in `store_sync.rs`;
//! the counters in `store_stats.rs`.

use crate::config::{PersistenceMode, SyncPolicy, TierBaseConfig};
use crate::elastic::ElasticGate;
use crate::interval::AccessIntervalTracker;
use crate::store_write::{apply_log_record, open_cache_log, COLD_LOG};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tb_cache::{CacheConfig, PmemPlacement, ShardedCache};
use tb_common::{
    deadline_after, durable, read_varint, varint_bytes, EngineOp, Error, Key, KvEngine, OpOutcome,
    Result, TtlState, Value,
};
use tb_compress::{CompressorChoice, PretrainedCompression, TzstdLevel};
use tb_lsm::{LsmConfig, LsmDb};
use tb_pmem::{LatencyModel, PersistentRingBuffer, PmemDevice, RingConfig};

pub use crate::store_stats::TierBaseStats;

/// Envelope flag bit: payload compressed by a trained model, whose
/// varint generation follows the flags (as a zstd frame names its
/// dictionary).
const ENV_COMPRESSED: u8 = 0b01;
/// Envelope flag bit: a varint expiry deadline (absolute clock
/// nanoseconds) precedes the payload.
const ENV_HAS_EXPIRY: u8 = 0b10;

/// The longest envelope header: the flags and two 10-byte varints. A
/// compressed payload is at most its value plus one byte (a stored
/// frame's mode), which a raw one is not.
const ENVELOPE_HEADER_BYTES: usize = 1 + 2 * 10;

/// Parses an envelope header: `(model generation if compressed,
/// expires_at, payload offset)`.
pub(crate) fn parse_envelope(stored: &[u8]) -> Result<(Option<u64>, Option<u64>, usize)> {
    let &flags = stored
        .first()
        .ok_or_else(|| Error::Corruption("empty stored value".into()))?;
    if flags & !(ENV_COMPRESSED | ENV_HAS_EXPIRY) != 0 {
        return Err(Error::Corruption(format!("bad value envelope {flags}")));
    }
    let mut pos = 1;
    let mut field = |bit: u8| {
        (flags & bit != 0)
            .then(|| read_varint(stored, &mut pos))
            .transpose()
    };
    let generation = field(ENV_COMPRESSED)?;
    let expires_at = field(ENV_HAS_EXPIRY)?;
    Ok((generation, expires_at, pos))
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

/// An auto-trained model is used only by a cache this many times its
/// heap or more: the cache holds the model's bytes back from its
/// entries, and a smaller one would give up more than compression wins
/// back (a ~44 KiB `tzstd-d` model asks for a cache of ~350 KiB).
const MIN_CACHE_PER_MODEL_BYTE: usize = 8;

/// `<dir>/cache.model.<generation>`: a trained compression model,
/// [`PretrainedCompression::to_bytes`] sealed under [`MODEL_MAGIC`].
const MODEL_FILE: &str = "cache.model.";
const MODEL_MAGIC: u32 = 0x7b4d_444c;

pub(crate) struct Inner {
    pub(crate) config: TierBaseConfig,
    pub(crate) cache: ShardedCache,
    pub(crate) storage: Option<Arc<dyn KvEngine>>,
    pub(crate) wal: Option<Mutex<tb_lsm::wal::Wal>>,
    /// The cache tier's log sequence: every record in `cache.wal`, the
    /// PMem ring and the cold log carries the LSN it took at append.
    pub(crate) wal_seq: AtomicU64,
    pub(crate) ring: Option<Mutex<PersistentRingBuffer>>,
    /// Every trained compression model by generation; new values use
    /// the newest. A model is on disk before any value uses it, and is
    /// never replaced, so every stored envelope keeps decoding. Their
    /// heap is held back from the cache's capacity and billed with it.
    models: RwLock<BTreeMap<u64, Arc<PretrainedCompression>>>,
    train_samples: Mutex<Vec<Vec<u8>>>,
    /// Set when an auto-trained model would have taken more than its
    /// share of the cache ([`MIN_CACHE_PER_MODEL_BYTE`]): the store
    /// stays raw and samples no more.
    declined: AtomicBool,
    pub(crate) ops_since_flush: AtomicU64,
    /// §6.5.3 statistic: sampled mean key re-access interval, compared
    /// against Table 3 break-even intervals to pick a configuration.
    pub(crate) intervals: AccessIntervalTracker,
    pub(crate) stats: Arc<TierBaseStats>,
    /// `core_envelope_encode_ns` (puts' envelopes) and
    /// `core_envelope_decode_ns` (compressed envelopes read back), one
    /// envelope in [`TIMED_ENVELOPE_EVERY`] each.
    encode_ns: Arc<tb_obs::Histo>,
    decode_ns: Arc<tb_obs::Histo>,
    _obs: tb_obs::SourceGuard,
}

/// The TierBase store.
pub struct TierBase {
    inner: Arc<Inner>,
    /// The container's CPU allocation: 1 permit in single-thread mode,
    /// N in multi-thread, 1..N under elastic control (§4.4).
    gate: Arc<ElasticGate>,
    /// Held shared by every dispatched call and exclusive by the
    /// read-modify-writes (CAS, EXPIRE, PERSIST): one runs alone, so no
    /// write of its key lands between its read and its write.
    rmw: RwLock<()>,
}

impl TierBase {
    /// Opens a store, running recovery appropriate to its configuration.
    /// A tiered policy uses [`TierBaseConfig::storage`], or opens an
    /// `LsmDb` at `<dir>/storage` when it is `None`; an `InMemory` store
    /// given one is [`Error::InvalidArgument`].
    pub fn open(config: TierBaseConfig) -> Result<Self> {
        if config.storage.is_some() && !config.needs_storage_tier() {
            return Err(Error::InvalidArgument(
                "an InMemory store has no storage tier".into(),
            ));
        }
        std::fs::create_dir_all(&config.dir)?;
        // What a crash or failed save left half-published.
        durable::sweep_tmp(&config.dir)?;
        let models = load_models(&config.dir)?;

        let cache = ShardedCache::new(CacheConfig {
            capacity_bytes: config.cache_capacity,
            shards: config.cache_shards,
            // PMem-resident values pay Optane-like access latency.
            pmem: config.pmem.map(|t| PmemPlacement {
                value_threshold: t.value_threshold,
                latency: LatencyModel::optane(),
            }),
            clock: config.clock.clone(),
        });
        cache.reserve(heap_bytes(&models));

        let storage: Option<Arc<dyn KvEngine>> = match &config.storage {
            _ if !config.needs_storage_tier() => None,
            Some(engine) => Some(engine.clone()),
            None => Some(Arc::new(LsmDb::open(LsmConfig::new(
                config.dir.join("storage"),
            ))?)),
        };

        // Warm restart: restore the cache tier from the last snapshot
        // before any WAL replay (the WAL holds the newer writes).
        let snapshot_path = config.dir.join("cache.rdb");
        if snapshot_path.exists() {
            tb_cache::load_snapshot(&cache, &snapshot_path)?;
        }

        let mut wal = None;
        let mut wal_seq = 0u64;
        let mut ring = None;
        let mut replay = |path: &Path| -> Result<()> {
            for (lsn, rec) in tb_lsm::wal::Wal::replay(path)? {
                apply_log_record(&cache, &rec)?;
                wal_seq = wal_seq.max(lsn);
            }
            Ok(())
        };
        match config.persistence {
            PersistenceMode::None => {}
            PersistenceMode::Wal => {
                let path = config.dir.join("cache.wal");
                // Replay persisted cache contents.
                replay(&path)?;
                wal = Some(Mutex::new(open_cache_log(&path)?));
            }
            PersistenceMode::WalPmem => {
                // The records a full ring drained, older than the ring's.
                replay(&config.dir.join(COLD_LOG))?;
                // Only a device that was never formatted is formatted: a
                // ring that fails recovery holds acknowledged writes, so
                // it fails `open` and is left as it is.
                let path = config.dir.join("cache.pmem");
                let device = if path.exists() {
                    Some(Arc::new(PmemDevice::open(&path, LatencyModel::optane())?))
                } else {
                    None
                };
                let rb = match device {
                    Some(device) if PersistentRingBuffer::is_formatted(&device)? => {
                        PersistentRingBuffer::recover(device, RingConfig::default())?
                    }
                    _ => {
                        let device = Arc::new(PmemDevice::create(
                            &path,
                            config.pmem_ring_bytes,
                            LatencyModel::optane(),
                        )?);
                        PersistentRingBuffer::create(device, RingConfig::default())?
                    }
                };
                // A crash between a drain's cold-log sync and the ring's
                // head moving leaves records in both; the cold log's
                // copies already replayed.
                let drained = wal_seq;
                for (lsn, rec) in rb.peek_all()? {
                    if lsn > drained {
                        apply_log_record(&cache, &rec)?;
                        wal_seq = wal_seq.max(lsn);
                    }
                }
                ring = Some(Mutex::new(rb));
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
                models: RwLock::new(models),
                train_samples: Mutex::new(Vec::new()),
                declined: AtomicBool::new(false),
                ops_since_flush: AtomicU64::new(0),
                intervals,
                stats,
                encode_ns: tb_obs::global().histogram("core_envelope_encode_ns"),
                decode_ns: tb_obs::global().histogram("core_envelope_decode_ns"),
                _obs: obs,
            }),
            gate,
            rmw: RwLock::new(()),
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
    /// offline pre-training phase, or a retrain the caller decides on)
    /// as the next model generation, which new values then use; values
    /// stored under earlier generations keep theirs. The model is
    /// durable in `<dir>` when this returns. No-op for
    /// `CompressorChoice::Raw`.
    pub fn train_compression(&self, samples: &[Vec<u8>]) -> Result<()> {
        self.inner.train_compression(samples)
    }

    /// Flushes write-back dirty data to the storage tier now.
    pub fn flush_dirty(&self) -> Result<usize> {
        self.inner.flush_dirty()
    }

    /// Writes a point-in-time snapshot of the cache tier (Redis RDB
    /// analog) to `<dir>/cache.rdb`. [`open`](Self::open) restores it
    /// automatically for a warm restart. Returns the entry count.
    pub fn save_cache_snapshot(&self) -> Result<usize> {
        let path = self.inner.config.dir.join("cache.rdb");
        tb_cache::write_snapshot(&self.inner.cache, &path)
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
        self.dispatch_as(true, move |inner| inner.do_set_ttl(&key, Some(ttl)))
    }

    /// Removes a key's TTL (Redis `PERSIST`). Returns `false` when the
    /// key does not exist.
    pub fn persist(&self, key: &Key) -> Result<bool> {
        let key = key.clone();
        self.dispatch_as(true, move |inner| inner.do_set_ttl(&key, None))
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
        self.inner.cache.dirty_bytes()
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

    fn dispatch<T: Send + 'static>(&self, f: impl FnOnce(&Inner) -> T + Send + 'static) -> T {
        self.dispatch_as(false, f)
    }

    /// Runs `f` under a gate permit and the `rmw` lock, exclusive
    /// when `f` is a read-modify-write. A write holds the lock until it
    /// takes effect (a write-through put at its storage ack), and `f`
    /// calls `Inner` directly, so it never takes the lock twice.
    fn dispatch_as<T: Send + 'static>(
        &self,
        rmw: bool,
        f: impl FnOnce(&Inner) -> T + Send + 'static,
    ) -> T {
        self.gate.run(|| {
            let _shared = (!rmw).then(|| self.rmw.read());
            let _exclusive = rmw.then(|| self.rmw.write());
            f(&self.inner)
        })
    }
}

impl KvEngine for TierBase {
    /// The one data path (`store_batch.rs`): a single gate permit, one
    /// storage round trip for the batch's misses and write-through
    /// writes. Every provided point and multi-key method is a one-op
    /// batch through here.
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        let rmw = ops
            .iter()
            .any(|op| matches!(op, EngineOp::Cas { .. } | EngineOp::CasDelete { .. }));
        self.dispatch_as(rmw, move |inner| inner.apply_batch(ops))
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
            CompressorChoice::Tzstd => parts.push("tzstd".into()),
            CompressorChoice::TzstdDict => parts.push("tzstd-d".into()),
            CompressorChoice::Pbc => parts.push("pbc".into()),
            CompressorChoice::Raw => {}
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

/// A batch's envelopes, built back to back: envelope `k` is
/// `bytes[ends[k - 1]..ends[k]]` (from 0 for the first).
#[derive(Default)]
pub(crate) struct Envelopes {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Envelopes {
    /// Makes room, in one allocation each, for `values` more envelopes
    /// of at most `bytes` payload bytes in all.
    pub(crate) fn reserve(&mut self, values: usize, bytes: usize) {
        self.bytes.reserve(bytes + values * ENVELOPE_HEADER_BYTES);
        self.ends.reserve(values);
    }

    pub(crate) fn get(&self, k: usize) -> &[u8] {
        let from = k.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.bytes[from..self.ends[k]]
    }
}

thread_local! {
    /// A batch's envelopes as its puts build them, and a compressed
    /// value as a get decodes it: reused, so neither allocates.
    static ENCODED: RefCell<Envelopes> = RefCell::new(Envelopes::default());
    static DECODED: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A thread keeps its decode buffer between values up to this many
/// bytes, and its envelope buffer between batches up to
/// [`MAX_KEPT_ENVELOPES`]: a served burst's envelopes fit, a bulk
/// load's (hundreds of values) are allocated per batch, once, and
/// freed, so no thread holds unbilled heap of that size.
const MAX_KEPT_BUFFER: usize = 64 << 10;
const MAX_KEPT_ENVELOPES: usize = 4 << 10;

/// Runs `f` on this thread's `buffer`, emptied by `clear`, which
/// returns the bytes it holds; more than `max_kept` are freed after. A
/// store whose storage tier is another store on the same thread finds
/// it in use, and takes a fresh one.
fn with_buffer<B: Default, T>(
    buffer: &'static std::thread::LocalKey<RefCell<B>>,
    max_kept: usize,
    clear: impl Fn(&mut B) -> usize,
    f: impl FnOnce(&mut B) -> T,
) -> T {
    buffer.with(|buf| match buf.try_borrow_mut() {
        Ok(mut buf) => {
            clear(&mut buf);
            let out = f(&mut buf);
            if clear(&mut buf) > max_kept {
                *buf = B::default();
            }
            out
        }
        Err(_) => f(&mut B::default()),
    })
}

/// A thread times one envelope in [`TIMED_ENVELOPE_EVERY`] it codes:
/// a timed one costs two clock reads and four shared counters of its
/// histogram, more than a raw envelope's whole encode.
const TIMED_ENVELOPE_EVERY: u32 = 16;

/// [`tb_obs::start`] for one envelope in [`TIMED_ENVELOPE_EVERY`].
fn sampled_start() -> Option<std::time::Instant> {
    thread_local! {
        static CODED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    let coded = CODED.with(|n| {
        n.set(n.get().wrapping_add(1));
        n.get()
    });
    if coded.is_multiple_of(TIMED_ENVELOPE_EVERY) {
        tb_obs::start()
    } else {
        None
    }
}

/// Empties a decode buffer; returns the bytes it keeps.
fn clear_bytes(buf: &mut Vec<u8>) -> usize {
    buf.clear();
    buf.capacity()
}

/// The heap the models hold.
fn heap_bytes(models: &BTreeMap<u64, Arc<PretrainedCompression>>) -> usize {
    models.values().map(|unit| unit.heap_bytes()).sum()
}

impl Inner {
    // ----- value envelope ------------------------------------------------

    /// The envelope header: the flags, then the generation and the
    /// expiry as varints when present. Returns it and its length.
    fn envelope_header(
        generation: Option<u64>,
        expires_at: Option<u64>,
    ) -> ([u8; ENVELOPE_HEADER_BYTES], usize) {
        let mut header = [0u8; ENVELOPE_HEADER_BYTES];
        if generation.is_some() {
            header[0] |= ENV_COMPRESSED;
        }
        if expires_at.is_some() {
            header[0] |= ENV_HAS_EXPIRY;
        }
        let mut len = 1;
        for field in [generation, expires_at].into_iter().flatten() {
            let (varint, n) = varint_bytes(field);
            header[len..len + n].copy_from_slice(&varint[..n]);
            len += n;
        }
        (header, len)
    }

    /// A raw envelope holding `payload`.
    #[cfg(test)]
    fn seal_envelope(payload: &[u8], expires_at: Option<u64>) -> Value {
        let (header, len) = Self::envelope_header(None, expires_at);
        Value::copy_from(&[&header[..len], payload].concat())
    }

    /// Runs `f` on this thread's envelope buffer, emptied: a batch's
    /// puts build their envelopes there ([`Self::encode`]) and the
    /// batch reads them back, so nothing is allocated; what keeps an
    /// envelope (the cache's record, a staged storage write) copies it
    /// once.
    pub(crate) fn with_envelopes<T>(f: impl FnOnce(&mut Envelopes) -> T) -> T {
        let clear = |env: &mut Envelopes| {
            env.bytes.clear();
            env.ends.clear();
            env.bytes.capacity() + env.ends.capacity() * std::mem::size_of::<usize>()
        };
        with_buffer(&ENCODED, MAX_KEPT_ENVELOPES, clear, f)
    }

    /// Appends `value`'s envelope to `envelopes`: compressed under the
    /// newest model when that saves more than the generation's byte,
    /// else raw. A batch encodes all its values in one run before it
    /// applies them, so the model's tables stay in cache from one to
    /// the next instead of meeting each value cold after a cache
    /// insert. Until a model exists, a value is a training sample
    /// ([`Self::sample`]).
    pub(crate) fn encode(&self, envelopes: &mut Envelopes, value: &Value, expires_at: Option<u64>) {
        let started = sampled_start();
        self.encode_into(value.as_slice(), expires_at, &mut envelopes.bytes);
        self.encode_ns.record_since(started);
        envelopes.ends.push(envelopes.bytes.len());
    }

    /// Appends `value`'s envelope to `buf`.
    fn encode_into(&self, value: &[u8], expires_at: Option<u64>, buf: &mut Vec<u8>) {
        let start = buf.len();
        if self.config.compression != CompressorChoice::Raw {
            let untrained = {
                let models = self.models.read();
                if let Some((&generation, unit)) = models.last_key_value() {
                    let (header, len) = Self::envelope_header(Some(generation), expires_at);
                    buf.extend_from_slice(&header[..len]);
                    unit.compress_into(value, buf);
                    if buf.len() - start - len + 1 < value.len() {
                        return;
                    }
                    buf.truncate(start);
                }
                models.is_empty()
            };
            if untrained {
                self.sample(value);
            }
        }
        let (header, len) = Self::envelope_header(None, expires_at);
        buf.extend_from_slice(&header[..len]);
        buf.extend_from_slice(value);
    }

    /// Keeps `value` as a training sample while no model exists; the
    /// [`AUTO_TRAIN_SAMPLES`]th trains the first. A model too large for
    /// the cache ([`MIN_CACHE_PER_MODEL_BYTE`]) is dropped and sampling
    /// stops; if publishing one fails, sampling starts over.
    fn sample(&self, value: &[u8]) {
        if self.declined.load(Ordering::Relaxed) {
            return;
        }
        let mut samples = self.train_samples.lock();
        if !self.models.read().is_empty() {
            // Another thread published one meanwhile.
            return;
        }
        samples.push(value.to_vec());
        if samples.len() < AUTO_TRAIN_SAMPLES {
            return;
        }
        let taken = std::mem::take(&mut *samples);
        let unit = self.train_unit(&taken);
        if unit.heap_bytes() * MIN_CACHE_PER_MODEL_BYTE > self.config.cache_capacity {
            self.declined.store(true, Ordering::Relaxed);
            return;
        }
        // Sampling starts over if this fails.
        let _ = self.publish(unit);
    }

    /// Decodes an envelope into `(value, expires_at)`. A raw payload is
    /// the stored bytes' own tail; a compressed one decodes in this
    /// thread's buffer and is copied out, one allocation.
    pub(crate) fn decode_envelope(&self, stored: &Value) -> Result<(Value, Option<u64>)> {
        let (generation, expires_at, off) = parse_envelope(stored.as_slice())?;
        let Some(generation) = generation else {
            // Zero-copy: the stored Bytes minus the envelope header.
            return Ok((Value::from_bytes(stored.0.slice(off..)), expires_at));
        };
        let started = sampled_start();
        let unit = self.models.read().get(&generation).cloned();
        let unit = unit.ok_or_else(|| {
            Error::Corruption(format!(
                "value compressed under unknown model generation {generation}"
            ))
        })?;
        let value = with_buffer(&DECODED, MAX_KEPT_BUFFER, clear_bytes, |buf| {
            unit.decompress_into(&stored.as_slice()[off..], buf)?;
            Ok::<_, Error>(Value::copy_from(buf))
        })?;
        self.decode_ns.record_since(started);
        Ok((value, expires_at))
    }

    pub(crate) fn decode_value(&self, stored: &Value) -> Result<Value> {
        self.decode_envelope(stored).map(|(v, _)| v)
    }

    /// Heap bytes of every model, which [`Self::resident_bytes`] bills
    /// and the cache's capacity holds back.
    pub(crate) fn model_bytes(&self) -> u64 {
        heap_bytes(&self.models.read()) as u64
    }

    /// Trains the next model generation and publishes it (see
    /// [`publish_model`]) before any value can use it. The cache gives
    /// up the model's heap from its capacity first.
    fn train_compression(&self, samples: &[Vec<u8>]) -> Result<()> {
        if self.config.compression == CompressorChoice::Raw {
            return Ok(());
        }
        self.publish(self.train_unit(samples))
    }

    fn train_unit(&self, samples: &[Vec<u8>]) -> PretrainedCompression {
        PretrainedCompression::train(self.config.compression, samples, TzstdLevel(1))
    }

    /// Makes `unit` the next generation: durable first, then in use.
    fn publish(&self, unit: PretrainedCompression) -> Result<()> {
        let mut models = self.models.write();
        let generation = models.last_key_value().map_or(1, |(&g, _)| g + 1);
        publish_model(&self.config.dir, generation, &unit.to_bytes())?;
        models.insert(generation, Arc::new(unit));
        self.cache.reserve(heap_bytes(&models));
        Ok(())
    }
}

/// Writes `<dir>/cache.model.<generation>` durably
/// ([`durable::publish`]).
fn publish_model(dir: &Path, generation: u64, model: &[u8]) -> Result<()> {
    durable::publish(
        &dir.join(format!("{MODEL_FILE}{generation}")),
        &durable::Sites {
            sync: "cache.model.sync",
            rename: "cache.model.rename",
            dir_sync: "cache.model.dir_sync",
        },
        &[("cache.model.write", &durable::seal(MODEL_MAGIC, model))],
    )
}

/// Every model [`publish_model`] wrote to `dir`, by generation. A file
/// that fails [`durable::unseal`] or whose model bytes do not check out
/// is [`Error::Corruption`]: the values coded under it could not be
/// read.
fn load_models(dir: &Path) -> Result<BTreeMap<u64, Arc<PretrainedCompression>>> {
    let mut models = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(Ok(generation)) = name.strip_prefix(MODEL_FILE).map(str::parse::<u64>) else {
            continue;
        };
        let file = std::fs::read(&path)?;
        let model = PretrainedCompression::from_bytes(durable::unseal(MODEL_MAGIC, &file, name)?)?;
        models.insert(generation, Arc::new(model));
    }
    Ok(models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PmemTuning, WriteBackTuning};
    use std::sync::atomic::Ordering;
    use std::sync::mpsc;
    use tb_common::testutil::{Flaky, MapEngine};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = tmpdir_keep(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// [`tmpdir`] as an earlier call left it.
    fn tmpdir_keep(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tb-core-{name}-{}", std::process::id()))
    }

    fn k(i: usize) -> Key {
        Key::from(format!("key-{i:05}"))
    }

    /// Opens a tiered store over the storage tier `open` would make
    /// (an `LsmDb` at `<dir>/storage`) in a [`Flaky`], which counts the
    /// store's storage round trips and refuses writes on demand.
    fn open_flaky(config: TierBaseConfig) -> (TierBase, Arc<Flaky<LsmDb>>) {
        let db = LsmDb::open(LsmConfig::new(config.dir.join("storage"))).unwrap();
        let storage = Arc::new(Flaky::new(db));
        let config = TierBaseConfig {
            storage: Some(storage.clone()),
            ..config
        };
        (TierBase::open(config).unwrap(), storage)
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
        assert_eq!(tb.label(), "tierbase-mem-tzstd-d");
    }

    #[test]
    fn an_in_memory_store_takes_no_storage_tier() {
        let config = TierBaseConfig::builder(tmpdir("mem-storage"))
            .storage(MapEngine::shared())
            .build();
        let refused = TierBase::open(config.clone()).map(drop);
        assert!(
            matches!(refused, Err(Error::InvalidArgument(_))),
            "{refused:?}"
        );
        let tiered = TierBaseConfig {
            policy: SyncPolicy::WriteThrough,
            ..config
        };
        let tb = TierBase::open(tiered).unwrap();
        tb.put(k(1), v(1)).unwrap();
        tb.inner.cache.remove(&k(1));
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(1)), "read from the map");
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
        let (tb, storage) = open_flaky(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        );
        tb.put(k(1), v(1)).unwrap();
        storage.refuse_writes(1);
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
        let (tb, storage) = open_flaky(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteBack)
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX, // manual flush only
                    batch_size: 64,
                })
                .build(),
        );
        for i in 0..100 {
            tb.put(k(i), v(i)).unwrap();
        }
        assert!(tb.dirty_bytes() > 0, "writes should be dirty in cache");
        let flushed = tb.flush_dirty().unwrap();
        assert_eq!(flushed, 100);
        assert_eq!(tb.dirty_bytes(), 0);
        // Storage saw batched calls, far fewer than 100.
        let calls = storage.calls();
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

    /// A flush writes the dirty entries and nothing else. Keys put with
    /// a deadline and flushed are clean but keep their deadline's side
    /// record in the cache; the next flush neither counts nor writes
    /// them again.
    #[test]
    fn write_back_flush_leaves_out_clean_entries_with_a_deadline() {
        let clock = tb_common::ManualClock::new();
        let storage = Arc::new(Flaky::new(MapEngine::default()));
        let tb = TierBase::open(TierBaseConfig {
            storage: Some(storage.clone()),
            ..TierBaseConfig::builder(tmpdir("wbttl"))
                .policy(SyncPolicy::WriteBack)
                .clock(clock.clone())
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .build()
        })
        .unwrap();
        for i in 0..20 {
            tb.put_with_ttl(k(i), v(i), std::time::Duration::from_secs(60))
                .unwrap();
        }
        assert_eq!(tb.flush_dirty().unwrap(), 20);
        // Storage forgets them, so a second write of one would show.
        for i in 0..20 {
            let cached = tb.inner.cache.peek_entry(&k(i)).unwrap();
            assert!(!cached.dirty && cached.expires_at.is_some());
            storage.delete(&k(i)).unwrap();
        }
        for i in 20..25 {
            tb.put(k(i), v(i)).unwrap();
        }
        let calls = storage.calls();
        let flushed = tb.stats().flushed_entries.load(Ordering::Relaxed);
        assert_eq!(tb.flush_dirty().unwrap(), 5, "the new puts alone");
        assert_eq!(storage.calls(), calls + 1, "one batch");
        assert_eq!(
            tb.stats().flushed_entries.load(Ordering::Relaxed),
            flushed + 5
        );
        for i in 0..20 {
            assert_eq!(storage.get(&k(i)).unwrap(), None, "key {i} rewritten");
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)));
        }
        for i in 20..25 {
            assert!(storage.get(&k(i)).unwrap().is_some());
        }
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
                .threading(crate::elastic::ThreadMode::Multi(2))
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .build(),
        )
        .unwrap();
        tb.put(k(1), Value::from("old")).unwrap();
        let snapshot = tb.inner.cache.dirty_entries();
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
                    Inner::seal_envelope(filler.as_slice(), None),
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
        assert_eq!(tb.label(), "tierbase-mem-wal-tzstd-d");
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
        // Enough values that the models, billed with the cache, pay for
        // themselves; trained on the first 300.
        let values: Vec<Vec<u8>> = (0..20_000)
            .map(|i| {
                format!(
                    "{{\"uid\":\"{i:016x}\",\"dev\":\"android\",\"geo\":\"CN-ZJ\",\"score\":{i}}}"
                )
                .into_bytes()
            })
            .collect();

        let open = |name: &str, comp: CompressorChoice| {
            let tb = TierBase::open(
                TierBaseConfig::builder(tmpdir(name))
                    .compression(comp)
                    .build(),
            )
            .unwrap();
            tb.train_compression(&values[..300]).unwrap();
            for (i, s) in values.iter().enumerate() {
                tb.put(k(i), Value::from(s.clone())).unwrap();
            }
            // Round-trip integrity.
            for (i, s) in values.iter().enumerate() {
                assert_eq!(tb.get(&k(i)).unwrap(), Some(Value::from(s.clone())));
            }
            let (dram, _) = tb.inner.cache.bytes_by_medium();
            let models = tb.inner.model_bytes();
            assert_eq!(tb.resident_bytes(), dram + models);
            assert_eq!(models > 0, comp != CompressorChoice::Raw, "{comp:?}");
            tb.resident_bytes()
        };

        let raw = open("comp-raw", CompressorChoice::Raw);
        let pbc = open("comp-pbc", CompressorChoice::Pbc);
        let tzd = open("comp-tzd", CompressorChoice::TzstdDict);
        assert!(pbc < raw, "PBC {pbc} should be below raw {raw}");
        assert!(tzd < raw, "tzstd-d {tzd} should be below raw {raw}");
    }

    /// A full cache gives its models' heap up from its capacity: what
    /// it bills, entries and models, stays within `cache_capacity`.
    #[test]
    fn models_come_out_of_a_full_caches_capacity() {
        const CAPACITY: usize = 2 << 20;
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("model-reserve"))
                .cache_capacity(CAPACITY)
                .build(),
        )
        .unwrap();
        for i in 0..60_000 {
            tb.put(k(i), v(i)).unwrap();
        }
        let models = tb.inner.model_bytes();
        assert!(models > 0, "the default trains a model");
        let resident = tb.resident_bytes();
        assert!(resident <= CAPACITY as u64, "{resident} B over {CAPACITY}");
        assert!(
            resident > CAPACITY as u64 * 9 / 10,
            "{resident} B: not full"
        );
        // Reopened, the model is read back and held back again.
        drop(tb);
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir_keep("model-reserve"))
                .cache_capacity(CAPACITY)
                .build(),
        )
        .unwrap();
        assert_eq!(tb.inner.model_bytes(), models);
        for i in 0..60_000 {
            tb.put(k(i), v(i)).unwrap();
        }
        assert!(tb.resident_bytes() <= CAPACITY as u64);
    }

    #[test]
    fn auto_training_kicks_in() {
        let tb = TierBase::open(
            TierBaseConfig::builder(tmpdir("autotrain"))
                .compression(CompressorChoice::TzstdDict)
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
                .compression(CompressorChoice::TzstdDict)
                .clock(clock.clone())
                .build(),
        )
        .unwrap();
        let samples: Vec<Vec<u8>> = (0..300)
            .map(|i| format!("REC|user={i:08}|plan=premium|region=eu").into_bytes())
            .collect();
        tb.train_compression(&samples).unwrap();
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
        assert!(tb.inner.intervals.tracked_keys() > 0);
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
        let (tb, storage) = open_flaky(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        );
        let calls_before = storage.calls();
        let keys: Vec<Key> = (0..100).map(k).collect();
        let got = tb.multi_get(&keys).unwrap();
        for (i, val) in got.iter().enumerate() {
            assert_eq!(val.as_ref(), Some(&v(i)), "key {i}");
        }
        let calls_after = storage.calls();
        assert_eq!(
            calls_after - calls_before,
            1,
            "100 cold misses must collapse into one storage round-trip"
        );
        // Second multi_get is all cache hits: zero further calls.
        let got = tb.multi_get(&keys).unwrap();
        assert!(got.iter().all(|v| v.is_some()));
        assert_eq!(storage.calls(), calls_after);
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
        let (tb, storage) = open_flaky(
            TierBaseConfig::builder(&dir)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        );
        let pairs: Vec<(Key, Value)> = (0..100).map(|i| (k(i), v(i))).collect();
        let calls_before = storage.calls();
        tb.multi_put(pairs).unwrap();
        let calls_after = storage.calls();
        assert_eq!(calls_after - calls_before, 1, "one batched storage write");
        for i in 0..100 {
            assert_eq!(tb.get(&k(i)).unwrap(), Some(v(i)));
        }
        // Refused write: the batch reports an error and the cache is
        // invalidated for all its keys (reads refetch from storage).
        storage.refuse_writes(1);
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
                    .threading(crate::elastic::ThreadMode::Multi(4))
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

    /// A storage tier that holds the answer of the first batch holding a
    /// `Get` after [`ParkedGet::park_next_get`] until the test lets it
    /// go: a fetch parked mid-round-trip.
    struct ParkedGet {
        db: LsmDb,
        park: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl ParkedGet {
        /// Returns (parked, go): the next fetch signals `parked` once
        /// storage has answered it, then waits for `go`.
        fn park_next_get(&self) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (parked_tx, parked) = mpsc::channel();
            let (go, go_rx) = mpsc::channel();
            *self.park.lock() = Some((parked_tx, go_rx));
            (parked, go)
        }
    }

    impl KvEngine for ParkedGet {
        fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
            let fetch = ops.iter().any(|op| matches!(op, EngineOp::Get(_)));
            let done = self.db.apply_batch(ops);
            if let Some((parked, go)) = fetch.then(|| self.park.lock().take()).flatten() {
                parked.send(()).unwrap();
                go.recv().unwrap();
            }
            done
        }
        fn resident_bytes(&self) -> u64 {
            self.db.resident_bytes()
        }
        fn label(&self) -> String {
            "parked-get".into()
        }
    }

    #[test]
    fn miss_fill_never_replaces_a_newer_write() {
        // A reader misses on a cold key and fetches it; a writer
        // overwrites the key while the fetch's answer is on its way
        // back. The fetched copy is older than the write, so filling the
        // cache with it would lose an acknowledged write for good. The
        // storage tier parks the fetch until the put has returned, so
        // the race runs every time.
        let dir = tmpdir("missfill");
        let storage = Arc::new(ParkedGet {
            db: LsmDb::open(LsmConfig::new(dir.join("storage"))).unwrap(),
            park: Mutex::new(None),
        });
        let tb = Arc::new(
            TierBase::open(
                TierBaseConfig::builder(&dir)
                    .policy(SyncPolicy::WriteBack)
                    .threading(crate::elastic::ThreadMode::Multi(2))
                    .storage(storage.clone())
                    .build(),
            )
            .unwrap(),
        );
        tb.put(k(1), Value::from("old")).unwrap();
        tb.flush_dirty().unwrap();
        tb.inner.cache.remove(&k(1));
        let (parked, go) = storage.park_next_get();
        let reader = {
            let tb = tb.clone();
            std::thread::spawn(move || tb.get(&k(1)).unwrap())
        };
        parked.recv().unwrap();
        tb.put(k(1), Value::from("new")).unwrap();
        go.send(()).unwrap();
        let read = reader.join().unwrap();
        assert_eq!(read, Some(Value::from("old")), "storage answered first");
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

    fn open_policy(name: &str, policy: SyncPolicy) -> (TierBase, Arc<Flaky<LsmDb>>) {
        open_flaky(
            TierBaseConfig::builder(tmpdir(name))
                .policy(policy)
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 64,
                })
                .build(),
        )
    }

    #[test]
    fn write_through_batch_is_one_storage_call_and_matches_per_op() {
        // Keys 0..8 are written; 0..4 then leave the cache (cold).
        let setup = |name: &str| {
            let (tb, storage) = open_policy(name, SyncPolicy::WriteThrough);
            tb.multi_put((0..8).map(|i| (k(i), v(i))).collect())
                .unwrap();
            for i in 0..4 {
                tb.inner.cache.remove(&k(i));
            }
            (tb, storage)
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

        let (batched, storage) = setup("wtbatch");
        let before = storage.calls();
        let got = batched.apply_batch(ops.clone());
        assert_eq!(
            storage.calls() - before,
            1,
            "4 cold misses, 4 puts and the gets behind them share one round trip"
        );
        let (per_op, _) = setup("wtbatch-perop");
        assert_eq!(got, PerOp(&per_op).apply_batch(ops));
        assert_eq!(
            got[6],
            Ok(OpOutcome::Value(Some(v(60)))),
            "get behind its put"
        );
        // The staged writes reached the cache clean once storage had them.
        for key in [k(6), k(20), k(21), k(22)] {
            assert!(!batched.inner.cache.peek_entry(&key).unwrap().dirty);
        }
    }

    #[test]
    fn write_back_miss_then_put_in_one_batch_keeps_the_put() {
        let (tb, _) = open_policy("wbmissput", SyncPolicy::WriteBack);
        tb.put(k(1), v(1)).unwrap();
        tb.flush_dirty().unwrap();
        tb.inner.cache.remove(&k(1));
        let got = tb.apply_batch(vec![EngineOp::Get(k(1)), EngineOp::Put(k(1), v(2))]);
        assert_eq!(got[0], Ok(OpOutcome::Value(Some(v(1)))));
        assert!(matches!(got[1], Ok(OpOutcome::Done(_))));
        // The miss completed after the put: its fill must not replace it.
        let entry = tb.inner.cache.peek_entry(&k(1)).unwrap();
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
        let entry = tb.inner.cache.peek_entry(&k(1)).unwrap();
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
        let (tb, storage) = open_policy("wtrefused", SyncPolicy::WriteThrough);
        tb.put(k(1), v(1)).unwrap();
        storage.refuse_writes(1);
        let got = tb.apply_batch(vec![EngineOp::Put(k(1), v(2)), EngineOp::Get(k(1))]);
        assert!(
            matches!(got[0], Err(Error::StorageWriteFailed(_))),
            "{:?}",
            got[0]
        );
        assert_eq!(got[1], Ok(OpOutcome::Value(Some(v(1)))), "the old value");
        // No trace of v2: the cache holds storage's v1, clean.
        let entry = tb.inner.cache.peek_entry(&k(1)).unwrap();
        assert!(!entry.dirty);
        assert_eq!(tb.inner.decode_value(&entry.value).unwrap(), v(1));
        assert_eq!(tb.get(&k(1)).unwrap(), Some(v(1)));
    }

    #[test]
    fn delete_is_a_barrier_between_gets() {
        let (tb, storage) = open_policy("delbarrier", SyncPolicy::WriteThrough);
        tb.put(k(1), v(1)).unwrap();
        tb.inner.cache.remove(&k(1));
        let before = storage.calls();
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
        assert_eq!(storage.calls() - before, 3);
        assert_eq!(tb.get(&k(1)).unwrap(), None);
    }

    #[test]
    fn damaged_model_files_load_or_are_corruption() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};

        // One trained unit per choice; its file's body damaged
        // (arbitrary, cut short, a bit flipped, grown) under a fresh
        // checksum, so it reaches the model parser; the file itself
        // cut short or a bit flipped, which the checksum must catch.
        let samples: Vec<Vec<u8>> = (0..48)
            .map(|i| format!("EVT|user={i:08x}|act=click|page=/home|END").into_bytes())
            .collect();
        let units: Vec<Vec<u8>> = [
            CompressorChoice::Raw,
            CompressorChoice::Tzstd,
            CompressorChoice::TzstdDict,
            CompressorChoice::Pbc,
        ]
        .map(|c| PretrainedCompression::train(c, &samples, TzstdLevel(1)).to_bytes())
        .to_vec();
        let dir = tmpdir("model-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let file_of = |body: &[u8]| durable::seal(MODEL_MAGIC, body);
        let load = |file: &[u8]| {
            std::fs::write(dir.join(format!("{MODEL_FILE}1")), file).unwrap();
            load_models(&dir)
        };
        let mut runner = TestRunner::new(Config {
            cases: 64,
            ..Config::default()
        });
        let inputs = (
            proptest::collection::vec(any::<u8>(), 0..600),
            0usize..4,
            any::<usize>(),
            any::<usize>(),
        );
        runner
            .run(&inputs, |(bytes, unit, cut, bit)| {
                let good = &units[unit];
                let mut flipped = good.clone();
                flipped[bit / 8 % good.len()] ^= 1 << (bit % 8);
                let grown = [&good[..], &bytes].concat();
                for body in [&bytes[..], &good[..cut % good.len()], &flipped, &grown] {
                    match load(&file_of(body)) {
                        Ok(models) => {
                            let unit = &models[&1];
                            let rec = &samples[47];
                            prop_assert_eq!(&unit.decompress(&unit.compress(rec)).unwrap(), rec);
                        }
                        Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
                    }
                }
                let file = file_of(good);
                let mut flipped = file.clone();
                flipped[bit / 8 % file.len()] ^= 1 << (bit % 8);
                let cut = &file[..cut % file.len()];
                for damaged in [&flipped[..], cut] {
                    let outcome = load(damaged).map(|models| models.len());
                    prop_assert!(matches!(outcome, Err(Error::Corruption(_))), "{outcome:?}");
                }
                Ok(())
            })
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
