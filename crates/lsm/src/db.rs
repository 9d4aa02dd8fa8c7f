//! The LSM database: WAL segments + memtables + leveled SSTables +
//! manifest, and the one background worker that flushes and compacts.
//!
//! Durability contract: every mutation is WAL-appended before it is
//! visible. Each memtable owns one WAL segment (`{seq:010}.wal`). When
//! the active memtable fills, the writer fsyncs its segment, opens the
//! next one and *freezes* the memtable: read-only, still served, queued
//! for the worker. A segment is deleted only after its memtable is
//! inside an SSTable named by a durably written manifest (see
//! `flush.rs` for the publication order). Recovery = load manifest,
//! open tables, replay the remaining segments oldest first — skipping
//! records the manifest's flushed LSN covers — into the active memtable
//! (newest segment) and the frozen queue (the rest).
//!
//! Read path: every SSTable lookup — point get, CAS read, batched get,
//! range scan — is staged (memtable probes: active, then frozen newest
//! first; then the candidate `(table, block)` pairs each table's
//! range/bloom/index admits) and completed by one function,
//! `Tree::fetch`, which dedups the staged blocks, reads each once and
//! hands them to the find/merge step.
//!
//! Concurrency: one `RwLock` around the tree — active memtable, active
//! segment, frozen queue, installed `Version`. Staging shares the
//! lock; block I/O runs after it drops, against `Arc`-pinned tables
//! (only a CAS keeps the write lock across its read). Writes serialize
//! on the write lock. The worker builds tables, merges runs and writes
//! manifests holding no tree lock, and takes the write lock only to
//! install the result; it is the only code that changes the levels. A
//! writer stalls — before it takes the lock — only while `MAX_FROZEN`
//! (4) memtables wait for the worker. [`KvEngine::sync`] takes the
//! lock to flush the segment's buffer and runs its `fdatasync` after
//! dropping it; concurrent callers share that `fdatasync` as a
//! leader/follower group.

use crate::flush::Background;
use crate::memtable::Memtable;
use crate::sstable::{SstBuildStats, SstConfig, SstDecodeStats};
use crate::version::Version;
use crate::wal::{SyncPolicy, Wal};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tb_common::log::WriteRecord;
use tb_common::{
    durable, fault, BatchReadStats, EngineOp, Error, Key, KvEngine, Lsn, OpOutcome, Result, Value,
};

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Data directory (created if absent).
    pub dir: PathBuf,
    /// Memtable flush threshold in bytes.
    pub memtable_bytes: usize,
    /// Number of L0 tables that triggers an L0→L1 compaction.
    pub l0_compaction_trigger: usize,
    /// Byte budget of L1; level N holds 10^(N-1) × this.
    pub level_base_bytes: u64,
    /// Deepest level index (levels are 0..=max_level).
    pub max_level: usize,
    /// SSTable block/bloom parameters.
    pub sst: SstConfig,
    /// WAL sync policy.
    pub wal_sync: SyncPolicy,
}

impl LsmConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            memtable_bytes: 4 << 20,
            l0_compaction_trigger: 4,
            level_base_bytes: 16 << 20,
            max_level: 4,
            sst: SstConfig::default(),
            wal_sync: SyncPolicy::OsBuffer,
        }
    }

    /// Small thresholds for tests: flush/compact often.
    pub fn small_for_tests(dir: impl Into<PathBuf>) -> Self {
        Self {
            memtable_bytes: 4 << 10,
            l0_compaction_trigger: 2,
            level_base_bytes: 32 << 10,
            max_level: 3,
            ..Self::new(dir)
        }
    }
}

/// Operational counters.
#[derive(Debug, Default)]
pub struct LsmStats {
    pub flushes: AtomicU64,
    pub compactions: AtomicU64,
    pub gets: AtomicU64,
    pub puts: AtomicU64,
    /// `apply_batch` invocations (every trait data call is one).
    pub batches: AtomicU64,
    /// Unique SSTable blocks fetched by staged reads (point gets, CAS
    /// reads, batches and scans — every completion pass).
    pub batch_blocks_read: AtomicU64,
    /// Staged block references satisfied by a block another key in the
    /// same pass already fetched.
    pub batch_block_dedup_hits: AtomicU64,
    /// Staged block references never read: a newer table's block had
    /// already answered the lookup. With the two counters above, every
    /// staged reference of a completion pass is counted exactly once.
    pub batch_blocks_skipped: AtomicU64,
    /// Block reads of a table without a filter (the bottom level's)
    /// that did not hold the key: the reads a bottom-level filter would
    /// have saved, paid only by lookups of keys that are nowhere above.
    pub bottom_misses: AtomicU64,
    /// Lookups resolved from the memtable without staging IO.
    pub batch_memtable_hits: AtomicU64,
    /// Block references staged by scans, pre-dedup (the scan share of
    /// the batch fetch lists — lets scan traffic be told apart from
    /// point reads).
    pub batch_scan_blocks_read: AtomicU64,
    /// Range scans submitted (`EngineOp::Scan`s, one per
    /// `KvEngine::scan`).
    pub scans: AtomicU64,
    /// Data blocks whose frame carries a compressed payload (flush and
    /// compaction combined; blocks that didn't shrink fall back to
    /// stored frames and are not counted).
    pub blocks_compressed: AtomicU64,
    /// On-disk data-region bytes written (frames + dict payloads).
    pub compressed_bytes_written: AtomicU64,
    /// Raw block bytes before framing — with
    /// `compressed_bytes_written`, the store's real compression ratio.
    pub uncompressed_bytes_written: AtomicU64,
    /// Decode-side counters (CRC-verified frames, decompressions,
    /// corruption errors), shared by every table this engine opens.
    pub decode: Arc<SstDecodeStats>,
    /// Frozen memtables waiting for the worker (a gauge).
    pub frozen_memtables: AtomicU64,
    /// Tables in L0 (a gauge).
    pub l0_tables: AtomicU64,
    /// Times a `sync` caller waited for another caller's `fdatasync`
    /// instead of issuing its own.
    pub sync_waits: AtomicU64,
}

impl LsmStats {
    pub(crate) fn add_build(&self, build: &SstBuildStats) {
        self.blocks_compressed
            .fetch_add(build.blocks_compressed, Ordering::Relaxed);
        self.compressed_bytes_written
            .fetch_add(build.compressed_bytes, Ordering::Relaxed);
        self.uncompressed_bytes_written
            .fetch_add(build.uncompressed_bytes, Ordering::Relaxed);
    }
}

/// One full memtable, read-only, waiting for the worker to flush it.
pub(crate) struct Frozen {
    pub(crate) memtable: Memtable,
    /// The WAL segment holding exactly this memtable's writes.
    pub(crate) segment: u64,
    /// LSN of its newest write: the manifest's flushed LSN once it is
    /// inside a table.
    pub(crate) last_lsn: u64,
}

pub(crate) struct Inner {
    /// The memtable writes go to.
    pub(crate) memtable: Memtable,
    /// Its WAL segment, number `wal_seq`.
    pub(crate) wal: Wal,
    pub(crate) wal_seq: u64,
    /// Full memtables, oldest first. Reads probe them newest first,
    /// after `memtable` and before the levels.
    pub(crate) frozen: VecDeque<Arc<Frozen>>,
    pub(crate) version: Version,
}

/// Engine state shared by the [`LsmDb`] handle and its worker thread.
pub(crate) struct Tree {
    pub(crate) inner: RwLock<Inner>,
    pub(crate) config: LsmConfig,
    pub(crate) next_file_id: AtomicU64,
    /// LSN of the newest applied write (see `tb_common::engine` for the
    /// contract). Advanced under the tree's write lock; read lock-free
    /// by [`KvEngine::applied_lsn`].
    pub(crate) last_lsn: AtomicU64,
    /// Highest LSN known durable: covered by a successful sync, by a
    /// segment fsynced when its memtable froze, or by a table. Only ever
    /// raised. While it is at `last_lsn`, [`KvEngine::sync`] has nothing
    /// to make durable and skips the `fdatasync`.
    pub(crate) synced_lsn: AtomicU64,
    pub(crate) sync_group: SyncGroup,
    pub(crate) stats: Arc<LsmStats>,
    pub(crate) bg: Background,
}

/// The LSM storage engine.
pub struct LsmDb {
    pub(crate) tree: Arc<Tree>,
    pub stats: Arc<LsmStats>,
    /// The flush/compaction worker; joined on drop.
    worker: Option<std::thread::JoinHandle<()>>,
    /// Keeps this engine's counters contributing to
    /// [`tb_obs::global`] snapshots; deregisters on drop.
    _obs: tb_obs::SourceGuard,
}

/// Path of WAL segment `seq` in `dir`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:010}.wal"))
}

/// Numbers of the WAL segments in `dir`, oldest first.
fn wal_segments(dir: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("wal") {
            if let Some(seq) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| s.parse().ok())
            {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

impl LsmDb {
    /// Opens (or creates) a database in `config.dir`, running recovery,
    /// and starts its worker (which flushes any recovered frozen
    /// memtables first).
    pub fn open(config: LsmConfig) -> Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        // Stats exist before any table opens: every reader shares the
        // engine's decode counters from its first block read.
        let stats = Arc::new(LsmStats::default());
        let (version, max_id) = Version::load(&config.dir, config.max_level, &stats.decode)?;

        // Replay the segments oldest first, tracking the highest LSN
        // seen: the recovered sequence resumes after the larger of the
        // manifest's flushed LSN and the WAL tail. Records at or below
        // the flushed LSN are already in a table; a segment holding
        // nothing else is deleted.
        let segments = wal_segments(&config.dir)?;
        let active_seq = segments.last().copied().unwrap_or(1);
        let mut memtable = Memtable::new();
        let mut frozen = VecDeque::new();
        let mut wal_lsn = 0u64;
        for seq in segments {
            let path = segment_path(&config.dir, seq);
            let mut replayed = Memtable::new();
            let mut last_lsn = 0;
            for (lsn, rec) in Wal::replay(&path)? {
                let WriteRecord { key, value } = WriteRecord::decode(&rec)?;
                wal_lsn = wal_lsn.max(lsn);
                if lsn <= version.flushed_lsn {
                    continue;
                }
                last_lsn = lsn;
                match value {
                    Some(v) => replayed.put(key, v),
                    None => replayed.delete(key),
                };
            }
            if seq == active_seq {
                memtable = replayed;
            } else if replayed.is_empty() {
                // Best effort, like the sweep below: a segment that
                // stays is skipped again next time.
                let _ = std::fs::remove_file(&path);
            } else {
                frozen.push_back(Arc::new(Frozen {
                    memtable: replayed,
                    segment: seq,
                    last_lsn,
                }));
            }
        }
        let wal = Wal::open(&segment_path(&config.dir, active_seq), config.wal_sync)?;

        // Sweep crash leftovers: .tmp files from interrupted writes and
        // .sst files no manifest references (a flush or compaction that
        // died between writing the table and installing it).
        durable::sweep_tmp(&config.dir)?;
        let referenced: std::collections::HashSet<PathBuf> = version
            .levels
            .iter()
            .flatten()
            .map(|t| t.meta.path.clone())
            .collect();
        for entry in std::fs::read_dir(&config.dir)? {
            let path = entry?.path();
            let sst = path.extension().is_some_and(|e| e == "sst");
            if sst && !referenced.contains(&path) {
                let _ = std::fs::remove_file(&path);
            }
        }

        let obs = {
            let stats = stats.clone();
            tb_obs::global().register_source(move |b| {
                let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
                b.counter("lsm_flushes", c(&stats.flushes));
                b.counter("lsm_compactions", c(&stats.compactions));
                b.counter("lsm_gets", c(&stats.gets));
                b.counter("lsm_puts", c(&stats.puts));
                b.counter("lsm_batches", c(&stats.batches));
                b.counter("lsm_batch_blocks_read", c(&stats.batch_blocks_read));
                b.counter(
                    "lsm_batch_block_dedup_hits",
                    c(&stats.batch_block_dedup_hits),
                );
                b.counter("lsm_batch_blocks_skipped", c(&stats.batch_blocks_skipped));
                b.counter("lsm_bottom_misses", c(&stats.bottom_misses));
                b.counter("lsm_batch_memtable_hits", c(&stats.batch_memtable_hits));
                b.counter(
                    "lsm_batch_scan_blocks_read",
                    c(&stats.batch_scan_blocks_read),
                );
                b.counter("lsm_scans", c(&stats.scans));
                b.counter("lsm_sync_waits", c(&stats.sync_waits));
                b.counter("lsm_blocks_compressed", c(&stats.blocks_compressed));
                b.counter(
                    "lsm_compressed_bytes_written",
                    c(&stats.compressed_bytes_written),
                );
                b.counter(
                    "lsm_uncompressed_bytes_written",
                    c(&stats.uncompressed_bytes_written),
                );
                b.counter(
                    "lsm_blocks_decompressed",
                    c(&stats.decode.blocks_decompressed),
                );
                b.counter(
                    "lsm_block_decode_errors",
                    c(&stats.decode.block_decode_errors),
                );
                b.gauge("lsm_frozen_memtables", c(&stats.frozen_memtables) as i64);
                b.gauge("lsm_l0_tables", c(&stats.l0_tables) as i64);
            })
        };
        // Present (at zero) before the first stall records into it.
        tb_obs::global().histogram("lsm_write_stall_ns");

        stats
            .frozen_memtables
            .store(frozen.len() as u64, Ordering::Relaxed);
        stats
            .l0_tables
            .store(version.levels[0].len() as u64, Ordering::Relaxed);
        let queued = frozen.len();
        let flushed_lsn = version.flushed_lsn;
        let tree = Arc::new(Tree {
            inner: RwLock::new(Inner {
                memtable,
                wal,
                wal_seq: active_seq,
                frozen,
                version,
            }),
            next_file_id: AtomicU64::new(max_id + 1),
            last_lsn: AtomicU64::new(flushed_lsn.max(wal_lsn)),
            // Only the tables are known durable: replayed WAL frames may
            // have reached the OS but not the disk.
            synced_lsn: AtomicU64::new(flushed_lsn),
            sync_group: SyncGroup::default(),
            config,
            stats: stats.clone(),
            bg: Background::new(queued),
        });
        let worker = {
            let tree = tree.clone();
            // The worker's IO is this engine's IO: a test's scoped fault
            // injection sees it, and a crash there freezes this thread.
            let scope = fault::scope();
            std::thread::Builder::new()
                .name("tb-lsm-worker".into())
                .spawn(move || {
                    fault::adopt(scope);
                    tree.run_worker();
                })?
        };
        Ok(Self {
            tree,
            stats,
            worker: Some(worker),
            _obs: obs,
        })
    }

    /// Freezes the active memtable (no-op when empty) and waits until
    /// the worker has flushed every frozen memtable and run the
    /// compactions that follow; returns the first job error.
    pub fn flush(&self) -> Result<()> {
        {
            let mut inner = self.tree.inner.write();
            if !inner.memtable.is_empty() {
                self.tree.freeze(&mut inner)?;
            }
        }
        self.tree.bg.wait_idle(true)
    }

    /// Total bytes in SSTables plus memtables, read from the settled
    /// tree: waits for queued flushes and compactions first (a worker
    /// stopped by an error or crash reports the tree as it left it).
    pub fn disk_bytes(&self) -> u64 {
        let _ = self.tree.bg.wait_idle(false);
        let inner = self.tree.inner.read();
        let memtables: usize = inner
            .frozen
            .iter()
            .map(|f| f.memtable.approx_bytes())
            .sum::<usize>()
            + inner.memtable.approx_bytes();
        inner.version.sst_bytes() + memtables as u64
    }

    /// Tables per level (diagnostics).
    pub fn level_table_counts(&self) -> Vec<usize> {
        let inner = self.tree.inner.read();
        inner.version.levels.iter().map(|l| l.len()).collect()
    }

    /// Directory this database lives in.
    pub fn dir(&self) -> &Path {
        &self.tree.config.dir
    }
}

impl Drop for LsmDb {
    /// Lets the worker flush what is queued (it stops at the first
    /// error), then joins it.
    fn drop(&mut self) {
        self.tree.bg.shut_down();
        if let Some(worker) = self.worker.take() {
            // The worker catches its own panics; a join error carries no
            // news.
            let _ = worker.join();
        }
    }
}

impl Tree {
    /// Appends, applies, and sequences one write; returns its assigned
    /// LSN. A failed WAL append consumes no LSN (the write never
    /// applied); a post-apply failure (freezing the full memtable)
    /// surfaces as an error with the LSN already advanced — the write is
    /// durable in the WAL and indeterminate to the caller, exactly the
    /// ack contract.
    pub(crate) fn write_locked(
        &self,
        inner: &mut Inner,
        key: Key,
        value: Option<Value>,
    ) -> Result<u64> {
        let lsn = self.last_lsn.load(Ordering::Relaxed) + 1;
        let record = WriteRecord { key, value };
        inner.wal.append(lsn, &record.encode())?;
        self.last_lsn.store(lsn, Ordering::Release);
        let size = match record.value {
            Some(v) => inner.memtable.put(record.key, v),
            None => inner.memtable.delete(record.key),
        };
        if size >= self.config.memtable_bytes {
            self.freeze(inner)?;
        }
        Ok(lsn)
    }

    /// The CAS read stages and completes like any lookup, but under the
    /// caller's write lock, so later ops observe its effect — the one
    /// read that holds the tree lock across block IO. A match writes
    /// `value`: a put, or a tombstone (`None`) for a compare-and-delete.
    pub(crate) fn cas_locked(
        &self,
        inner: &mut Inner,
        key: Key,
        expected: Option<&Value>,
        value: Option<Value>,
    ) -> Result<u64> {
        let mut cands = Vec::new();
        let lookup = self.stage_lookup(inner, key.clone(), &mut cands);
        let current = self.complete_one(lookup, &cands)?;
        let matches = match (current.as_ref(), expected) {
            (Some(c), Some(e)) => c == e,
            (None, None) => true,
            _ => false,
        };
        if !matches {
            return Err(Error::CasMismatch);
        }
        if value.is_some() {
            self.stats.puts.fetch_add(1, Ordering::Relaxed);
        }
        self.write_locked(inner, key, value)
    }

    /// Makes every write applied before the call durable, as a
    /// leader/follower group commit. The caller's target is `last_lsn`
    /// at entry. While another caller's `fdatasync` is in flight, it
    /// waits for that one and returns once `synced_lsn` covers its
    /// target; if the leader failed or did not cover it, it leads the
    /// next sync itself. A leader holds the write lock only to hand the
    /// active segment's buffer to the OS and clone its file handle; the
    /// `fdatasync` runs after the lock drops, so writers and readers
    /// proceed meanwhile.
    fn sync(&self) -> Result<()> {
        let target = self.last_lsn.load(Ordering::Acquire);
        let target_synced = || self.synced_lsn.load(Ordering::Acquire) >= target;
        if target_synced() {
            // Nothing appended since the last durability point.
            return Ok(());
        }
        let mut syncing = self.sync_group.syncing.lock();
        loop {
            if target_synced() {
                return Ok(());
            }
            if !*syncing {
                break;
            }
            self.stats.sync_waits.fetch_add(1, Ordering::Relaxed);
            self.sync_group.done.wait(&mut syncing);
        }
        *syncing = true;
        drop(syncing);
        let _leading = Leading(&self.sync_group);
        let (file, covered) = {
            let mut inner = self.inner.write();
            // Every write up to here is in this segment's file or in an
            // earlier segment, fsynced when it froze.
            let covered = self.last_lsn.load(Ordering::Relaxed);
            (inner.wal.sync_handle()?, covered)
        };
        let t0 = tb_obs::start();
        let synced = fault::hit("wal.sync").and_then(|()| Ok(file.sync_data()?));
        tb_obs::histo!("lsm_wal_sync_ns").record_since(t0);
        synced?;
        self.synced_lsn.fetch_max(covered, Ordering::AcqRel);
        Ok(())
    }
}

/// The write group of [`Tree::sync`]: whether a leader's `fdatasync` is
/// in flight, and where its followers wait for it.
#[derive(Default)]
pub(crate) struct SyncGroup {
    syncing: Mutex<bool>,
    done: Condvar,
}

/// A leader's turn. Dropping it — after the sync, on its error, or while
/// a crash unwinds — ends the turn and wakes the followers.
struct Leading<'a>(&'a SyncGroup);

impl Drop for Leading<'_> {
    fn drop(&mut self) {
        *self.0.syncing.lock() = false;
        self.0.done.notify_all();
    }
}

impl KvEngine for LsmDb {
    /// Submission/completion op batch — the engine-side half of the
    /// front-end's pipelined batches (io_uring shape: submit N
    /// heterogeneous ops, collect N completions after one storage
    /// pass).
    ///
    /// Submission pass, under one acquisition of the tree lock (write
    /// lock only when the batch contains writes): writes apply in
    /// submission order; lookups resolve immediately from a memtable
    /// or from a range/bloom rule-out, and otherwise *stage* their
    /// candidate `(table, block)` pairs, newest table first, against
    /// the level state they observed. Completion pass (`complete`,
    /// which CAS reads share), after the lock drops: the staged blocks
    /// are read in rounds, a lookup's older candidates only while no
    /// newer block has answered it; each block is read at most once per
    /// batch and shared across every key that needs it, then results
    /// fill in submission order. The staged tables are
    /// `Arc`-pinned, so the pass reads a consistent snapshot even if a
    /// concurrent flush or compaction rewrites the levels in between.
    ///
    /// A batch with writes passes write admission first: it may stall
    /// on the frozen-memtable bound, and a parked worker error fails
    /// the batch's writes (its reads still answer).
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        self.tree.apply_batch(ops)
    }

    fn batch_read_stats(&self) -> BatchReadStats {
        BatchReadStats {
            blocks_read: self.stats.batch_blocks_read.load(Ordering::Relaxed),
            block_dedup_hits: self.stats.batch_block_dedup_hits.load(Ordering::Relaxed),
            memtable_hits: self.stats.batch_memtable_hits.load(Ordering::Relaxed),
            scan_blocks_read: self.stats.batch_scan_blocks_read.load(Ordering::Relaxed),
            scans: self.stats.scans.load(Ordering::Relaxed),
            blocks_compressed: self.stats.blocks_compressed.load(Ordering::Relaxed),
            compressed_bytes_written: self.stats.compressed_bytes_written.load(Ordering::Relaxed),
            uncompressed_bytes_written: self
                .stats
                .uncompressed_bytes_written
                .load(Ordering::Relaxed),
            blocks_decompressed: self
                .stats
                .decode
                .blocks_decompressed
                .load(Ordering::Relaxed),
            block_decode_errors: self
                .stats
                .decode
                .block_decode_errors
                .load(Ordering::Relaxed),
        }
    }

    /// The settled footprint: see [`LsmDb::disk_bytes`].
    fn resident_bytes(&self) -> u64 {
        self.disk_bytes()
    }

    fn applied_lsn(&self) -> Lsn {
        Lsn(self.tree.last_lsn.load(Ordering::Acquire))
    }

    fn label(&self) -> String {
        "lsm".into()
    }

    fn sync(&self) -> Result<()> {
        self.tree.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> tb_common::TestDir {
        tb_common::test_dir(&format!("tb-lsm-{name}"))
    }

    fn k(i: usize) -> Key {
        Key::from(format!("key-{i:06}"))
    }

    fn v(i: usize, tag: &str) -> Value {
        Value::from(format!("value-{tag}-{i}-{}", "p".repeat(i % 37)))
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let dir = tmpdir("basic");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        db.put(k(1), v(1, "a")).unwrap();
        assert_eq!(db.get(&k(1)).unwrap(), Some(v(1, "a")));
        db.delete(&k(1)).unwrap();
        assert_eq!(db.get(&k(1)).unwrap(), None);
        assert_eq!(db.get(&k(2)).unwrap(), None);
    }

    #[test]
    fn survives_flush_and_compaction() {
        let dir = tmpdir("compact");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        let n = 2000;
        for i in 0..n {
            db.put(k(i), v(i, "gen1")).unwrap();
        }
        // Overwrite half, delete a quarter.
        for i in 0..n / 2 {
            db.put(k(i), v(i, "gen2")).unwrap();
        }
        for i in (0..n).step_by(4) {
            db.delete(&k(i)).unwrap();
        }
        db.flush().unwrap();
        assert!(db.stats.flushes.load(Ordering::Relaxed) > 0);
        assert!(db.stats.compactions.load(Ordering::Relaxed) > 0);

        for i in 0..n {
            let got = db.get(&k(i)).unwrap();
            if i % 4 == 0 {
                assert_eq!(got, None, "key {i} should be deleted");
            } else if i < n / 2 {
                assert_eq!(got, Some(v(i, "gen2")), "key {i} should be gen2");
            } else {
                assert_eq!(got, Some(v(i, "gen1")), "key {i} should be gen1");
            }
        }
    }

    #[test]
    fn recovery_from_wal_without_flush() {
        let dir = tmpdir("walrec");
        {
            let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
            db.put(k(1), v(1, "x")).unwrap();
            db.put(k(2), v(2, "x")).unwrap();
            db.delete(&k(1)).unwrap();
            // Drop without flush: WAL is the only durable copy.
        }
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        assert_eq!(db.get(&k(1)).unwrap(), None);
        assert_eq!(db.get(&k(2)).unwrap(), Some(v(2, "x")));
    }

    #[test]
    fn recovery_from_manifest_after_flush() {
        let dir = tmpdir("manifest");
        {
            let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
            for i in 0..500 {
                db.put(k(i), v(i, "m")).unwrap();
            }
            db.flush().unwrap();
        }
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        for i in 0..500 {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i, "m")), "key {i}");
        }
    }

    #[test]
    fn recovery_combines_manifest_and_wal() {
        let dir = tmpdir("mixed");
        {
            let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
            for i in 0..300 {
                db.put(k(i), v(i, "old")).unwrap();
            }
            db.flush().unwrap();
            // Post-flush writes live only in the WAL.
            for i in 0..50 {
                db.put(k(i), v(i, "new")).unwrap();
            }
        }
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        assert_eq!(db.get(&k(0)).unwrap(), Some(v(0, "new")));
        assert_eq!(db.get(&k(100)).unwrap(), Some(v(100, "old")));
    }

    #[test]
    fn applied_lsn_is_monotone_and_survives_reopen() {
        let dir = tmpdir("lsn");
        {
            let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
            assert_eq!(KvEngine::applied_lsn(&db), Lsn::NONE, "fresh DB");
            for i in 0..10 {
                db.put(k(i), v(i, "l")).unwrap();
            }
            db.delete(&k(3)).unwrap();
            assert_eq!(KvEngine::applied_lsn(&db), Lsn(11));
            // The flush deletes the WAL segment; the manifest carries the mark.
            db.flush().unwrap();
            assert_eq!(KvEngine::applied_lsn(&db), Lsn(11));
            // Post-flush writes live only in the WAL.
            db.put(k(50), v(50, "l")).unwrap();
            assert_eq!(KvEngine::applied_lsn(&db), Lsn(12));
        }
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        assert_eq!(
            KvEngine::applied_lsn(&db),
            Lsn(12),
            "recovery resumes the sequence from max(manifest, WAL tail)"
        );
        // The next write continues the sequence, never reuses it.
        let outcome = db.apply_batch(vec![EngineOp::Put(k(60), v(60, "l"))]);
        assert_eq!(outcome[0], Ok(OpOutcome::Done(Lsn(13))));
    }

    #[test]
    fn tombstones_dropped_at_bottom() {
        let dir = tmpdir("tomb");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        for i in 0..1000 {
            db.put(k(i), v(i, "t")).unwrap();
        }
        for i in 0..1000 {
            db.delete(&k(i)).unwrap();
        }
        db.flush().unwrap();
        // Force compaction all the way down by flushing repeatedly.
        for round in 0..6 {
            db.put(Key::from(format!("pad-{round}")), v(round, "pad"))
                .unwrap();
            db.flush().unwrap();
        }
        for i in 0..1000 {
            assert_eq!(db.get(&k(i)).unwrap(), None);
        }
    }

    #[test]
    fn overwrites_visible_across_flush_boundary() {
        let dir = tmpdir("over");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        db.put(k(7), v(7, "first")).unwrap();
        db.flush().unwrap();
        db.put(k(7), v(7, "second")).unwrap();
        assert_eq!(db.get(&k(7)).unwrap(), Some(v(7, "second")));
        db.flush().unwrap();
        assert_eq!(db.get(&k(7)).unwrap(), Some(v(7, "second")));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let dir = tmpdir("conc");
        let db = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap());
        for i in 0..200 {
            db.put(k(i), v(i, "c")).unwrap();
        }
        let mut handles = vec![];
        for t in 0..4 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let _ = db.get(&k((i + t * 13) % 200)).unwrap();
                }
            }));
        }
        for i in 200..400 {
            db.put(k(i), v(i, "c")).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.get(&k(399)).unwrap(), Some(v(399, "c")));
    }

    /// A prefix scan is the range scan `[prefix, prefix_successor)`.
    fn scan_prefix(db: &LsmDb, prefix: &[u8]) -> Vec<(Key, Value)> {
        let end = tb_common::prefix_successor(prefix);
        db.scan(&Key::copy_from(prefix), end.as_ref(), usize::MAX)
            .unwrap()
    }

    #[test]
    fn scan_prefix_merges_all_tiers() {
        let dir = tmpdir("scan");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        // Old versions land in SSTables...
        for i in 0..50 {
            db.put(Key::from(format!("user:{i:03}")), v(i, "old"))
                .unwrap();
        }
        for i in 0..50 {
            db.put(Key::from(format!("item:{i:03}")), v(i, "x"))
                .unwrap();
        }
        db.flush().unwrap();
        // ...then fresher versions and a delete stay in the memtable.
        for i in 0..10 {
            db.put(Key::from(format!("user:{i:03}")), v(i, "new"))
                .unwrap();
        }
        db.delete(&Key::from("user:020")).unwrap();

        let got = scan_prefix(&db, b"user:");
        assert_eq!(got.len(), 49, "50 users minus one tombstone");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(got[0].1, v(0, "new"), "memtable version wins");
        assert_eq!(got[15].1, v(15, "old"), "unchanged keys from SSTable");
        assert!(!got.iter().any(|(k, _)| k == &Key::from("user:020")));

        // Prefix isolation.
        assert_eq!(scan_prefix(&db, b"item:").len(), 50);
        assert_eq!(scan_prefix(&db, b"nope:").len(), 0);
        // Empty prefix = full scan.
        assert_eq!(scan_prefix(&db, b"").len(), 99);
    }

    #[test]
    fn scan_prefix_survives_compaction_and_reopen() {
        let dir = tmpdir("scanreopen");
        {
            let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
            for i in 0..300 {
                db.put(Key::from(format!("p:{i:04}")), v(i, "a")).unwrap();
            }
            db.delete(&Key::from("p:0100")).unwrap();
            KvEngine::sync(&db).unwrap();
        }
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        let got = scan_prefix(&db, b"p:");
        assert_eq!(got.len(), 299);
    }

    /// The LSN `apply_batch` assigned to one put.
    fn put_lsn(db: &LsmDb, key: Key) -> u64 {
        match db
            .apply_batch(vec![EngineOp::Put(key, Value::from("v"))])
            .pop()
        {
            Some(Ok(OpOutcome::Done(lsn))) => lsn.0,
            other => panic!("put resolved {other:?}"),
        }
    }

    #[test]
    fn group_commit_covers_every_concurrent_caller() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("group-sync");
        let db = LsmDb::open(LsmConfig::new(dir.path())).unwrap();
        // Never fires: counts the `wal.sync` hits made in this scope.
        let fdatasyncs = fault::arm_scoped("wal.sync", u64::MAX, FaultMode::Error);
        let scope = fault::scope();
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = &db;
                s.spawn(move || {
                    fault::adopt(scope);
                    for round in 0..100 {
                        let lsn = put_lsn(db, Key::from(format!("t{t}-{round}")));
                        db.sync().unwrap();
                        let synced = db.tree.synced_lsn.load(Ordering::Acquire);
                        assert!(synced >= lsn, "sync returned at {synced} before {lsn}");
                    }
                });
            }
        });
        let (hits, waits) = (
            fdatasyncs.seen(),
            db.stats.sync_waits.load(Ordering::Relaxed),
        );
        eprintln!("800 sync calls from 8 threads: {hits} wal.sync hits, {waits} waits");
        assert!((1..=800).contains(&hits), "{hits} fdatasyncs");
    }

    #[test]
    fn group_commit_failed_leader_acks_no_follower() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("group-sync-fail");
        let db = LsmDb::open(LsmConfig::new(dir.path())).unwrap();
        let target = put_lsn(&db, Key::from("k"));
        let scope = fault::scope();
        let _fail = fault::arm_scoped("wal.sync", 1, FaultMode::Error);
        std::thread::scope(|s| {
            // Holding the tree lock parks the leader between claiming its
            // turn and taking the segment's handle.
            let tree = db.tree.inner.read();
            let leader = s.spawn(|| {
                fault::adopt(scope);
                db.sync()
            });
            wait_until(|| *db.tree.sync_group.syncing.lock());
            // Outside the injection's scope: its own fdatasync succeeds.
            let follower = s.spawn(|| db.sync());
            wait_until(|| db.stats.sync_waits.load(Ordering::Relaxed) == 1);
            drop(tree);
            assert!(matches!(
                leader.join().unwrap(),
                Err(Error::FaultInjected(_))
            ));
            assert_eq!(follower.join().unwrap(), Ok(()));
        });
        let synced = db.tree.synced_lsn.load(Ordering::Acquire);
        assert!(
            synced >= target,
            "a follower acked LSN {target}, synced {synced}"
        );
    }

    fn wait_until(cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::yield_now();
        }
    }

    #[test]
    fn failed_flush_keeps_memtable_readable() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("flushfail");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        for i in 0..40 {
            db.put(k(i), v(i, "pre")).unwrap();
        }
        let guard = fault::arm_scoped("sst.sync", 1, FaultMode::Error);
        let err = db.flush().unwrap_err();
        drop(guard);
        assert!(matches!(err, Error::FaultInjected(_)), "{err}");
        // The entries must still be served from memory — a failed flush
        // that empties the memtable silently loses acknowledged writes.
        for i in 0..40 {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i, "pre")), "key {i}");
        }
        // And the flush succeeds when retried.
        db.flush().unwrap();
        for i in 0..40 {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i, "pre")), "key {i}");
        }
    }

    #[test]
    fn failed_compaction_write_leaves_levels_serving() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("compactfail");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        // Two flushes fill L0 up to the trigger without compacting.
        for round in 0..2 {
            for i in 0..30 {
                db.put(k(i), v(i, &format!("r{round}"))).unwrap();
            }
            db.flush().unwrap();
        }
        assert_eq!(db.stats.compactions.load(Ordering::Relaxed), 0);
        // The third flush trips L0→L1 compaction, whose table write fails.
        for i in 0..30 {
            db.put(k(i), v(i, "r2")).unwrap();
        }
        let guard = fault::arm_scoped("sst.write.data", 2, FaultMode::Error);
        let result = db.flush();
        drop(guard);
        assert!(
            matches!(result, Err(Error::FaultInjected(_))),
            "compaction table write was injected to fail: {result:?}"
        );
        // The inputs must still serve reads — clearing the levels before
        // the merged table exists would black-hole every flushed key.
        for i in 0..30 {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i, "r2")), "key {i}");
        }
        // Reopen agrees (WAL + manifest still cover everything).
        drop(db);
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        for i in 0..30 {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i, "r2")), "key {i}");
        }
    }

    /// Writes until the active memtable freezes; returns how many keys
    /// (`k(0)..k(n)`, tag `tag`) the frozen memtable holds.
    fn put_until_frozen(db: &LsmDb, tag: &str) -> usize {
        let mut n = 0;
        while db.stats.frozen_memtables.load(Ordering::Relaxed) == 0 {
            db.put(k(n), v(n, tag)).unwrap();
            n += 1;
        }
        n
    }

    #[test]
    fn frozen_memtable_serves_reads_until_its_table_is_installed() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("frozen");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        // The worker's first table write fails: the memtable stays
        // frozen and queued, and the error is parked.
        let guard = fault::arm_scoped("sst.write.data", 1, FaultMode::Error);
        let n = put_until_frozen(&db, "f");
        db.disk_bytes(); // returns once the worker stopped on the error
        assert!(guard.fired());
        drop(guard);
        assert_eq!(db.level_table_counts()[0], 0, "nothing was installed");
        assert_eq!(db.stats.frozen_memtables.load(Ordering::Relaxed), 1);
        // Point gets, batched gets and scans all see the frozen entries.
        for i in 0..n {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i, "f")), "key {i}");
        }
        let keys: Vec<Key> = (0..n).map(k).collect();
        let expect: Vec<Option<Value>> = (0..n).map(|i| Some(v(i, "f"))).collect();
        assert_eq!(KvEngine::multi_get(&db, &keys).unwrap(), expect);
        assert_eq!(db.scan(&k(0), None, usize::MAX).unwrap().len(), n);
        // The next write takes the parked error and applies nothing...
        let err = db.cas(k(0), Some(&v(0, "f")), v(0, "cas")).unwrap_err();
        assert!(matches!(err, Error::FaultInjected(_)), "{err}");
        assert_eq!(db.get(&k(0)).unwrap(), Some(v(0, "f")));
        // ...and the worker retries: the same entries now come from L0.
        db.flush().unwrap();
        assert_eq!(db.stats.frozen_memtables.load(Ordering::Relaxed), 0);
        assert_eq!(db.level_table_counts()[0], 1);
        for i in 0..n {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i, "f")), "key {i}");
        }
        db.cas(k(0), Some(&v(0, "f")), v(0, "cas")).unwrap();
    }

    #[test]
    fn reopen_requeues_unflushed_segments_oldest_first() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("requeue");
        let config = LsmConfig::small_for_tests(dir.path());
        let wal_files = || {
            std::fs::read_dir(dir.path())
                .unwrap()
                .filter(|e| e.as_ref().unwrap().path().extension() == Some("wal".as_ref()))
                .count()
        };
        // One batch overwriting 150 keys across several memtables, all
        // frozen inside one lock hold; the worker's first flush fails
        // and the engine drops with every segment still on disk.
        let pairs: Vec<(Key, Value)> = (0..400).map(|i| (k(i % 150), v(i, "r"))).collect();
        let frozen = {
            let db = LsmDb::open(config.clone()).unwrap();
            let guard = fault::arm_scoped("sst.write.data", 1, FaultMode::Error);
            KvEngine::multi_put(&db, pairs).unwrap();
            db.disk_bytes();
            assert!(guard.fired());
            db.stats.frozen_memtables.load(Ordering::Relaxed)
        };
        assert!(frozen >= 3, "the batch froze only {frozen} memtables");
        assert_eq!(wal_files() as u64, frozen + 1, "active + frozen segments");
        // Recovery queues them again in log order, so each key ends at
        // its newest version (an out-of-order flush would resurrect an
        // older one), and the worker flushes them first.
        let db = LsmDb::open(config).unwrap();
        db.flush().unwrap();
        assert!(db.stats.flushes.load(Ordering::Relaxed) >= frozen);
        for key in 0..150 {
            let newest = (0..400).filter(|i| i % 150 == key).max().unwrap();
            assert_eq!(db.get(&k(key)).unwrap(), Some(v(newest, "r")), "key {key}");
        }
        assert_eq!(wal_files(), 1, "flushed segments deleted");
    }

    #[test]
    fn worker_crash_fails_writes_and_drop_returns() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("workercrash");
        let config = LsmConfig::small_for_tests(dir.path());
        let db = LsmDb::open(config.clone()).unwrap();
        // Armed on this thread, fired on the worker: the worker works in
        // the scope of the thread that opened the engine.
        let guard = fault::arm_scoped("sst.sync", 1, FaultMode::Crash);
        let n = put_until_frozen(&db, "c");
        let err = db.flush().unwrap_err();
        assert!(matches!(err, Error::FaultInjected(_)), "{err}");
        assert_eq!(fault::crash_fired(), Some("sst.sync"), "the kill froze us");
        assert!(
            db.put(k(n), v(n, "c")).is_err(),
            "a dead worker fails writes"
        );
        assert_eq!(
            db.get(&k(0)).unwrap(),
            Some(v(0, "c")),
            "reads still answer"
        );
        drop(db); // joins the dead worker: must not hang
        drop(guard);
        let db = LsmDb::open(config).unwrap();
        for i in 0..n {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i, "c")), "key {i}");
        }
    }

    #[test]
    fn open_sweeps_orphan_tables_and_tmp_files() {
        let dir = tmpdir("orphans");
        {
            let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
            for i in 0..200 {
                db.put(k(i), v(i, "o")).unwrap();
            }
            db.flush().unwrap();
        }
        // Plant crash leftovers: an unreferenced table and a torn tmp.
        std::fs::write(dir.join("4242424242.sst"), b"orphaned table").unwrap();
        std::fs::write(dir.join("4242424242.tmp"), b"torn tmp").unwrap();
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        assert!(!dir.join("4242424242.sst").exists(), "orphan .sst swept");
        assert!(!dir.join("4242424242.tmp").exists(), "orphan .tmp swept");
        for i in 0..200 {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i, "o")), "key {i}");
        }
    }

    #[test]
    fn apply_batch_reads_each_block_once_per_batch() {
        // Big blocks + small values: many keys share one 4 KiB block,
        // so a multi-key batch over a flushed (disk-resident) working
        // set must collapse its staged reads.
        let dir = tmpdir("batchdedup");
        let db = LsmDb::open(LsmConfig::new(dir.path())).unwrap();
        let n = 512;
        for i in 0..n {
            db.put(k(i), v(i, "d")).unwrap();
        }
        db.flush().unwrap();
        let blocks_in_l0: u64 = db.tree.inner.read().version.levels[0][0].meta.file_size / 4096 + 2;

        let keys: Vec<Key> = (0..n).map(k).collect();
        let before = KvEngine::batch_read_stats(&db);
        let outcomes = db.apply_batch(vec![EngineOp::MultiGet(keys.clone())]);
        let after = KvEngine::batch_read_stats(&db);
        match &outcomes[0] {
            Ok(OpOutcome::Values(values)) => {
                for (i, got) in values.iter().enumerate() {
                    assert_eq!(got.as_ref(), Some(&v(i, "d")), "key {i}");
                }
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let read = after.blocks_read - before.blocks_read;
        let dedup = after.block_dedup_hits - before.block_dedup_hits;
        // Each needed block fetched at most once for the whole batch:
        // far fewer reads than keys, and the dedup counter accounts for
        // every saved fetch.
        assert!(
            read <= blocks_in_l0,
            "batch read {read} blocks; table only has ~{blocks_in_l0}"
        );
        assert!(
            read < n as u64 / 4,
            "block reads did not dedup: {read} reads for {n} keys"
        );
        assert_eq!(dedup, n as u64 - read, "every other reference deduped");

        // Same batch again: same dedup behavior (counters are cumulative).
        db.apply_batch(vec![EngineOp::MultiGet(keys)]);
        let again = KvEngine::batch_read_stats(&db);
        assert_eq!(again.blocks_read - after.blocks_read, read);
    }

    #[test]
    fn apply_batch_mixed_ops_in_submission_order() {
        let dir = tmpdir("batchmix");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        // Seed an SSTable-resident old value.
        db.put(k(1), v(1, "old")).unwrap();
        db.flush().unwrap();
        let outcomes = db.apply_batch(vec![
            EngineOp::Get(k(1)),              // old value, staged from disk
            EngineOp::Put(k(1), v(1, "new")), // overwrites in-batch
            EngineOp::Get(k(1)),              // sees the in-batch put
            EngineOp::Cas {
                key: k(1),
                expected: Some(v(1, "new")),
                new: v(1, "cas"),
            },
            EngineOp::Cas {
                key: k(1),
                expected: Some(v(1, "new")), // stale: the batch's own CAS won
                new: v(1, "never"),
            },
            EngineOp::Delete(k(1)),
            EngineOp::Get(k(1)),
            EngineOp::MultiGet(vec![k(1), k(99)]),
        ]);
        assert_eq!(outcomes[0], Ok(OpOutcome::Value(Some(v(1, "old")))));
        // Write acks carry the engine's monotone LSN: the seed put was
        // 1, so the batch's writes sequence from 2.
        assert_eq!(outcomes[1], Ok(OpOutcome::Done(Lsn(2))));
        assert_eq!(outcomes[2], Ok(OpOutcome::Value(Some(v(1, "new")))));
        assert_eq!(outcomes[3], Ok(OpOutcome::Done(Lsn(3))));
        assert_eq!(outcomes[4], Err(Error::CasMismatch));
        assert_eq!(outcomes[5], Ok(OpOutcome::Done(Lsn(4))));
        assert_eq!(outcomes[6], Ok(OpOutcome::Value(None)));
        assert_eq!(outcomes[7], Ok(OpOutcome::Values(vec![None, None])));
        // The Get staged *before* the Put still answered from the level
        // snapshot — but the final state is the delete.
        assert_eq!(db.get(&k(1)).unwrap(), None);
    }

    #[test]
    fn apply_batch_counts_memtable_hits() {
        let dir = tmpdir("batchmem");
        let db = LsmDb::open(LsmConfig::new(dir.path())).unwrap();
        for i in 0..32 {
            db.put(k(i), v(i, "m")).unwrap(); // stays in the memtable
        }
        let keys: Vec<Key> = (0..32).map(k).collect();
        let outcomes = db.apply_batch(vec![EngineOp::MultiGet(keys)]);
        assert!(matches!(outcomes[0], Ok(OpOutcome::Values(_))));
        let stats = KvEngine::batch_read_stats(&db);
        assert_eq!(stats.memtable_hits, 32);
        assert_eq!(stats.blocks_read, 0, "memtable hits stage no IO");
    }

    #[test]
    fn apply_batch_block_read_fault_fails_only_staged_reads() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("batchfault");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        for i in 0..64 {
            db.put(k(i), v(i, "f")).unwrap();
        }
        db.flush().unwrap();
        let guard = fault::arm_scoped("batch.block_read", 1, FaultMode::Error);
        let outcomes = db.apply_batch(vec![
            EngineOp::Put(k(200), v(200, "w")), // write is unaffected
            EngineOp::Get(k(1)),                // staged read hits the fault
        ]);
        drop(guard);
        assert!(matches!(outcomes[0], Ok(OpOutcome::Done(_))));
        assert!(
            matches!(outcomes[1], Err(Error::FaultInjected(_))),
            "staged read must surface the injected error: {:?}",
            outcomes[1]
        );
        // The write landed and the store still serves.
        assert_eq!(db.get(&k(200)).unwrap(), Some(v(200, "w")));
        assert_eq!(db.get(&k(1)).unwrap(), Some(v(1, "f")));
    }

    #[test]
    fn disk_bytes_grows_with_data() {
        let dir = tmpdir("bytes");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        let before = db.disk_bytes();
        for i in 0..500 {
            db.put(k(i), v(i, "b")).unwrap();
        }
        db.flush().unwrap();
        assert!(db.disk_bytes() > before);
    }

    /// A store whose `n` keys were all flushed into SSTables, so every
    /// lookup stages block reads.
    fn flushed(name: &str, n: usize) -> (tb_common::TestDir, LsmDb) {
        flushed_codec(name, n, crate::sstable::BlockCodec::None)
    }

    fn flushed_codec(
        name: &str,
        n: usize,
        codec: crate::sstable::BlockCodec,
    ) -> (tb_common::TestDir, LsmDb) {
        let dir = tmpdir(name);
        let mut config = LsmConfig::small_for_tests(dir.path());
        config.sst.codec = codec;
        let db = LsmDb::open(config).unwrap();
        for i in 0..n {
            db.put(k(i), v(i, "p")).unwrap();
        }
        db.flush().unwrap();
        (dir, db)
    }

    /// Per-key `Get`s in one batch, with the indices of the failed slots.
    fn per_key_batch(db: &LsmDb, keys: &[Key]) -> (Vec<Result<OpOutcome>>, Vec<usize>) {
        let outcomes = db.apply_batch(keys.iter().map(|key| EngineOp::Get(key.clone())).collect());
        let errs = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect();
        (outcomes, errs)
    }

    #[test]
    fn point_reads_are_counted_and_fault_injected() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("pointread");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        for i in 0..20 {
            db.put(k(i), v(i, "t")).unwrap();
        }
        db.flush().unwrap();
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (gets, blocks, mem) = (
            c(&db.stats.gets),
            c(&db.stats.batch_blocks_read),
            c(&db.stats.batch_memtable_hits),
        );
        // One get against the flushed table: one lookup, one block.
        assert_eq!(db.get(&k(3)).unwrap(), Some(v(3, "t")));
        assert_eq!(c(&db.stats.gets), gets + 1, "get counted exactly once");
        assert_eq!(c(&db.stats.batch_blocks_read), blocks + 1);
        assert_eq!(c(&db.stats.batch_memtable_hits), mem);
        // A memtable hit stages nothing.
        db.put(k(100), v(100, "t")).unwrap();
        assert_eq!(db.get(&k(100)).unwrap(), Some(v(100, "t")));
        assert_eq!(c(&db.stats.gets), gets + 2);
        assert_eq!(c(&db.stats.batch_memtable_hits), mem + 1);
        assert_eq!(c(&db.stats.batch_blocks_read), blocks + 1);

        // The point get and the CAS read reach the completion pass's
        // fault gates.
        let guard = fault::arm_scoped("batch.block_read", 1, FaultMode::Error);
        let err = db.get(&k(3)).unwrap_err();
        drop(guard);
        assert!(matches!(err, Error::FaultInjected(_)), "{err}");
        let guard = fault::arm_scoped("batch.block_read", 1, FaultMode::Error);
        let err = db.cas(k(4), Some(&v(4, "t")), v(4, "cas")).unwrap_err();
        drop(guard);
        assert!(matches!(err, Error::FaultInjected(_)), "{err}");
        let guard = fault::arm_scoped("sst.block_decode", 1, FaultMode::Error);
        let err = db.get(&k(5)).unwrap_err();
        drop(guard);
        assert!(matches!(err, Error::Corruption(_)), "{err}");
        // The store answers afterwards, and the failed CAS wrote nothing.
        assert_eq!(db.get(&k(3)).unwrap(), Some(v(3, "t")));
        assert_eq!(db.get(&k(4)).unwrap(), Some(v(4, "t")));
        db.cas(k(4), Some(&v(4, "t")), v(4, "cas")).unwrap();
        assert_eq!(db.get(&k(4)).unwrap(), Some(v(4, "cas")));
    }

    #[test]
    fn batched_and_point_reads_agree() {
        let n = 600;
        let (_dir, db) = flushed("readparity", n);
        let keys: Vec<Key> = (0..n).map(k).collect();
        let before = KvEngine::batch_read_stats(&db);
        let batched = db.apply_batch(vec![EngineOp::MultiGet(keys.clone())]);
        let mid = KvEngine::batch_read_stats(&db);
        let point: Vec<Option<Value>> = keys.iter().map(|key| db.get(key).unwrap()).collect();
        let after = KvEngine::batch_read_stats(&db);
        assert_eq!(batched, vec![Ok(OpOutcome::Values(point))]);
        // Same staging either way; only the batch shares blocks.
        let batch_read = mid.blocks_read - before.blocks_read;
        let point_read = after.blocks_read - mid.blocks_read;
        assert!(
            batch_read < point_read,
            "batch read {batch_read} blocks, the get loop {point_read}"
        );
        assert_eq!(
            batch_read + (mid.block_dedup_hits - before.block_dedup_hits),
            point_read,
            "every staged reference is fetched or deduped"
        );
    }

    #[test]
    fn block_read_fault_is_positionally_deterministic() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let n = 400;
        let (_dir, db) = flushed("readfault", n);
        let keys: Vec<Key> = (0..n).map(k).collect();
        let clean = db.apply_batch(vec![EngineOp::MultiGet(keys.clone())]);
        let clean_value = |i: usize| match &clean[0] {
            Ok(OpOutcome::Values(vs)) => OpOutcome::Value(vs[i].clone()),
            other => panic!("clean run failed: {other:?}"),
        };
        let total_fetches = KvEngine::batch_read_stats(&db).blocks_read;
        assert!(total_fetches >= 2, "working set too small to be staged");
        // For every hit position the fault can land on, the same
        // completion slots fail every time, and only those.
        for hit in 1..=total_fetches {
            let mut failed = Vec::new();
            for _ in 0..2 {
                // One Get per key (instead of one MultiGet) so per-slot
                // error scoping is visible in the completions.
                let guard = fault::arm_scoped("batch.block_read", hit, FaultMode::Error);
                let (per_key, errs) = per_key_batch(&db, &keys);
                drop(guard);
                assert!(!errs.is_empty(), "hit {hit} never fired");
                for (i, r) in per_key.iter().enumerate() {
                    if let Ok(outcome) = r {
                        assert_eq!(
                            outcome,
                            &clean_value(i),
                            "slot {i} answered differently under an unrelated fault"
                        );
                    }
                }
                failed.push(errs);
            }
            assert_eq!(failed[0], failed[1], "hit {hit}: fault moved between runs");
        }
    }

    #[test]
    fn scan_merges_all_tiers_with_bounds_and_limit() {
        let dir = tmpdir("scanrange");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        // Old versions land in SSTables...
        for i in 0..100 {
            db.put(k(i), v(i, "old")).unwrap();
        }
        db.flush().unwrap();
        // ...fresher versions and a delete stay in the memtable.
        for i in 10..20 {
            db.put(k(i), v(i, "new")).unwrap();
        }
        db.delete(&k(15)).unwrap();

        let got = db.scan(&k(10), Some(&k(30)), 1000).unwrap();
        assert_eq!(got.len(), 19, "keys 10..30 minus one tombstone");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(got[0], (k(10), v(10, "new")), "memtable version wins");
        assert!(
            !got.iter().any(|(key, _)| key == &k(15)),
            "tombstone masked"
        );
        assert_eq!(got.last().unwrap().0, k(29), "end is exclusive");
        assert!(
            got.contains(&(k(25), v(25, "old"))),
            "unchanged from SSTable"
        );

        // Limit truncates to the first live entries.
        assert_eq!(db.scan(&k(10), Some(&k(30)), 3).unwrap(), got[..3]);
        // Unbounded end runs to the tail; degenerate ranges are empty.
        assert_eq!(db.scan(&k(90), None, 1000).unwrap().len(), 10);
        assert_eq!(db.scan(&k(5), Some(&k(5)), 10).unwrap(), []);
        assert_eq!(db.scan(&k(30), Some(&k(10)), 10).unwrap(), []);
        assert_eq!(db.scan(&k(10), Some(&k(30)), 0).unwrap(), []);

        let stats = KvEngine::batch_read_stats(&db);
        assert!(stats.scans >= 6, "every scan counted: {stats:?}");
        assert!(stats.scan_blocks_read > 0, "flushed tables staged blocks");
    }

    #[test]
    fn scan_in_batch_observes_earlier_writes_in_submission_order() {
        let dir = tmpdir("scanbatch");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        for i in 0..8 {
            db.put(k(i), v(i, "s")).unwrap();
        }
        db.flush().unwrap();
        let scan = |limit| EngineOp::Scan {
            start: k(0),
            end: Some(k(8)),
            limit,
        };
        let outcomes = db.apply_batch(vec![
            scan(100), // level snapshot, before the batch's writes
            EngineOp::Put(k(2), v(2, "w")),
            EngineOp::Delete(k(3)),
            scan(100), // sees the in-batch put and delete
            scan(2),
        ]);
        let expect_pre: Vec<(Key, Value)> = (0..8).map(|i| (k(i), v(i, "s"))).collect();
        assert_eq!(outcomes[0], Ok(OpOutcome::Range(expect_pre)));
        let expect_post: Vec<(Key, Value)> = (0..8)
            .filter(|&i| i != 3)
            .map(|i| (k(i), if i == 2 { v(2, "w") } else { v(i, "s") }))
            .collect();
        assert_eq!(outcomes[3], Ok(OpOutcome::Range(expect_post.clone())));
        assert_eq!(outcomes[4], Ok(OpOutcome::Range(expect_post[..2].to_vec())));
    }

    #[test]
    fn scan_block_fetch_fault_fails_only_the_scan_slot() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let dir = tmpdir("scanfault");
        let db = LsmDb::open(LsmConfig::new(dir.path())).unwrap();
        for i in 0..256 {
            db.put(k(i), v(i, "f")).unwrap();
        }
        db.flush().unwrap();
        // One table, 4 KiB blocks: the scan's range and the distant get
        // live in different blocks, and the scan's block sorts first.
        let guard = fault::arm_scoped("batch.block_read", 1, FaultMode::Error);
        let outcomes = db.apply_batch(vec![
            EngineOp::Put(k(300), v(300, "w")),
            EngineOp::Scan {
                start: k(0),
                end: Some(k(4)),
                limit: 100,
            },
            EngineOp::Get(k(250)),
        ]);
        drop(guard);
        assert!(
            matches!(outcomes[0], Ok(OpOutcome::Done(_))),
            "write unaffected"
        );
        assert!(
            matches!(outcomes[1], Err(Error::FaultInjected(_))),
            "faulted scan fetch must fail the scan's slot: {:?}",
            outcomes[1]
        );
        assert_eq!(
            outcomes[2],
            Ok(OpOutcome::Value(Some(v(250, "f")))),
            "a failed scan fetch poisoned an unrelated slot"
        );
        // Clean retry serves the full range.
        assert_eq!(db.scan(&k(0), Some(&k(4)), 100).unwrap().len(), 4);
    }

    #[test]
    fn scan_reads_each_block_once_and_shares_it_with_gets() {
        let n = 600;
        let (_dir, db) = flushed("scanonce", n);
        let (start, end) = (k(0), k(n));
        let before = KvEngine::batch_read_stats(&db);
        let rows = db.scan(&start, Some(&end), n + 10).unwrap();
        let after = KvEngine::batch_read_stats(&db);
        assert_eq!(rows.len(), n);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        let read = after.blocks_read - before.blocks_read;
        let staged = after.scan_blocks_read - before.scan_blocks_read;
        assert_eq!(read, staged, "each staged scan block fetched exactly once");
        assert_eq!(after.scans - before.scans, 1);

        // A point get batched with a scan over the same range stages
        // duplicate block refs — the dedup pass makes the get ride the
        // scan's fetches for free.
        let before = KvEngine::batch_read_stats(&db);
        let outcomes = db.apply_batch(vec![
            EngineOp::Scan {
                start: start.clone(),
                end: Some(end.clone()),
                limit: n,
            },
            EngineOp::Get(k(5)),
        ]);
        let after = KvEngine::batch_read_stats(&db);
        assert_eq!(outcomes[0], Ok(OpOutcome::Range(rows[..n].to_vec())));
        assert_eq!(outcomes[1], Ok(OpOutcome::Value(Some(v(5, "p")))));
        assert_eq!(
            after.blocks_read - before.blocks_read,
            after.scan_blocks_read - before.scan_blocks_read,
            "the point get added no fetches beyond the scan's blocks"
        );
        assert!(
            after.block_dedup_hits > before.block_dedup_hits,
            "the get's staged refs deduped against the scan's"
        );
    }

    #[test]
    fn compressed_store_roundtrips_compacts_and_recovers() {
        use crate::sstable::BlockCodec;
        for codec in [BlockCodec::Lz, BlockCodec::Dict, BlockCodec::Pbc] {
            let dir = tmpdir(&format!("codec-{}", codec.name()));
            let mut config = LsmConfig::small_for_tests(dir.path());
            config.sst.codec = codec;
            {
                let db = LsmDb::open(config.clone()).unwrap();
                for i in 0..800 {
                    db.put(k(i), v(i, "gen1")).unwrap();
                }
                for i in 0..400 {
                    db.put(k(i), v(i, "gen2")).unwrap();
                }
                for i in (0..800).step_by(5) {
                    db.delete(&k(i)).unwrap();
                }
                db.flush().unwrap();
                assert!(
                    db.stats.compactions.load(Ordering::Relaxed) > 0,
                    "small thresholds should have compacted ({})",
                    codec.name()
                );
                // Flush + compaction re-encoded real data.
                let stats = KvEngine::batch_read_stats(&db);
                assert!(stats.blocks_compressed > 0, "codec {}", codec.name());
                assert!(
                    stats.compressed_bytes_written < stats.uncompressed_bytes_written,
                    "codec {} never shrank the data region: {stats:?}",
                    codec.name()
                );
                assert_eq!(stats.block_decode_errors, 0);
            }
            // Recovery opens the compressed tables from their own dict
            // payloads (no training samples available at open).
            let db = LsmDb::open(config).unwrap();
            for i in 0..800 {
                let got = db.get(&k(i)).unwrap();
                if i % 5 == 0 {
                    assert_eq!(got, None, "key {i} ({})", codec.name());
                } else if i < 400 {
                    assert_eq!(got, Some(v(i, "gen2")), "key {i} ({})", codec.name());
                } else {
                    assert_eq!(got, Some(v(i, "gen1")), "key {i} ({})", codec.name());
                }
            }
            let rows = db.scan(&k(0), None, 10_000).unwrap();
            assert_eq!(rows.len(), 800 - 160, "codec {}", codec.name());
        }
    }

    #[test]
    fn batch_reads_decompress_each_block_once() {
        use crate::sstable::BlockCodec;
        let n = 600;
        let (_dir, db) = flushed_codec("codecdedup", n, BlockCodec::Dict);
        let keys: Vec<Key> = (0..n).map(k).collect();
        let decoded_before = db.stats.decode.blocks_decoded.load(Ordering::Relaxed);
        let before = KvEngine::batch_read_stats(&db);
        let outcomes = db.apply_batch(vec![EngineOp::MultiGet(keys)]);
        assert!(matches!(outcomes[0], Ok(OpOutcome::Values(_))));
        let decoded = db.stats.decode.blocks_decoded.load(Ordering::Relaxed) - decoded_before;
        let after = KvEngine::batch_read_stats(&db);
        let read = after.blocks_read - before.blocks_read;
        // The acceptance contract: each needed block is fetched — and
        // therefore CRC-verified and decompressed — exactly once per
        // batch.
        assert_eq!(decoded, read, "{read} fetches decoded {decoded} frames");
        assert!(read < n as u64 / 4, "block reads did not dedup");
        assert!(
            after.blocks_decompressed > before.blocks_decompressed,
            "dict tables should actually decompress"
        );
    }

    #[test]
    fn block_decode_fault_is_positionally_deterministic() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let n = 400;
        let (_dir, db) = flushed_codec("decodefault", n, crate::sstable::BlockCodec::Lz);
        let keys: Vec<Key> = (0..n).map(k).collect();
        let clean = db.apply_batch(vec![EngineOp::MultiGet(keys.clone())]);
        let clean_value = |i: usize| match &clean[0] {
            Ok(OpOutcome::Values(vs)) => OpOutcome::Value(vs[i].clone()),
            other => panic!("clean run failed: {other:?}"),
        };
        let total_fetches = KvEngine::batch_read_stats(&db).blocks_read;
        assert!(total_fetches >= 2, "working set too small to be staged");
        // For every block the decode fault can land on, the same slots
        // fail with Corruption every time, unrelated slots answer
        // clean, and the store stays usable afterward.
        for hit in 1..=total_fetches {
            let mut failed = Vec::new();
            for _ in 0..2 {
                let guard = fault::arm_scoped("sst.block_decode", hit, FaultMode::Error);
                let (per_key, errs) = per_key_batch(&db, &keys);
                drop(guard);
                assert!(!errs.is_empty(), "hit {hit} never fired");
                for (i, r) in per_key.iter().enumerate() {
                    match r {
                        Err(e) => assert!(
                            matches!(e, Error::Corruption(_)),
                            "decode fault must surface as Corruption, got {e:?}"
                        ),
                        Ok(outcome) => assert_eq!(
                            outcome,
                            &clean_value(i),
                            "slot {i} answered differently under an unrelated decode fault"
                        ),
                    }
                }
                failed.push(errs);
            }
            assert_eq!(failed[0], failed[1], "hit {hit}: fault moved between runs");
        }
        // Store stays usable: the corruption was injected, not real.
        assert_eq!(
            db.apply_batch(vec![EngineOp::MultiGet(keys)]),
            clean,
            "store must serve cleanly after decode faults"
        );
    }

    #[test]
    fn fetch_failure_scopes_to_slots_sharing_the_block() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let n = 400;
        let (_dir, db) = flushed("fetchscope", n);
        // Two keys far apart: distinct blocks, so a fault on the first
        // key's block must leave the second key's slot untouched.
        let probe = vec![EngineOp::Get(k(2)), EngineOp::Get(k(n - 2))];
        let clean = db.apply_batch(probe.clone());
        assert_eq!(clean[0], Ok(OpOutcome::Value(Some(v(2, "p")))));
        assert_eq!(clean[1], Ok(OpOutcome::Value(Some(v(n - 2, "p")))));
        let guard = fault::arm_scoped("batch.block_read", 1, FaultMode::Error);
        let outcomes = db.apply_batch(probe);
        drop(guard);
        assert!(
            matches!(outcomes[0], Err(Error::FaultInjected(_))),
            "first staged fetch must carry the injected error: {:?}",
            outcomes[0]
        );
        assert_eq!(
            outcomes[1],
            Ok(OpOutcome::Value(Some(v(n - 2, "p")))),
            "a failed fetch poisoned an unrelated slot"
        );
    }
}
