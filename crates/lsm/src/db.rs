//! The LSM database: WAL + memtable + leveled SSTables + manifest.
//!
//! Durability contract: every mutation is WAL-appended before it is
//! visible; the WAL resets only after its contents are safely inside an
//! SSTable named by a durably-written manifest. Recovery = load
//! manifest, open tables, replay WAL.
//!
//! Read path: every SSTable lookup — point get, CAS read, batched get,
//! range scan — is staged (memtable probe, then the candidate
//! `(table, block)` pairs each table's range/bloom/index admits) and
//! completed by one function, `LsmDb::fetch`, which dedups the staged
//! blocks, reads each once and hands them to the find/merge step.
//!
//! Concurrency: one `RwLock` around the whole tree. Staging shares the
//! lock; block I/O runs after it drops, against `Arc`-pinned tables
//! (only a CAS keeps the write lock across its read). Writes serialize.
//! This favors simplicity — the engine's role in TierBase is the
//! *storage tier*, whose throughput the paper models as RPC-bounded
//! anyway.

use crate::compaction::{level_bytes, level_limit, merge_runs};
use crate::memtable::{Entry, Memtable};
use crate::sstable::{
    decode_block, find_in_block, sync_parent_dir, write_sstable_with_stats, SstBuildStats,
    SstConfig, SstDecodeStats, SstMeta, SstReader,
};
use crate::wal::{SyncPolicy, Wal};
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tb_common::{
    crc32, fault, read_varint, write_varint, BatchReadStats, EngineOp, Error, Key, KvEngine, Lsn,
    OpOutcome, Result, Value,
};

const MANIFEST_MAGIC: u32 = 0x7b4d_414e;

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
    /// [`LsmDb::apply_batch`] invocations.
    pub batches: AtomicU64,
    /// Unique SSTable blocks fetched by staged reads (point gets, CAS
    /// reads, batches and scans — every completion pass).
    pub batch_blocks_read: AtomicU64,
    /// Staged block references satisfied by a block another key in the
    /// same pass already fetched.
    pub batch_block_dedup_hits: AtomicU64,
    /// Lookups resolved from the memtable without staging IO.
    pub batch_memtable_hits: AtomicU64,
    /// Block references staged by scans, pre-dedup (the scan share of
    /// the batch fetch lists — lets scan traffic be told apart from
    /// point reads).
    pub batch_scan_blocks_read: AtomicU64,
    /// Range scans submitted (via [`LsmDb::scan`] or a batched
    /// `EngineOp::Scan`).
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
}

impl LsmStats {
    fn add_build(&self, build: &SstBuildStats) {
        self.blocks_compressed
            .fetch_add(build.blocks_compressed, Ordering::Relaxed);
        self.compressed_bytes_written
            .fetch_add(build.compressed_bytes, Ordering::Relaxed);
        self.uncompressed_bytes_written
            .fetch_add(build.uncompressed_bytes, Ordering::Relaxed);
    }
}

/// A staged block reference: block `.1` of table `.0`, pinned so the
/// completion pass reads a consistent snapshot after the lock drops.
type Cand = (Arc<SstReader>, usize);

/// One lookup after staging.
enum Lookup {
    /// Resolved without block IO: memtable hit, or every table ruled
    /// the key out (range/bloom).
    Ready(Option<Value>),
    /// Staged: `cands[start..end]` of the pass's shared arena holds
    /// this key's `(table, block)` pairs in table-priority order; the
    /// completion pass searches them against its deduped block fetches.
    /// (One arena per pass, not one Vec per key — a lookup must not pay
    /// an allocation for being batched.)
    Staged { key: Key, start: usize, end: usize },
}

/// A staged range scan: `cands[cands.start..cands.end]` holds every
/// block of every overlapping table, pushed in table-priority order
/// (memtable entries, the highest priority, are snapshotted into
/// `base` at staging). The completion pass decodes the staged blocks —
/// deduped and fetched alongside the pass's point lookups — and merges
/// newest-wins.
struct StagedScan {
    start: Key,
    end: Option<Key>,
    limit: usize,
    base: Vec<(Key, Entry)>,
    cands: std::ops::Range<usize>,
}

/// One submitted op after the submission pass: writes and memtable-only
/// lookups are done; staged lookups await the completion pass.
enum Slot {
    Done(Result<OpOutcome>),
    Get(Lookup),
    MultiGet(Vec<Lookup>),
    Scan(StagedScan),
}

/// The blocks one completion pass fetched, shared by every staged
/// lookup and scan of the pass.
struct Fetched {
    /// `batch.complete` gate: an aborted pass fetched nothing and fails
    /// every staged slot.
    pass: Result<()>,
    /// `slot_of[c]` = index into `blocks` serving candidate `c`.
    slot_of: Vec<u32>,
    blocks: Vec<Result<Vec<u8>>>,
}

impl Fetched {
    /// The fetched blocks behind `cands[range]`, in staging order.
    fn blocks(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = Result<&[u8]>> {
        self.slot_of[range]
            .iter()
            .map(|&slot| self.blocks[slot as usize].as_deref().map_err(Clone::clone))
    }

    /// Completes a lookup: the first staged block (in table-priority
    /// order) holding the key answers it; a failed fetch fails this
    /// lookup alone.
    fn lookup(&self, lookup: Lookup) -> Result<Option<Value>> {
        let (key, start, end) = match lookup {
            Lookup::Ready(v) => return Ok(v),
            Lookup::Staged { key, start, end } => (key, start, end),
        };
        self.pass.clone()?;
        for block in self.blocks(start..end) {
            if let Some(entry) = find_in_block(block?, &key)? {
                return Ok(entry.as_option().cloned());
            }
        }
        Ok(None)
    }

    /// Completes a staged scan: decode its blocks (any failed fetch
    /// fails this scan alone), merge newest-wins — memtable snapshot
    /// first, then tables in priority order (`or_insert` keeps the
    /// freshest version) — drop tombstones, truncate.
    fn scan(&self, scan: StagedScan) -> Result<Vec<(Key, Value)>> {
        let StagedScan {
            start,
            end,
            limit,
            base,
            cands,
        } = scan;
        if !cands.is_empty() {
            self.pass.clone()?;
        }
        let mut merged: std::collections::BTreeMap<Key, Entry> = base.into_iter().collect();
        for block in self.blocks(cands) {
            for (key, entry) in decode_block(block?)? {
                if key >= start && end.as_ref().is_none_or(|e| &key < e) {
                    merged.entry(key).or_insert(entry);
                }
            }
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, e)| match e {
                Entry::Put(v) => Some((k, v)),
                Entry::Tombstone => None,
            })
            .take(limit)
            .collect())
    }
}

struct Inner {
    memtable: Memtable,
    wal: Wal,
    /// `levels[0]` newest-first and overlapping; deeper levels are each
    /// one sorted run (possibly several non-overlapping tables).
    levels: Vec<Vec<Arc<SstReader>>>,
    /// Highest LSN known durable: covered by a successful WAL sync, or
    /// flushed into an SSTable (which is what lets the WAL reset).
    /// While it equals `last_lsn`, [`KvEngine::sync`] has nothing to
    /// make durable and skips the `fdatasync`.
    synced_lsn: u64,
}

/// The LSM storage engine.
pub struct LsmDb {
    inner: RwLock<Inner>,
    config: LsmConfig,
    next_file_id: AtomicU64,
    /// LSN of the newest applied write (see `tb_common::engine` for the
    /// contract). Advanced under the tree's write lock; read lock-free
    /// by [`KvEngine::applied_lsn`]. Persisted in the manifest (the WAL
    /// resets on flush, so frames alone cannot carry the high-water
    /// mark across a flush boundary).
    last_lsn: AtomicU64,
    pub stats: Arc<LsmStats>,
    /// Keeps this engine's counters contributing to
    /// [`tb_obs::global`] snapshots; deregisters on drop.
    _obs: tb_obs::SourceGuard,
}

impl LsmDb {
    /// Opens (or creates) a database in `config.dir`, running recovery.
    pub fn open(config: LsmConfig) -> Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let manifest_path = config.dir.join("MANIFEST");
        let (metas, manifest_lsn) = read_manifest(&manifest_path)?;
        // Stats exist before any table opens: every reader shares the
        // engine's decode counters from its first block read.
        let stats = Arc::new(LsmStats::default());
        let mut max_id = 0u64;
        let mut levels: Vec<Vec<Arc<SstReader>>> = vec![Vec::new(); config.max_level + 1];
        for (level, meta) in metas {
            max_id = max_id.max(meta.id);
            if level >= levels.len() {
                return Err(Error::Corruption(format!(
                    "manifest level {level} out of range"
                )));
            }
            levels[level].push(Arc::new(SstReader::open_shared(
                meta,
                stats.decode.clone(),
            )?));
        }

        // Replay the WAL into a fresh memtable, tracking the highest
        // LSN seen: the recovered sequence resumes after the larger of
        // the manifest's flushed high-water mark and the WAL tail.
        let wal_path = config.dir.join("WAL");
        let mut memtable = Memtable::new();
        let mut wal_lsn = 0u64;
        for (lsn, rec) in Wal::replay(&wal_path)? {
            let (key, entry) = decode_wal_record(&rec)?;
            wal_lsn = wal_lsn.max(lsn);
            match entry {
                Entry::Put(v) => memtable.put(key, v),
                Entry::Tombstone => memtable.delete(key),
            };
        }
        let wal = Wal::open(&wal_path, config.wal_sync)?;

        // Sweep crash leftovers: .tmp files from interrupted writes and
        // .sst files no manifest references (a flush or compaction that
        // died between writing the table and installing it).
        let referenced: std::collections::HashSet<PathBuf> = levels
            .iter()
            .flatten()
            .map(|t| t.meta.path.clone())
            .collect();
        for entry in std::fs::read_dir(&config.dir)? {
            let path = entry?.path();
            let ext = path.extension().and_then(|e| e.to_str());
            let orphan = match ext {
                Some("tmp") => true,
                Some("sst") => !referenced.contains(&path),
                _ => false,
            };
            if orphan {
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
                b.counter("lsm_batch_memtable_hits", c(&stats.batch_memtable_hits));
                b.counter(
                    "lsm_batch_scan_blocks_read",
                    c(&stats.batch_scan_blocks_read),
                );
                b.counter("lsm_scans", c(&stats.scans));
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
            })
        };
        Ok(Self {
            inner: RwLock::new(Inner {
                memtable,
                wal,
                levels,
                // Only the manifest's share is known durable: replayed
                // WAL frames may have reached the OS but not the disk.
                synced_lsn: manifest_lsn,
            }),
            next_file_id: AtomicU64::new(max_id + 1),
            last_lsn: AtomicU64::new(manifest_lsn.max(wal_lsn)),
            config,
            stats,
            _obs: obs,
        })
    }

    /// Inserts or overwrites a key.
    pub fn put(&self, key: Key, value: Value) -> Result<()> {
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.write(key, Entry::Put(value))
    }

    /// Deletes a key (tombstone).
    pub fn delete(&self, key: Key) -> Result<()> {
        self.write(key, Entry::Tombstone)
    }

    fn write(&self, key: Key, entry: Entry) -> Result<()> {
        let mut inner = self.inner.write();
        self.write_locked(&mut inner, key, entry).map(|_| ())
    }

    /// Appends, applies, and sequences one write; returns its assigned
    /// LSN. A failed WAL append consumes no LSN (the write never
    /// applied); a post-apply failure (flush) surfaces as an error with
    /// the LSN already advanced — the write is durable in the WAL and
    /// indeterminate to the caller, exactly the ack contract.
    fn write_locked(&self, inner: &mut Inner, key: Key, entry: Entry) -> Result<u64> {
        let lsn = self.last_lsn.load(Ordering::Relaxed) + 1;
        inner.wal.append(lsn, &encode_wal_record(&key, &entry))?;
        self.last_lsn.store(lsn, Ordering::Release);
        let size = match entry {
            Entry::Put(v) => inner.memtable.put(key, v),
            Entry::Tombstone => inner.memtable.delete(key),
        };
        if size >= self.config.memtable_bytes {
            self.flush_locked(inner)?;
        }
        Ok(lsn)
    }

    /// Point lookup: staged under the read lock, its candidate blocks
    /// fetched by the completion pass after the lock drops.
    pub fn get(&self, key: &Key) -> Result<Option<Value>> {
        let mut cands = Vec::new();
        let lookup = self.stage_lookup(&self.inner.read(), key.clone(), &mut cands);
        self.complete_one(lookup, &cands)
    }

    /// Completes one staged lookup on its own completion pass (none
    /// when staging already resolved it).
    fn complete_one(&self, lookup: Lookup, cands: &[Cand]) -> Result<Option<Value>> {
        match lookup {
            Lookup::Ready(v) => Ok(v),
            staged => self.fetch(cands).lookup(staged),
        }
    }

    /// Atomic compare-and-set: the read, the comparison, and the write
    /// all happen under one acquisition of the tree's write lock, so
    /// concurrent writers cannot slip between them (unlike the default
    /// [`KvEngine::cas`], which is unsynchronized read-then-write).
    pub fn cas(&self, key: Key, expected: Option<&Value>, new: Value) -> Result<()> {
        let mut inner = self.inner.write();
        self.cas_locked(&mut inner, key, expected, new).map(|_| ())
    }

    /// The CAS read stages and completes like any lookup, but under the
    /// caller's write lock, so later ops observe its effect — the one
    /// read that holds the tree lock across block IO.
    fn cas_locked(
        &self,
        inner: &mut Inner,
        key: Key,
        expected: Option<&Value>,
        new: Value,
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
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.write_locked(inner, key, Entry::Put(new))
    }

    /// Submission/completion op batch — the engine-side half of the
    /// front-end's pipelined batches (io_uring shape: submit N
    /// heterogeneous ops, collect N completions after one storage
    /// pass).
    ///
    /// Submission pass, under one acquisition of the tree lock (write
    /// lock only when the batch contains writes): writes apply in
    /// submission order; lookups resolve immediately from the memtable
    /// or from a range/bloom rule-out, and otherwise *stage* their
    /// candidate `(table, block)` pairs against the level state they
    /// observed. Completion pass (`fetch`, shared with point gets and
    /// CAS reads), after the lock drops: each staged block is read once
    /// per batch and shared across every key that needs it, then
    /// results fill in submission order. The staged tables are
    /// `Arc`-pinned, so the pass reads a consistent snapshot even if a
    /// concurrent flush or compaction rewrites the levels in between.
    pub fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        let has_write = ops.iter().any(|op| {
            matches!(
                op,
                EngineOp::Put(..)
                    | EngineOp::Delete(_)
                    | EngineOp::Cas { .. }
                    | EngineOp::MultiPut(_)
            )
        });

        // --- submission pass -----------------------------------------
        // One shared candidate arena for the whole batch; each staged
        // lookup owns a range of it.
        let submit_t0 = tb_obs::start();
        let mut cands: Vec<Cand> = Vec::new();
        let slots: Vec<Slot> = if has_write {
            let mut inner = self.inner.write();
            ops.into_iter()
                .map(|op| self.submit_op(&mut inner, op, &mut cands))
                .collect()
        } else {
            let inner = self.inner.read();
            ops.into_iter()
                .map(|op| self.stage_read(&inner, op, &mut cands))
                .collect()
        };
        tb_obs::histo!("lsm_batch_submit_ns").record_since(submit_t0);

        // --- completion pass (no tree lock held) ---------------------
        let fetched = self.fetch(&cands);
        let merge_t0 = tb_obs::start();
        let outcomes = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(r) => r,
                Slot::Get(l) => fetched.lookup(l).map(OpOutcome::Value),
                Slot::MultiGet(ls) => ls
                    .into_iter()
                    .map(|l| fetched.lookup(l))
                    .collect::<Result<Vec<_>>>()
                    .map(OpOutcome::Values),
                Slot::Scan(scan) => fetched.scan(scan).map(OpOutcome::Range),
            })
            .collect();
        tb_obs::histo!("lsm_batch_merge_ns").record_since(merge_t0);
        outcomes
    }

    /// The completion pass — the one place SSTable blocks are read
    /// outside compaction input. Dedups the staged references (sorted
    /// by `(table, block)`, so each table's fetches issue in order),
    /// fetches each distinct block once, and counts the pass.
    ///
    /// Fault gates run in that sorted fetch order (positional
    /// determinism): `batch.complete` aborts a pass that has blocks to
    /// fetch; per fetch, `batch.block_read` fails it outright, and a
    /// surviving fetch then draws its `sst.block_decode` decision — a
    /// hit mangles the frame so the slots reading it fail with the same
    /// `Error::Corruption` a rotted disk would cause.
    fn fetch(&self, cands: &[Cand]) -> Fetched {
        let block_of = |i: u32| {
            let (table, idx) = &cands[i as usize];
            (table.meta.id, *idx)
        };
        // Sorted candidate indices, deduped in place down to one per
        // distinct block: `fetches[..distinct]`.
        let mut fetches: Vec<u32> = (0..cands.len() as u32).collect();
        fetches.sort_unstable_by_key(|&i| block_of(i));
        let mut slot_of = vec![0u32; cands.len()];
        let mut distinct = 0;
        for r in 0..fetches.len() {
            let i = fetches[r];
            if distinct == 0 || block_of(fetches[distinct - 1]) != block_of(i) {
                fetches[distinct] = i;
                distinct += 1;
            }
            slot_of[i as usize] = distinct as u32 - 1;
        }
        fetches.truncate(distinct);
        let pass = if fetches.is_empty() {
            Ok(())
        } else {
            fault::hit("batch.complete")
        };
        let fetch_t0 = tb_obs::start();
        let blocks: Vec<Result<Vec<u8>>> = if pass.is_err() || fetches.is_empty() {
            Vec::new()
        } else {
            let mut span = tb_obs::tracer().span("lsm.batch.fetch");
            if let Some(s) = span.as_mut() {
                s.set_detail(fetches.len() as u64);
            }
            fetches
                .iter()
                .map(|&i| {
                    let (table, idx) = &cands[i as usize];
                    fault::hit("batch.block_read")?;
                    let corrupt = fault::hit("sst.block_decode").is_err();
                    table.read_block_marked(*idx, corrupt)
                })
                .collect()
        };
        tb_obs::histo!("lsm_batch_fetch_ns").record_since(fetch_t0);
        // Counted only when the pass ran: an aborted completion pass
        // fetched nothing, and the counters must say so.
        if pass.is_ok() {
            self.stats
                .batch_blocks_read
                .fetch_add(fetches.len() as u64, Ordering::Relaxed);
            self.stats
                .batch_block_dedup_hits
                .fetch_add((cands.len() - fetches.len()) as u64, Ordering::Relaxed);
        }
        Fetched {
            pass,
            slot_of,
            blocks,
        }
    }

    /// Applies one submitted op under the tree's write lock (writes run
    /// now, in submission order; lookups resolve or stage).
    fn submit_op(&self, inner: &mut Inner, op: EngineOp, cands: &mut Vec<Cand>) -> Slot {
        match op {
            EngineOp::Put(key, value) => {
                self.stats.puts.fetch_add(1, Ordering::Relaxed);
                Slot::Done(
                    self.write_locked(inner, key, Entry::Put(value))
                        .map(|l| OpOutcome::Done(Lsn(l))),
                )
            }
            EngineOp::Delete(key) => Slot::Done(
                self.write_locked(inner, key, Entry::Tombstone)
                    .map(|l| OpOutcome::Done(Lsn(l))),
            ),
            // CAS completes its read now (possibly block IO) so later
            // ops in the batch observe its effect — the rare op pays;
            // pure lookups stay staged.
            EngineOp::Cas { key, expected, new } => Slot::Done(
                self.cas_locked(inner, key, expected.as_ref(), new)
                    .map(|l| OpOutcome::Done(Lsn(l))),
            ),
            EngineOp::MultiPut(pairs) => {
                // The op acks with its *last* pair's LSN — the sequence
                // number that covers every pair before it.
                let mut result = Ok(0u64);
                for (k, v) in pairs {
                    self.stats.puts.fetch_add(1, Ordering::Relaxed);
                    result = self.write_locked(inner, k, Entry::Put(v));
                    if result.is_err() {
                        break;
                    }
                }
                Slot::Done(result.map(|l| OpOutcome::Done(Lsn(l))))
            }
            read => self.stage_read(inner, read, cands),
        }
    }

    /// Stages one read op (`Get`, `MultiGet`, `Scan`) against the level
    /// state under the caller's lock.
    fn stage_read(&self, inner: &Inner, op: EngineOp, cands: &mut Vec<Cand>) -> Slot {
        match op {
            EngineOp::Get(key) => Slot::Get(self.stage_lookup(inner, key, cands)),
            EngineOp::MultiGet(keys) => Slot::MultiGet(
                keys.into_iter()
                    .map(|k| self.stage_lookup(inner, k, cands))
                    .collect(),
            ),
            EngineOp::Scan { start, end, limit } => {
                self.stage_scan(inner, start, end, limit, cands)
            }
            write => unreachable!("write op {write:?} staged as a read"),
        }
    }

    /// Resolves a lookup from the memtable, or stages its candidate
    /// blocks (into the pass's shared arena) against the current level
    /// state.
    fn stage_lookup(&self, inner: &Inner, key: Key, cands: &mut Vec<Cand>) -> Lookup {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        if let Some(entry) = inner.memtable.get(&key) {
            self.stats
                .batch_memtable_hits
                .fetch_add(1, Ordering::Relaxed);
            return Lookup::Ready(entry.as_option().cloned());
        }
        let start = cands.len();
        for level in &inner.levels {
            for table in level {
                if let Some(idx) = table.locate(&key) {
                    cands.push((table.clone(), idx));
                }
            }
        }
        if cands.len() == start {
            Lookup::Ready(None)
        } else {
            Lookup::Staged {
                key,
                start,
                end: cands.len(),
            }
        }
    }

    /// Stages a range scan against the level state it observed: the
    /// memtable's contribution is snapshotted immediately (cheap —
    /// refcounted key/value handles), and every block of every
    /// overlapping table joins the pass's shared candidate arena in
    /// table-priority order, so scan fetches dedup against the batch's
    /// point lookups. Unbounded scans (`end = None`) stage the full
    /// overlapping block range regardless of `limit` — O(range), not
    /// O(limit); callers wanting cheap bounded scans should bound `end`.
    fn stage_scan(
        &self,
        inner: &Inner,
        start: Key,
        end: Option<Key>,
        limit: usize,
        cands: &mut Vec<Cand>,
    ) -> Slot {
        self.stats.scans.fetch_add(1, Ordering::Relaxed);
        let empty_range = end.as_ref().is_some_and(|e| e <= &start);
        if limit == 0 || empty_range {
            return Slot::Done(Ok(OpOutcome::Range(Vec::new())));
        }
        let base: Vec<(Key, Entry)> = inner
            .memtable
            .scan_range(&start, end.as_ref())
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect();
        let cand_start = cands.len();
        for level in &inner.levels {
            for table in level {
                if let Some((first, count)) = table.locate_range(&start, end.as_ref()) {
                    for j in 0..count {
                        cands.push((table.clone(), first + j));
                    }
                }
            }
        }
        self.stats
            .batch_scan_blocks_read
            .fetch_add((cands.len() - cand_start) as u64, Ordering::Relaxed);
        Slot::Scan(StagedScan {
            start,
            end,
            limit,
            base,
            cands: cand_start..cands.len(),
        })
    }

    /// Ordered scan of live keys in `start <= key < end` (`end = None`
    /// = unbounded), at most `limit` entries — one `EngineOp::Scan`
    /// through the batched submission/completion path. (A prefix scan
    /// is the range `[prefix, tb_common::prefix_successor(prefix))`.)
    pub fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        match LsmDb::apply_batch(
            self,
            vec![EngineOp::Scan {
                start: start.clone(),
                end: end.cloned(),
                limit,
            }],
        )
        .pop()
        {
            Some(Ok(OpOutcome::Range(rows))) => Ok(rows),
            Some(Err(e)) => Err(e),
            other => Err(Error::Internal(format!("scan batch resolved to {other:?}"))),
        }
    }

    /// Forces the memtable to disk (no-op when empty).
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.write();
        if inner.memtable.is_empty() {
            return Ok(());
        }
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<()> {
        if inner.memtable.is_empty() {
            return Ok(());
        }
        // Timed apart from the compaction it may trigger: the histogram
        // answers "how long is a memtable flush", `lsm_compaction_ns`
        // answers the rest.
        let t0 = tb_obs::start();
        let flushed = self.flush_locked_inner(inner);
        tb_obs::histo!("lsm_flush_ns").record_since(t0);
        flushed?;
        self.maybe_compact(inner)
    }

    fn flush_locked_inner(&self, inner: &mut Inner) -> Result<()> {
        let id = self.next_file_id.fetch_add(1, Ordering::SeqCst);
        let path = self.config.dir.join(format!("{id:010}.sst"));
        // The memtable is copied, not taken: if the SSTable write fails
        // partway, the entries must stay readable from memory (the WAL
        // still holds them, but reads never consult the WAL). Cheap:
        // keys and values are refcounted buffers, so this clones
        // handles, not bytes.
        let entries: Vec<(Key, Entry)> = inner
            .memtable
            .iter()
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect();
        let (meta, build) =
            write_sstable_with_stats(id, &path, entries.into_iter(), &self.config.sst)?;
        let reader = match SstReader::open_shared(meta, self.stats.decode.clone()) {
            Ok(r) => r,
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                return Err(e);
            }
        };
        self.stats.add_build(&build);
        // Newest L0 table goes first.
        inner.levels[0].insert(0, Arc::new(reader));
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.write_manifest(inner)?;
        // Only now — table durable and installed in the manifest — can
        // the memtable and WAL drop their copies. (If the manifest
        // write failed above, memtable and L0 briefly hold duplicates;
        // reads stay correct and the next flush retries the manifest.)
        inner.memtable = Memtable::new();
        inner.wal.reset()?;
        // Every write sequenced so far is in a synced, manifest-listed
        // table: durable without the (now empty) WAL.
        inner.synced_lsn = self.last_lsn.load(Ordering::Relaxed);
        Ok(())
    }

    fn maybe_compact(&self, inner: &mut Inner) -> Result<()> {
        // L0 → L1 when too many overlapping tables accumulate.
        if inner.levels[0].len() > self.config.l0_compaction_trigger {
            self.compact_into(inner, 0)?;
        }
        // Size-triggered push-downs.
        for level in 1..self.config.max_level {
            let sizes: Vec<u64> = inner.levels[level]
                .iter()
                .map(|t| t.meta.file_size)
                .collect();
            if level_bytes(&sizes) > level_limit(level, self.config.level_base_bytes) {
                self.compact_into(inner, level)?;
            }
        }
        Ok(())
    }

    /// Merges level `src` and `src + 1` into `src + 1`.
    fn compact_into(&self, inner: &mut Inner, src: usize) -> Result<()> {
        let t0 = tb_obs::start();
        let result = self.compact_into_inner(inner, src);
        tb_obs::histo!("lsm_compaction_ns").record_since(t0);
        result
    }

    fn compact_into_inner(&self, inner: &mut Inner, src: usize) -> Result<()> {
        let dst = src + 1;
        let mut runs: Vec<Vec<(Key, Entry)>> = Vec::new();
        // L0 tables are newest-first already; deeper levels hold one run.
        for table in &inner.levels[src] {
            runs.push(table.scan()?);
        }
        for table in &inner.levels[dst] {
            runs.push(table.scan()?);
        }
        // Tombstones can drop only when nothing lives below dst.
        let nothing_below = inner.levels[dst + 1..].iter().all(|l| l.is_empty());
        let merged = merge_runs(runs, nothing_below);

        let obsolete: Vec<PathBuf> = inner.levels[src]
            .iter()
            .chain(inner.levels[dst].iter())
            .map(|t| t.meta.path.clone())
            .collect();

        // Write the merged table *before* dropping the inputs from the
        // in-memory tree: a failed write must leave the levels serving
        // exactly what they served before.
        let new_table = if merged.is_empty() {
            None
        } else {
            let id = self.next_file_id.fetch_add(1, Ordering::SeqCst);
            let path = self.config.dir.join(format!("{id:010}.sst"));
            // Compaction re-samples the merged input and re-encodes:
            // the output table trains its own dictionary.
            let (meta, build) =
                write_sstable_with_stats(id, &path, merged.into_iter(), &self.config.sst)?;
            match SstReader::open_shared(meta, self.stats.decode.clone()) {
                Ok(r) => {
                    self.stats.add_build(&build);
                    Some(Arc::new(r))
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&path);
                    return Err(e);
                }
            }
        };
        inner.levels[src].clear();
        inner.levels[dst].clear();
        if let Some(table) = new_table {
            inner.levels[dst].push(table);
        }
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.write_manifest(inner)?;
        // Input tables leave the disk only after the manifest stopped
        // referencing them; a crash in between just leaks files, which
        // the orphan sweep in `open` reclaims.
        fault::hit("compact.remove_obsolete")?;
        for path in obsolete {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    fn write_manifest(&self, inner: &Inner) -> Result<()> {
        let manifest_path = self.config.dir.join("MANIFEST");
        let mut body = Vec::new();
        // LSN high-water mark first: the WAL resets after a flush, so
        // the manifest must carry the sequence across that boundary for
        // recovery to resume numbering (and for replication watermarks
        // to stay comparable across restarts).
        write_varint(&mut body, self.last_lsn.load(Ordering::Acquire));
        let tables: Vec<(usize, &SstMeta)> = inner
            .levels
            .iter()
            .enumerate()
            .flat_map(|(lvl, tables)| tables.iter().map(move |t| (lvl, &t.meta)))
            .collect();
        write_varint(&mut body, tables.len() as u64);
        for (lvl, meta) in tables {
            write_varint(&mut body, lvl as u64);
            write_varint(&mut body, meta.id);
            write_varint(&mut body, meta.entry_count as u64);
            write_varint(&mut body, meta.file_size);
            write_varint(&mut body, meta.min_key.len() as u64);
            body.extend_from_slice(meta.min_key.as_slice());
            write_varint(&mut body, meta.max_key.len() as u64);
            body.extend_from_slice(meta.max_key.as_slice());
        }
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        let tmp = manifest_path.with_extension("tmp");
        let written = (|| -> Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            fault::write_all("manifest.write", &mut f, &out)?;
            fault::hit("manifest.sync")?;
            f.sync_all()?;
            Ok(())
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        fault::hit("manifest.rename")?;
        std::fs::rename(&tmp, &manifest_path)?;
        sync_parent_dir(&manifest_path, "manifest.dir_sync")
    }

    /// Total bytes in SSTables plus the live memtable.
    pub fn disk_bytes(&self) -> u64 {
        let inner = self.inner.read();
        let sst: u64 = inner
            .levels
            .iter()
            .flatten()
            .map(|t| t.meta.file_size)
            .sum();
        sst + inner.memtable.approx_bytes() as u64
    }

    /// Tables per level (diagnostics).
    pub fn level_table_counts(&self) -> Vec<usize> {
        self.inner.read().levels.iter().map(|l| l.len()).collect()
    }

    /// Directory this database lives in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

impl KvEngine for LsmDb {
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        LsmDb::get(self, key)
    }

    fn put(&self, key: Key, value: Value) -> Result<()> {
        LsmDb::put(self, key, value)
    }

    fn delete(&self, key: &Key) -> Result<()> {
        LsmDb::delete(self, key.clone())
    }

    fn cas(&self, key: Key, expected: Option<&Value>, new: Value) -> Result<()> {
        LsmDb::cas(self, key, expected, new)
    }

    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        LsmDb::apply_batch(self, ops)
    }

    /// Batched lookups ride the overlapped submission/completion path:
    /// one tree-lock pass, block reads deduped across the keys.
    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        match LsmDb::apply_batch(self, vec![EngineOp::MultiGet(keys.to_vec())]).pop() {
            Some(Ok(OpOutcome::Values(values))) => Ok(values),
            Some(Err(e)) => Err(e),
            other => Err(Error::Internal(format!(
                "multi_get batch resolved to {other:?}"
            ))),
        }
    }

    /// Batched writes apply under one tree-lock acquisition instead of
    /// one per pair.
    fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<()> {
        match LsmDb::apply_batch(self, vec![EngineOp::MultiPut(pairs)]).pop() {
            Some(Ok(OpOutcome::Done(_))) => Ok(()),
            Some(Err(e)) => Err(e),
            other => Err(Error::Internal(format!(
                "multi_put batch resolved to {other:?}"
            ))),
        }
    }

    /// Ordered range scan through the batched read path.
    fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        LsmDb::scan(self, start, end, limit)
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

    fn resident_bytes(&self) -> u64 {
        self.disk_bytes()
    }

    fn applied_lsn(&self) -> Lsn {
        Lsn(self.last_lsn.load(Ordering::Acquire))
    }

    fn label(&self) -> String {
        "lsm".into()
    }

    fn sync(&self) -> Result<()> {
        let mut inner = self.inner.write();
        let last = self.last_lsn.load(Ordering::Relaxed);
        if inner.synced_lsn == last {
            // Nothing appended since the last durability point.
            return Ok(());
        }
        let t0 = tb_obs::start();
        let synced = inner.wal.sync();
        tb_obs::histo!("lsm_wal_sync_ns").record_since(t0);
        if synced.is_ok() {
            inner.synced_lsn = last;
        }
        synced
    }
}

/// Reads `(level, meta)` rows plus the persisted LSN high-water mark
/// from a manifest file; absent file = empty DB at LSN 0.
fn read_manifest(path: &Path) -> Result<(Vec<(usize, SstMeta)>, u64)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((vec![], 0)),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < 8 {
        return Err(Error::Corruption("manifest truncated".into()));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != MANIFEST_MAGIC {
        return Err(Error::Corruption("bad manifest magic".into()));
    }
    let stored_crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let body = &bytes[8..];
    if crc32(body) != stored_crc {
        return Err(Error::Corruption("manifest crc mismatch".into()));
    }
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut pos = 0usize;
    let max_lsn = read_varint(body, &mut pos)?;
    let count = read_varint(body, &mut pos)? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let level = read_varint(body, &mut pos)? as usize;
        let id = read_varint(body, &mut pos)?;
        let entry_count = read_varint(body, &mut pos)? as u32;
        let file_size = read_varint(body, &mut pos)?;
        let min_len = read_varint(body, &mut pos)? as usize;
        if pos + min_len > body.len() {
            return Err(Error::Corruption("manifest key truncated".into()));
        }
        let min_key = Key::copy_from(&body[pos..pos + min_len]);
        pos += min_len;
        let max_len = read_varint(body, &mut pos)? as usize;
        if pos + max_len > body.len() {
            return Err(Error::Corruption("manifest key truncated".into()));
        }
        let max_key = Key::copy_from(&body[pos..pos + max_len]);
        pos += max_len;
        out.push((
            level,
            SstMeta {
                id,
                path: dir.join(format!("{id:010}.sst")),
                min_key,
                max_key,
                entry_count,
                file_size,
            },
        ));
    }
    Ok((out, max_lsn))
}

fn encode_wal_record(key: &Key, entry: &Entry) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + 16);
    match entry {
        Entry::Put(v) => {
            out.push(0);
            write_varint(&mut out, key.len() as u64);
            out.extend_from_slice(key.as_slice());
            out.extend_from_slice(v.as_slice());
        }
        Entry::Tombstone => {
            out.push(1);
            write_varint(&mut out, key.len() as u64);
            out.extend_from_slice(key.as_slice());
        }
    }
    out
}

fn decode_wal_record(rec: &[u8]) -> Result<(Key, Entry)> {
    let (&flag, rest) = rec
        .split_first()
        .ok_or_else(|| Error::Corruption("empty WAL record".into()))?;
    let mut pos = 0usize;
    let klen = read_varint(rest, &mut pos)? as usize;
    if pos + klen > rest.len() {
        return Err(Error::Corruption("WAL key overflows record".into()));
    }
    let key = Key::copy_from(&rest[pos..pos + klen]);
    let value_bytes = &rest[pos + klen..];
    match flag {
        0 => Ok((key, Entry::Put(Value::copy_from(value_bytes)))),
        1 => Ok((key, Entry::Tombstone)),
        other => Err(Error::Corruption(format!("bad WAL flag {other}"))),
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
        db.delete(k(1)).unwrap();
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
            db.delete(k(i)).unwrap();
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
            db.delete(k(1)).unwrap();
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
            db.delete(k(3)).unwrap();
            assert_eq!(KvEngine::applied_lsn(&db), Lsn(11));
            // Flush resets the WAL; the manifest must carry the mark.
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
            db.delete(k(i)).unwrap();
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
        db.delete(Key::from("user:020")).unwrap();

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
            db.delete(Key::from("p:0100")).unwrap();
            KvEngine::sync(&db).unwrap();
        }
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        let got = scan_prefix(&db, b"p:");
        assert_eq!(got.len(), 299);
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
        let blocks_in_l0: u64 = db.inner.read().levels[0][0].meta.file_size / 4096 + 2;

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
        db.delete(k(15)).unwrap();

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
                    db.delete(k(i)).unwrap();
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
