//! Freezing full memtables, and the one background worker per engine
//! that flushes them and compacts the levels.
//!
//! Step sequence: the worker takes frozen memtables oldest first and,
//! for each, writes one L0 table and then runs `maybe_compact` — the
//! sequence a caller-side flush used to run, so the tree goes through
//! the same states (same tables, same file ids), only later and off the
//! write path.
//!
//! Publication order, for a flush and for a compaction: the new table
//! is durable (written, fsynced, renamed, directory fsynced) → the
//! manifest naming it is durable → the new [`Version`] is installed
//! under the tree's write lock (the only moment the worker takes it) →
//! the memtable's WAL segment, or the compaction's inputs, are deleted.
//! A crash between any two steps leaves an image recovery reads
//! correctly: unreferenced tables are swept, segment records the
//! manifest covers are skipped. A failed step installs nothing; its
//! error is parked until a caller takes it (the next write, `flush`),
//! and the worker then retries.

use crate::compaction::{level_bytes, level_limit, merge_runs};
use crate::db::{segment_path, Frozen, Inner, Tree};
use crate::memtable::Entry;
use crate::sstable::{write_sstable_with_stats, SstConfig, SstReader};
use crate::version::Version;
use crate::wal::Wal;
use parking_lot::{Condvar, Mutex, RwLockWriteGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tb_common::fault::{self, CrashPoint};
use tb_common::{Error, Key, Result};

/// Frozen memtables a writer may leave queued before it stalls. Bounds
/// the memory behind the worker (one memtable each) and how far the
/// levels may lag the log.
pub(crate) const MAX_FROZEN: usize = 4;

/// Why the worker stopped for good.
enum Death {
    /// An injected crash fired on it (the fault site).
    Crash(&'static str),
    /// A bug: the panic message, re-raised on the next caller.
    Panic(String),
}

#[derive(Default)]
struct State {
    /// Frozen memtables not yet flushed: `Inner::frozen.len()`.
    queued: usize,
    /// A job is running.
    busy: bool,
    /// A failed job's error, parked until a caller takes it; the worker
    /// idles meanwhile and retries once it is taken.
    error: Option<Error>,
    dead: Option<Death>,
    /// The engine is dropping: flush what is queued, then exit.
    shutdown: bool,
}

impl State {
    fn alive(&self) -> Result<()> {
        match &self.dead {
            None => Ok(()),
            Some(Death::Crash(site)) => Err(Error::FaultInjected(format!(
                "LSM worker crashed at {site}; reopen to recover"
            ))),
            Some(Death::Panic(msg)) => panic!("LSM background worker panicked: {msg}"),
        }
    }
}

/// The worker's queue and status, shared by writers (admission), the
/// worker, and callers waiting for it to settle.
#[derive(Default)]
pub(crate) struct Background {
    state: Mutex<State>,
    changed: Condvar,
}

impl Background {
    pub(crate) fn new(queued: usize) -> Self {
        let bg = Self::default();
        bg.state.lock().queued = queued;
        bg
    }

    /// Write admission, before the tree lock: takes a parked worker
    /// error (the write fails with it), and stalls while
    /// [`MAX_FROZEN`] memtables wait for the worker.
    pub(crate) fn admit(&self) -> Result<()> {
        let mut s = self.state.lock();
        let mut stalled = None;
        let admitted = loop {
            s.alive()?;
            if let Some(e) = s.error.take() {
                self.changed.notify_all();
                break Err(e);
            }
            if s.queued < MAX_FROZEN {
                break Ok(());
            }
            stalled.get_or_insert_with(tb_obs::start);
            self.changed.wait(&mut s);
        };
        if let Some(t0) = stalled {
            tb_obs::histo!("lsm_write_stall_ns").record_since(t0);
        }
        admitted
    }

    /// Waits until no frozen memtable is queued and no job runs, or
    /// until the worker stopped on an error (returned, and taken when
    /// `take_error`, which lets the worker retry) or a crash.
    pub(crate) fn wait_idle(&self, take_error: bool) -> Result<()> {
        let mut s = self.state.lock();
        loop {
            s.alive()?;
            if take_error {
                if let Some(e) = s.error.take() {
                    self.changed.notify_all();
                    return Err(e);
                }
            } else if let Some(e) = &s.error {
                return Err(e.clone());
            }
            if s.queued == 0 && !s.busy {
                return Ok(());
            }
            self.changed.wait(&mut s);
        }
    }

    pub(crate) fn shut_down(&self) {
        self.state.lock().shutdown = true;
        self.changed.notify_all();
    }

    fn add_queued(&self, n: isize) {
        let mut s = self.state.lock();
        s.queued = s.queued.checked_add_signed(n).expect("queue count");
        self.changed.notify_all();
    }

    /// Blocks until there is a frozen memtable to flush and no parked
    /// error; false when the worker should exit instead.
    fn next_job(&self) -> bool {
        let mut s = self.state.lock();
        loop {
            if s.queued > 0 && s.error.is_none() {
                s.busy = true;
                return true;
            }
            if s.shutdown {
                return false;
            }
            self.changed.wait(&mut s);
        }
    }

    /// Records a job's outcome; false once the worker is dead.
    fn job_done(&self, outcome: std::thread::Result<Result<()>>) -> bool {
        let mut s = self.state.lock();
        s.busy = false;
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => s.error = Some(e),
            Err(payload) => {
                s.dead = Some(match payload.downcast_ref::<CrashPoint>() {
                    Some(crash) => Death::Crash(crash.site),
                    None => Death::Panic(
                        payload
                            .downcast_ref::<&str>()
                            .map(|m| m.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_default(),
                    ),
                })
            }
        }
        self.changed.notify_all();
        s.dead.is_none()
    }
}

impl Tree {
    /// Writer side, under the write lock: fsyncs the active segment,
    /// opens the next one, and queues the full memtable — still served
    /// by reads — for the worker.
    pub(crate) fn freeze(&self, inner: &mut Inner) -> Result<()> {
        fault::hit("wal.rotate")?;
        inner.wal.sync_handle()?.sync_data()?;
        let seq = inner.wal_seq + 1;
        let path = segment_path(&self.config.dir, seq);
        let wal = Wal::open(&path, self.config.wal_sync)?;
        let last_lsn = self.last_lsn.load(Ordering::Relaxed);
        inner.frozen.push_back(Arc::new(Frozen {
            memtable: std::mem::take(&mut inner.memtable),
            segment: std::mem::replace(&mut inner.wal_seq, seq),
            last_lsn,
        }));
        inner.wal = wal;
        // Every write so far is in a segment fsynced above.
        self.synced_lsn.fetch_max(last_lsn, Ordering::AcqRel);
        self.stats
            .frozen_memtables
            .store(inner.frozen.len() as u64, Ordering::Relaxed);
        self.bg.add_queued(1);
        Ok(())
    }

    /// The worker thread's body: one job per frozen memtable. Panics are
    /// caught: an injected crash (or a bug) ends the worker, and the
    /// engine fails writes from then on instead of taking the process
    /// down.
    pub(crate) fn run_worker(&self) {
        while self.bg.next_job() {
            let outcome = catch_unwind(AssertUnwindSafe(|| self.flush_oldest()));
            if !self.bg.job_done(outcome) {
                return;
            }
        }
    }

    /// One job: flush the oldest frozen memtable, then compact as the
    /// new level shape requires.
    fn flush_oldest(&self) -> Result<()> {
        // Timed apart from the compaction it may trigger: the histogram
        // answers "how long is a memtable flush", `lsm_compaction_ns`
        // answers the rest.
        let t0 = tb_obs::start();
        let flushed = self.flush_frozen();
        tb_obs::histo!("lsm_flush_ns").record_since(t0);
        flushed?;
        self.maybe_compact()
    }

    fn flush_frozen(&self) -> Result<()> {
        let (frozen, mut version) = {
            let inner = self.inner.read();
            let oldest = inner.frozen.front().cloned();
            (
                oldest.expect("a queued job has a frozen memtable"),
                inner.version.clone(),
            )
        };
        // Keys and values are refcounted buffers: this clones handles,
        // not bytes. The frozen memtable keeps serving reads until the
        // table that replaces it is installed.
        let entries = frozen.memtable.iter().map(|(k, e)| (k.clone(), e.clone()));
        let table = self.build_table(0, &self.config.sst, entries)?;
        version.levels[0].insert(0, table);
        version.flushed_lsn = frozen.last_lsn;
        version.write_manifest(&self.config.dir)?;
        let mut inner = self.install(version);
        inner.frozen.pop_front();
        self.stats
            .frozen_memtables
            .store(inner.frozen.len() as u64, Ordering::Relaxed);
        drop(inner);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.bg.add_queued(-1);
        // Only now — table durable, manifest durable, installed — can
        // the segment go.
        fault::hit("wal.remove")?;
        std::fs::remove_file(segment_path(&self.config.dir, frozen.segment))?;
        Ok(())
    }

    /// Swaps `version` in under the write lock, returned so a flush can
    /// drop its memtable in the same critical section.
    fn install(&self, version: Version) -> RwLockWriteGuard<'_, Inner> {
        let mut inner = self.inner.write();
        self.stats
            .l0_tables
            .store(version.levels[0].len() as u64, Ordering::Relaxed);
        inner.version = version;
        inner
    }

    /// Writes `entries` (sorted, unique) as a new table of `level` and
    /// opens it.
    fn build_table(
        &self,
        level: usize,
        config: &SstConfig,
        entries: impl Iterator<Item = (Key, Entry)>,
    ) -> Result<Arc<SstReader>> {
        let id = self.next_file_id.fetch_add(1, Ordering::SeqCst);
        let path = self.config.dir.join(format!("{id:010}.sst"));
        let (meta, build) = write_sstable_with_stats(id, &path, entries, config, level)?;
        match SstReader::open_shared(meta, self.stats.decode.clone()) {
            Ok(r) => {
                self.stats.add_build(&build);
                Ok(Arc::new(r))
            }
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                Err(e)
            }
        }
    }

    fn maybe_compact(&self) -> Result<()> {
        // L0 → L1 when too many overlapping tables accumulate. (Only
        // the worker changes levels: what it reads stays true until it
        // installs.)
        if self.inner.read().version.levels[0].len() > self.config.l0_compaction_trigger {
            self.compact_into(0)?;
        }
        // Size-triggered push-downs.
        for level in 1..self.config.max_level {
            let sizes: Vec<u64> = self.inner.read().version.levels[level]
                .iter()
                .map(|t| t.meta.file_size)
                .collect();
            if level_bytes(&sizes) > level_limit(level, self.config.level_base_bytes) {
                self.compact_into(level)?;
            }
        }
        Ok(())
    }

    /// Merges level `src` and `src + 1` into `src + 1`.
    fn compact_into(&self, src: usize) -> Result<()> {
        let t0 = tb_obs::start();
        let result = self.compact_into_inner(src);
        tb_obs::histo!("lsm_compaction_ns").record_since(t0);
        result
    }

    fn compact_into_inner(&self, src: usize) -> Result<()> {
        let dst = src + 1;
        let mut version = self.inner.read().version.clone();
        // L0 tables are newest-first already; deeper levels hold one run.
        let inputs: Vec<Arc<SstReader>> = version.levels[src]
            .iter()
            .chain(&version.levels[dst])
            .cloned()
            .collect();
        let runs = inputs
            .iter()
            .map(|table| table.scan())
            .collect::<Result<Vec<_>>>()?;
        // Tombstones can drop only when nothing lives below dst.
        let nothing_below = version.levels[dst + 1..].iter().all(|l| l.is_empty());
        let merged = merge_runs(runs, nothing_below);
        // Compaction re-samples the merged input and re-encodes: the
        // output table trains its own dictionary, at `dst`'s effort. A
        // bottom-level output carries the pass-through filter: a lookup
        // reaching it has missed every newer table, so the filter could
        // only spare a read for a key stored nowhere.
        let config = SstConfig {
            bloom_bits_per_key: if nothing_below {
                0
            } else {
                self.config.sst.bloom_bits_per_key
            },
            ..self.config.sst
        };
        let new_table = if merged.is_empty() {
            None
        } else {
            Some(self.build_table(dst, &config, merged.into_iter())?)
        };
        version.levels[src].clear();
        version.levels[dst] = new_table.into_iter().collect();
        version.write_manifest(&self.config.dir)?;
        drop(self.install(version));
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        // Input tables leave the disk only after the manifest stopped
        // referencing them; a crash in between just leaks files, which
        // the orphan sweep in `open` reclaims.
        fault::hit("compact.remove_obsolete")?;
        for table in inputs {
            let _ = std::fs::remove_file(&table.meta.path);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{LsmConfig, LsmDb};
    use std::time::Duration;
    use tb_common::KvEngine;

    #[test]
    fn only_the_bottom_level_drops_its_filter() {
        let dir = tb_common::test_dir("tb-lsm-bottom-filter");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        let (mut deepest_seen, mut filtered_l1_above_l2) = (0, false);
        for round in 0..40 {
            for i in round * 100..(round + 1) * 100 {
                let key = Key::from(format!("key-{i:06}"));
                db.put(key, format!("value-{i}-{}", "p".repeat(i % 37)).into())
                    .unwrap();
            }
            db.flush().unwrap();
            // The deepest non-empty level below L0 holds pass-through
            // filters; flush tables, and every table with a level
            // beneath it, hold 10 bits per key.
            let inner = db.tree.inner.read();
            let levels = &inner.version.levels;
            let deepest = levels.iter().rposition(|l| !l.is_empty()).unwrap();
            deepest_seen = deepest_seen.max(deepest);
            for (n, level) in levels.iter().enumerate() {
                for table in level {
                    let filter = table.filter();
                    let (k, bytes) = (filter.probes(), filter.to_bytes().len());
                    if n == deepest && n > 0 {
                        assert_eq!((k, bytes), (0, 20), "round {round}: bottom L{n}");
                    } else {
                        // 12 header bytes, then the bits rounded up to
                        // whole 64-bit words.
                        let entries = table.meta.entry_count as usize;
                        let bits = (bytes - 12) * 8;
                        assert!(
                            k > 0 && (10 * entries..10 * entries + 64).contains(&bits),
                            "round {round}: L{n} table of {entries} keys has a \
                             {bits}-bit, k = {k} filter"
                        );
                        filtered_l1_above_l2 |= n == 1 && deepest >= 2;
                    }
                }
            }
        }
        assert!(deepest_seen >= 2, "never pushed down to L2");
        assert!(filtered_l1_above_l2, "no L1 table was written above L2");
    }

    #[test]
    fn admission_stalls_at_the_bound_and_takes_parked_errors() {
        let bg = Arc::new(Background::new(MAX_FROZEN));
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = {
            let bg = bg.clone();
            std::thread::spawn(move || tx.send(bg.admit()).unwrap())
        };
        // (Only a lower bound on the stall: the writer has not passed
        // while the queue sits at the bound.)
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "admitted with {MAX_FROZEN} memtables queued"
        );
        bg.add_queued(-1);
        assert_eq!(rx.recv().unwrap(), Ok(()), "admitted once one flushed");
        writer.join().unwrap();
        // A parked worker error goes to the next writer, which fails
        // instead of stalling, and is gone after that.
        bg.add_queued(1);
        bg.state.lock().error = Some(Error::Io("disk full".into()));
        assert_eq!(bg.admit(), Err(Error::Io("disk full".into())));
        assert!(bg.state.lock().error.is_none());
    }
}
