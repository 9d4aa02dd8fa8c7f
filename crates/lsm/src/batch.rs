//! The staged read path and batched submission: ops are applied or
//! staged under the tree lock, then one completion pass fetches every
//! staged block once.

use crate::db::{Inner, Tree};
use crate::memtable::Entry;
use crate::sstable::{decode_block, find_in_block, SstReader};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tb_common::{fault, EngineOp, Key, Lsn, OpOutcome, Result, Value};

/// A staged block reference: block `.1` of table `.0`, pinned so the
/// completion pass reads a consistent snapshot after the lock drops.
pub(crate) type Cand = (Arc<SstReader>, usize);

/// One lookup after staging.
pub(crate) enum Lookup {
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
/// `base` at staging, oldest memtable first). The completion pass
/// decodes the staged blocks — deduped and fetched alongside the pass's
/// point lookups — and merges newest-wins.
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
    /// first (collected oldest first, so a key keeps its newest
    /// version), then tables in priority order (`or_insert` keeps the
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

impl Tree {
    /// Completes one staged lookup on its own completion pass (none
    /// when staging already resolved it).
    pub(crate) fn complete_one(&self, lookup: Lookup, cands: &[Cand]) -> Result<Option<Value>> {
        match lookup {
            Lookup::Ready(v) => Ok(v),
            staged => self.fetch(cands).lookup(staged),
        }
    }

    /// The body of `LsmDb`'s `KvEngine::apply_batch`.
    pub(crate) fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        let has_write = ops.iter().any(is_write);
        let admitted = if has_write { self.bg.admit() } else { Ok(()) };

        // --- submission pass -----------------------------------------
        // One shared candidate arena for the whole batch; each staged
        // lookup owns a range of it.
        let submit_t0 = tb_obs::start();
        let mut cands: Vec<Cand> = Vec::new();
        let slots: Vec<Slot> = match admitted {
            Ok(()) if has_write => {
                let mut inner = self.inner.write();
                ops.into_iter()
                    .map(|op| self.submit_op(&mut inner, op, &mut cands))
                    .collect()
            }
            admitted => {
                let inner = self.inner.read();
                ops.into_iter()
                    .map(|op| match &admitted {
                        Err(e) if is_write(&op) => Slot::Done(Err(e.clone())),
                        _ => self.stage_read(&inner, op, &mut cands),
                    })
                    .collect()
            }
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
                self.cas_locked(inner, key, expected.as_ref(), Entry::Put(new))
                    .map(|l| OpOutcome::Done(Lsn(l))),
            ),
            EngineOp::CasDelete { key, expected } => Slot::Done(
                self.cas_locked(inner, key, expected.as_ref(), Entry::Tombstone)
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

    /// Resolves a lookup from the memtables (active, then frozen newest
    /// first), or stages its candidate blocks (into the pass's shared
    /// arena) against the current level state.
    pub(crate) fn stage_lookup(&self, inner: &Inner, key: Key, cands: &mut Vec<Cand>) -> Lookup {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let in_memory = inner
            .memtable
            .get(&key)
            .or_else(|| inner.frozen.iter().rev().find_map(|f| f.memtable.get(&key)));
        if let Some(entry) = in_memory {
            self.stats
                .batch_memtable_hits
                .fetch_add(1, Ordering::Relaxed);
            return Lookup::Ready(entry.as_option().cloned());
        }
        let start = cands.len();
        for level in &inner.version.levels {
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
    /// memtables' contribution is snapshotted immediately (cheap —
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
            .frozen
            .iter()
            .map(|f| &f.memtable)
            .chain([&inner.memtable])
            .flat_map(|m| m.scan_range(&start, end.as_ref()))
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect();
        let cand_start = cands.len();
        for level in &inner.version.levels {
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
}

fn is_write(op: &EngineOp) -> bool {
    matches!(
        op,
        EngineOp::Put(..)
            | EngineOp::Delete(_)
            | EngineOp::Cas { .. }
            | EngineOp::CasDelete { .. }
            | EngineOp::MultiPut(_)
    )
}
