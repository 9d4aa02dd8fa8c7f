//! The staged read path and batched submission: ops are applied or
//! staged under the tree lock, then one completion pass reads the
//! staged blocks in rounds, newest table first, each block at most
//! once.

use crate::db::{Inner, Tree};
use crate::memtable::Entry;
use crate::sstable::{decode_block, find_in_block, SstReader};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tb_common::{fault, EngineOp, Key, Lsn, OpOutcome, Result, Value};

/// A staged block reference: block `.1` of table `.0`, pinned so the
/// completion pass reads a consistent snapshot after the lock drops.
pub(crate) type Cand = (Arc<SstReader>, usize);

/// One lookup after staging.
pub(crate) enum Lookup {
    /// Answered: from a memtable, by every table ruling the key out
    /// (range/bloom), or by the completion pass.
    Done(Result<Option<Value>>),
    /// Staged: `cands[next..end]` of the pass's shared arena holds this
    /// key's `(table, block)` pairs not yet read, newest table first.
    /// Each completion round reads `cands[next]`, and `next` moves on
    /// only when that block does not hold the key. (One arena per pass,
    /// not one Vec per key — a lookup must not pay an allocation for
    /// being batched.)
    Staged { key: Key, next: usize, end: usize },
}

impl Lookup {
    /// The answer, once the completion pass has run.
    fn answer(self) -> Result<Option<Value>> {
        match self {
            Lookup::Done(answer) => answer,
            Lookup::Staged { .. } => unreachable!("the completion pass answers every lookup"),
        }
    }
}

/// A staged range scan: `cands[cands.start..cands.end]` holds every
/// block of every overlapping table, pushed in table-priority order
/// (memtable entries, the highest priority, are snapshotted into
/// `base` at staging, oldest memtable first). The completion pass
/// reads every staged block in its first round — deduped against the
/// pass's point lookups — and merges newest-wins.
struct StagedScan {
    start: Key,
    end: Option<Key>,
    limit: usize,
    base: Vec<(Key, Entry)>,
    cands: Range<usize>,
}

/// One submitted op after the submission pass: writes and memtable-only
/// lookups are done; staged lookups await the completion pass.
enum Slot {
    Done(Result<OpOutcome>),
    Get(Lookup),
    MultiGet(Vec<Lookup>),
    Scan(StagedScan),
}

/// The blocks one completion pass read. Its lookups are answered in
/// place as the rounds run; what is kept here serves its scans.
struct Fetched {
    /// `batch.complete` gate: an aborted pass read nothing and fails
    /// every staged slot.
    pass: Result<()>,
    /// `slot_of[c]` = index into `blocks` of candidate `c`'s block.
    slot_of: Vec<u32>,
    /// One per distinct staged block, in `(table, block)` order;
    /// `None` when no round needed it.
    blocks: Vec<Option<Result<Vec<u8>>>>,
}

impl Fetched {
    /// Completes a staged scan: decode its blocks, all read in round 1
    /// (any failed read fails this scan alone), merge newest-wins —
    /// memtable snapshot first (collected oldest first, so a key keeps
    /// its newest version), then tables in priority order
    /// (`or_insert` keeps the freshest version) — drop tombstones,
    /// truncate.
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
        for c in cands {
            let block = self.blocks[self.slot_of[c] as usize]
                .as_ref()
                .expect("round 1 reads every scan block");
            for (key, entry) in decode_block(block.as_deref().map_err(Clone::clone)?)? {
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
    /// when staging already answered it).
    pub(crate) fn complete_one(&self, mut lookup: Lookup, cands: &[Cand]) -> Result<Option<Value>> {
        self.complete(cands, vec![&mut lookup], &[]);
        lookup.answer()
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
        let mut slots: Vec<Slot> = match admitted {
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
        let mut lookups = Vec::new();
        let mut scans = Vec::new();
        for slot in &mut slots {
            match slot {
                Slot::Done(_) => {}
                Slot::Get(l) => lookups.push(l),
                Slot::MultiGet(ls) => lookups.extend(ls),
                Slot::Scan(scan) => scans.push(scan.cands.clone()),
            }
        }
        let fetched = self.complete(&cands, lookups, &scans);
        let merge_t0 = tb_obs::start();
        let outcomes = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(r) => r,
                Slot::Get(l) => l.answer().map(OpOutcome::Value),
                Slot::MultiGet(ls) => ls
                    .into_iter()
                    .map(Lookup::answer)
                    .collect::<Result<Vec<_>>>()
                    .map(OpOutcome::Values),
                Slot::Scan(scan) => fetched.scan(scan).map(OpOutcome::Range),
            })
            .collect();
        tb_obs::histo!("lsm_batch_merge_ns").record_since(merge_t0);
        outcomes
    }

    /// The completion pass — the one place SSTable blocks are read
    /// outside compaction input. It reads in rounds. Round 1 reads
    /// every block of `scans` and each staged lookup's first (newest)
    /// candidate; each later round reads the next candidate of the
    /// lookups no earlier block answered. A block holding the key
    /// answers its lookup, so an older table behind it is never read.
    /// A round reads its blocks in `(table, block)` order, and a block
    /// an earlier round (or another key) already read is reused, so
    /// each distinct block is read at most once per pass. Lookups are
    /// answered in place; the returned blocks serve the scans.
    ///
    /// Every staged candidate is counted once: read, a dedup hit (its
    /// block was read for another reference), or skipped (its lookup
    /// was answered first). A miss in a table with no filter (the
    /// bottom level's) is counted as a bottom miss.
    ///
    /// Fault gates run per round, in that read order (positional
    /// determinism): `batch.complete` aborts a pass that has blocks to
    /// read; per read, `batch.block_read` fails it outright, and a
    /// surviving read then draws its `sst.block_decode` decision — a
    /// hit mangles the frame so the slots reading it fail with the same
    /// `Error::Corruption` a rotted disk would cause.
    fn complete(
        &self,
        cands: &[Cand],
        lookups: Vec<&mut Lookup>,
        scans: &[Range<usize>],
    ) -> Fetched {
        let block_of = |i: u32| {
            let (table, idx) = &cands[i as usize];
            (table.meta.id, *idx)
        };
        // Sorted candidate indices, deduped in place down to one per
        // distinct block: `first[slot]` is a candidate of block `slot`,
        // numbered in `(table, block)` order.
        let mut first: Vec<u32> = (0..cands.len() as u32).collect();
        first.sort_unstable_by_key(|&i| block_of(i));
        let mut slot_of = vec![0u32; cands.len()];
        let mut distinct = 0;
        for r in 0..first.len() {
            let i = first[r];
            if distinct == 0 || block_of(first[distinct - 1]) != block_of(i) {
                first[distinct] = i;
                distinct += 1;
            }
            slot_of[i as usize] = distinct as u32 - 1;
        }
        first.truncate(distinct);
        // Round 1: every scan block, and each staged lookup's newest
        // candidate.
        let mut round: Vec<u32> = scans
            .iter()
            .flat_map(Range::clone)
            .map(|c| slot_of[c])
            .collect();
        let mut lookups: Vec<&mut Lookup> = lookups
            .into_iter()
            .filter(|l| match l {
                Lookup::Staged { next, .. } => {
                    round.push(slot_of[*next]);
                    true
                }
                Lookup::Done(_) => false,
            })
            .collect();
        let mut fetched = Fetched {
            pass: Ok(()),
            slot_of,
            blocks: (0..first.len()).map(|_| None).collect(),
        };
        if cands.is_empty() {
            return fetched;
        }
        // An aborted pass reads nothing, and counts nothing.
        fetched.pass = fault::hit("batch.complete");
        if let Err(e) = &fetched.pass {
            for l in lookups {
                *l = Lookup::Done(Err(e.clone()));
            }
            return fetched;
        }

        let fetch_t0 = tb_obs::start();
        let mut span = tb_obs::tracer().span("lsm.batch.fetch");
        let (mut reached, mut read, mut skipped, mut bottom_misses) = (0u64, 0u64, 0u64, 0u64);
        while !round.is_empty() {
            reached += round.len() as u64;
            round.sort_unstable();
            round.dedup();
            for &slot in &round {
                let block = &mut fetched.blocks[slot as usize];
                if block.is_none() {
                    let (table, idx) = &cands[first[slot as usize] as usize];
                    *block = Some(fault::hit("batch.block_read").and_then(|()| {
                        let corrupt = fault::hit("sst.block_decode").is_err();
                        table.read_block_marked(*idx, corrupt)
                    }));
                    read += 1;
                }
            }
            // The lookups this round's blocks answer are done; the rest
            // go on to their next candidate in the next round.
            round.clear();
            lookups.retain_mut(|l| {
                let Lookup::Staged { key, next, end } = &mut **l else {
                    unreachable!("only staged lookups take part in a round")
                };
                let (table, _) = &cands[*next];
                let block = fetched.blocks[fetched.slot_of[*next] as usize]
                    .as_ref()
                    .expect("this round read it");
                let found = block
                    .as_deref()
                    .map_err(Clone::clone)
                    .and_then(|block| find_in_block(block, key));
                let answer = match found {
                    Ok(Some(entry)) => Ok(entry.as_option().cloned()),
                    Ok(None) => {
                        if !table.has_filter() {
                            bottom_misses += 1;
                        }
                        if *next + 1 < *end {
                            *next += 1;
                            round.push(fetched.slot_of[*next]);
                            return true;
                        }
                        Ok(None)
                    }
                    Err(e) => Err(e),
                };
                skipped += (*end - *next - 1) as u64;
                **l = Lookup::Done(answer);
                false
            });
        }
        if let Some(s) = span.as_mut() {
            s.set_detail(read);
        }
        drop(span);
        tb_obs::histo!("lsm_batch_fetch_ns").record_since(fetch_t0);
        let stats = &self.stats;
        stats.batch_blocks_read.fetch_add(read, Ordering::Relaxed);
        stats
            .batch_block_dedup_hits
            .fetch_add(reached - read, Ordering::Relaxed);
        stats
            .batch_blocks_skipped
            .fetch_add(skipped, Ordering::Relaxed);
        stats
            .bottom_misses
            .fetch_add(bottom_misses, Ordering::Relaxed);
        fetched
    }

    /// Applies one submitted op under the tree's write lock (writes run
    /// now, in submission order; lookups resolve or stage).
    fn submit_op(&self, inner: &mut Inner, op: EngineOp, cands: &mut Vec<Cand>) -> Slot {
        match op {
            EngineOp::Put(key, value) => {
                self.stats.puts.fetch_add(1, Ordering::Relaxed);
                Slot::Done(
                    self.write_locked(inner, key, Some(value))
                        .map(|l| OpOutcome::Done(Lsn(l))),
                )
            }
            EngineOp::Delete(key) => Slot::Done(
                self.write_locked(inner, key, None)
                    .map(|l| OpOutcome::Done(Lsn(l))),
            ),
            // CAS completes its read now (possibly block IO) so later
            // ops in the batch observe its effect — the rare op pays;
            // pure lookups stay staged.
            EngineOp::Cas { key, expected, new } => Slot::Done(
                self.cas_locked(inner, key, expected.as_ref(), Some(new))
                    .map(|l| OpOutcome::Done(Lsn(l))),
            ),
            EngineOp::CasDelete { key, expected } => Slot::Done(
                self.cas_locked(inner, key, expected.as_ref(), None)
                    .map(|l| OpOutcome::Done(Lsn(l))),
            ),
            EngineOp::MultiPut(pairs) => {
                // The op acks with its *last* pair's LSN — the sequence
                // number that covers every pair before it.
                let mut result = Ok(0u64);
                for (k, v) in pairs {
                    self.stats.puts.fetch_add(1, Ordering::Relaxed);
                    result = self.write_locked(inner, k, Some(v));
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
    /// arena, newest table first) against the current level state.
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
            return Lookup::Done(Ok(entry.as_option().cloned()));
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
            Lookup::Done(Ok(None))
        } else {
            Lookup::Staged {
                key,
                next: start,
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

#[cfg(test)]
mod tests {
    use crate::db::{LsmConfig, LsmDb};
    use std::sync::atomic::{AtomicU64, Ordering};
    use tb_common::{EngineOp, Key, KvEngine, Value};

    fn k(i: usize) -> Key {
        Key::from(format!("key-{i:06}"))
    }

    fn v(i: usize, tag: &str) -> Value {
        Value::from(format!("value-{tag}-{i}-{}", "p".repeat(i % 37)))
    }

    fn count(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    #[test]
    fn a_lookup_stops_at_the_newest_table_that_answers() {
        // Even keys 0..400 compacted into one bottom-level L1 table
        // (which carries the pass-through filter), then one L0 table
        // over keys 100..=101 above it.
        let dir = tb_common::test_dir("tb-lsm-newest-first");
        let mut config = LsmConfig::new(dir.path());
        config.memtable_bytes = 4 << 10;
        config.l0_compaction_trigger = 0;
        {
            let db = LsmDb::open(config.clone()).unwrap();
            for i in (0..400).step_by(2) {
                db.put(k(i), v(i, "old")).unwrap();
            }
            db.flush().unwrap();
        }
        config.l0_compaction_trigger = 4;
        let db = LsmDb::open(config).unwrap();
        db.put(k(100), v(100, "new")).unwrap();
        db.put(k(101), v(101, "new")).unwrap();
        db.flush().unwrap();
        assert_eq!(db.level_table_counts(), [1, 1, 0, 0, 0]);

        // Each lookup reads one block: the first two stage both tables
        // and stop at L0's; the third is outside L0's range and pays
        // the bottom level's missing filter with one read.
        let cases = [
            ("a key in L0 and L1", k(100), Some(v(100, "new")), 1, 0),
            (
                "a key only in L0, inside L1's range",
                k(101),
                Some(v(101, "new")),
                1,
                0,
            ),
            ("an absent key inside L1's range", k(301), None, 0, 1),
        ];
        let stats = &db.stats;
        for (what, key, want, skipped, misses) in cases {
            let before = [
                count(&stats.batch_blocks_read),
                count(&stats.batch_blocks_skipped),
                count(&stats.bottom_misses),
            ];
            assert_eq!(db.get(&key).unwrap(), want, "{what}");
            let after = [
                count(&stats.batch_blocks_read),
                count(&stats.batch_blocks_skipped),
                count(&stats.bottom_misses),
            ];
            assert_eq!(
                [
                    after[0] - before[0],
                    after[1] - before[1],
                    after[2] - before[2]
                ],
                [1, skipped, misses],
                "{what}: blocks read, skipped, bottom misses"
            );
        }
        // A CAS reads through the same rounds.
        let read = count(&stats.batch_blocks_read);
        db.cas(k(100), Some(&v(100, "new")), v(100, "cas")).unwrap();
        assert_eq!(count(&stats.batch_blocks_read) - read, 1, "CAS read");
        assert_eq!(db.get(&k(100)).unwrap(), Some(v(100, "cas")));
    }

    #[test]
    fn every_staged_candidate_is_read_deduped_or_skipped() {
        // Three overlapping generations pushed down through L1 and L2,
        // so most keys have a candidate in more than one level. Keys
        // divisible by 3 are never written: absent inside the range.
        let dir = tb_common::test_dir("tb-lsm-cand-accounting");
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        for (tag, range) in [("a", 0..1500), ("b", 300..1200), ("c", 600..900)] {
            for i in range.filter(|i| i % 3 != 0) {
                db.put(k(i), v(i, tag)).unwrap();
            }
            db.flush().unwrap();
        }
        let levels = db.level_table_counts();
        assert!(levels[2] > 0, "{levels:?}");

        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let stats = &db.stats;
        let counters = || {
            count(&stats.batch_blocks_read)
                + count(&stats.batch_block_dedup_hits)
                + count(&stats.batch_blocks_skipped)
        };
        let skipped = count(&stats.batch_blocks_skipped);
        for batch in 0..300 {
            let ops: Vec<EngineOp> = (0..1 + next(8))
                .map(|_| match next(4) {
                    0 | 1 => EngineOp::Get(k(next(1600))),
                    2 => EngineOp::MultiGet((0..1 + next(6)).map(|_| k(next(1600))).collect()),
                    _ => {
                        let start = next(1600);
                        EngineOp::Scan {
                            start: k(start),
                            end: Some(k(start + next(60))),
                            limit: usize::MAX,
                        }
                    }
                })
                .collect();
            // Stage the same ops apart from the batch to count its
            // candidates; the tree does not change in between.
            let staged = {
                let inner = db.tree.inner.read();
                let mut cands = Vec::new();
                for op in ops.clone() {
                    db.tree.stage_read(&inner, op, &mut cands);
                }
                cands.len() as u64
            };
            let before = counters();
            let outcomes = db.apply_batch(ops);
            assert!(outcomes.iter().all(|r| r.is_ok()), "batch {batch}");
            assert_eq!(
                counters() - before,
                staged,
                "batch {batch}: read + dedup + skipped != staged"
            );
        }
        assert!(
            count(&stats.batch_blocks_skipped) > skipped,
            "no round skipped a block"
        );
    }
}
