//! Merging logic for flush and leveled compaction.
//!
//! Inputs are ordered **newest first**; the first occurrence of a key
//! wins. Tombstones survive the merge unless the output lands in the
//! bottom level (nothing older can exist below it), where they are
//! dropped for good.

use crate::memtable::Entry;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use tb_common::Key;

/// The next unmerged entry of one run. Ordered by `(key, run)` alone,
/// so among equal keys the newest run's entry pops first.
struct Head {
    key: Key,
    run: usize,
    entry: Entry,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        (&self.key, self.run).cmp(&(&other.key, other.run))
    }
}

/// Merges entry runs (newest first; each sorted with unique keys) into
/// one sorted, deduplicated run: a k-way merge over a min-heap of run
/// heads, O(n log k), moving entries instead of re-sorting them.
pub fn merge_runs(inputs: Vec<Vec<(Key, Entry)>>, drop_tombstones: bool) -> Vec<(Key, Entry)> {
    let total = inputs.iter().map(Vec::len).sum();
    let mut runs: Vec<_> = inputs.into_iter().map(Vec::into_iter).collect();
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (run, entries) in runs.iter_mut().enumerate() {
        if let Some((key, entry)) = entries.next() {
            heap.push(Reverse(Head { key, run, entry }));
        }
    }
    let mut out: Vec<(Key, Entry)> = Vec::with_capacity(total);
    let mut last: Option<Key> = None;
    while let Some(Reverse(Head { key, run, entry })) = heap.pop() {
        if let Some((next_key, next_entry)) = runs[run].next() {
            heap.push(Reverse(Head {
                key: next_key,
                run,
                entry: next_entry,
            }));
        }
        // First (newest) wins; later pops of the same key are older.
        if last.as_ref() == Some(&key) {
            continue;
        }
        last = Some(key.clone());
        if !(drop_tombstones && entry == Entry::Tombstone) {
            out.push((key, entry));
        }
    }
    out
}

/// Size of one level in bytes given per-table file sizes.
pub fn level_bytes(file_sizes: &[u64]) -> u64 {
    file_sizes.iter().sum()
}

/// Max bytes allowed in level `n` (1-based beyond L0) with the classic
/// 10× fanout.
pub fn level_limit(level: usize, base_bytes: u64) -> u64 {
    base_bytes * 10u64.pow(level.saturating_sub(1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tb_common::Value;

    /// The merge as it was before the heap: every entry into a map,
    /// first (newest) insert wins. The reference the heap is pinned to.
    fn merge_runs_btree(
        inputs: Vec<Vec<(Key, Entry)>>,
        drop_tombstones: bool,
    ) -> Vec<(Key, Entry)> {
        let mut merged: BTreeMap<Key, Entry> = BTreeMap::new();
        for run in inputs {
            for (k, e) in run {
                merged.entry(k).or_insert(e);
            }
        }
        merged
            .into_iter()
            .filter(|(_, e)| !(drop_tombstones && *e == Entry::Tombstone))
            .collect()
    }

    fn put(k: &str, v: &str) -> (Key, Entry) {
        (Key::from(k), Entry::Put(Value::from(v)))
    }

    fn del(k: &str) -> (Key, Entry) {
        (Key::from(k), Entry::Tombstone)
    }

    #[test]
    fn newest_version_wins() {
        let newest = vec![put("a", "new")];
        let oldest = vec![put("a", "old"), put("b", "keep")];
        let out = merge_runs(vec![newest, oldest], false);
        assert_eq!(out, vec![put("a", "new"), put("b", "keep")]);
    }

    #[test]
    fn tombstone_shadows_older_put() {
        let newest = vec![del("a")];
        let oldest = vec![put("a", "old")];
        let kept = merge_runs(vec![newest.clone(), oldest.clone()], false);
        assert_eq!(kept, vec![del("a")]);
        let dropped = merge_runs(vec![newest, oldest], true);
        assert!(dropped.is_empty());
    }

    #[test]
    fn older_tombstone_does_not_hide_newer_put() {
        let newest = vec![put("a", "resurrected")];
        let oldest = vec![del("a")];
        let out = merge_runs(vec![newest, oldest], true);
        assert_eq!(out, vec![put("a", "resurrected")]);
    }

    #[test]
    fn output_is_sorted() {
        let r1 = vec![put("m", "1"), put("z", "1")];
        let r2 = vec![put("a", "2"), put("q", "2")];
        let out = merge_runs(vec![r1, r2], false);
        let keys: Vec<&Key> = out.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn three_way_merge_respects_order() {
        let l0_new = vec![put("k", "v3")];
        let l0_old = vec![put("k", "v2")];
        let l1 = vec![put("k", "v1")];
        let out = merge_runs(vec![l0_new, l0_old, l1], false);
        assert_eq!(out, vec![put("k", "v3")]);
    }

    #[test]
    fn level_limits_fan_out() {
        assert_eq!(level_limit(1, 1000), 1000);
        assert_eq!(level_limit(2, 1000), 10_000);
        assert_eq!(level_limit(3, 1000), 100_000);
    }

    proptest::proptest! {
        /// Any runs of any sizes, overlapping or not, with tombstones:
        /// the heap merge returns exactly what the map merge does.
        #[test]
        fn heap_merge_matches_btree_merge(
            runs in proptest::collection::vec(
                proptest::collection::vec(
                    (0u16..300, proptest::option::of(0u8..4)),
                    0..60,
                ),
                0..6,
            ),
            drop_tombstones in proptest::prelude::any::<bool>(),
        ) {
            // Each run sorted with unique keys, as a table scan yields.
            let runs: Vec<Vec<(Key, Entry)>> = runs
                .into_iter()
                .map(|run| {
                    run.into_iter()
                        .map(|(k, v)| {
                            let entry = match v {
                                Some(v) => Entry::Put(Value::from(format!("v{v}"))),
                                None => Entry::Tombstone,
                            };
                            (Key::from(format!("k{k:05}")), entry)
                        })
                        .collect::<BTreeMap<_, _>>()
                        .into_iter()
                        .collect()
                })
                .collect();
            proptest::prop_assert_eq!(
                merge_runs(runs.clone(), drop_tombstones),
                merge_runs_btree(runs, drop_tombstones)
            );
        }
    }
}
