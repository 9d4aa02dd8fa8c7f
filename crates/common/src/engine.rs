//! The engine abstraction every storage system in the workspace
//! implements — TierBase itself, the baseline comparators, and the bare
//! cache/LSM tiers. One trait lets a single replay/measurement harness
//! drive every system in the paper's evaluation.
//!
//! # The LSN / ack contract
//!
//! Engines with a durability log sequence their writes with a monotone
//! [`Lsn`]. The contract, which replication and session guarantees in
//! `tb-cluster` build on:
//!
//! * Every applied write occupies exactly one LSN, assigned in apply
//!   order — LSNs never reorder relative to the engine's write order.
//! * An **acknowledged** write (`Ok` from `put`/`delete`/`cas`/
//!   `multi_put`, or an `Ok(OpOutcome::Done(lsn))` completion slot from
//!   [`KvEngine::apply_batch`]) has been applied at its LSN; once
//!   [`KvEngine::applied_lsn`] reports at least that LSN, the write and
//!   every write sequenced before it are readable.
//! * An **errored** write is *indeterminate*: it may or may not have
//!   applied (a replica-side or post-apply failure does not un-apply the
//!   primary's write), and callers must not assume either state. What
//!   an error does guarantee is that the write was never *reported*
//!   covered: it is not at-or-below any watermark the caller was handed.
//! * Engines without a durability log (pure caches, test maps) report
//!   [`Lsn::NONE`] everywhere; the contract degenerates to plain acks.

use crate::{Key, Result, Value};

/// Log sequence number of an applied write.
///
/// `Lsn(0)` ([`Lsn::NONE`]) is reserved for "no sequence": engines
/// without a durability log, and the state of a log before its first
/// write. Real sequences start at 1 and increase by exactly one per
/// applied write, so `a <= b` means *a is covered whenever b is*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The "no sequence" token (see the type docs).
    pub const NONE: Lsn = Lsn(0);

    /// True for [`Lsn::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The next sequence number.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One operation in a submitted batch ([`KvEngine::apply_batch`]).
///
/// The variants mirror the point/batch methods of the trait; a batch
/// mixes them freely (an io_uring-style submission queue entry). Ops
/// apply in submission order: a `Get` sees every write that precedes
/// it in the same batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOp {
    /// Point lookup → [`OpOutcome::Value`].
    Get(Key),
    /// Insert or overwrite → [`OpOutcome::Done`].
    Put(Key, Value),
    /// Delete (absent keys are not an error) → [`OpOutcome::Done`].
    Delete(Key),
    /// Compare-and-set → [`OpOutcome::Done`] or `Err(CasMismatch)`.
    Cas {
        key: Key,
        expected: Option<Value>,
        new: Value,
    },
    /// Batched lookups → [`OpOutcome::Values`] aligned with key order.
    MultiGet(Vec<Key>),
    /// Batched writes → [`OpOutcome::Done`].
    MultiPut(Vec<(Key, Value)>),
    /// Ordered range scan → [`OpOutcome::Range`]. See [`KvEngine::scan`]
    /// for the contract (`end` exclusive, `None` = unbounded; at most
    /// `limit` live entries).
    Scan {
        start: Key,
        end: Option<Key>,
        limit: usize,
    },
}

/// Completion of one [`EngineOp`]; `results[i]` answers `ops[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A `Get` resolved.
    Value(Option<Value>),
    /// A `MultiGet` resolved, aligned with the request's key order.
    Values(Vec<Option<Value>>),
    /// A `Scan` resolved: live `(key, value)` pairs in ascending key
    /// order, truncated to the scan's `limit`.
    Range(Vec<(Key, Value)>),
    /// A write (`Put`/`Delete`/`Cas`/`MultiPut`) applied, carrying the
    /// [`Lsn`] the engine assigned it ([`Lsn::NONE`] for engines
    /// without a durability log; for a `MultiPut`, the LSN of its last
    /// pair — the one that covers the whole op).
    Done(Lsn),
}

/// Read-amplification counters of an engine's batched read path.
/// Engines without a native batch path report zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReadStats {
    /// Storage blocks fetched by batched reads.
    pub blocks_read: u64,
    /// Staged block references that were satisfied by a block another
    /// key in the same batch already fetched (the dedup win).
    pub block_dedup_hits: u64,
    /// Batched lookups resolved from the in-memory write buffer without
    /// staging any storage read.
    pub memtable_hits: u64,
    /// Storage blocks staged on behalf of range scans (pre-dedup: a
    /// block shared with a point lookup in the same batch counts here
    /// *and* toward `block_dedup_hits`). Zero for engines without a
    /// native scan path.
    pub scan_blocks_read: u64,
    /// Range-scan ops served (batched or point `scan` calls).
    pub scans: u64,
    /// Data blocks written with a compressed frame payload (flush and
    /// compaction; blocks that didn't shrink fall back to stored
    /// frames). Zero for engines without block compression.
    pub blocks_compressed: u64,
    /// On-disk data-region bytes written (frames + codec dictionaries).
    pub compressed_bytes_written: u64,
    /// Raw block bytes before framing — against
    /// `compressed_bytes_written`, the store's real compression ratio.
    pub uncompressed_bytes_written: u64,
    /// Block frames whose payload was decompressed on a read (stored
    /// frames and legacy raw blocks don't count).
    pub blocks_decompressed: u64,
    /// Block frames that failed CRC or decode — each surfaced as a
    /// per-slot corruption error, never a torn batch.
    pub block_decode_errors: u64,
}

/// A key-value engine under test.
pub trait KvEngine: Send + Sync {
    /// Point lookup.
    fn get(&self, key: &Key) -> Result<Option<Value>>;

    /// Insert or overwrite.
    fn put(&self, key: Key, value: Value) -> Result<()>;

    /// Delete (absent keys are not an error).
    fn delete(&self, key: &Key) -> Result<()>;

    /// Bytes of the *expensive* resource this engine consumes for data at
    /// rest — memory for caching systems, memory + amortized disk for
    /// persistent ones. Drives `MaxSpace` measurement in the cost model.
    fn resident_bytes(&self) -> u64;

    /// Engine label used in reports ("tierbase-s", "redis-like", ...).
    fn label(&self) -> String;

    /// Forces any buffered state down to its durable tier (WAL fsync,
    /// write-back dirty flush, ...). Default: nothing buffered.
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Batched point lookups; `result[i]` answers `keys[i]`. The default
    /// routes through [`KvEngine::apply_batch`] — one canonical batch
    /// path — so an engine with a native batch implementation (staged
    /// block reads, one remote round-trip) serves `multi_get` through it
    /// automatically.
    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        match self
            .apply_batch(vec![EngineOp::MultiGet(keys.to_vec())])
            .pop()
        {
            Some(Ok(OpOutcome::Values(values))) => Ok(values),
            Some(Err(e)) => Err(e),
            other => Err(crate::Error::Internal(format!(
                "multi_get batch resolved to {other:?}"
            ))),
        }
    }

    /// Batched writes. Default: one [`KvEngine::apply_batch`]
    /// submission, same canonical path as `multi_get`.
    fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<()> {
        match self.apply_batch(vec![EngineOp::MultiPut(pairs)]).pop() {
            Some(Ok(OpOutcome::Done(_))) => Ok(()),
            Some(Err(e)) => Err(e),
            other => Err(crate::Error::Internal(format!(
                "multi_put batch resolved to {other:?}"
            ))),
        }
    }

    /// Ordered range scan. Contract (enforced by the conformance
    /// battery): returns live `(key, value)` pairs with
    /// `start <= key < end` (`end = None` = unbounded above) in
    /// ascending key order, at most `limit` of them. Deleted keys
    /// (tombstones) and expired entries (engines with TTL support) are
    /// masked, never returned.
    ///
    /// The default routes through [`KvEngine::apply_batch`] with one
    /// [`EngineOp::Scan`], so a scan is one op in the engine's canonical
    /// batch path. NOTE: an engine must natively handle at least one of
    /// the pair {`scan`, `apply_batch`'s `Scan` arm} — the two defaults
    /// lower onto each other, so overriding neither recurses.
    fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        let op = EngineOp::Scan {
            start: start.clone(),
            end: end.cloned(),
            limit,
        };
        match self.apply_batch(vec![op]).pop() {
            Some(Ok(OpOutcome::Range(entries))) => Ok(entries),
            Some(Err(e)) => Err(e),
            other => Err(crate::Error::Internal(format!(
                "scan batch resolved to {other:?}"
            ))),
        }
    }

    /// Submits a heterogeneous op batch and returns one completion per
    /// op, aligned with submission order (`results[i]` answers
    /// `ops[i]`). Per-op failures are per-slot `Err`s; the rest of the
    /// batch still applies — submission/completion semantics, not a
    /// transaction.
    ///
    /// The default lowers each op onto the point methods in order
    /// (`MultiGet`/`MultiPut` become inline point loops rather than
    /// `self.multi_get`/`self.multi_put` calls, because those methods
    /// default to routing back through `apply_batch`; `Scan` lowers onto
    /// `self.scan` — see that method's note on the override contract),
    /// so every engine supports the interface; engines with per-op
    /// storage latency override it to make one overlapped storage pass
    /// per batch (`tb-lsm` stages and dedups SSTable block reads;
    /// remote tiers spend one round-trip).
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        ops.into_iter()
            .map(|op| match op {
                EngineOp::Get(key) => self.get(&key).map(OpOutcome::Value),
                // Per-op lowering acks with the engine's applied LSN
                // *after* the write: exact for serialized writers, and
                // always a covering LSN (LSN order = apply order).
                EngineOp::Put(key, value) => self
                    .put(key, value)
                    .map(|_| OpOutcome::Done(self.applied_lsn())),
                EngineOp::Delete(key) => self
                    .delete(&key)
                    .map(|_| OpOutcome::Done(self.applied_lsn())),
                EngineOp::Cas { key, expected, new } => self
                    .cas(key, expected.as_ref(), new)
                    .map(|_| OpOutcome::Done(self.applied_lsn())),
                EngineOp::MultiGet(keys) => keys
                    .iter()
                    .map(|k| self.get(k))
                    .collect::<Result<Vec<_>>>()
                    .map(OpOutcome::Values),
                EngineOp::MultiPut(pairs) => {
                    let mut result = Ok(());
                    for (k, v) in pairs {
                        result = self.put(k, v);
                        if result.is_err() {
                            break;
                        }
                    }
                    result.map(|_| OpOutcome::Done(self.applied_lsn()))
                }
                EngineOp::Scan { start, end, limit } => {
                    self.scan(&start, end.as_ref(), limit).map(OpOutcome::Range)
                }
            })
            .collect()
    }

    /// Counters of the engine's batched read path (zeros when the
    /// engine has no native one). Cumulative over the engine's life.
    fn batch_read_stats(&self) -> BatchReadStats {
        BatchReadStats::default()
    }

    /// [`Lsn`] of the newest write this engine has applied — the head
    /// of its durability log (see the module docs for the full LSN/ack
    /// contract). Monotone non-decreasing over the engine's life.
    /// Default: [`Lsn::NONE`] (no durability log).
    fn applied_lsn(&self) -> Lsn {
        Lsn::NONE
    }

    /// Compare-and-set: writes `new` only when the current value equals
    /// `expected` (`None` = key must be absent). Default implementation
    /// is unsynchronized read-then-write; engines with concurrency
    /// override it with an atomic version.
    fn cas(&self, key: Key, expected: Option<&Value>, new: Value) -> Result<()> {
        let current = self.get(&key)?;
        let matches = match (current.as_ref(), expected) {
            (Some(c), Some(e)) => c == e,
            (None, None) => true,
            _ => false,
        };
        if matches {
            self.put(key, new)
        } else {
            Err(crate::Error::CasMismatch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::BTreeMap;

    struct MapEngine(Mutex<BTreeMap<Key, Value>>);

    impl KvEngine for MapEngine {
        fn get(&self, key: &Key) -> Result<Option<Value>> {
            Ok(self.0.lock().get(key).cloned())
        }
        fn put(&self, key: Key, value: Value) -> Result<()> {
            self.0.lock().insert(key, value);
            Ok(())
        }
        fn delete(&self, key: &Key) -> Result<()> {
            self.0.lock().remove(key);
            Ok(())
        }
        fn resident_bytes(&self) -> u64 {
            self.0
                .lock()
                .iter()
                .map(|(k, v)| (k.len() + v.len()) as u64)
                .sum()
        }
        fn label(&self) -> String {
            "map".into()
        }
        // Native ordered iteration; `apply_batch`'s default Scan arm
        // lowers onto this (the override contract in `KvEngine::scan`).
        fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
            Ok(self
                .0
                .lock()
                .range::<Key, _>((
                    std::ops::Bound::Included(start),
                    end.map_or(std::ops::Bound::Unbounded, std::ops::Bound::Excluded),
                ))
                .take(limit)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect())
        }
    }

    #[test]
    fn default_cas_success_and_mismatch() {
        let e = MapEngine(Mutex::new(BTreeMap::new()));
        let k = Key::from("k");
        // Absent key, expected None → ok.
        e.cas(k.clone(), None, Value::from("v1")).unwrap();
        // Wrong expectation → mismatch.
        let err = e
            .cas(k.clone(), Some(&Value::from("nope")), Value::from("v2"))
            .unwrap_err();
        assert_eq!(err, crate::Error::CasMismatch);
        // Right expectation → ok.
        e.cas(k.clone(), Some(&Value::from("v1")), Value::from("v2"))
            .unwrap();
        assert_eq!(e.get(&k).unwrap(), Some(Value::from("v2")));
    }

    #[test]
    fn default_apply_batch_applies_in_submission_order() {
        let e = MapEngine(Mutex::new(BTreeMap::new()));
        let k = Key::from("seq");
        let outcomes = e.apply_batch(vec![
            EngineOp::Get(k.clone()),
            EngineOp::Put(k.clone(), Value::from("a")),
            EngineOp::Get(k.clone()),
            EngineOp::Cas {
                key: k.clone(),
                expected: Some(Value::from("a")),
                new: Value::from("b"),
            },
            EngineOp::Cas {
                key: k.clone(),
                expected: Some(Value::from("a")),
                new: Value::from("c"),
            },
            EngineOp::MultiGet(vec![k.clone(), Key::from("miss")]),
            EngineOp::Delete(k.clone()),
            EngineOp::Get(k.clone()),
        ]);
        assert_eq!(outcomes.len(), 8);
        assert_eq!(outcomes[0], Ok(OpOutcome::Value(None)));
        assert_eq!(outcomes[1], Ok(OpOutcome::Done(Lsn::NONE)));
        assert_eq!(
            outcomes[2],
            Ok(OpOutcome::Value(Some(Value::from("a")))),
            "a get must see the put submitted before it"
        );
        assert_eq!(outcomes[3], Ok(OpOutcome::Done(Lsn::NONE)));
        // The second CAS ran *after* the first succeeded: mismatch, and
        // the per-op error does not poison the rest of the batch.
        assert_eq!(outcomes[4], Err(crate::Error::CasMismatch));
        assert_eq!(
            outcomes[5],
            Ok(OpOutcome::Values(vec![Some(Value::from("b")), None]))
        );
        assert_eq!(outcomes[6], Ok(OpOutcome::Done(Lsn::NONE)));
        assert_eq!(outcomes[7], Ok(OpOutcome::Value(None)));
    }

    #[test]
    fn default_batch_methods_route_through_apply_batch() {
        let e = MapEngine(Mutex::new(BTreeMap::new()));
        e.multi_put(vec![
            (Key::from("a"), Value::from("1")),
            (Key::from("b"), Value::from("2")),
        ])
        .unwrap();
        assert_eq!(
            e.multi_get(&[Key::from("b"), Key::from("miss"), Key::from("a")])
                .unwrap(),
            vec![Some(Value::from("2")), None, Some(Value::from("1"))]
        );
    }

    #[test]
    fn scan_in_batch_sees_earlier_writes_and_respects_bounds() {
        let e = MapEngine(Mutex::new(BTreeMap::new()));
        for i in 0..6 {
            e.put(Key::from(format!("s{i}")), Value::from(format!("v{i}")))
                .unwrap();
        }
        // A scan submitted after a put and a delete in the same batch
        // observes both; the end bound is exclusive, the limit caps.
        let outcomes = e.apply_batch(vec![
            EngineOp::Put(Key::from("s2"), Value::from("rewritten")),
            EngineOp::Delete(Key::from("s1")),
            EngineOp::Scan {
                start: Key::from("s0"),
                end: Some(Key::from("s4")),
                limit: 10,
            },
            EngineOp::Scan {
                start: Key::from("s0"),
                end: None,
                limit: 2,
            },
        ]);
        assert_eq!(
            outcomes[2],
            Ok(OpOutcome::Range(vec![
                (Key::from("s0"), Value::from("v0")),
                (Key::from("s2"), Value::from("rewritten")),
                (Key::from("s3"), Value::from("v3")),
            ]))
        );
        assert_eq!(
            outcomes[3],
            Ok(OpOutcome::Range(vec![
                (Key::from("s0"), Value::from("v0")),
                (Key::from("s2"), Value::from("rewritten")),
            ]))
        );
        // The point method and the batch path agree.
        assert_eq!(
            e.scan(&Key::from("s3"), None, 100).unwrap(),
            vec![
                (Key::from("s3"), Value::from("v3")),
                (Key::from("s4"), Value::from("v4")),
                (Key::from("s5"), Value::from("v5")),
            ]
        );
    }

    #[test]
    fn lsn_ordering_and_none() {
        assert!(Lsn::NONE.is_none());
        assert!(!Lsn(1).is_none());
        assert_eq!(Lsn::NONE.next(), Lsn(1));
        assert!(Lsn(3) < Lsn(4), "LSNs order by sequence");
        assert_eq!(format!("{}", Lsn(42)), "42");
        // Engines without a log report NONE and never advance.
        let e = MapEngine(Mutex::new(BTreeMap::new()));
        e.put(Key::from("k"), Value::from("v")).unwrap();
        assert_eq!(e.applied_lsn(), Lsn::NONE);
    }

    #[test]
    fn batch_read_stats_default_to_zero() {
        let e = MapEngine(Mutex::new(BTreeMap::new()));
        assert_eq!(e.batch_read_stats(), BatchReadStats::default());
    }

    #[test]
    fn resident_bytes_tracks_content() {
        let e = MapEngine(Mutex::new(BTreeMap::new()));
        assert_eq!(e.resident_bytes(), 0);
        e.put(Key::from("ab"), Value::from("cdef")).unwrap();
        assert_eq!(e.resident_bytes(), 6);
        e.delete(&Key::from("ab")).unwrap();
        assert_eq!(e.resident_bytes(), 0);
    }
}
