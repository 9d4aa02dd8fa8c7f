//! The engine abstraction every storage system in the workspace
//! implements — TierBase itself, the bare LSM tier, the front-end, the
//! cluster and socket clients. One trait lets a single
//! replay/measurement harness drive every configuration in the paper's
//! evaluation.
//!
//! # The LSN / ack contract
//!
//! Engines with a durability log sequence their writes with a monotone
//! [`Lsn`]. The contract, which replication and session guarantees in
//! `tb-cluster` build on:
//!
//! * Every applied write occupies exactly one LSN, assigned in apply
//!   order — LSNs never reorder relative to the engine's write order.
//! * An **acknowledged** write (an `Ok(OpOutcome::Done(lsn))`
//!   completion slot from [`KvEngine::apply_batch`], or `Ok` from one of
//!   the provided `put`/`delete`/`cas`/`multi_put` wrappers, each a
//!   one-op batch) has been applied at its LSN; once
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
/// Each of the trait's provided methods submits one of these; a batch
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
    /// Compare-and-delete: removes the key only when its value equals
    /// `expected` (`None` = key must be absent, which deletes nothing)
    /// → [`OpOutcome::Done`] or `Err(CasMismatch)`.
    CasDelete { key: Key, expected: Option<Value> },
    /// Batched lookups → [`OpOutcome::Values`] aligned with key order.
    MultiGet(Vec<Key>),
    /// Batched writes → [`OpOutcome::Done`].
    MultiPut(Vec<(Key, Value)>),
    /// Ordered range scan → [`OpOutcome::Range`]. Contract (enforced by
    /// the conformance battery): live `(key, value)` pairs with
    /// `start <= key < end` (`end = None` = unbounded above) in
    /// ascending key order, at most `limit` of them. Deleted keys and
    /// expired entries (engines with TTL support) are masked.
    Scan {
        start: Key,
        end: Option<Key>,
        limit: usize,
    },
}

impl EngineOp {
    /// A compare-and-set that writes `new`, or deletes the key when
    /// `new` is `None`: a [`EngineOp::Cas`] or an [`EngineOp::CasDelete`].
    pub fn cas(key: Key, expected: Option<Value>, new: Option<Value>) -> EngineOp {
        match new {
            Some(new) => EngineOp::Cas { key, expected, new },
            None => EngineOp::CasDelete { key, expected },
        }
    }
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
    /// A write (`Put`/`Delete`/`Cas`/`CasDelete`/`MultiPut`) applied,
    /// carrying the [`Lsn`] the engine assigned it ([`Lsn::NONE`] for
    /// engines without a durability log; for a `MultiPut`, the LSN of
    /// its last pair — the one that covers the whole op).
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
///
/// [`KvEngine::apply_batch`] is the one data method an engine writes.
/// `get`, `put`, `delete`, `cas`, `multi_get`, `multi_put` and `scan`
/// are provided: each submits exactly one one-op batch and unwraps the
/// matching [`OpOutcome`] (an outcome of another variant is
/// [`Error::Internal`](crate::Error::Internal)).
pub trait KvEngine: Send + Sync {
    /// Submits a heterogeneous op batch and returns one completion per
    /// op, aligned with submission order (`results[i]` answers
    /// `ops[i]`). Ops apply in submission order; per-op failures are
    /// per-slot `Err`s and the rest of the batch still applies —
    /// submission/completion semantics, not a transaction. A `Cas` is
    /// atomic against every other write, and a `Scan` follows the
    /// contract on [`EngineOp::Scan`].
    ///
    /// Engines with per-op storage latency make one overlapped storage
    /// pass per batch (`tb-lsm` stages and dedups SSTable block reads;
    /// remote tiers spend one round-trip); the rest apply op by op.
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>>;

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

    /// Point lookup: one [`EngineOp::Get`].
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        let op = EngineOp::Get(key.clone());
        one(self, "get", op, |outcome| match outcome {
            OpOutcome::Value(value) => Ok(value),
            other => Err(other),
        })
    }

    /// Insert or overwrite: one [`EngineOp::Put`].
    fn put(&self, key: Key, value: Value) -> Result<()> {
        one(self, "put", EngineOp::Put(key, value), done)
    }

    /// Delete (absent keys are not an error): one [`EngineOp::Delete`].
    fn delete(&self, key: &Key) -> Result<()> {
        one(self, "delete", EngineOp::Delete(key.clone()), done)
    }

    /// Compare-and-set: writes `new` only when the current value equals
    /// `expected` (`None` = key must be absent), else `CasMismatch`.
    /// One [`EngineOp::Cas`].
    fn cas(&self, key: Key, expected: Option<&Value>, new: Value) -> Result<()> {
        let expected = expected.cloned();
        one(self, "cas", EngineOp::Cas { key, expected, new }, done)
    }

    /// Batched point lookups; `result[i]` answers `keys[i]`. One
    /// [`EngineOp::MultiGet`].
    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        let op = EngineOp::MultiGet(keys.to_vec());
        one(self, "multi_get", op, |outcome| match outcome {
            OpOutcome::Values(values) => Ok(values),
            other => Err(other),
        })
    }

    /// Batched writes: one [`EngineOp::MultiPut`].
    fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<()> {
        one(self, "multi_put", EngineOp::MultiPut(pairs), done)
    }

    /// Ordered range scan: one [`EngineOp::Scan`] (see its contract).
    fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        let op = EngineOp::Scan {
            start: start.clone(),
            end: end.cloned(),
            limit,
        };
        one(self, "scan", op, |outcome| match outcome {
            OpOutcome::Range(rows) => Ok(rows),
            other => Err(other),
        })
    }
}

/// Submits one write op (`Put`, `Delete`, `Cas`, `CasDelete` or
/// `MultiPut`) as a one-op batch: `Ok` once it applied.
pub fn apply_write<E: KvEngine + ?Sized>(engine: &E, op: EngineOp) -> Result<()> {
    one(engine, "write", op, done)
}

/// Submits `op` as a one-op batch and unwraps its completion with
/// `extract`, which hands back an outcome of the wrong variant.
fn one<E: KvEngine + ?Sized, T>(
    engine: &E,
    what: &str,
    op: EngineOp,
    extract: impl FnOnce(OpOutcome) -> std::result::Result<T, OpOutcome>,
) -> Result<T> {
    let outcomes = engine.apply_batch(vec![op]);
    let n = outcomes.len();
    let [outcome] = <[_; 1]>::try_from(outcomes)
        .map_err(|_| crate::Error::Internal(format!("{what} batch resolved to {n} outcomes")))?;
    extract(outcome?)
        .map_err(|other| crate::Error::Internal(format!("{what} batch resolved to {other:?}")))
}

fn done(outcome: OpOutcome) -> std::result::Result<(), OpOutcome> {
    match outcome {
        OpOutcome::Done(_) => Ok(()),
        other => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MapEngine;
    use parking_lot::Mutex;

    /// Records every `apply_batch` call; answers with `reply` in every
    /// slot when set, else through a [`MapEngine`].
    #[derive(Default)]
    struct Recorder {
        calls: Mutex<Vec<Vec<EngineOp>>>,
        reply: Mutex<Option<Result<OpOutcome>>>,
        map: MapEngine,
    }

    impl KvEngine for Recorder {
        fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
            self.calls.lock().push(ops.clone());
            match self.reply.lock().clone() {
                Some(reply) => vec![reply; ops.len()],
                None => self.map.apply_batch(ops),
            }
        }
        fn resident_bytes(&self) -> u64 {
            0
        }
        fn label(&self) -> String {
            "recorder".into()
        }
    }

    /// Calls each of the seven provided methods once, in a fixed order.
    fn call_provided(e: &dyn KvEngine) -> Vec<Result<()>> {
        let (k, v) = (Key::from("k"), Value::from("v"));
        vec![
            e.get(&k).map(drop),
            e.put(k.clone(), v.clone()),
            e.delete(&k),
            e.cas(k.clone(), None, v.clone()),
            e.multi_get(std::slice::from_ref(&k)).map(drop),
            e.multi_put(vec![(k.clone(), v)]),
            e.scan(&k, None, 1).map(drop),
        ]
    }

    #[test]
    fn provided_methods_are_one_op_batches() {
        let e = Recorder::default();
        let (k, v) = (Key::from("k"), Value::from("v"));
        assert!(call_provided(&e).iter().all(Result::is_ok));
        let expected = vec![
            vec![EngineOp::Get(k.clone())],
            vec![EngineOp::Put(k.clone(), v.clone())],
            vec![EngineOp::Delete(k.clone())],
            vec![EngineOp::Cas {
                key: k.clone(),
                expected: None,
                new: v.clone(),
            }],
            vec![EngineOp::MultiGet(vec![k.clone()])],
            vec![EngineOp::MultiPut(vec![(k.clone(), v)])],
            vec![EngineOp::Scan {
                start: k,
                end: None,
                limit: 1,
            }],
        ];
        assert_eq!(*e.calls.lock(), expected, "one call, one op, per method");

        // An `Err` slot comes back unchanged.
        let err = crate::Error::Io("scripted".into());
        *e.reply.lock() = Some(Err(err.clone()));
        assert!(call_provided(&e).into_iter().all(|r| r == Err(err.clone())));

        // An outcome of the wrong variant is `Internal`: `Range` is wrong
        // for all but `scan`, `Value` for `scan`.
        let internal = |r: &Result<()>| matches!(r, Err(crate::Error::Internal(_)));
        *e.reply.lock() = Some(Ok(OpOutcome::Range(Vec::new())));
        let results = call_provided(&e);
        assert!(results[..6].iter().all(internal), "{results:?}");
        assert_eq!(results[6], Ok(()));
        *e.reply.lock() = Some(Ok(OpOutcome::Value(None)));
        assert!(internal(&call_provided(&e)[6]));
    }

    #[test]
    fn cas_success_and_mismatch() {
        let e = MapEngine::default();
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
    fn apply_batch_applies_in_submission_order() {
        let e = MapEngine::default();
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
    fn scan_in_batch_sees_earlier_writes_and_respects_bounds() {
        let e = MapEngine::default();
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
        let e = MapEngine::default();
        e.put(Key::from("k"), Value::from("v")).unwrap();
        assert_eq!(e.applied_lsn(), Lsn::NONE);
    }

    #[test]
    fn batch_read_stats_default_to_zero() {
        let e = MapEngine::default();
        assert_eq!(e.batch_read_stats(), BatchReadStats::default());
    }

    #[test]
    fn resident_bytes_tracks_content() {
        let e = MapEngine::default();
        assert_eq!(e.resident_bytes(), 0);
        e.put(Key::from("ab"), Value::from("cdef")).unwrap();
        assert_eq!(e.resident_bytes(), 6);
        e.delete(&Key::from("ab")).unwrap();
        assert_eq!(e.resident_bytes(), 0);
    }
}
