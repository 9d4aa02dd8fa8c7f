//! `tb-frontend` — the pipelined, sharded request front-end.
//!
//! Every engine in the workspace is a synchronous [`KvEngine`]; this
//! crate turns one into a *servable system*: the paper's data-node
//! serving model of one event loop per shard (§4.4) with batched
//! storage round-trips (§4.1.2). There are two ways in, both speaking
//! the engine's own [`EngineOp`]/[`OpOutcome`]:
//!
//! * **Tickets** — [`Frontend::submit`]/[`Frontend::try_submit`] queue
//!   one single-shard op (routed by the cluster hash, `slot_for_key`)
//!   and return a [`Ticket`]; a full shard queue is backpressure
//!   (blocking `submit`, or `Error::Backpressure` from `try_submit`).
//!   Each shard's one worker drains batches, coalesces adjacent writes
//!   into one `MultiPut`, and group-commits one `sync()` per dirty
//!   batch.
//! * **Bursts** — every synchronous `KvEngine` call on the [`Frontend`]
//!   is one: `apply_batch` (which is what a decoded `tb-server`
//!   pipeline burst becomes), and `get`/`put`/… as one-op bursts. A
//!   burst is split into one sub-batch per shard (one of them run by
//!   the submitting thread when its shard is idle), awaited on one
//!   completion latch, and made durable by one `sync()` for all of its
//!   writes.
//!
//! So engine code runs concurrently on at most one worker per shard
//! plus the burst submitters running inline.
//!
//! ```
//! use tb_common::testutil::MapEngine;
//! use tb_common::{EngineOp, Key, KvEngine, Value};
//! use tb_frontend::{Frontend, FrontendConfig};
//!
//! let fe = Frontend::start(MapEngine::shared(), FrontendConfig::default());
//! // Pipelined: submit many ops, await their tickets later.
//! let tickets: Vec<_> = (0..100)
//!     .map(|i| fe.submit(EngineOp::Put(Key::from(format!("k{i}")), Value::from("v"))))
//!     .collect();
//! for t in tickets {
//!     t.wait().unwrap();
//! }
//! // Synchronous: a one-op burst.
//! assert_eq!(fe.get(&Key::from("k7")).unwrap(), Some(Value::from("v")));
//! fe.shutdown();
//! ```
//!
//! [`KvEngine`]: tb_common::KvEngine
//! [`EngineOp`]: tb_common::EngineOp
//! [`OpOutcome`]: tb_common::OpOutcome

mod burst;
mod frontend;
mod queue;
mod stats;
mod ticket;

pub use frontend::{Frontend, FrontendConfig};
pub use stats::{FrontendStats, FrontendStatsSnapshot};
pub use ticket::Ticket;

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;
    use tb_common::testutil::MapEngine;
    use tb_common::{EngineOp, Error, Key, KvEngine, OpOutcome, Result, Value};

    /// Map engine that counts engine-level calls, can inject
    /// per-operation latency (to saturate queues deterministically),
    /// can panic on a chosen key (to test panic containment), parks
    /// `Get("block:gate")` until released (to pin whoever executes it),
    /// can fail `sync()`, and logs every put in apply order together
    /// with the thread each `apply_batch` ran on.
    #[derive(Default)]
    struct ProbeEngine {
        map: MapEngine,
        /// Pairs written by `Put`/`MultiPut` ops, and those ops.
        puts: AtomicU64,
        multi_puts: AtomicU64,
        apply_batches: AtomicU64,
        syncs: AtomicU64,
        op_delay: Option<Duration>,
        panic_on: Option<Key>,
        fail_sync: AtomicBool,
        gate_open: Mutex<bool>,
        gate_cv: parking_lot::Condvar,
        /// `Some`: write ops ack increasing LSNs instead of `Lsn::NONE`.
        lsn: Option<AtomicU64>,
        write_log: Mutex<Vec<(Key, Value)>>,
        batch_threads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl ProbeEngine {
        fn shared() -> Arc<Self> {
            Arc::new(Self::default())
        }

        fn slow(delay: Duration) -> Arc<Self> {
            Arc::new(Self {
                op_delay: Some(delay),
                ..Self::default()
            })
        }

        fn release_gate(&self) {
            *self.gate_open.lock() = true;
            self.gate_cv.notify_all();
        }

        /// The probes one op runs before the map applies it.
        fn observe(&self, op: &EngineOp) {
            if let Some(d) = self.op_delay {
                std::thread::sleep(d);
            }
            let pairs = match op {
                EngineOp::Get(key) if *key == gate_key() => {
                    let mut open = self.gate_open.lock();
                    while !*open {
                        self.gate_cv.wait(&mut open);
                    }
                    return;
                }
                EngineOp::Put(k, v) => vec![(k.clone(), v.clone())],
                EngineOp::MultiPut(pairs) => pairs.clone(),
                _ => return,
            };
            if let Some(poison) = &self.panic_on {
                if pairs.iter().any(|(k, _)| k == poison) {
                    panic!("probe engine poisoned by {poison:?}");
                }
            }
            self.multi_puts.fetch_add(1, Ordering::Relaxed);
            self.puts.fetch_add(pairs.len() as u64, Ordering::Relaxed);
            self.write_log.lock().extend(pairs);
        }
    }

    fn gate_key() -> Key {
        Key::from("block:gate")
    }

    impl KvEngine for ProbeEngine {
        fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
            self.apply_batches.fetch_add(1, Ordering::Relaxed);
            self.batch_threads.lock().push(std::thread::current().id());
            ops.into_iter()
                .flat_map(|op| {
                    self.observe(&op);
                    self.map.apply_batch(vec![op])
                })
                .map(|outcome| match (outcome, &self.lsn) {
                    (Ok(OpOutcome::Done(_)), Some(next)) => Ok(OpOutcome::Done(tb_common::Lsn(
                        next.fetch_add(1, Ordering::Relaxed) + 1,
                    ))),
                    (outcome, _) => outcome,
                })
                .collect()
        }
        fn sync(&self) -> Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            if self.fail_sync.load(Ordering::SeqCst) {
                return Err(Error::Io("scripted sync failure".into()));
            }
            Ok(())
        }
        fn resident_bytes(&self) -> u64 {
            self.map.resident_bytes()
        }
        fn label(&self) -> String {
            "probe".into()
        }
    }

    fn k(i: usize) -> Key {
        Key::from(format!("key-{i:05}"))
    }

    fn v(i: usize) -> Value {
        Value::from(format!("val-{i}"))
    }

    #[test]
    fn pipelined_roundtrip_all_request_kinds() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::default());
        for i in 0..200 {
            fe.put(k(i), v(i)).unwrap();
        }
        for i in 0..200 {
            assert_eq!(fe.get(&k(i)).unwrap(), Some(v(i)));
        }
        fe.delete(&k(0)).unwrap();
        assert_eq!(fe.get(&k(0)).unwrap(), None);
        // CAS through the pipeline.
        fe.cas(k(1), Some(&v(1)), Value::from("swapped")).unwrap();
        assert_eq!(fe.get(&k(1)).unwrap(), Some(Value::from("swapped")));
        assert_eq!(
            fe.cas(k(1), Some(&v(999)), Value::from("nope")),
            Err(Error::CasMismatch)
        );
        fe.shutdown();
    }

    #[test]
    fn scan_rides_the_pipelined_batch_path() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(1));
        // Pipelined: interleave writes and scans on one shard so the
        // scan is one op inside a drained batch, ordered after the
        // writes submitted before it.
        let mut tickets = Vec::new();
        for i in 0..50 {
            tickets.push((None, fe.submit(EngineOp::Put(k(i), v(i)))));
        }
        tickets.push((
            Some(50),
            fe.submit(EngineOp::Scan {
                start: k(0),
                end: Some(k(50)),
                limit: usize::MAX,
            }),
        ));
        tickets.push((None, fe.submit(EngineOp::Delete(k(10)))));
        tickets.push((
            Some(49),
            fe.submit(EngineOp::Scan {
                start: k(0),
                end: None,
                limit: usize::MAX,
            }),
        ));
        for (expect, t) in tickets {
            match (expect, t.wait().unwrap()) {
                (Some(n), OpOutcome::Range(rows)) => {
                    assert_eq!(rows.len(), n, "scan saw the writes submitted before it");
                    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "rows key-ordered");
                }
                (None, OpOutcome::Done(_)) => {}
                (e, r) => panic!("unexpected outcome {e:?} {r:?}"),
            }
        }
        // Convenience wrapper + limit truncation.
        let got = fe.scan(&k(20), Some(&k(30)), 3).unwrap();
        assert_eq!(
            got,
            vec![(k(20), v(20)), (k(21), v(21)), (k(22), v(22))],
            "limit truncates in key order"
        );
        // Scans lowered into batches, not per-op engine calls.
        assert!(engine.apply_batches.load(Ordering::Relaxed) > 0);
        fe.shutdown();
    }

    #[test]
    fn multi_ops_split_by_shard_and_reassemble_in_order() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(4));
        let pairs: Vec<(Key, Value)> = (0..64).map(|i| (k(i), v(i))).collect();
        fe.multi_put(pairs).unwrap();
        // Interleave hits and misses to check positional alignment.
        let keys: Vec<Key> = (0..128).map(k).collect();
        let got = fe.multi_get(&keys).unwrap();
        assert_eq!(got.len(), 128);
        for (i, item) in got.iter().enumerate() {
            if i < 64 {
                assert_eq!(item.as_ref(), Some(&v(i)), "key {i} should hit");
            } else {
                assert!(item.is_none(), "key {i} should miss");
            }
        }
        fe.shutdown();
    }

    #[test]
    fn group_commit_syncs_once_per_batch_not_per_write() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(
            engine.clone(),
            FrontendConfig {
                shards: 1,
                ..FrontendConfig::default()
            },
        );
        // Pipelined burst: tickets awaited only at the end, so the
        // single shard worker sees deep batches.
        let tickets: Vec<Ticket> = (0..1000)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let syncs = engine.syncs.load(Ordering::Relaxed);
        let puts = engine.puts.load(Ordering::Relaxed);
        assert_eq!(puts, 1000);
        assert!(
            syncs < 1000 / 2,
            "group commit must amortize syncs: {syncs} syncs for {puts} puts"
        );
        assert!(syncs > 0, "dirty batches must sync");
        assert_eq!(fe.stats().snapshot().group_syncs, syncs);
        fe.shutdown();
    }

    #[test]
    fn adjacent_writes_coalesce_into_multi_put() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(
            engine.clone(),
            FrontendConfig {
                shards: 1,
                ..FrontendConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..500)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let calls = engine.multi_puts.load(Ordering::Relaxed);
        assert_eq!(engine.puts.load(Ordering::Relaxed), 500);
        assert!(
            calls < 500 / 2,
            "coalescing must batch engine round-trips: {calls} multi_puts for 500 puts"
        );
        assert!(fe.stats().snapshot().coalesced_puts > 0);
        fe.shutdown();
    }

    #[test]
    fn reads_are_not_reordered_past_writes_on_one_shard() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(1));
        let key = Key::from("rw-order");
        let mut tickets = Vec::new();
        for round in 0..50 {
            tickets.push((
                None,
                fe.submit(EngineOp::Put(key.clone(), Value::from(format!("{round}")))),
            ));
            tickets.push((Some(round), fe.submit(EngineOp::Get(key.clone()))));
        }
        for (expect, t) in tickets {
            match (expect, t.wait().unwrap()) {
                (Some(round), OpOutcome::Value(got)) => {
                    assert_eq!(got, Some(Value::from(format!("{round}"))));
                }
                (None, OpOutcome::Done(_)) => {}
                (e, r) => panic!("unexpected outcome {e:?} {r:?}"),
            }
        }
        fe.shutdown();
    }

    #[test]
    fn try_submit_sheds_load_when_shard_saturates() {
        let engine = ProbeEngine::slow(Duration::from_millis(20));
        let fe = Frontend::start(
            engine,
            FrontendConfig {
                shards: 1,
                queue_capacity: 8,
                max_batch: 4,
            },
        );
        // Fill the queue faster than the slow engine drains it.
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for i in 0..64 {
            match fe.try_submit(EngineOp::Put(k(i), v(i))) {
                Ok(t) => accepted.push(t),
                Err(e @ Error::Backpressure { .. }) => {
                    // The shed carries a retry-after hint: the refusing
                    // queue's depth, at least the configured capacity.
                    assert!(
                        e.queue_depth() >= Some(8),
                        "backpressure must carry the queue depth, got {e:?}"
                    );
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(rejected > 0, "saturated shard must shed load");
        assert_eq!(fe.stats().snapshot().backpressure_rejections, rejected);
        for t in accepted {
            t.wait().unwrap();
        }
        fe.shutdown();
    }

    #[test]
    fn multi_shard_batches_rejected_on_raw_submit() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(4));
        // Find two keys on different shards.
        let a = k(0);
        let b = (1..)
            .map(k)
            .find(|key| fe.shard_of(key) != fe.shard_of(&a))
            .expect("some key lands on another shard");
        // A ticket is one shard's: a spanning write *or* read is refused
        // by both submit paths.
        for spanning in [
            EngineOp::MultiPut(vec![(a.clone(), v(0)), (b.clone(), v(1))]),
            EngineOp::MultiGet(vec![a.clone(), b.clone()]),
        ] {
            assert!(matches!(
                fe.submit(spanning.clone()).wait(),
                Err(Error::InvalidArgument(_))
            ));
            assert!(matches!(
                fe.try_submit(spanning),
                Err(Error::InvalidArgument(_))
            ));
        }
        // Single-shard ones still work, and the burst path splits
        // spanning ones by shard.
        fe.submit(EngineOp::MultiPut(vec![(a.clone(), v(0))]))
            .wait()
            .unwrap();
        assert_eq!(
            fe.try_submit(EngineOp::MultiGet(vec![a.clone()]))
                .unwrap()
                .wait(),
            Ok(OpOutcome::Values(vec![Some(v(0))]))
        );
        fe.multi_put(vec![(a.clone(), v(2)), (b.clone(), v(3))])
            .unwrap();
        assert_eq!(fe.multi_get(&[a, b]).unwrap(), vec![Some(v(2)), Some(v(3))]);
        fe.shutdown();
    }

    #[test]
    fn drained_batch_lowers_to_one_engine_submission() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(1));
        // Pipelined burst of mixed reads and writes: tickets awaited at
        // the end so the single shard worker drains deep batches.
        let tickets: Vec<Ticket> = (0..600)
            .map(|i| {
                if i % 3 == 0 {
                    fe.submit(EngineOp::Get(k(i)))
                } else {
                    fe.submit(EngineOp::Put(k(i), v(i)))
                }
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let submissions = engine.apply_batches.load(Ordering::Relaxed);
        let batches = fe.stats().snapshot().batches;
        assert_eq!(
            submissions, batches,
            "each drained batch must make exactly one apply_batch call"
        );
        assert!(
            submissions < 600 / 2,
            "pipelined burst should amortize engine submissions: {submissions}"
        );
        fe.shutdown();
    }

    #[test]
    fn frontend_apply_batch_pipelines_and_preserves_order() {
        use tb_common::Lsn;
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(2));
        let key = Key::from("batch-order");
        let outcomes = KvEngine::apply_batch(
            &fe,
            vec![
                EngineOp::Get(key.clone()),
                EngineOp::Put(key.clone(), Value::from("1")),
                EngineOp::Get(key.clone()),
                EngineOp::Cas {
                    key: key.clone(),
                    expected: Some(Value::from("1")),
                    new: Value::from("2"),
                },
                EngineOp::Cas {
                    key: key.clone(),
                    expected: Some(Value::from("1")),
                    new: Value::from("3"),
                },
                EngineOp::MultiGet(vec![key.clone(), Key::from("missing")]),
                EngineOp::Delete(key.clone()),
                EngineOp::Get(key.clone()),
            ],
        );
        assert_eq!(outcomes[0], Ok(OpOutcome::Value(None)));
        assert_eq!(outcomes[1], Ok(OpOutcome::Done(Lsn::NONE)));
        assert_eq!(outcomes[2], Ok(OpOutcome::Value(Some(Value::from("1")))));
        assert_eq!(outcomes[3], Ok(OpOutcome::Done(Lsn::NONE)));
        assert_eq!(outcomes[4], Err(Error::CasMismatch));
        assert_eq!(
            outcomes[5],
            Ok(OpOutcome::Values(vec![Some(Value::from("2")), None]))
        );
        assert_eq!(outcomes[6], Ok(OpOutcome::Done(Lsn::NONE)));
        assert_eq!(outcomes[7], Ok(OpOutcome::Value(None)));
        fe.shutdown();
    }

    /// `n` distinct keys that all route to `shard`.
    fn keys_on(fe: &Frontend, shard: usize, n: usize) -> Vec<Key> {
        (0..)
            .map(k)
            .filter(|key| fe.shard_of(key) == shard)
            .take(n)
            .collect()
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn scan_free_burst_is_one_batch_per_shard_and_one_sync() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(2));
        let (a, b) = (keys_on(&fe, 0, 8), keys_on(&fe, 1, 8));
        // 16 ops interleaving both shards, writes and reads mixed.
        let ops: Vec<EngineOp> = a
            .iter()
            .zip(&b)
            .enumerate()
            .flat_map(|(i, (ka, kb))| {
                if i % 2 == 0 {
                    [
                        EngineOp::Put(ka.clone(), v(i)),
                        EngineOp::Put(kb.clone(), v(i)),
                    ]
                } else {
                    [EngineOp::Get(ka.clone()), EngineOp::Get(kb.clone())]
                }
            })
            .collect();
        let outcomes = KvEngine::apply_batch(&fe, ops);
        assert_eq!(outcomes.len(), 16);
        assert!(outcomes.iter().all(|o| o.is_ok()), "{outcomes:?}");
        assert_eq!(
            engine.apply_batches.load(Ordering::Relaxed),
            2,
            "one sub-batch per shard, none split"
        );
        assert_eq!(
            engine.syncs.load(Ordering::Relaxed),
            1,
            "one sync per burst"
        );
        let snap = fe.stats().snapshot();
        assert_eq!((snap.batches, snap.group_syncs), (2, 1));
        assert_eq!((snap.submitted, snap.completed), (16, 16));
        // The idle front-end ran one of the two on the calling thread.
        let me = std::thread::current().id();
        let inline = engine
            .batch_threads
            .lock()
            .iter()
            .filter(|t| **t == me)
            .count();
        assert_eq!(inline, 1, "exactly one sub-batch runs inline");

        // A read-only burst syncs nothing.
        let reads = a.iter().chain(&b).cloned().map(EngineOp::Get).collect();
        let outcomes = KvEngine::apply_batch(&fe, reads);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Ok(OpOutcome::Value(_)))));
        assert_eq!(engine.syncs.load(Ordering::Relaxed), 1);
        assert_eq!(engine.apply_batches.load(Ordering::Relaxed), 4);
        fe.shutdown();
    }

    #[test]
    fn scan_splits_the_burst_into_runs_and_sees_every_earlier_write() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(2));
        let everything = || EngineOp::Scan {
            start: k(0),
            end: None,
            limit: usize::MAX,
        };
        let (a, b) = (keys_on(&fe, 0, 3), keys_on(&fe, 1, 3));
        let outcomes = KvEngine::apply_batch(
            &fe,
            vec![
                EngineOp::Put(a[0].clone(), v(0)),
                EngineOp::Put(b[0].clone(), v(0)),
                everything(), // sees both shards' writes: 2 rows
                EngineOp::Put(a[1].clone(), v(1)),
                EngineOp::Delete(b[0].clone()),
                EngineOp::Put(b[1].clone(), v(1)),
                everything(), // 3 rows: later ops ran after the first scan
                everything(), // consecutive scans are runs of their own
                EngineOp::Put(b[2].clone(), v(2)),
            ],
        );
        let rows = |o: &Result<OpOutcome>| match o {
            Ok(OpOutcome::Range(rows)) => rows.len(),
            other => panic!("scan resolved to {other:?}"),
        };
        assert_eq!(
            (rows(&outcomes[2]), rows(&outcomes[6]), rows(&outcomes[7])),
            (2, 3, 3)
        );
        assert!(outcomes.iter().all(|o| o.is_ok()), "{outcomes:?}");
        // Runs: [2 shards] [scan] [2 shards] [scan] [scan] [1 shard],
        // yet still a single durability point.
        assert_eq!(engine.apply_batches.load(Ordering::Relaxed), 8);
        assert_eq!(engine.syncs.load(Ordering::Relaxed), 1);
        fe.shutdown();
    }

    #[test]
    fn burst_keeps_same_key_order_and_splits_multi_key_ops_by_shard() {
        use tb_common::Lsn;
        let engine = Arc::new(ProbeEngine {
            lsn: Some(AtomicU64::new(0)),
            ..ProbeEngine::default()
        });
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(2));
        let key = Key::from("same-key");
        let (a, b) = (keys_on(&fe, 0, 2), keys_on(&fe, 1, 2));
        let outcomes = KvEngine::apply_batch(
            &fe,
            vec![
                EngineOp::Put(key.clone(), Value::from("1")),
                EngineOp::Get(key.clone()),
                EngineOp::Put(key.clone(), Value::from("2")),
                EngineOp::Get(key.clone()),
                // Spanning multi-key ops: one part per shard.
                EngineOp::MultiPut(vec![
                    (a[0].clone(), v(0)),
                    (b[0].clone(), v(1)),
                    (a[1].clone(), v(2)),
                ]),
                EngineOp::MultiGet(vec![
                    b[0].clone(),
                    a[1].clone(),
                    b[1].clone(), // never written
                    a[0].clone(),
                ]),
                EngineOp::MultiPut(Vec::new()),
            ],
        );
        assert_eq!(outcomes[1], Ok(OpOutcome::Value(Some(Value::from("1")))));
        assert_eq!(outcomes[3], Ok(OpOutcome::Value(Some(Value::from("2")))));
        assert_eq!(
            outcomes[5],
            Ok(OpOutcome::Values(vec![
                Some(v(1)),
                Some(v(2)),
                None,
                Some(v(0))
            ])),
            "a spanning MultiGet gathers in key order"
        );
        assert_eq!(outcomes[6], Ok(OpOutcome::Done(Lsn::NONE)), "empty write");
        // Per-op LSNs are the engine's: the two puts in order, and the
        // spanning MultiPut acks the larger of its two slices' LSNs —
        // the engine handed out exactly four.
        let lsn = |o: &Result<OpOutcome>| match o {
            Ok(OpOutcome::Done(lsn)) => lsn.0,
            other => panic!("write resolved to {other:?}"),
        };
        assert!(lsn(&outcomes[0]) < lsn(&outcomes[2]));
        let mut acked = vec![lsn(&outcomes[0]), lsn(&outcomes[2]), lsn(&outcomes[4])];
        acked.sort_unstable();
        assert!(acked.windows(2).all(|w| w[0] < w[1]), "{acked:?}");
        assert_eq!(engine.lsn.as_ref().unwrap().load(Ordering::Relaxed), 4);
        assert!(lsn(&outcomes[4]) >= 3, "covering LSN is the max slice LSN");
        assert_eq!(engine.apply_batches.load(Ordering::Relaxed), 2);
        fe.shutdown();
    }

    #[test]
    fn failing_burst_sync_fails_every_write_and_no_read() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(2));
        let seed = Key::from("seed");
        fe.put(seed.clone(), v(0)).unwrap();
        engine.fail_sync.store(true, Ordering::SeqCst);
        let (a, b) = (keys_on(&fe, 0, 2), keys_on(&fe, 1, 2));
        let outcomes = KvEngine::apply_batch(
            &fe,
            vec![
                EngineOp::Put(a[0].clone(), v(1)),
                EngineOp::Get(seed),
                EngineOp::Delete(b[0].clone()),
                EngineOp::MultiGet(vec![a[1].clone(), b[1].clone()]),
                EngineOp::Cas {
                    key: b[1].clone(),
                    expected: Some(v(9)), // mismatch: fails on its own
                    new: v(2),
                },
                EngineOp::MultiPut(vec![(a[1].clone(), v(3)), (b[1].clone(), v(3))]),
            ],
        );
        for i in [0, 2, 5] {
            match &outcomes[i] {
                Err(Error::Io(m)) => assert!(m.contains("sync"), "op {i}: {m}"),
                other => panic!("write {i} acked without a durability point: {other:?}"),
            }
        }
        assert_eq!(outcomes[1], Ok(OpOutcome::Value(Some(v(0)))));
        assert_eq!(outcomes[3], Ok(OpOutcome::Values(vec![None, None])));
        assert_eq!(
            outcomes[4],
            Err(Error::CasMismatch),
            "its own error, not the sync's"
        );
        // The next burst gets a durability point of its own.
        engine.fail_sync.store(false, Ordering::SeqCst);
        let retry = KvEngine::apply_batch(&fe, vec![EngineOp::Put(a[0].clone(), v(4))]);
        assert!(matches!(retry[0], Ok(OpOutcome::Done(_))));
        fe.shutdown();
    }

    #[test]
    fn inline_never_overtakes_queued_or_in_flight_work() {
        let engine = ProbeEngine::shared();
        let fe = Arc::new(Frontend::start(
            engine.clone(),
            FrontendConfig::with_shards(1),
        ));
        let key = Key::from("contended");
        // Pin the worker inside a drained batch; the queue is empty.
        let gate = fe.submit(EngineOp::Get(gate_key()));
        wait_until("worker picks the gate up", || fe.queue_depth(0) == 0);

        // Queue empty but a batch in flight: a burst must not jump it.
        let in_flight = {
            let (fe, key) = (fe.clone(), key.clone());
            std::thread::spawn(move || {
                KvEngine::apply_batch(&*fe, vec![EngineOp::Put(key, Value::from("burst-1"))])
            })
        };
        wait_until("burst-1 is enqueued", || fe.queue_depth(0) == 1);
        assert_eq!(engine.puts.load(Ordering::Relaxed), 0, "burst-1 ran inline");

        // A ticket queued before a burst is executed before it.
        let ticket = fe.submit(EngineOp::Put(key.clone(), Value::from("ticket")));
        let queued = {
            let (fe, key) = (fe.clone(), key.clone());
            std::thread::spawn(move || {
                KvEngine::apply_batch(
                    &*fe,
                    vec![
                        EngineOp::Put(key.clone(), Value::from("burst-2")),
                        EngineOp::Get(key),
                    ],
                )
            })
        };
        wait_until("burst-2 is enqueued", || fe.queue_depth(0) == 4);
        assert_eq!(engine.puts.load(Ordering::Relaxed), 0, "burst-2 ran inline");

        engine.release_gate();
        gate.wait().unwrap();
        ticket.wait().unwrap();
        assert!(in_flight.join().unwrap()[0].is_ok());
        let outcomes = queued.join().unwrap();
        assert_eq!(
            outcomes[1],
            Ok(OpOutcome::Value(Some(Value::from("burst-2"))))
        );
        let order: Vec<Value> = engine
            .write_log
            .lock()
            .iter()
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(
            order,
            vec![
                Value::from("burst-1"),
                Value::from("ticket"),
                Value::from("burst-2")
            ],
            "execution order is submission order"
        );
        fe.shutdown();
    }

    #[test]
    fn engine_panic_on_the_inline_path_fails_the_burst_not_the_caller() {
        let poison = Key::from("poison-pill");
        let engine = Arc::new(ProbeEngine {
            panic_on: Some(poison.clone()),
            ..ProbeEngine::default()
        });
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(1));
        // Idle single shard: the whole burst runs on this thread.
        let outcomes = KvEngine::apply_batch(
            &fe,
            vec![
                EngineOp::Get(k(1)),
                EngineOp::Put(poison, v(0)),
                EngineOp::Get(k(2)),
            ],
        );
        assert_eq!(
            engine.batch_threads.lock().as_slice(),
            [std::thread::current().id()],
            "the burst ran inline"
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            assert!(
                matches!(outcome, Err(Error::Unavailable(_))),
                "op {i} of the panicked batch resolved {outcome:?}"
            );
        }
        let snap = fe.stats().snapshot();
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.submitted, snap.completed);
        assert_eq!(engine.syncs.load(Ordering::Relaxed), 0, "nothing applied");
        // The shard is not left claimed: caller and worker keep serving.
        let again = KvEngine::apply_batch(&fe, vec![EngineOp::Put(k(1), v(1))]);
        assert!(matches!(again[0], Ok(OpOutcome::Done(_))));
        assert_eq!(fe.get(&k(1)).unwrap(), Some(v(1)));
        fe.shutdown();
    }

    #[test]
    fn queue_capacity_counts_ops_and_admits_an_oversized_sub_batch_when_empty() {
        let engine = ProbeEngine::shared();
        let fe = Arc::new(Frontend::start(
            engine.clone(),
            FrontendConfig {
                shards: 1,
                queue_capacity: 4,
                ..FrontendConfig::default()
            },
        ));
        let gate = fe.submit(EngineOp::Get(gate_key()));
        wait_until("worker picks the gate up", || fe.queue_depth(0) == 0);
        let burst = |from: usize, n: usize| {
            let fe = fe.clone();
            std::thread::spawn(move || {
                let ops = (from..from + n)
                    .map(|i| EngineOp::Put(k(i), v(i)))
                    .collect();
                KvEngine::apply_batch(&*fe, ops)
            })
        };
        // 10 ops > capacity 4, but the queue is empty: admitted whole.
        let oversized = burst(0, 10);
        wait_until("oversized sub-batch is admitted", || {
            fe.queue_depth(0) == 10
        });
        // Depth counts operations: the queue is full for everyone else.
        match fe.try_submit(EngineOp::Put(k(100), v(100))) {
            Err(e @ Error::Backpressure { .. }) => assert!(e.queue_depth() >= Some(10), "{e:?}"),
            other => panic!("expected backpressure, got {:?}", other.map(|_| ())),
        }
        // A small burst blocks (10 + 3 > 4) instead of being shed...
        let small = burst(20, 3);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(fe.queue_depth(0), 10, "the small burst must wait");
        // ...and nothing deadlocks once the worker drains.
        engine.release_gate();
        gate.wait().unwrap();
        assert!(oversized.join().unwrap().iter().all(|o| o.is_ok()));
        assert!(small.join().unwrap().iter().all(|o| o.is_ok()));
        assert_eq!(engine.puts.load(Ordering::Relaxed), 13);
        let snap = fe.stats().snapshot();
        assert_eq!(snap.submitted, snap.completed);
        assert_eq!(snap.backpressure_rejections, 1);
        fe.shutdown();
    }

    #[test]
    fn bursts_and_tickets_from_many_threads_agree_on_the_last_writer() {
        let engine = ProbeEngine::shared();
        let fe = Arc::new(Frontend::start(
            engine.clone(),
            FrontendConfig::with_shards(2),
        ));
        const THREADS: usize = 4;
        const ROUNDS: usize = 60;
        const KEYS: usize = 6;
        let key = |t: usize, i: usize| Key::from(format!("t{t}-key-{i}"));
        let val = |t: usize, round: usize, how: &str| Value::from(format!("{t}:{round}:{how}"));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let fe = fe.clone();
                s.spawn(move || {
                    let mut tickets = Vec::new();
                    for round in 0..ROUNDS {
                        // Un-awaited tickets, then a burst over the same
                        // keys: the burst must land after them.
                        for i in 0..KEYS {
                            tickets
                                .push(fe.submit(EngineOp::Put(key(t, i), val(t, round, "ticket"))));
                        }
                        let ops = (0..KEYS)
                            .flat_map(|i| {
                                [
                                    EngineOp::Put(key(t, i), val(t, round, "burst")),
                                    EngineOp::Get(key(t, i)),
                                ]
                            })
                            .collect();
                        let outcomes = KvEngine::apply_batch(&*fe, ops);
                        for (i, pair) in outcomes.chunks(2).enumerate() {
                            assert!(pair[0].is_ok(), "{:?}", pair[0]);
                            assert_eq!(
                                pair[1],
                                Ok(OpOutcome::Value(Some(val(t, round, "burst")))),
                                "thread {t} round {round} key {i}"
                            );
                        }
                    }
                    for ticket in tickets {
                        ticket.wait().unwrap();
                    }
                });
            }
        });
        for t in 0..THREADS {
            for i in 0..KEYS {
                assert_eq!(
                    fe.get(&key(t, i)).unwrap(),
                    Some(val(t, ROUNDS - 1, "burst")),
                    "last writer of thread {t} key {i}"
                );
            }
        }
        let snap = fe.stats().snapshot();
        assert_eq!(snap.submitted, snap.completed);
        assert_eq!(snap.worker_panics, 0);
        fe.shutdown();
    }

    #[test]
    fn engine_panic_fails_batch_but_frontend_survives() {
        let poison = Key::from("poison-pill");
        let engine = Arc::new(ProbeEngine {
            panic_on: Some(poison.clone()),
            ..ProbeEngine::default()
        });
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(1));
        // The poisoned batch fails (completers dropped by the unwind
        // resolve the tickets), the worker survives.
        let t = fe.submit(EngineOp::Put(poison, v(0)));
        assert!(matches!(t.wait(), Err(Error::Unavailable(_))));
        // Same shard keeps serving afterwards: no hang, no wedge. Tickets
        // never run inline, so these prove its one worker survived.
        for i in 0..100 {
            fe.submit(EngineOp::Put(k(i), v(i))).wait().unwrap();
        }
        assert_eq!(
            fe.submit(EngineOp::Get(k(42))).wait(),
            Ok(OpOutcome::Value(Some(v(42))))
        );
        assert_eq!(fe.stats().snapshot().worker_panics, 1);
        fe.shutdown();
    }

    #[test]
    fn barrier_is_bounded_under_sustained_submission() {
        let engine = ProbeEngine::shared();
        let fe = Arc::new(Frontend::start(engine, FrontendConfig::with_shards(2)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let producer_fe = fe.clone();
            let producer_stop = stop.clone();
            s.spawn(move || {
                let mut i = 0usize;
                while !producer_stop.load(Ordering::Relaxed) {
                    let _ = producer_fe.submit(EngineOp::Put(k(i), v(i)));
                    i += 1;
                }
            });
            std::thread::sleep(Duration::from_millis(20));
            // The barrier waits on batches drained up to its marker,
            // not on the producer's endless later traffic.
            let t0 = std::time::Instant::now();
            fe.barrier();
            let elapsed = t0.elapsed();
            stop.store(true, Ordering::Relaxed);
            assert!(
                elapsed < Duration::from_secs(2),
                "barrier livelocked under sustained load ({elapsed:?})"
            );
        });
        fe.shutdown();
    }

    #[test]
    fn sync_barrier_waits_for_an_inline_burst_beside_queued_tickets() {
        let engine = ProbeEngine::shared();
        let fe = Arc::new(Frontend::start(
            engine.clone(),
            FrontendConfig {
                shards: 1,
                max_batch: 8,
                ..FrontendConfig::default()
            },
        ));
        // The shard is idle, so the burst runs inline on its own thread
        // and parks on the gate before its write applies.
        let burst = {
            let fe = fe.clone();
            std::thread::spawn(move || {
                KvEngine::apply_batch(
                    &*fe,
                    vec![
                        EngineOp::Get(gate_key()),
                        EngineOp::Put(Key::from("burst"), v(0)),
                    ],
                )
            })
        };
        wait_until("the burst reaches the engine", || {
            !engine.batch_threads.lock().is_empty()
        });
        assert_eq!(
            engine.batch_threads.lock()[0],
            burst.thread().id(),
            "the burst ran inline"
        );
        // Tickets on the same shard drain on the worker beside it.
        let tickets: Vec<Ticket> = (0..200)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(engine.puts.load(Ordering::Relaxed), 200);
        // The burst's write was submitted before the sync: the sync must
        // not return until it has applied.
        let (tx, rx) = std::sync::mpsc::channel();
        let syncer = {
            let fe = fe.clone();
            std::thread::spawn(move || {
                let _ = tx.send(KvEngine::sync(&*fe));
            })
        };
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "sync returned before the inline burst's write applied"
        );
        engine.release_gate();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(Ok(())));
        assert_eq!(engine.puts.load(Ordering::Relaxed), 201);
        syncer.join().unwrap();
        assert!(matches!(burst.join().unwrap()[1], Ok(OpOutcome::Done(_))));
        fe.shutdown();
    }

    #[test]
    fn frontend_is_a_kv_engine() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::default());
        let dyn_engine: &dyn KvEngine = &fe;
        dyn_engine.put(Key::from("a"), Value::from("1")).unwrap();
        assert_eq!(
            dyn_engine.get(&Key::from("a")).unwrap(),
            Some(Value::from("1"))
        );
        assert_eq!(dyn_engine.label(), "frontend<probe>");
        assert!(dyn_engine.resident_bytes() > 0);
        dyn_engine.sync().unwrap();
        fe.shutdown();
    }

    #[test]
    fn synchronous_calls_are_one_op_bursts_inline_on_an_idle_shard() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(2));
        let me = std::thread::current().id();
        let on_me = || engine.batch_threads.lock().iter().all(|t| *t == me);
        // A write: applied on this thread, then the burst's one sync.
        fe.put(k(1), v(1)).unwrap();
        assert_eq!(engine.batch_threads.lock().len(), 1);
        assert!(on_me(), "put ran on a worker");
        assert_eq!(engine.syncs.load(Ordering::Relaxed), 1);
        // Reads run inline too, and sync nothing.
        assert_eq!(fe.get(&k(1)).unwrap(), Some(v(1)));
        assert_eq!(
            fe.scan(&k(0), None, usize::MAX).unwrap(),
            vec![(k(1), v(1))]
        );
        assert_eq!(engine.batch_threads.lock().len(), 3);
        assert!(on_me(), "a read ran on a worker");
        assert_eq!(engine.syncs.load(Ordering::Relaxed), 1);
        let snap = fe.stats().snapshot();
        assert_eq!((snap.batches, snap.group_syncs), (3, 1));
        fe.shutdown();
    }

    #[test]
    fn shutdown_completes_queued_work_and_is_idempotent() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(2));
        let tickets: Vec<Ticket> = (0..300)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        fe.shutdown();
        fe.shutdown();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(engine.puts.load(Ordering::Relaxed), 300);
        // Post-shutdown submissions fail fast instead of hanging.
        assert!(matches!(
            fe.submit(EngineOp::Get(k(0))).wait(),
            Err(Error::Unavailable(_))
        ));
        assert!(matches!(
            fe.try_submit(EngineOp::Get(k(0))),
            Err(Error::Unavailable(_))
        ));
    }

    #[test]
    fn concurrent_producers_land_all_writes() {
        let engine = ProbeEngine::shared();
        let fe = Arc::new(Frontend::start(engine, FrontendConfig::with_shards(4)));
        std::thread::scope(|s| {
            for t in 0..8 {
                let fe = fe.clone();
                s.spawn(move || {
                    for i in 0..250 {
                        fe.put(Key::from(format!("t{t}-{i}")), v(i)).unwrap();
                    }
                });
            }
        });
        for t in 0..8 {
            for i in 0..250 {
                assert_eq!(fe.get(&Key::from(format!("t{t}-{i}"))).unwrap(), Some(v(i)));
            }
        }
        let snap = fe.stats().snapshot();
        assert_eq!(snap.submitted, snap.completed);
        fe.shutdown();
    }

    #[test]
    fn group_commit_acks_after_durability_on_real_lsm() {
        let dir = tb_common::test_dir("tb-fe-lsm");
        let db = Arc::new(
            tb_lsm::LsmDb::open(tb_lsm::LsmConfig::small_for_tests(dir.path())).expect("open lsm"),
        );
        let fe = Frontend::start(db, FrontendConfig::with_shards(2));
        let tickets: Vec<Ticket> = (0..500)
            .map(|i| fe.submit(EngineOp::Put(k(i), v(i))))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        fe.shutdown();
        // Acked writes must be durable: reopen and read everything back.
        let db =
            tb_lsm::LsmDb::open(tb_lsm::LsmConfig::small_for_tests(dir.path())).expect("reopen");
        for i in 0..500 {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i)), "key {i} lost");
        }
    }

    #[test]
    fn concurrent_bursts_batch_reads_over_one_engine() {
        // One LSM engine behind two shards: bursts from four threads run
        // inline or on the shard workers, concurrently, and every batch
        // — whoever executes it — is one call on the engine's
        // `apply_batch` path.
        let dir = tb_common::test_dir("tb-fe-burst-reads");
        let config = tb_lsm::LsmConfig::small_for_tests(dir.path());
        let db = Arc::new(tb_lsm::LsmDb::open(config).expect("open lsm"));
        for i in 0..400 {
            db.put(k(i), v(i)).unwrap();
        }
        db.flush().unwrap();
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (batches0, blocks0) = (count(&db.stats.batches), count(&db.stats.batch_blocks_read));
        let fe = Arc::new(Frontend::start(
            db.clone(),
            FrontendConfig {
                shards: 2,
                max_batch: 32,
                ..FrontendConfig::default()
            },
        ));
        std::thread::scope(|s| {
            for t in 0..4 {
                let fe = fe.clone();
                s.spawn(move || {
                    for round in 0..30 {
                        let keys: Vec<Key> =
                            (0..400).skip((t + round) % 7).step_by(3).map(k).collect();
                        let got = fe.multi_get(&keys).unwrap();
                        for (key, item) in keys.iter().zip(got) {
                            assert!(item.is_some(), "missing {key:?}");
                        }
                    }
                });
            }
        });
        assert!(
            count(&db.stats.batch_blocks_read) > blocks0,
            "no staged read ever reached the engine's block fetch"
        );
        assert_eq!(
            count(&db.stats.batches) - batches0,
            fe.stats().snapshot().batches,
            "each front-end batch is exactly one engine apply_batch"
        );
        fe.shutdown();
    }
}
