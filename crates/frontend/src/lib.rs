//! `tb-frontend` — the pipelined, sharded request front-end.
//!
//! Every engine in the workspace is a synchronous [`KvEngine`]; this
//! crate turns one into a *servable system*: the paper's data-node
//! serving model of one event loop per shard (§4.4) with batched
//! storage round-trips (§4.1.2). Its one protocol is the **burst**,
//! spoken in the engine's own [`EngineOp`]/[`OpOutcome`]: every
//! synchronous `KvEngine` call on the [`Frontend`] is one —
//! `apply_batch` (which is what a decoded `tb-server` pipeline burst
//! becomes), and `get`/`put`/… as one-op bursts. A burst is split into
//! one sub-batch per shard (routed by the cluster hash, `slot_for_key`;
//! one of them runs on the submitting thread when its shard is idle),
//! awaited on one completion latch, and made durable by one `sync()`
//! for all of its writes. Each shard's one worker drains the queued
//! sub-batches of any number of bursts, coalesces adjacent writes into
//! one `MultiPut`, and hands them to the engine as one `apply_batch`. A
//! sub-batch its full shard queue cannot admit answers
//! `Error::Backpressure` in every slot.
//!
//! So engine code runs concurrently on at most one worker per shard
//! plus the burst submitters running inline.
//!
//! ```
//! use std::sync::Arc;
//! use tb_common::testutil::MapEngine;
//! use tb_common::{EngineOp, Key, KvEngine, Value};
//! use tb_frontend::{Frontend, FrontendConfig};
//!
//! let fe = Arc::new(Frontend::start(MapEngine::shared(), FrontendConfig::default()));
//! // Concurrent clients, each handing the front-end 25-op bursts.
//! std::thread::scope(|s| {
//!     for t in 0..4 {
//!         let fe = fe.clone();
//!         s.spawn(move || {
//!             let burst = (0..25)
//!                 .map(|i| EngineOp::Put(Key::from(format!("k{t}-{i}")), Value::from("v")))
//!                 .collect();
//!             for outcome in fe.apply_batch(burst) {
//!                 outcome.unwrap();
//!             }
//!         });
//!     }
//! });
//! // Synchronous: a one-op burst.
//! assert_eq!(fe.get(&Key::from("k3-7")).unwrap(), Some(Value::from("v")));
//! fe.shutdown();
//! ```
//!
//! [`KvEngine`]: tb_common::KvEngine
//! [`EngineOp`]: tb_common::EngineOp
//! [`OpOutcome`]: tb_common::OpOutcome

#![deny(unsafe_code)]

mod burst;
mod frontend;
mod queue;
mod stats;

pub use frontend::{Frontend, FrontendConfig};
pub use stats::{FrontendStats, FrontendStatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::Duration;
    use tb_common::testutil::MapEngine;
    use tb_common::{EngineOp, Error, Key, KvEngine, OpOutcome, Result, Value};

    /// Map engine that counts engine-level calls, can panic on a chosen
    /// key (to test panic containment), parks `Get("block:gate")` until
    /// released (to pin whoever executes it), can fail `sync()`, and
    /// logs every put in apply order together with the thread each
    /// `apply_batch` ran on.
    #[derive(Default)]
    struct ProbeEngine {
        map: MapEngine,
        /// Pairs written by `Put`/`MultiPut` ops, and those ops.
        puts: AtomicU64,
        multi_puts: AtomicU64,
        apply_batches: AtomicU64,
        syncs: AtomicU64,
        panic_on: Option<Key>,
        fail_sync: AtomicBool,
        /// Gate ops that reached the engine.
        gated: AtomicU64,
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

        fn release_gate(&self) {
            *self.gate_open.lock() = true;
            self.gate_cv.notify_all();
        }

        /// The probes one op runs before the map applies it.
        fn observe(&self, op: &EngineOp) {
            let pairs = match op {
                EngineOp::Get(key) if *key == gate_key() => {
                    self.gated.fetch_add(1, Ordering::SeqCst);
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

    fn puts(from: usize, n: usize) -> Vec<EngineOp> {
        (from..from + n)
            .map(|i| EngineOp::Put(k(i), v(i)))
            .collect()
    }

    /// Submits `ops` as one burst from a thread of its own.
    fn spawn_burst(fe: &Arc<Frontend>, ops: Vec<EngineOp>) -> JoinHandle<Vec<Result<OpOutcome>>> {
        let fe = fe.clone();
        std::thread::spawn(move || KvEngine::apply_batch(&*fe, ops))
    }

    /// Parks a one-op gate burst in the engine from a thread of its own
    /// and returns once it is there. On an idle shard the gate runs
    /// inline on that thread: the shard counts as busy, so every later
    /// burst queues and the worker runs it. A second gate queues behind
    /// the first and pins the worker: later bursts then wait in the
    /// queue and leave it in one drained batch. `release_gate` frees
    /// both.
    fn park_gate(fe: &Arc<Frontend>, engine: &ProbeEngine) -> JoinHandle<Vec<Result<OpOutcome>>> {
        let parked = engine.gated.load(Ordering::SeqCst) + 1;
        let gate = spawn_burst(fe, vec![EngineOp::Get(gate_key())]);
        wait_until("the gate parks in the engine", || {
            engine.gated.load(Ordering::SeqCst) == parked
        });
        gate
    }

    fn all_ok(outcomes: Vec<Result<OpOutcome>>) -> bool {
        outcomes.iter().all(|o| o.is_ok())
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
        // Writes and scans interleaved in one burst: each scan sees the
        // writes submitted before it.
        let mut ops = puts(0, 50);
        ops.push(EngineOp::Scan {
            start: k(0),
            end: Some(k(50)),
            limit: usize::MAX,
        });
        ops.push(EngineOp::Delete(k(10)));
        ops.push(EngineOp::Scan {
            start: k(0),
            end: None,
            limit: usize::MAX,
        });
        let outcomes = KvEngine::apply_batch(&fe, ops);
        for (slot, n) in [(50, 50), (52, 49)] {
            match &outcomes[slot] {
                Ok(OpOutcome::Range(rows)) => {
                    assert_eq!(rows.len(), n, "scan saw the writes submitted before it");
                    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "rows key-ordered");
                }
                other => panic!("scan resolved {other:?}"),
            }
        }
        assert!(all_ok(outcomes));
        // Convenience wrapper + limit truncation.
        let got = fe.scan(&k(20), Some(&k(30)), 3).unwrap();
        assert_eq!(
            got,
            vec![(k(20), v(20)), (k(21), v(21)), (k(22), v(22))],
            "limit truncates in key order"
        );
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
        assert_eq!(fe.multi_get(&[]).unwrap(), Vec::<Option<Value>>::new());
        fe.shutdown();
    }

    #[test]
    fn reads_are_not_reordered_past_writes_on_one_shard() {
        let engine = ProbeEngine::shared();
        let fe = Frontend::start(engine, FrontendConfig::with_shards(1));
        let key = Key::from("rw-order");
        let ops = (0..50)
            .flat_map(|round| {
                [
                    EngineOp::Put(key.clone(), Value::from(format!("{round}"))),
                    EngineOp::Get(key.clone()),
                ]
            })
            .collect();
        let outcomes = KvEngine::apply_batch(&fe, ops);
        for (round, pair) in outcomes.chunks(2).enumerate() {
            assert!(matches!(pair[0], Ok(OpOutcome::Done(_))), "{:?}", pair[0]);
            assert_eq!(
                pair[1],
                Ok(OpOutcome::Value(Some(Value::from(format!("{round}")))))
            );
        }
        fe.shutdown();
    }

    #[test]
    fn drained_batch_lowers_to_one_engine_submission() {
        let engine = ProbeEngine::shared();
        let fe = Arc::new(Frontend::start(
            engine.clone(),
            FrontendConfig::with_shards(1),
        ));
        let gates = [park_gate(&fe, &engine), park_gate(&fe, &engine)];
        // Four bursts queue behind the pinned worker, in this order;
        // writes that end up adjacent coalesce across bursts.
        let bursts = [
            puts(0, 2),
            puts(2, 1),
            vec![EngineOp::Get(k(0)), EngineOp::Put(k(3), v(3))],
            puts(4, 1),
        ];
        let mut queued = 0;
        let handles: Vec<_> = bursts
            .into_iter()
            .map(|burst| {
                queued += burst.len();
                let handle = spawn_burst(&fe, burst);
                wait_until("the burst is queued", || fe.queue_depth(0) == queued);
                handle
            })
            .collect();
        let calls = engine.apply_batches.load(Ordering::Relaxed);
        engine.release_gate();
        for gate in gates {
            assert!(all_ok(gate.join().unwrap()));
        }
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(outcomes[2][0], Ok(OpOutcome::Value(Some(v(0)))));
        assert!(outcomes.into_iter().all(all_ok));
        assert_eq!(
            engine.apply_batches.load(Ordering::Relaxed),
            calls + 1,
            "the four bursts left the queue as one engine submission"
        );
        // [k0 k1 k2] and [k3 k4]: two MultiPuts of five coalesced puts.
        assert_eq!(engine.multi_puts.load(Ordering::Relaxed), 2);
        let snap = fe.stats().snapshot();
        assert_eq!(snap.coalesced_puts, 5);
        assert_eq!(snap.batches, engine.apply_batches.load(Ordering::Relaxed));
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
        let put = |tag: &str| EngineOp::Put(key.clone(), Value::from(tag));
        // The first gate runs inline on its own thread: the queue is
        // empty but a batch is in flight, so burst-1 must not run
        // inline. It queues, and the worker runs it beside the gate.
        let mut gates = vec![park_gate(&fe, &engine)];
        let burst_1 = spawn_burst(&fe, vec![put("burst-1")]);
        let burst_1_thread = burst_1.thread().id();
        assert!(all_ok(burst_1.join().unwrap()));
        assert!(
            !engine.batch_threads.lock().contains(&burst_1_thread),
            "burst-1 ran inline beside an in-flight batch"
        );
        // A second gate pins the worker: queued bursts wait in order.
        gates.push(park_gate(&fe, &engine));
        let burst_2 = spawn_burst(&fe, vec![put("burst-2")]);
        wait_until("burst-2 is enqueued", || fe.queue_depth(0) == 1);
        let burst_3 = spawn_burst(&fe, vec![put("burst-3"), EngineOp::Get(key.clone())]);
        wait_until("burst-3 is enqueued", || fe.queue_depth(0) == 3);

        engine.release_gate();
        for gate in gates {
            assert!(all_ok(gate.join().unwrap()));
        }
        assert!(all_ok(burst_2.join().unwrap()));
        assert_eq!(
            burst_3.join().unwrap()[1],
            Ok(OpOutcome::Value(Some(Value::from("burst-3"))))
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
                Value::from("burst-2"),
                Value::from("burst-3")
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
        let gates = [park_gate(&fe, &engine), park_gate(&fe, &engine)];
        // 10 ops > capacity 4, but the queue is empty: admitted whole.
        let oversized = spawn_burst(&fe, puts(0, 10));
        wait_until("oversized sub-batch is admitted", || {
            fe.queue_depth(0) == 10
        });
        // Depth counts operations: the queue is full for everyone else,
        // so a small burst (10 + 3 > 4) is shed, not blocked, and each
        // op carries the depth as its retry-after hint.
        for outcome in KvEngine::apply_batch(&*fe, puts(20, 3)) {
            match outcome {
                Err(e @ Error::Backpressure { .. }) => {
                    assert!(e.queue_depth() >= Some(10), "{e:?}")
                }
                other => panic!("expected backpressure, got {other:?}"),
            }
        }
        assert_eq!(fe.queue_depth(0), 10, "the shed burst queued nothing");
        // ...and nothing deadlocks once the worker drains.
        engine.release_gate();
        for gate in gates {
            assert!(all_ok(gate.join().unwrap()));
        }
        assert!(all_ok(oversized.join().unwrap()));
        // The same burst is admitted once the queue has room.
        assert!(all_ok(KvEngine::apply_batch(&*fe, puts(20, 3))));
        assert_eq!(engine.puts.load(Ordering::Relaxed), 13);
        let snap = fe.stats().snapshot();
        assert_eq!(snap.submitted, snap.completed);
        assert_eq!(snap.backpressure_rejections, 3);
        fe.shutdown();
    }

    #[test]
    fn bursts_from_many_threads_agree_on_the_last_writer() {
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
                    for round in 0..ROUNDS {
                        // A write-only burst, then one over the same keys
                        // that must land after it and read its own writes.
                        let first = (0..KEYS)
                            .map(|i| EngineOp::Put(key(t, i), val(t, round, "first")))
                            .collect();
                        assert!(all_ok(KvEngine::apply_batch(&*fe, first)));
                        let ops = (0..KEYS)
                            .flat_map(|i| {
                                [
                                    EngineOp::Put(key(t, i), val(t, round, "second")),
                                    EngineOp::Get(key(t, i)),
                                ]
                            })
                            .collect();
                        let outcomes = KvEngine::apply_batch(&*fe, ops);
                        for (i, pair) in outcomes.chunks(2).enumerate() {
                            assert!(pair[0].is_ok(), "{:?}", pair[0]);
                            assert_eq!(
                                pair[1],
                                Ok(OpOutcome::Value(Some(val(t, round, "second")))),
                                "thread {t} round {round} key {i}"
                            );
                        }
                    }
                });
            }
        });
        for t in 0..THREADS {
            for i in 0..KEYS {
                assert_eq!(
                    fe.get(&key(t, i)).unwrap(),
                    Some(val(t, ROUNDS - 1, "second")),
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
        let fe = Arc::new(Frontend::start(
            engine.clone(),
            FrontendConfig::with_shards(1),
        ));
        // A gate in flight keeps every later burst off the inline path:
        // they all run on the shard's one worker.
        let gate = park_gate(&fe, &engine);
        let poisoned = KvEngine::apply_batch(&*fe, vec![EngineOp::Put(poison, v(0))]);
        assert!(matches!(poisoned[0], Err(Error::Unavailable(_))));
        assert_eq!(fe.stats().snapshot().worker_panics, 1);
        // The worker survived: the same shard keeps serving on it.
        for i in 0..100 {
            fe.put(k(i), v(i)).unwrap();
        }
        assert_eq!(fe.get(&k(42)).unwrap(), Some(v(42)));
        let threads = engine.batch_threads.lock().clone();
        let worker = threads[1];
        assert_ne!(worker, std::thread::current().id());
        assert!(
            threads[1..].iter().all(|t| *t == worker),
            "ran off the worker"
        );
        engine.release_gate();
        assert!(all_ok(gate.join().unwrap()));
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
        let fe = Arc::new(Frontend::start(
            engine.clone(),
            FrontendConfig::with_shards(1),
        ));
        let gates = [park_gate(&fe, &engine), park_gate(&fe, &engine)];
        let bursts: Vec<_> = (0..3)
            .map(|b| spawn_burst(&fe, puts(b * 100, 100)))
            .collect();
        wait_until("the bursts are queued", || fe.queue_depth(0) == 300);
        let shutdown = {
            let fe = fe.clone();
            std::thread::spawn(move || fe.shutdown())
        };
        engine.release_gate();
        shutdown.join().unwrap();
        fe.shutdown();
        for burst in bursts.into_iter().chain(gates) {
            assert!(all_ok(burst.join().unwrap()));
        }
        assert_eq!(engine.puts.load(Ordering::Relaxed), 300);
        // Post-shutdown bursts fail fast instead of hanging.
        assert!(matches!(fe.get(&k(0)), Err(Error::Unavailable(_))));
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
        // Bursts from four threads, their syncs overlapping in the LSM.
        std::thread::scope(|s| {
            for t in 0..4 {
                let fe = &fe;
                s.spawn(move || {
                    for burst in 0..5 {
                        let from = t * 125 + burst * 25;
                        assert!(all_ok(KvEngine::apply_batch(fe, puts(from, 25))));
                    }
                });
            }
        });
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
