//! Front-end error containment: what happens when the engine fails or
//! panics *mid-batch* on the pipelined burst path.
//!
//! Contract under test (found untested while reviewing the PR that
//! introduced `tb-frontend`):
//!
//! * ops belonging to a failing batch resolve with the engine's error —
//!   nobody hangs, nobody gets a false ack;
//! * batches submitted afterwards proceed normally — one bad batch
//!   does not wedge the shard;
//! * no worker dies permanently, even when the engine panics.
//!
//! The injected-IO-error version of the same contract over the real
//! LSM engine runs in `tests/fault_torture.rs` (`error_torture_*`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tierbase::common::testutil::MapEngine;
use tierbase::frontend::{Frontend, FrontendConfig};
use tierbase::prelude::*;

/// In-memory engine with scripted misbehavior:
///
/// * writing a key that starts with `bad:` fails its op with
///   [`Error::FaultInjected`] — after applying the pairs before it
///   (a genuine mid-batch failure);
/// * writing a key that starts with `boom:` panics;
/// * `Get("block:gate")` parks until the gate opens — lets a test pin
///   the shard worker while bursts queue behind it;
/// * `sync()` fails while `fail_sync` is set (and is counted either way).
#[derive(Default)]
struct FlakyEngine {
    map: MapEngine,
    fail_sync: AtomicBool,
    syncs: AtomicU64,
    /// Gate ops that reached the engine.
    gated: AtomicU64,
    gate: Mutex<bool>,
    gate_cv: Condvar,
}

impl FlakyEngine {
    fn set_gate(&self, open: bool) {
        *self.gate.lock().unwrap() = open;
        self.gate_cv.notify_all();
    }

    /// Applies `pairs` in order up to the first scripted failure.
    fn write(&self, pairs: Vec<(Key, Value)>) -> Result<OpOutcome> {
        for (key, value) in pairs {
            if key.as_slice().starts_with(b"boom:") {
                panic!("scripted engine panic on {key:?}");
            }
            if key.as_slice().starts_with(b"bad:") {
                return Err(Error::FaultInjected(format!("scripted failure on {key:?}")));
            }
            self.map.put(key, value)?;
        }
        Ok(OpOutcome::Done(Lsn::NONE))
    }
}

impl KvEngine for FlakyEngine {
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        ops.into_iter()
            .map(|op| match op {
                EngineOp::Put(key, value) => self.write(vec![(key, value)]),
                EngineOp::MultiPut(pairs) => self.write(pairs),
                op => {
                    if op == gate() {
                        self.gated.fetch_add(1, Ordering::SeqCst);
                        let mut open = self.gate.lock().unwrap();
                        while !*open {
                            open = self.gate_cv.wait(open).unwrap();
                        }
                    }
                    self.map.apply_batch(vec![op]).pop().expect("one outcome")
                }
            })
            .collect()
    }

    fn resident_bytes(&self) -> u64 {
        self.map.resident_bytes()
    }

    fn label(&self) -> String {
        "flaky".into()
    }

    fn sync(&self) -> Result<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        if self.fail_sync.load(Ordering::SeqCst) {
            return Err(Error::Io("scripted sync failure".into()));
        }
        Ok(())
    }
}

fn gate() -> EngineOp {
    EngineOp::Get(Key::from("block:gate"))
}

fn put(key: &str, value: &str) -> Vec<EngineOp> {
    vec![EngineOp::Put(Key::from(key), Value::from(value))]
}

fn wait_until(cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out");
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// One shard, generous queue: batch composition is fully controlled by
/// gating the worker.
fn single_shard_frontend(engine: Arc<FlakyEngine>) -> Frontend {
    Frontend::start(
        engine,
        FrontendConfig {
            shards: 1,
            queue_capacity: 64,
            max_batch: 16,
        },
    )
}

/// Pins the shard worker, queues `bursts` behind it one after another
/// (each from a thread of its own), releases the worker and returns
/// each burst's outcomes. Two gate bursts do the pinning: the first
/// runs inline on its thread (the shard is idle), the second queues and
/// parks the worker. The queued bursts then leave the queue in one
/// drained batch.
fn bursts_behind_pinned_worker(
    fe: &Frontend,
    engine: &FlakyEngine,
    bursts: Vec<Vec<EngineOp>>,
) -> Vec<Vec<Result<OpOutcome>>> {
    engine.set_gate(false);
    let parked = engine.gated.load(Ordering::SeqCst);
    std::thread::scope(|s| {
        let gates: Vec<_> = (1..=2)
            .map(|n| {
                let gate = s.spawn(|| fe.apply_batch(vec![gate()]));
                wait_until(|| engine.gated.load(Ordering::SeqCst) == parked + n);
                gate
            })
            .collect();
        let mut queued = 0;
        let pending: Vec<_> = bursts
            .into_iter()
            .map(|burst| {
                queued += burst.len();
                let handle = s.spawn(move || fe.apply_batch(burst));
                wait_until(|| fe.queue_depth(0) == queued);
                handle
            })
            .collect();
        engine.set_gate(true);
        for gate in gates {
            assert!(gate.join().unwrap()[0].is_ok());
        }
        pending.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn failing_batch_resolves_every_op_with_the_error() {
    let engine = Arc::new(FlakyEngine::default());
    let fe = single_shard_frontend(engine.clone());

    // Three one-put bursts queued behind the pinned worker coalesce into
    // one multi_put; the middle key fails the engine call mid-batch.
    let outcomes = bursts_behind_pinned_worker(
        &fe,
        &engine,
        vec![put("a", "1"), put("bad:b", "2"), put("c", "3")],
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        match &outcome[0] {
            Err(Error::FaultInjected(_)) => {}
            other => panic!("burst {i} of the failing batch resolved {other:?}"),
        }
    }

    // The next batch proceeds as if nothing happened.
    fe.put(Key::from("after"), Value::from("ok")).unwrap();
    assert_eq!(
        fe.get(&Key::from("after")).unwrap(),
        Some(Value::from("ok"))
    );
    assert_eq!(fe.stats().worker_panics.load(Ordering::Relaxed), 0);
    let s = fe.stats().snapshot();
    assert_eq!(s.submitted, s.completed, "no op may be left pending");
    fe.shutdown();
}

#[test]
fn sync_failure_fails_the_whole_group_commit_then_recovers() {
    let engine = Arc::new(FlakyEngine::default());
    let fe = single_shard_frontend(engine.clone());
    engine.fail_sync.store(true, Ordering::SeqCst);

    // Writes apply, but no burst can make them durable: the acks must
    // carry the sync error, not a false durability promise.
    let bursts = (0..3).map(|i| put(&format!("k{i}"), "v")).collect();
    for (i, outcome) in bursts_behind_pinned_worker(&fe, &engine, bursts)
        .iter()
        .enumerate()
    {
        match &outcome[0] {
            Err(Error::Io(m)) => assert!(m.contains("sync"), "burst {i}: {m}"),
            other => panic!("burst {i} of the unsynced batch resolved {other:?}"),
        }
    }

    engine.fail_sync.store(false, Ordering::SeqCst);
    fe.put(Key::from("durable"), Value::from("yes")).unwrap();
    assert_eq!(fe.stats().worker_panics.load(Ordering::Relaxed), 0);
    fe.shutdown();
}

#[test]
fn engine_panic_is_contained_and_the_worker_survives() {
    let engine = Arc::new(FlakyEngine::default());
    let fe = single_shard_frontend(engine.clone());

    // A panicking engine call abandons the batch on the worker: its ops
    // resolve Unavailable, never hang.
    let outcomes =
        bursts_behind_pinned_worker(&fe, &engine, vec![put("x", "1"), put("boom:y", "2")]);
    for (i, outcome) in outcomes.iter().enumerate() {
        match &outcome[0] {
            Err(Error::Unavailable(_)) => {}
            other => panic!("burst {i} of the panicked batch resolved {other:?}"),
        }
    }
    assert_eq!(fe.stats().worker_panics.load(Ordering::Relaxed), 1);

    // The shard keeps serving on its worker: the bursts behind the
    // pinned worker run there, never inline.
    let mut later: Vec<_> = (0..5).map(|i| put(&format!("later{i}"), "v")).collect();
    later.push(vec![EngineOp::Get(Key::from("later4"))]);
    let outcomes = bursts_behind_pinned_worker(&fe, &engine, later);
    assert!(outcomes[..5].iter().all(|o| o[0].is_ok()), "{outcomes:?}");
    assert_eq!(outcomes[5][0], Ok(OpOutcome::Value(Some(Value::from("v")))));
    let s = fe.stats().snapshot();
    assert_eq!(s.submitted, s.completed);
    fe.shutdown();
}

#[test]
fn repeated_failures_never_wedge_the_shard() {
    let engine = Arc::new(FlakyEngine::default());
    let fe = single_shard_frontend(engine.clone());

    // Alternate failing and healthy writes; every healthy write must
    // land and every failing one must resolve with its error.
    for round in 0..20 {
        let bad = fe.put(Key::from(format!("bad:{round}")), Value::from("x"));
        assert!(matches!(bad, Err(Error::FaultInjected(_))));
        fe.put(Key::from(format!("good:{round}")), Value::from("y"))
            .unwrap();
    }
    let got = fe
        .multi_get(
            &(0..20)
                .map(|r| Key::from(format!("good:{r}")))
                .collect::<Vec<_>>(),
        )
        .unwrap();
    assert!(got.iter().all(|v| v == &Some(Value::from("y"))));
    assert_eq!(fe.stats().worker_panics.load(Ordering::Relaxed), 0);
    fe.shutdown();
}

#[test]
fn mixed_batch_reads_still_answer_when_writes_fail() {
    let engine = Arc::new(FlakyEngine::default());
    let fe = single_shard_frontend(engine.clone());
    fe.put(Key::from("seed"), Value::from("s")).unwrap();

    // One batch holding a failing write *and* a read: the read must
    // still answer correctly (outcomes are per op).
    let outcomes = bursts_behind_pinned_worker(
        &fe,
        &engine,
        vec![put("bad:w", "1"), vec![EngineOp::Get(Key::from("seed"))]],
    );
    assert!(matches!(outcomes[0][0], Err(Error::FaultInjected(_))));
    assert_eq!(outcomes[1][0], Ok(OpOutcome::Value(Some(Value::from("s")))));
    fe.shutdown();
}

#[test]
fn burst_syncs_what_applied_even_when_a_sibling_slice_failed() {
    let engine = Arc::new(FlakyEngine::default());
    let fe = Frontend::start(engine.clone(), FrontendConfig::with_shards(2));
    // A healthy key on the other shard than the failing one.
    let bad = Key::from("bad:slice");
    let good = (0..)
        .map(|i| Key::from(format!("good:{i}")))
        .find(|key| fe.shard_of(key) != fe.shard_of(&bad))
        .expect("some key lands on the other shard");

    // One spanning MultiPut: its healthy slice applies, its other slice
    // fails. The op reports the failure — and the burst still owes the
    // applied slice its durability point (independent per-shard commit).
    let outcomes = fe.apply_batch(vec![
        EngineOp::MultiPut(vec![
            (good.clone(), Value::from("kept")),
            (bad.clone(), Value::from("lost")),
        ]),
        EngineOp::Get(good.clone()),
    ]);
    assert!(matches!(outcomes[0], Err(Error::FaultInjected(_))));
    assert_eq!(outcomes[1], Ok(OpOutcome::Value(Some(Value::from("kept")))));
    assert_eq!(engine.syncs.load(Ordering::SeqCst), 1);

    // Nothing applied, nothing to sync; the failure stays in its slot.
    let outcomes = fe.apply_batch(vec![
        EngineOp::Put(bad, Value::from("x")),
        EngineOp::Get(good),
    ]);
    assert!(matches!(outcomes[0], Err(Error::FaultInjected(_))));
    assert!(outcomes[1].is_ok());
    assert_eq!(engine.syncs.load(Ordering::SeqCst), 1);
    assert_eq!(fe.stats().worker_panics.load(Ordering::Relaxed), 0);
    let s = fe.stats().snapshot();
    assert_eq!(s.submitted, s.completed);
    fe.shutdown();
}
