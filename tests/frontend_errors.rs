//! Front-end error containment: what happens when the engine fails or
//! panics *mid-batch* under the pipelined group-commit path.
//!
//! Contract under test (found untested while reviewing the PR that
//! introduced `tb-frontend`):
//!
//! * tickets belonging to a failing batch resolve with the engine's
//!   error — nobody hangs, nobody gets a false ack;
//! * batches submitted afterwards proceed normally — one bad batch
//!   does not wedge the shard;
//! * no worker dies permanently, even when the engine panics.
//!
//! The injected-IO-error version of the same contract over the real
//! LSM engine runs in `tests/fault_torture.rs` (`error_torture_*`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use tierbase::common::testutil::MapEngine;
use tierbase::frontend::{Frontend, FrontendConfig};
use tierbase::prelude::*;

/// In-memory engine with scripted misbehavior:
///
/// * writing a key that starts with `bad:` fails its op with
///   [`Error::FaultInjected`] — after applying the pairs before it
///   (a genuine mid-batch failure);
/// * writing a key that starts with `boom:` panics;
/// * `Get("block:gate")` parks until [`FlakyEngine::release`] — lets a
///   test pin the shard worker while it queues a multi-request batch;
/// * `sync()` fails while `fail_sync` is set (and is counted either way).
#[derive(Default)]
struct FlakyEngine {
    map: MapEngine,
    fail_sync: AtomicBool,
    syncs: AtomicU64,
    gate: Mutex<bool>,
    gate_cv: Condvar,
}

impl FlakyEngine {
    fn release(&self) {
        *self.gate.lock().unwrap() = true;
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
                    if op == EngineOp::Get(Key::from("block:gate")) {
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

/// Pins the shard worker on a gated `get`, runs `queue_while_pinned` to
/// stack requests into one batch, releases, and returns after the gate
/// ticket resolves.
fn with_pinned_worker<R>(
    fe: &Frontend,
    engine: &FlakyEngine,
    queue_while_pinned: impl FnOnce() -> R,
) -> R {
    let gate_ticket = fe.submit(EngineOp::Get(Key::from("block:gate")));
    // Wait for the worker to pick the gate request up (queue drains).
    while fe.queue_depth(0) > 0 {
        std::thread::sleep(Duration::from_micros(50));
    }
    let out = queue_while_pinned();
    engine.release();
    gate_ticket.wait().unwrap();
    out
}

#[test]
fn failing_batch_resolves_every_ticket_with_the_error() {
    let engine = Arc::new(FlakyEngine::default());
    let fe = single_shard_frontend(engine.clone());

    // Three puts queued behind the pinned worker coalesce into one
    // multi_put; the middle key fails the engine call mid-batch.
    let tickets = with_pinned_worker(&fe, &engine, || {
        vec![
            fe.submit(EngineOp::Put(Key::from("a"), Value::from("1"))),
            fe.submit(EngineOp::Put(Key::from("bad:b"), Value::from("2"))),
            fe.submit(EngineOp::Put(Key::from("c"), Value::from("3"))),
        ]
    });
    for (i, t) in tickets.iter().enumerate() {
        match t.wait() {
            Err(Error::FaultInjected(_)) => {}
            other => panic!("ticket {i} of the failing batch resolved {other:?}"),
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
    assert_eq!(s.submitted, s.completed, "no ticket may be left pending");
    fe.shutdown();
}

#[test]
fn sync_failure_fails_the_whole_group_commit_then_recovers() {
    let engine = Arc::new(FlakyEngine::default());
    let fe = single_shard_frontend(engine.clone());
    engine.fail_sync.store(true, Ordering::SeqCst);

    // Writes apply, but the group commit cannot make them durable: the
    // acks must carry the sync error, not a false durability promise.
    let tickets = with_pinned_worker(&fe, &engine, || {
        (0..3)
            .map(|i| fe.submit(EngineOp::Put(Key::from(format!("k{i}")), Value::from("v"))))
            .collect::<Vec<_>>()
    });
    for (i, t) in tickets.iter().enumerate() {
        match t.wait() {
            Err(Error::Io(m)) => assert!(m.contains("sync"), "ticket {i}: {m}"),
            other => panic!("ticket {i} of the unsynced batch resolved {other:?}"),
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

    // A panicking engine call abandons the batch: its tickets resolve
    // Unavailable (dropped completers), never hang.
    let tickets = with_pinned_worker(&fe, &engine, || {
        vec![
            fe.submit(EngineOp::Put(Key::from("x"), Value::from("1"))),
            fe.submit(EngineOp::Put(Key::from("boom:y"), Value::from("2"))),
        ]
    });
    for (i, t) in tickets.iter().enumerate() {
        match t.wait() {
            Err(Error::Unavailable(_)) => {}
            other => panic!("ticket {i} of the panicked batch resolved {other:?}"),
        }
    }
    // Tickets resolve while the worker is still unwinding; give its
    // bookkeeping a beat before reading the panic counter.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while fe.stats().worker_panics.load(Ordering::Relaxed) == 0
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(fe.stats().worker_panics.load(Ordering::Relaxed), 1);

    // The shard keeps serving: tickets never run inline, so these puts
    // prove its one worker survived.
    for i in 0..5 {
        fe.submit(EngineOp::Put(
            Key::from(format!("later{i}")),
            Value::from("v"),
        ))
        .wait()
        .unwrap();
    }
    assert_eq!(
        fe.submit(EngineOp::Get(Key::from("later4"))).wait(),
        Ok(OpOutcome::Value(Some(Value::from("v"))))
    );
    let s = fe.stats().snapshot();
    assert_eq!(s.submitted, s.completed);
    fe.shutdown();
}

#[test]
fn repeated_failures_never_wedge_the_shard() {
    let engine = Arc::new(FlakyEngine::default());
    engine.release(); // no pinning in this test
    let fe = single_shard_frontend(engine.clone());

    // Alternate failing and healthy writes; every healthy write must
    // land and every failing one must resolve with its error.
    for round in 0..20 {
        let bad = fe.submit(EngineOp::Put(
            Key::from(format!("bad:{round}")),
            Value::from("x"),
        ));
        assert!(matches!(bad.wait(), Err(Error::FaultInjected(_))));
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
    // still answer correctly (reads resolve per-op, not via the group
    // commit).
    let (w, r) = with_pinned_worker(&fe, &engine, || {
        (
            fe.submit(EngineOp::Put(Key::from("bad:w"), Value::from("1"))),
            fe.submit(EngineOp::Get(Key::from("seed"))),
        )
    });
    assert!(matches!(w.wait(), Err(Error::FaultInjected(_))));
    assert_eq!(r.wait().unwrap(), OpOutcome::Value(Some(Value::from("s"))));
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
