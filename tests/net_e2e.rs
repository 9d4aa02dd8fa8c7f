//! End-to-end socket serving: the real client/server pair versus a
//! BTreeMap oracle under YCSB mixes, burst→batch lowering (the wire
//! protocol's core contract), backpressure over the wire, cross-shard
//! MultiPut partial-commit semantics, and mid-run server death.

use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tierbase::common::test_dir;
use tierbase::common::testutil::MapEngine;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::prelude::*;
use tierbase::server::{Server, ServerClient};

/// `test_dir` hands back a fresh path without creating it; the socket
/// bind needs the directory to exist.
fn sock_path(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    dir.join("tb.sock")
}

fn oracle_scan(
    oracle: &BTreeMap<Key, Value>,
    start: &Key,
    end: &Key,
    limit: usize,
) -> Vec<(Key, Value)> {
    oracle
        .range(start.clone()..end.clone())
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn apply_op(client: &ServerClient, oracle: &mut BTreeMap<Key, Value>, op: &Op) {
    match op {
        Op::Read { key } => {
            assert_eq!(
                client.get(key).unwrap().as_ref(),
                oracle.get(key),
                "read of {key:?} diverged from oracle"
            );
        }
        Op::Insert { key, value } | Op::Update { key, value } => {
            client.put(key.clone(), value.clone()).unwrap();
            oracle.insert(key.clone(), value.clone());
        }
        Op::Delete { key } => {
            client.delete(key).unwrap();
            oracle.remove(key);
        }
        Op::ReadModifyWrite { key, value } => {
            assert_eq!(client.get(key).unwrap().as_ref(), oracle.get(key));
            client.put(key.clone(), value.clone()).unwrap();
            oracle.insert(key.clone(), value.clone());
        }
        Op::Scan { start, end, limit } => {
            let got = client.scan(start, Some(end), *limit as usize).unwrap();
            assert_eq!(
                got,
                oracle_scan(oracle, start, end, *limit as usize),
                "scan [{start:?}, {end:?}) diverged from oracle"
            );
        }
    }
}

/// YCSB-A (update-heavy) and YCSB-E (scan-heavy) through a real Unix
/// socket into a pipelined `Frontend` over an `LsmDb`, checked op-by-op
/// against a BTreeMap oracle.
#[test]
fn ycsb_over_socket_matches_oracle() {
    let dir = test_dir("tb-net-oracle");
    let sock = sock_path(dir.path());
    let engine = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path().join("db"))).unwrap());
    let frontend = Arc::new(Frontend::start(
        engine,
        FrontendConfig {
            shards: 4,
            ..FrontendConfig::default()
        },
    ));
    let server = Server::bind_unix(&sock, frontend.clone()).unwrap();
    let client = ServerClient::connect_unix(&sock).unwrap();
    let mut oracle = BTreeMap::new();

    for spec in [
        WorkloadSpec::ycsb_a(100, 500),
        WorkloadSpec::ycsb_e(100, 300),
    ] {
        let (load, run) = Workload::new(spec).generate();
        for op in load.ops().iter().chain(run.ops()) {
            apply_op(&client, &mut oracle, op);
        }
    }
    // Full-state sweep: every oracle key readable over the socket.
    let keys: Vec<Key> = oracle.keys().cloned().collect();
    let got = client.multi_get(&keys).unwrap();
    for (key, got) in keys.iter().zip(got) {
        assert_eq!(got.as_ref(), oracle.get(key), "{key:?} diverged");
    }
    server.stop();
    frontend.shutdown();
}

/// Engine that records every `apply_batch` submission it receives, to
/// pin the burst→batch lowering 1:1.
#[derive(Default)]
struct BatchProbe {
    map: MapEngine,
    batch_sizes: Mutex<Vec<usize>>,
}

impl KvEngine for BatchProbe {
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        self.batch_sizes.lock().push(ops.len());
        self.map.apply_batch(ops)
    }
    fn resident_bytes(&self) -> u64 {
        0
    }
    fn label(&self) -> String {
        "batch-probe".into()
    }
}

/// ISSUE acceptance: a pipeline burst of N ops over the socket becomes
/// exactly ONE `apply_batch` call of N ops on the serving engine.
#[test]
fn burst_of_n_ops_is_one_apply_batch_of_n() {
    let dir = test_dir("tb-net-burst");
    let sock = sock_path(dir.path());
    let probe = Arc::new(BatchProbe::default());
    let server = Server::bind_unix(&sock, probe.clone()).unwrap();
    let client = ServerClient::connect_unix(&sock).unwrap();

    let ops = vec![
        EngineOp::Put(Key::from("a"), Value::from("1")),
        EngineOp::Put(Key::from("b"), Value::from("2")),
        EngineOp::Get(Key::from("a")),
        EngineOp::MultiGet(vec![Key::from("a"), Key::from("b"), Key::from("c")]),
        EngineOp::Delete(Key::from("b")),
        EngineOp::Scan {
            start: Key::from(""),
            end: None,
            limit: usize::MAX,
        },
        EngineOp::Get(Key::from("b")),
    ];
    let n = ops.len();
    let results = client.apply_batch(ops);

    assert_eq!(
        probe.batch_sizes.lock().as_slice(),
        &[n],
        "one burst must be exactly one apply_batch of the full size"
    );
    // Positional replies, in submission order.
    assert_eq!(results.len(), n);
    assert_eq!(
        results[2].as_ref().unwrap(),
        &OpOutcome::Value(Some(Value::from("1")))
    );
    assert_eq!(
        results[3].as_ref().unwrap(),
        &OpOutcome::Values(vec![Some(Value::from("1")), Some(Value::from("2")), None])
    );
    // Ops run in slot order within the burst: the scan at slot 5 runs
    // after the delete of "b" at slot 4.
    assert_eq!(
        results[5].as_ref().unwrap(),
        &OpOutcome::Range(vec![(Key::from("a"), Value::from("1"))])
    );
    assert_eq!(results[6].as_ref().unwrap(), &OpOutcome::Value(None));

    let stats = server.stats();
    assert_eq!(stats.bursts, 1, "exactly one burst served");
    assert_eq!(stats.ops, n as u64);
    server.stop();
}

/// Same acceptance through a pipelined `Frontend`: the burst becomes
/// one `Frontend::apply_batch`, visible as exactly N submissions in
/// `FrontendStats`.
#[test]
fn burst_through_frontend_submits_exactly_n() {
    let dir = test_dir("tb-net-burst-fe");
    let sock = sock_path(dir.path());
    let frontend = Arc::new(Frontend::start(
        Arc::new(BatchProbe::default()),
        FrontendConfig {
            shards: 1, // single shard: no scatter, submissions == ops
            ..FrontendConfig::default()
        },
    ));
    let server = Server::bind_unix(&sock, frontend.clone()).unwrap();
    let client = ServerClient::connect_unix(&sock).unwrap();

    let before = frontend.stats_snapshot().submitted;
    let ops: Vec<EngineOp> = (0..12)
        .map(|i| EngineOp::Put(Key::from(format!("k{i}")), Value::from("v")))
        .collect();
    let results = client.apply_batch(ops);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(
        frontend.stats_snapshot().submitted - before,
        12,
        "one wire burst of 12 ops = 12 front-end submissions, no more"
    );
    assert_eq!(server.stats().bursts, 1);
    server.stop();
    frontend.shutdown();
}

/// Engine that sheds everything, to prove backpressure travels the wire
/// as a retryable RETRY reply (with its queue-depth hint) and never
/// costs the connection.
struct SheddingEngine;

impl KvEngine for SheddingEngine {
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        ops.iter()
            .map(|_| Err(Error::backpressure_at_depth("synthetic shed", 42)))
            .collect()
    }
    fn resident_bytes(&self) -> u64 {
        0
    }
    fn label(&self) -> String {
        "shedding".into()
    }
}

#[test]
fn backpressure_maps_to_retryable_wire_error_not_dropped_connection() {
    let dir = test_dir("tb-net-retry");
    let sock = sock_path(dir.path());
    let server = Server::bind_unix(&sock, Arc::new(SheddingEngine)).unwrap();
    let client = ServerClient::connect_unix(&sock).unwrap();

    let err = client.put(Key::from("k"), Value::from("v")).unwrap_err();
    assert_eq!(
        err,
        Error::Backpressure {
            reason: "synthetic shed".into(),
            queue_depth: 42,
        },
        "RETRY must preserve the reason and the queue-depth hint"
    );
    assert!(err.is_retryable());
    assert_eq!(err.queue_depth(), Some(42));
    // The connection survived the shed: the next exchange works without
    // a reconnect (a reconnect would reset the server's conn counter).
    client.ping().unwrap();
    assert_eq!(server.stats().conns_opened, 1);
    server.stop();
}

/// Map engine whose `Get("block:gate")` parks until released: pins
/// whoever runs it, so a front-end shard queue can be filled.
#[derive(Default)]
struct GatedEngine {
    map: MapEngine,
    /// Gate ops that reached the engine.
    gated: AtomicU64,
    open: Mutex<bool>,
    opened: Condvar,
}

impl GatedEngine {
    fn release(&self) {
        *self.open.lock() = true;
        self.opened.notify_all();
    }
}

impl KvEngine for GatedEngine {
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        if ops.contains(&gate()) {
            self.gated.fetch_add(1, Ordering::SeqCst);
            let mut open = self.open.lock();
            while !*open {
                self.opened.wait(&mut open);
            }
        }
        self.map.apply_batch(ops)
    }
    fn resident_bytes(&self) -> u64 {
        0
    }
    fn label(&self) -> String {
        "gated".into()
    }
}

fn gate() -> EngineOp {
    EngineOp::Get(Key::from("block:gate"))
}

fn wait_until(cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out");
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
}

/// Load shedding on the served path: a pipelined burst that reaches a
/// full front-end shard queue gets per-op `RETRY` replies carrying the
/// queue's depth, the connection survives, and the same burst succeeds
/// once the queue drains.
#[test]
fn full_frontend_queue_answers_retry_over_the_wire() {
    let dir = test_dir("tb-net-shed");
    let sock = sock_path(dir.path());
    let engine = Arc::new(GatedEngine::default());
    let frontend = Arc::new(Frontend::start(
        engine.clone(),
        FrontendConfig {
            shards: 1,
            queue_capacity: 4,
            ..FrontendConfig::default()
        },
    ));
    let server = Server::bind_unix(&sock, frontend.clone()).unwrap();
    let sock = &sock;
    let puts = |prefix: &str, n: usize| -> Vec<EngineOp> {
        (0..n)
            .map(|i| EngineOp::Put(Key::from(format!("{prefix}{i}")), Value::from("v")))
            .collect()
    };
    std::thread::scope(|s| {
        // Fill the queue, each burst on a connection of its own: the
        // first gate runs inline on its connection's thread, the second
        // parks the shard worker, and a 4-op burst waits in the queue.
        let mut waiting = Vec::new();
        for parked in 1..=2 {
            waiting.push(s.spawn(|| {
                ServerClient::connect_unix(sock)
                    .unwrap()
                    .apply_batch(vec![gate()])
            }));
            wait_until(|| engine.gated.load(Ordering::SeqCst) == parked);
        }
        let filler = puts("fill", 4);
        waiting.push(s.spawn(move || {
            ServerClient::connect_unix(sock)
                .unwrap()
                .apply_batch(filler)
        }));
        wait_until(|| frontend.queue_depth(0) == 4);

        let client = ServerClient::connect_unix(sock).unwrap();
        for reply in client.apply_batch(puts("k", 3)) {
            match reply {
                Err(e @ Error::Backpressure { .. }) => {
                    assert!(e.is_retryable());
                    assert_eq!(e.queue_depth(), Some(4), "{e:?}");
                }
                other => panic!("expected RETRY, got {other:?}"),
            }
        }
        assert_eq!(frontend.stats_snapshot().backpressure_rejections, 3);
        engine.release();
        for burst in waiting {
            assert!(burst.join().unwrap().iter().all(|r| r.is_ok()));
        }
        // Same connection, same burst: admitted now.
        assert!(client.apply_batch(puts("k", 3)).iter().all(|r| r.is_ok()));
        assert_eq!(
            client.get(&Key::from("k2")).unwrap(),
            Some(Value::from("v"))
        );
    });
    server.stop();
    frontend.shutdown();
}

/// Engine that rejects any `MultiPut` slice containing a `bad:` key,
/// recording every slice and whether it applied — the instrument for
/// pinning cross-shard partial-commit semantics.
#[derive(Default)]
struct SliceRecorder {
    map: MapEngine,
    slices: Mutex<Vec<(Vec<Key>, bool)>>,
}

impl KvEngine for SliceRecorder {
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        ops.into_iter()
            .map(|op| {
                if let EngineOp::MultiPut(pairs) = &op {
                    let keys: Vec<Key> = pairs.iter().map(|(k, _)| k.clone()).collect();
                    let poisoned = keys.iter().any(|k| k.as_slice().starts_with(b"bad:"));
                    self.slices.lock().push((keys, !poisoned));
                    if poisoned {
                        return Err(Error::FaultInjected("shard rejected its slice".into()));
                    }
                }
                self.map.apply_batch(vec![op]).pop().expect("one outcome")
            })
            .collect()
    }
    fn resident_bytes(&self) -> u64 {
        0
    }
    fn label(&self) -> String {
        "slice-recorder".into()
    }
}

/// Satellite regression: a cross-shard `MultiPut` whose pairs hit a
/// failing shard leaves exactly the documented partial state — healthy
/// shards' slices applied, the failing shard's slice not, first error
/// reported — and the wire reply stays per-slot, never an
/// all-or-nothing ack.
#[test]
fn cross_shard_multiput_partial_commit_is_exactly_as_documented() {
    let dir = test_dir("tb-net-multiput");
    let sock = sock_path(dir.path());
    let recorder = Arc::new(SliceRecorder::default());
    let frontend = Arc::new(Frontend::start(
        recorder.clone(),
        FrontendConfig {
            shards: 4,
            ..FrontendConfig::default()
        },
    ));
    let server = Server::bind_unix(&sock, frontend.clone()).unwrap();
    let client = ServerClient::connect_unix(&sock).unwrap();

    let mut pairs: Vec<(Key, Value)> = (0..16)
        .map(|i| (Key::from(format!("g{i}")), Value::from(format!("v{i}"))))
        .collect();
    pairs.push((Key::from("bad:0"), Value::from("x")));
    pairs.push((Key::from("bad:1"), Value::from("y")));

    let err = client.multi_put(pairs.clone()).unwrap_err();
    assert_eq!(err, Error::FaultInjected("shard rejected its slice".into()));

    // The recorded slices partition the pairs, and the visible state is
    // exactly "applied slices readable, rejected slices absent".
    let slices = recorder.slices.lock().clone();
    let recorded: usize = slices.iter().map(|(keys, _)| keys.len()).sum();
    assert_eq!(recorded, pairs.len(), "slices must partition the batch");
    assert!(
        slices.iter().any(|(_, applied)| *applied),
        "some shard must commit independently"
    );
    assert!(
        slices.iter().any(|(_, applied)| !applied),
        "the poisoned shard must reject"
    );
    let by_key: BTreeMap<&Key, &Value> = pairs.iter().map(|(k, v)| (k, v)).collect();
    for (keys, applied) in &slices {
        for key in keys {
            let got = client.get(key).unwrap();
            if *applied {
                assert_eq!(got.as_ref(), by_key.get(key).copied(), "{key:?} lost");
            } else {
                assert_eq!(got, None, "{key:?} must not apply from a rejected slice");
            }
        }
    }

    // Per-slot wire outcomes: the failing op errors in its slot; ops
    // around it in the same burst succeed independently.
    let burst = vec![
        EngineOp::Put(Key::from("solo"), Value::from("s")),
        EngineOp::MultiPut(vec![
            (Key::from("bad:2"), Value::from("z")),
            (Key::from("g0"), Value::from("overwrite")),
        ]),
        EngineOp::Get(Key::from("solo")),
    ];
    let results = client.apply_batch(burst);
    assert!(results[0].is_ok(), "slot 0: {results:?}");
    assert_eq!(
        results[1],
        Err(Error::FaultInjected("shard rejected its slice".into())),
        "slot 1 reports its own failure"
    );
    assert_eq!(
        results[2].as_ref().unwrap(),
        &OpOutcome::Value(Some(Value::from("s"))),
        "slot 2 unaffected by slot 1's failure"
    );
    server.stop();
    frontend.shutdown();
}

/// Mid-run server death: in-flight and subsequent calls surface
/// retryable `Unavailable`; once a server is back on the same address
/// the client transparently reconnects and reads durable state.
#[test]
fn server_kill_surfaces_unavailable_and_reconnect_recovers() {
    let dir = test_dir("tb-net-kill");
    let sock = sock_path(dir.path());
    let db_dir = dir.path().join("db");

    let server = Server::bind_unix(
        &sock,
        Arc::new(LsmDb::open(LsmConfig::small_for_tests(&db_dir)).unwrap()),
    )
    .unwrap();
    let client = ServerClient::connect_unix(&sock).unwrap();
    client
        .put(Key::from("durable"), Value::from("yes"))
        .unwrap();
    client.sync().unwrap();

    // Kill the server out from under the client.
    server.stop();
    drop(server);

    let err = client.get(&Key::from("durable")).unwrap_err();
    assert!(
        matches!(err, Error::Unavailable(_)),
        "dead server must surface Unavailable, got {err:?}"
    );
    assert!(err.is_retryable());

    // Same address, recovered engine: the client reconnects by itself.
    let server = Server::bind_unix(
        &sock,
        Arc::new(LsmDb::open(LsmConfig::small_for_tests(&db_dir)).unwrap()),
    )
    .unwrap();
    assert_eq!(
        client.get(&Key::from("durable")).unwrap(),
        Some(Value::from("yes")),
        "reconnect + WAL recovery must serve the acked write"
    );
    server.stop();
}
