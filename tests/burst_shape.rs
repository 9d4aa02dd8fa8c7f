//! The shape a served burst reaches the engine in, gated in tier-1.
//!
//! `tb-benchmark` reports `frontend.engine_calls_per_burst`,
//! `frontend.syncs_per_burst` and `frontend.mean_batch` from the same
//! `tb_obs` counters; this test pins them where `cargo test -q` fails,
//! not the next benchmark run: over the benchmark's own stack —
//! `LsmDb → Frontend (2 shards) → Server::bind_unix → ServerClient` — a
//! 16-op pipelined burst is at most one engine batch per shard, exactly
//! one group sync when it writes, and none when it only reads.
//!
//! One test in this file on purpose: the counters are process-global.

use std::sync::Arc;
use tierbase::common::{test_dir, EngineOp, OpOutcome};
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::obs;
use tierbase::prelude::*;
use tierbase::server::{Server, ServerClient};

const BURST: usize = 16;
const SHARDS: u64 = 2;

const COUNTERS: [&str; 5] = [
    "server_bursts",
    "frontend_batches",
    "frontend_group_syncs",
    "frontend_submitted",
    "frontend_completed",
];

/// Sends one burst; returns its outcomes and the [`COUNTERS`] deltas.
fn burst(client: &ServerClient, ops: Vec<EngineOp>) -> (Vec<Result<OpOutcome>>, [u64; 5]) {
    let read = || {
        let snap = obs::global().snapshot();
        COUNTERS.map(|name| snap.counter(name))
    };
    let before = read();
    let outcomes = client.apply_batch(ops);
    let after = read();
    (outcomes, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn a_served_burst_is_one_batch_per_shard_and_one_sync() {
    let dir = test_dir("tb-burst-shape");
    std::fs::create_dir_all(dir.path()).unwrap();
    let sock = dir.path().join("tb.sock");
    let engine = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path().join("db"))).unwrap());
    let frontend = Arc::new(Frontend::start(
        engine,
        FrontendConfig::with_shards(SHARDS as usize),
    ));
    let server = Server::bind_unix(&sock, frontend.clone()).unwrap();
    let client = ServerClient::connect_unix(&sock).unwrap();
    let key = |i: usize| Key::from(format!("user{i:06}"));
    let value = |round: usize, i: usize| Value::from(format!("value-{round}-{i}"));

    for round in 0..20 {
        let base = round * BURST;
        // A write burst, then a mixed one, then a read-only one.
        let writes = (0..BURST)
            .map(|i| EngineOp::Put(key(base + i), value(round, i)))
            .collect();
        let mixed = (0..BURST)
            .map(|i| match i % 4 {
                0 => EngineOp::Put(key(base + i), value(round + 100, i)),
                1 => EngineOp::Delete(key(base + i)),
                _ => EngineOp::Get(key(base + i)),
            })
            .collect();
        let reads = (0..BURST).map(|i| EngineOp::Get(key(base + i))).collect();
        for (name, ops, syncs) in [
            ("write", writes, 1),
            ("mixed", mixed, 1),
            ("read", reads, 0),
        ] {
            let (outcomes, [server_bursts, batches, group_syncs, submitted, completed]) =
                burst(&client, ops);
            assert!(outcomes.iter().all(|o| o.is_ok()), "{name}: {outcomes:?}");
            assert_eq!(
                server_bursts, 1,
                "{name} round {round}: the socket split the burst"
            );
            assert!(
                (1..=SHARDS).contains(&batches),
                "{name} round {round}: {} engine batches for a scan-free \
                 burst over {SHARDS} shards",
                batches
            );
            assert_eq!(
                group_syncs, syncs,
                "{name} round {round}: one durability point per write burst, \
                 none per read-only burst"
            );
            assert_eq!(
                (submitted, completed),
                (BURST as u64, BURST as u64),
                "{name} round {round}: every op is one front-end request"
            );
        }
        // What the mixed burst left behind, read back over the socket.
        assert_eq!(client.get(&key(base)).unwrap(), Some(value(round + 100, 0)));
        assert_eq!(client.get(&key(base + 1)).unwrap(), None);
        assert_eq!(client.get(&key(base + 2)).unwrap(), Some(value(round, 2)));
    }
    server.stop();
    frontend.shutdown();
}
