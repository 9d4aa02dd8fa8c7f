//! Shared conformance battery for every [`KvEngine`] in the workspace.
//!
//! One function exercises the whole trait contract — point ops, batch
//! op ordering, CAS semantics, and `resident_bytes` monotonicity — and
//! every engine (TierBase in each configuration a figure names, the
//! bare tiers, the cluster proxy, the pipelined front-end) must pass it
//! unchanged. Any new engine gets a conformance test by adding one line
//! here.

use std::sync::Arc;
use tierbase::cluster::{ClusterClient, CoordinatorGroup, NodeId, NodeStore, Proxy, ServingMode};
use tierbase::common::testutil::MapEngine;
use tierbase::elastic::ThreadMode;
use tierbase::frontend::{Frontend, FrontendConfig};
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::prelude::*;

fn tmpdir(name: &str) -> tierbase::common::TestDir {
    tierbase::common::test_dir(&format!("tb-conf-{name}"))
}

fn k(tag: &str, i: usize) -> Key {
    Key::from(format!("conf:{tag}:{i:04}"))
}

fn v(i: usize) -> Value {
    Value::from(format!("value-{i}-{}", "x".repeat(i % 23)))
}

/// The battery. Every assertion holds for *any* correct `KvEngine`;
/// engine-specific behavior (eviction, replication) must be configured
/// out by the caller (e.g. ample cache capacity).
fn conformance(engine: &dyn KvEngine) {
    let label = engine.label();

    // --- point ops: get / put / delete ------------------------------
    assert_eq!(
        engine.get(&k("pt", 0)).unwrap(),
        None,
        "[{label}] ghost key"
    );
    engine.put(k("pt", 0), v(0)).unwrap();
    assert_eq!(engine.get(&k("pt", 0)).unwrap(), Some(v(0)), "[{label}]");
    engine.put(k("pt", 0), v(1)).unwrap();
    assert_eq!(
        engine.get(&k("pt", 0)).unwrap(),
        Some(v(1)),
        "[{label}] overwrite"
    );
    engine.delete(&k("pt", 0)).unwrap();
    assert_eq!(
        engine.get(&k("pt", 0)).unwrap(),
        None,
        "[{label}] delete visible"
    );
    // Deleting an absent key is not an error.
    engine.delete(&k("pt", 1)).unwrap();

    // --- multi_put / multi_get ordering -----------------------------
    let pairs: Vec<(Key, Value)> = (0..32).map(|i| (k("batch", i), v(i))).collect();
    engine.multi_put(pairs).unwrap();
    // Request order: shuffled hits interleaved with misses; results
    // must align positionally with the request, not storage order.
    let request: Vec<Key> = vec![
        k("batch", 7),
        k("batch", 999), // miss
        k("batch", 0),
        k("batch", 31),
        k("batch", 500), // miss
        k("batch", 15),
    ];
    let got = engine.multi_get(&request).unwrap();
    assert_eq!(got.len(), request.len(), "[{label}] multi_get arity");
    assert_eq!(got[0], Some(v(7)), "[{label}] multi_get[0]");
    assert_eq!(got[1], None, "[{label}] multi_get miss stays positional");
    assert_eq!(got[2], Some(v(0)), "[{label}] multi_get[2]");
    assert_eq!(got[3], Some(v(31)), "[{label}] multi_get[3]");
    assert_eq!(got[4], None, "[{label}] multi_get miss stays positional");
    assert_eq!(got[5], Some(v(15)), "[{label}] multi_get[5]");
    // A later multi_put wins over the earlier one (write order).
    engine
        .multi_put(vec![(k("batch", 7), Value::from("rewritten"))])
        .unwrap();
    assert_eq!(
        engine.get(&k("batch", 7)).unwrap(),
        Some(Value::from("rewritten")),
        "[{label}] multi_put ordering"
    );

    // --- cas semantics ----------------------------------------------
    // Expected None on an absent key: creation.
    engine.cas(k("cas", 0), None, v(0)).unwrap();
    assert_eq!(engine.get(&k("cas", 0)).unwrap(), Some(v(0)), "[{label}]");
    // Wrong expectation: mismatch, value untouched.
    let err = engine
        .cas(k("cas", 0), Some(&Value::from("wrong")), v(1))
        .unwrap_err();
    assert_eq!(err, Error::CasMismatch, "[{label}] cas mismatch error");
    assert_eq!(
        engine.get(&k("cas", 0)).unwrap(),
        Some(v(0)),
        "[{label}] failed cas must not write"
    );
    // Expected None on a present key: mismatch.
    assert_eq!(
        engine.cas(k("cas", 0), None, v(1)).unwrap_err(),
        Error::CasMismatch,
        "[{label}] cas expected-absent on present key"
    );
    // Right expectation: swap succeeds.
    engine.cas(k("cas", 0), Some(&v(0)), v(2)).unwrap();
    assert_eq!(engine.get(&k("cas", 0)).unwrap(), Some(v(2)), "[{label}]");

    // --- compare-and-delete -----------------------------------------
    let cas_delete = |expected| {
        let op = EngineOp::CasDelete {
            key: k("cas", 0),
            expected,
        };
        engine.apply_batch(vec![op]).pop().expect("one completion")
    };
    // Wrong expectation: mismatch, value untouched.
    assert_eq!(
        cas_delete(Some(v(0))),
        Err(Error::CasMismatch),
        "[{label}] cas delete mismatch error"
    );
    assert_eq!(
        engine.get(&k("cas", 0)).unwrap(),
        Some(v(2)),
        "[{label}] failed cas delete must not delete"
    );
    // Right expectation: the key is gone.
    let deleted = cas_delete(Some(v(2)));
    assert!(
        matches!(deleted, Ok(OpOutcome::Done(_))),
        "[{label}] cas delete: {deleted:?}"
    );
    assert_eq!(
        engine.get(&k("cas", 0)).unwrap(),
        None,
        "[{label}] matching cas delete removes the key"
    );
    // Expected None on an absent key: a match with nothing to delete.
    let absent = cas_delete(None);
    assert!(
        matches!(absent, Ok(OpOutcome::Done(_))),
        "[{label}] cas delete expected-absent on absent key: {absent:?}"
    );

    // --- apply_batch: submission/completion contract ----------------
    // One heterogeneous submission; completions align positionally and
    // reflect submission order (a get sees the put before it, a CAS
    // sees the CAS before it).
    let outcomes = engine.apply_batch(vec![
        EngineOp::Get(k("ab", 0)), // miss: nothing written yet
        EngineOp::Put(k("ab", 0), v(0)),
        EngineOp::Get(k("ab", 0)), // hit: the put preceded it
        EngineOp::Cas {
            key: k("ab", 0),
            expected: Some(v(0)),
            new: v(1),
        },
        EngineOp::Cas {
            key: k("ab", 0),
            expected: Some(v(0)), // stale: the batch's own CAS won
            new: v(2),
        },
        EngineOp::MultiPut(vec![(k("ab", 1), v(10)), (k("ab", 2), v(11))]),
        EngineOp::MultiGet(vec![k("ab", 2), k("ab", 999), k("ab", 1), k("ab", 0)]),
        EngineOp::Delete(k("ab", 0)),
        EngineOp::Get(k("ab", 0)), // the delete preceded it
    ]);
    assert_eq!(outcomes.len(), 9, "[{label}] one completion per op");
    assert_eq!(outcomes[0], Ok(OpOutcome::Value(None)), "[{label}] ab[0]");
    assert!(
        matches!(outcomes[1], Ok(OpOutcome::Done(_))),
        "[{label}] ab[1]: {:?}",
        outcomes[1]
    );
    assert_eq!(
        outcomes[2],
        Ok(OpOutcome::Value(Some(v(0)))),
        "[{label}] get must see the in-batch put"
    );
    assert!(
        matches!(outcomes[3], Ok(OpOutcome::Done(_))),
        "[{label}] first cas wins: {:?}",
        outcomes[3]
    );
    assert_eq!(
        outcomes[4],
        Err(Error::CasMismatch),
        "[{label}] second cas must observe the first's write — and its \
         per-op failure must not poison the batch"
    );
    assert!(
        matches!(outcomes[5], Ok(OpOutcome::Done(_))),
        "[{label}] ab[5]: {:?}",
        outcomes[5]
    );
    assert_eq!(
        outcomes[6],
        Ok(OpOutcome::Values(vec![
            Some(v(11)),
            None,
            Some(v(10)),
            Some(v(1)),
        ])),
        "[{label}] in-batch multi_get alignment"
    );
    assert!(
        matches!(outcomes[7], Ok(OpOutcome::Done(_))),
        "[{label}] ab[7]: {:?}",
        outcomes[7]
    );
    assert_eq!(
        outcomes[8],
        Ok(OpOutcome::Value(None)),
        "[{label}] get must see the in-batch delete"
    );
    // Post-batch state agrees with the completions.
    assert_eq!(engine.get(&k("ab", 0)).unwrap(), None, "[{label}]");
    assert_eq!(engine.get(&k("ab", 1)).unwrap(), Some(v(10)), "[{label}]");

    // An all-read batch (the overlapped fast path in engines with a
    // native implementation) stays positional.
    let outcomes = engine.apply_batch(vec![
        EngineOp::MultiGet(vec![k("ab", 1), k("ab", 2)]),
        EngineOp::Get(k("ab", 404)),
        EngineOp::Get(k("ab", 2)),
    ]);
    assert_eq!(
        outcomes[0],
        Ok(OpOutcome::Values(vec![Some(v(10)), Some(v(11))])),
        "[{label}] read-only batch"
    );
    assert_eq!(outcomes[1], Ok(OpOutcome::Value(None)), "[{label}]");
    assert_eq!(outcomes[2], Ok(OpOutcome::Value(Some(v(11)))), "[{label}]");

    // --- scan: ordered range reads ----------------------------------
    // Every engine must return live rows in ascending key order,
    // end-exclusive, tombstone-masked, truncated to `limit`.
    let pairs: Vec<(Key, Value)> = (0..30).map(|i| (k("scan", i), v(i))).collect();
    engine.multi_put(pairs).unwrap();
    engine.delete(&k("scan", 12)).unwrap();
    let expected: Vec<(Key, Value)> = (5..20)
        .filter(|&i| i != 12)
        .map(|i| (k("scan", i), v(i)))
        .collect();
    let rows = engine
        .scan(&k("scan", 5), Some(&k("scan", 20)), usize::MAX)
        .unwrap();
    assert_eq!(
        rows, expected,
        "[{label}] scan: order, end-exclusive, tombstone masking"
    );
    let rows = engine.scan(&k("scan", 5), Some(&k("scan", 20)), 4).unwrap();
    assert_eq!(rows, expected[..4], "[{label}] scan limit truncates");
    // Unbounded end runs to the end of the keyspace ("conf:scan:*"
    // sorts after every other key the battery writes).
    let rows = engine.scan(&k("scan", 25), None, usize::MAX).unwrap();
    let tail: Vec<(Key, Value)> = (25..30).map(|i| (k("scan", i), v(i))).collect();
    assert_eq!(rows, tail, "[{label}] unbounded scan tail");
    // Empty range and zero limit both yield nothing.
    assert!(
        engine
            .scan(&k("scan", 20), Some(&k("scan", 20)), usize::MAX)
            .unwrap()
            .is_empty(),
        "[{label}] empty range"
    );
    assert!(
        engine
            .scan(&k("scan", 0), Some(&k("scan", 30)), 0)
            .unwrap()
            .is_empty(),
        "[{label}] zero limit"
    );

    // --- scan inside a mixed batch ----------------------------------
    // A scan submitted mid-batch sees exactly the writes before it:
    // the puts at [0..2], not the delete at [3] or the put at [5].
    let outcomes = engine.apply_batch(vec![
        EngineOp::Put(k("sb", 0), v(0)),
        EngineOp::Put(k("sb", 1), v(1)),
        EngineOp::Scan {
            start: k("sb", 0),
            end: Some(k("sb", 9)),
            limit: usize::MAX,
        },
        EngineOp::Delete(k("sb", 0)),
        EngineOp::Scan {
            start: k("sb", 0),
            end: Some(k("sb", 9)),
            limit: usize::MAX,
        },
        EngineOp::Put(k("sb", 2), v(2)),
        EngineOp::Scan {
            start: k("sb", 0),
            end: Some(k("sb", 9)),
            limit: 1,
        },
    ]);
    assert_eq!(outcomes.len(), 7, "[{label}] one completion per op");
    assert_eq!(
        outcomes[2],
        Ok(OpOutcome::Range(vec![
            (k("sb", 0), v(0)),
            (k("sb", 1), v(1)),
        ])),
        "[{label}] scan sees in-batch puts before it, not writes after"
    );
    assert_eq!(
        outcomes[4],
        Ok(OpOutcome::Range(vec![(k("sb", 1), v(1))])),
        "[{label}] scan sees the in-batch delete"
    );
    assert_eq!(
        outcomes[6],
        Ok(OpOutcome::Range(vec![(k("sb", 1), v(1))])),
        "[{label}] mid-batch scan respects limit"
    );

    // --- resident_bytes monotonicity --------------------------------
    // Adding data never shrinks the footprint (engines that hold no
    // data, like the proxy, report a constant — still monotonic).
    // Payloads are incompressible noise: engines with compressed
    // on-disk formats legitimately shrink their *physical* footprint
    // when compressible data crosses a flush boundary, and the battery
    // configures that engine-specific behavior out to keep the
    // accounting check meaningful for every engine.
    let noise = |seed: usize| {
        let mut x = (seed as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let bytes: Vec<u8> = (0..128)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        Value::from(bytes)
    };
    let mut previous = engine.resident_bytes();
    for round in 0..8 {
        let pairs: Vec<(Key, Value)> = (0..16)
            .map(|i| (k("bytes", round * 16 + i), noise(round * 16 + i)))
            .collect();
        engine.multi_put(pairs).unwrap();
        let now = engine.resident_bytes();
        assert!(
            now >= previous,
            "[{label}] resident_bytes shrank while inserting: {previous} -> {now}"
        );
        previous = now;
    }

    let _ = engine.sync();
}

#[test]
fn lsm_db_conforms() {
    let dir = tmpdir("lsm");
    conformance(&LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap());
}

#[test]
fn tierbase_conforms() {
    let dir = tmpdir("tierbase");
    let tb = TierBase::open(TierBaseConfig::builder(dir.path()).build()).unwrap();
    conformance(&tb);
}

#[test]
fn tierbase_wal_conforms() {
    let dir = tmpdir("tierbase-wal");
    let tb = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .persistence(PersistenceMode::Wal)
            .build(),
    )
    .unwrap();
    conformance(&tb);
}

#[test]
fn tierbase_multi_conforms() {
    let dir = tmpdir("tierbase-multi");
    let tb = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .threading(ThreadMode::Multi(4))
            .build(),
    )
    .unwrap();
    conformance(&tb);
}

#[test]
fn tierbase_write_through_conforms() {
    // Misses, write-through writes and the gets behind them share one
    // storage round trip per batch (TierBase's native apply_batch).
    let dir = tmpdir("tierbase-wt");
    let tb = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .policy(SyncPolicy::WriteThrough)
            .build(),
    )
    .unwrap();
    conformance(&tb);
}

#[test]
fn tierbase_write_back_conforms() {
    let dir = tmpdir("tierbase-wb");
    let tb = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .policy(SyncPolicy::WriteBack)
            .build(),
    )
    .unwrap();
    conformance(&tb);
}

#[test]
fn cluster_proxy_conforms() {
    let nodes = (0..3)
        .map(|i| NodeStore::new(NodeId(i), MapEngine::shared()))
        .collect();
    let coordinators = Arc::new(CoordinatorGroup::bootstrap(3, nodes).unwrap());
    conformance(&Proxy::new(coordinators));
}

#[test]
fn frontend_over_lsm_conforms() {
    let dir = tmpdir("fe-lsm");
    let db = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap());
    let fe = Frontend::start(db, FrontendConfig::with_shards(4));
    conformance(&fe);
    fe.shutdown();
}

#[test]
fn frontend_over_tierbase_conforms() {
    let dir = tmpdir("fe-tierbase");
    let tb = TierBase::open(TierBaseConfig::builder(dir.path()).build()).unwrap();
    let fe = Frontend::start(Arc::new(tb), FrontendConfig::with_shards(2));
    conformance(&fe);
    fe.shutdown();
}

#[test]
fn frontend_shallow_queues_over_lsm_conforms() {
    // 14th configuration: the pipelined front-end over the LSM engine
    // with 32-op queues and 4-op drains, so a burst's sub-batch can
    // exceed its queue's bound (admitted into the empty queue) — the
    // battery must hold through that queueing.
    let dir = tmpdir("fe-lsm-shallow");
    let db = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap());
    let fe = Frontend::start(
        db,
        FrontendConfig {
            shards: 2,
            queue_capacity: 32,
            max_batch: 4,
        },
    );
    conformance(&fe);
    fe.shutdown();
}

#[test]
fn pipelined_cluster_node_conforms() {
    // Not a KvEngine itself, but the serving path must preserve the
    // same contract a thin client sees through a pipelined node.
    let node = NodeStore::with_serving_mode(
        NodeId(0),
        MapEngine::shared(),
        ServingMode::Pipelined(FrontendConfig::with_shards(2)),
    );
    let nodes = vec![node];
    let coordinators = Arc::new(CoordinatorGroup::bootstrap(1, nodes).unwrap());
    let client = ClusterClient::connect(coordinators);
    client.put(Key::from("conf:a"), Value::from("1")).unwrap();
    assert_eq!(
        client.get(&Key::from("conf:a")).unwrap(),
        Some(Value::from("1"))
    );
    client.delete(&Key::from("conf:a")).unwrap();
    assert_eq!(client.get(&Key::from("conf:a")).unwrap(), None);
}

/// Build a small-table LSM config whose SSTables are written with the
/// given block codec — the conformance battery then exercises the whole
/// compressed read path (frame decode, CRC verify, batch dedup).
fn compressed_lsm_config(
    dir: &std::path::Path,
    codec: tierbase::compress::BlockCodec,
) -> LsmConfig {
    let mut config = LsmConfig::small_for_tests(dir);
    config.sst.codec = codec;
    config
}

#[test]
fn lsm_db_lz_conforms() {
    // 16th configuration: the LSM engine over LZ-compressed SSTable
    // blocks. Every frame the battery reads back decodes + CRC-verifies.
    let dir = tmpdir("lsm-lz");
    let config = compressed_lsm_config(dir.path(), tierbase::compress::BlockCodec::Lz);
    conformance(&LsmDb::open(config).unwrap());
}

#[test]
fn lsm_db_dict_conforms() {
    // 17th configuration: dictionary-trained compression; the dict is
    // sampled at flush/compaction time and persisted per table.
    let dir = tmpdir("lsm-dict");
    let config = compressed_lsm_config(dir.path(), tierbase::compress::BlockCodec::Dict);
    conformance(&LsmDb::open(config).unwrap());
}

#[test]
fn frontend_over_lz_lsm_conforms() {
    // 18th configuration: the pipelined front-end over the LZ-compressed
    // LSM engine — compressed frames flow through the batched read path
    // (staged fetch, dedup, one decode per block per batch).
    let dir = tmpdir("fe-lsm-lz");
    let config = compressed_lsm_config(dir.path(), tierbase::compress::BlockCodec::Lz);
    let db = Arc::new(LsmDb::open(config).unwrap());
    let fe = Frontend::start(db, FrontendConfig::with_shards(4));
    conformance(&fe);
    fe.shutdown();
}

#[test]
fn frontend_over_dict_lsm_conforms() {
    // 19th configuration: same pipelined path, dictionary codec.
    let dir = tmpdir("fe-lsm-dict");
    let config = compressed_lsm_config(dir.path(), tierbase::compress::BlockCodec::Dict);
    let db = Arc::new(LsmDb::open(config).unwrap());
    let fe = Frontend::start(db, FrontendConfig::with_shards(4));
    conformance(&fe);
    fe.shutdown();
}

#[test]
fn socket_client_conforms() {
    // 15th configuration: the whole battery over a real Unix socket —
    // pipelined wire client → tb-server → Frontend → LsmDb. The network
    // boundary must be invisible to the KvEngine contract (exact error
    // identity included: CasMismatch and friends round-trip the wire).
    use tierbase::server::{Server, ServerClient};
    let dir = tmpdir("socket");
    std::fs::create_dir_all(dir.path()).unwrap();
    let sock = dir.path().join("tb.sock");
    let db = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path().join("db"))).unwrap());
    let fe = Arc::new(Frontend::start(db, FrontendConfig::with_shards(4)));
    let server = Server::bind_unix(&sock, fe.clone()).unwrap();
    let client = ServerClient::connect_unix(&sock).unwrap();
    conformance(&client);
    server.stop();
    fe.shutdown();
}

#[test]
fn tierbase_over_a_socket_storage_tier_conforms() {
    // A tiered TierBase whose storage tier is a real hop: wire client →
    // tb-server → Frontend → LsmDb over a Unix socket. The cache tier
    // reaches it through `KvEngine` calls alone, so both sync policies
    // must pass the battery as they do over a local LsmDb.
    use tierbase::server::{Server, ServerClient};
    for policy in [SyncPolicy::WriteThrough, SyncPolicy::WriteBack] {
        let dir = tmpdir(&format!("tierbase-socket-{policy:?}"));
        std::fs::create_dir_all(dir.path()).unwrap();
        let sock = dir.path().join("tb.sock");
        let db = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path().join("db"))).unwrap());
        let fe = Arc::new(Frontend::start(db, FrontendConfig::with_shards(4)));
        let server = Server::bind_unix(&sock, fe.clone()).unwrap();
        let client = ServerClient::connect_unix(&sock).unwrap();
        let tb = TierBase::open(
            TierBaseConfig::builder(dir.path().join("tierbase"))
                .policy(policy)
                .storage(Arc::new(client))
                .build(),
        )
        .unwrap();
        conformance(&tb);
        // Once synced, a write is in the server's engine under either
        // policy (as an envelope, so only its presence is compared).
        tb.put(k("hop", 0), v(0)).unwrap();
        tb.sync().unwrap();
        let direct = ServerClient::connect_unix(&sock).unwrap();
        assert!(direct.get(&k("hop", 0)).unwrap().is_some(), "{policy:?}");
        drop((tb, direct));
        server.stop();
        fe.shutdown();
    }
}
