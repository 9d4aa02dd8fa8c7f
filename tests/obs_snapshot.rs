//! End-to-end telemetry: after driving every layer in one process —
//! the tiered store (core + cache), an LSM engine behind the pipelined
//! front-end, and a cluster with a failover — a single
//! `tb_obs::global().snapshot()` covers them all, in both the
//! Prometheus text exposition and the JSON rendering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tierbase::cluster::{ClusterClient, CoordinatorGroup, NodeId, NodeStore};
use tierbase::common::testutil::MapEngine;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::obs;
use tierbase::obs::json;
use tierbase::prelude::*;

#[test]
fn one_snapshot_spans_every_layer() {
    obs::set_enabled(true);

    // --- core + cache: the tiered store -----------------------------
    let core_dir = tierbase::common::test_dir("obs-snap-core");
    let store = TierBase::open(TierBaseConfig::builder(core_dir.path()).build()).unwrap();
    for i in 0..32 {
        store
            .put(Key::from(format!("ck{i}")), Value::from(format!("cv{i}")))
            .unwrap();
    }
    for i in 0..32 {
        assert!(store.get(&Key::from(format!("ck{i}"))).unwrap().is_some());
    }

    // --- lsm + frontend: pipelined serving over a durable engine ----
    // The engine writes LZ-compressed SSTable blocks so the snapshot
    // also covers the compression telemetry: build counters at flush,
    // decode counters + the decompress histogram on the read back. The
    // values are long enough that the table's fixed 1.25 KiB of entropy
    // tables is repaid.
    let lsm_dir = tierbase::common::test_dir("obs-snap-lsm");
    let mut lsm_config = LsmConfig::new(lsm_dir.path());
    lsm_config.sst.codec = tierbase::compress::BlockCodec::Lz;
    let db = Arc::new(LsmDb::open(lsm_config).unwrap());
    let fe = Frontend::start(db.clone(), FrontendConfig::with_shards(2));
    let burst = (0..64)
        .map(|i| {
            EngineOp::Put(
                Key::from(format!("fk{i}")),
                Value::from(format!("fv{i} {}", "templated value ".repeat(4))),
            )
        })
        .collect();
    for outcome in fe.apply_batch(burst) {
        outcome.unwrap();
    }
    // Force the memtable into a compressed table, then read everything
    // back through the batched path so every block decompresses.
    db.flush().unwrap();
    let keys: Vec<Key> = (0..64).map(|i| Key::from(format!("fk{i}"))).collect();
    assert!(fe.multi_get(&keys).unwrap().iter().all(Option::is_some));
    // The engine's own compression counters.
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let lsm = &db.stats;
    assert!(count(&lsm.blocks_compressed) > 0, "no compressed blocks");
    assert!(
        count(&lsm.compressed_bytes_written) < count(&lsm.uncompressed_bytes_written),
        "compression did not shrink the data region"
    );
    assert!(
        count(&lsm.decode.blocks_decompressed) > 0,
        "no decompressions"
    );
    assert_eq!(
        count(&lsm.decode.block_decode_errors),
        0,
        "clean run decoded dirty"
    );
    fe.shutdown();

    // --- cluster: replicated routed ops, a client-observed failover --
    let nodes = vec![
        NodeStore::new(NodeId(0), MapEngine::shared()).with_replica_factory(MapEngine::shared),
        NodeStore::new(NodeId(1), MapEngine::shared()).with_replica(MapEngine::shared()),
    ];
    let coordinators = Arc::new(CoordinatorGroup::bootstrap(1, nodes).unwrap());
    let client = ClusterClient::connect(coordinators.clone());
    for i in 0..32 {
        client
            .put(Key::from(format!("nk{i}")), Value::from(format!("nv{i}")))
            .unwrap();
    }
    coordinators.node(NodeId(0)).unwrap().read().crash();
    for i in 0..32 {
        // Every slot stays readable; the first op against the dead node
        // triggers a failover the client records.
        let _ = client.get(&Key::from(format!("nk{i}")));
    }

    // --- one snapshot, five layers -----------------------------------
    let snap = obs::global().snapshot();
    for counter in [
        "core_puts",
        "core_gets",
        "cache_inserts",
        "lsm_puts",
        "lsm_batches",
        "lsm_blocks_compressed",
        "lsm_compressed_bytes_written",
        "lsm_uncompressed_bytes_written",
        "lsm_blocks_decompressed",
        "frontend_submitted",
        "frontend_completed",
        "cluster_failovers",
        "repl_shipped",
        "repl_ship_frames",
    ] {
        assert!(
            snap.counter(counter) > 0,
            "counter {counter} did not move: {:?}",
            snap.counters
        );
    }
    assert!(
        snap.histograms.contains_key("frontend_e2e_ns"),
        "front-end latency histogram missing"
    );
    assert!(
        snap.histograms.contains_key("lsm_block_decompress_ns"),
        "block decompress histogram missing"
    );
    // Registered but untouched in a clean run: present at zero.
    assert_eq!(
        snap.counter("lsm_block_decode_errors"),
        0,
        "clean run recorded decode errors"
    );
    assert!(
        snap.counters.contains_key("lsm_block_decode_errors"),
        "decode-error counter not registered: {:?}",
        snap.counters
    );
    assert!(
        snap.histograms
            .keys()
            .any(|k| k.starts_with("cluster_node")),
        "per-node fan-out histograms missing"
    );
    // The LSM's background worker: a stall histogram registered at open
    // (present even before any writer stalled) and the queue/level
    // gauges — the flush above left one L0 table and nothing frozen.
    assert!(
        snap.histograms.contains_key("lsm_write_stall_ns"),
        "write-stall histogram missing"
    );
    assert_eq!(snap.gauge("lsm_frozen_memtables"), 0, "{:?}", snap.gauges);
    assert!(snap.gauge("lsm_l0_tables") >= 1, "{:?}", snap.gauges);
    // Replication health: the live channels report their watermark
    // position and lag through per-channel snapshot sources.
    assert!(
        snap.gauges.contains_key("repl_applied_lsn"),
        "replication applied-LSN gauge missing: {:?}",
        snap.gauges
    );
    assert!(
        snap.gauges.contains_key("repl_lag"),
        "replication lag gauge missing: {:?}",
        snap.gauges
    );

    // Prometheus rendering: every layer prefix present, and the whole
    // exposition passes the linter.
    let text = snap.to_prometheus();
    obs::validate_exposition(&text).expect("well-formed exposition");
    for prefix in ["core_", "cache_", "lsm_", "frontend_", "cluster_"] {
        assert!(
            text.lines().any(|l| l.starts_with(prefix)),
            "no {prefix} series in exposition"
        );
    }

    // JSON rendering: parses, and mirrors the same counters.
    let doc = json::parse(&snap.to_json()).expect("well-formed json");
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(
        counters
            .get("frontend_submitted")
            .and_then(json::Value::as_f64),
        Some(snap.counter("frontend_submitted") as f64)
    );
    assert!(counters.get("cluster_failovers").is_some());
}
