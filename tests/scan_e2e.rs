//! End-to-end range-scan acceptance: YCSB-E through the cluster.
//!
//! A generated YCSB-E trace (95% scans, 5% inserts, zipfian starts)
//! runs against a 3-node cluster of pipelined LSM nodes
//! via `ClusterClient::scan` — hash placement scatters every range
//! over all owners, so each scan exercises the fan-out, k-way merge,
//! and global re-limit — and every scan's rows must be identical to a
//! single-node `BTreeMap` oracle: ascending key order, end-exclusive,
//! tombstone-masked, truncated to the scan's limit.

use std::collections::BTreeMap;
use std::sync::Arc;
use tierbase::cluster::{ClusterClient, CoordinatorGroup, NodeId, NodeStore, ServingMode};
use tierbase::common::{test_dir, Key, KvEngine, Value};
use tierbase::frontend::FrontendConfig;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::prelude::{Op, Workload, WorkloadSpec};

#[test]
fn ycsb_e_cluster_scans_match_oracle() {
    let dir = test_dir("tb-scan-e2e");
    let dbs: Vec<Arc<LsmDb>> = (0..3)
        .map(|i| {
            let config = LsmConfig::small_for_tests(dir.path().join(format!("n{i}")));
            Arc::new(LsmDb::open(config).expect("open node lsm"))
        })
        .collect();
    let nodes = dbs
        .iter()
        .enumerate()
        .map(|(i, db)| {
            NodeStore::with_serving_mode(
                NodeId(i as u32),
                db.clone() as Arc<dyn KvEngine>,
                ServingMode::Pipelined(FrontendConfig::with_shards(2)),
            )
        })
        .collect();
    let coordinators = Arc::new(CoordinatorGroup::bootstrap(1, nodes).expect("bootstrap"));
    let client = ClusterClient::connect(coordinators);

    let (load, run) = Workload::new(WorkloadSpec::ycsb_e(1_500, 2_000)).generate();
    let mut oracle: BTreeMap<Key, Value> = BTreeMap::new();
    for op in load.ops() {
        match op {
            Op::Insert { key, value } => {
                client.put(key.clone(), value.clone()).unwrap();
                oracle.insert(key.clone(), value.clone());
            }
            other => panic!("YCSB-E load phase is insert-only, got {other:?}"),
        }
    }
    // YCSB-E never deletes; delete a spread of keys out-of-band so the
    // scans must mask tombstones, not just report live rows.
    for (i, key) in oracle
        .keys()
        .cloned()
        .collect::<Vec<_>>()
        .iter()
        .enumerate()
    {
        if i % 7 == 3 {
            client.delete(key).unwrap();
            oracle.remove(key);
        }
    }
    // Push the working set out of the memtables so scans cross the
    // staged SSTable read path, not just in-memory state.
    for db in &dbs {
        db.flush().unwrap();
    }

    let mut scans = 0u64;
    let mut nonempty = 0u64;
    for op in run.ops() {
        match op {
            Op::Insert { key, value } => {
                client.put(key.clone(), value.clone()).unwrap();
                oracle.insert(key.clone(), value.clone());
            }
            Op::Scan { start, end, limit } => {
                let got = client.scan(start, Some(end), *limit as usize).unwrap();
                let want: Vec<(Key, Value)> = oracle
                    .range(start.clone()..end.clone())
                    .take(*limit as usize)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(
                    got, want,
                    "cluster scan [{start:?}, {end:?}) limit {limit} diverged from oracle"
                );
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "scan rows out of order"
                );
                scans += 1;
                nonempty += u64::from(!got.is_empty());
            }
            other => panic!("YCSB-E run phase is scan/insert, got {other:?}"),
        }
    }
    assert!(scans >= 1_500, "run phase must be scan-heavy: {scans}");
    assert!(
        nonempty >= scans / 2,
        "scan starts missed the keyspace: {nonempty}/{scans} non-empty"
    );

    // The scans actually rode the batched read path on the nodes.
    let staged: u64 = dbs
        .iter()
        .map(|db| KvEngine::batch_read_stats(db.as_ref()).scans)
        .sum();
    assert!(
        staged >= scans,
        "node engines saw {staged} scans for {scans} client scans"
    );
}
