//! Range-scan API: per-key `get` loop vs one `EngineOp::Scan` through
//! `apply_batch` over a disk-resident working set.
//!
//! Shape to reproduce: a YCSB-E-style scan of `SCAN_LEN` consecutive
//! keys pays `SCAN_LEN` tree-lock passes and per-key block IO in the
//! get loop, while a batched scan stages the overlapping block ranges
//! once under a single level-state snapshot — with ~2 KiB values, two
//! rows share every 4 KiB block, so the scan fetches roughly half the
//! blocks the loop does, and dedups them against any point lookups in
//! the same batch.
//!
//! Two tables:
//!
//! * **scan path** — get loop vs batched scans (several `Scan` ops per
//!   `apply_batch`), printing the engine's `scan_blocks_read` share,
//!   plus an each-block-once check: a batch that scans a range *and*
//!   point-reads keys inside it must not re-fetch the scanned blocks;
//! * **fan-out** — the same scans against one pipelined front-end
//!   shard vs `ClusterClient::scan` across 3 pipelined nodes (fan-out
//!   to every owner, k-way merge, global re-limit).

use std::sync::Arc;
use tb_bench::{bench_dir, budget, print_table, BenchReport};
use tb_cluster::{ClusterClient, CoordinatorGroup, NodeId, NodeStore, ServingMode};
use tb_common::{EngineOp, Key, KvEngine, OpOutcome, Value};
use tb_frontend::{Frontend, FrontendConfig};
use tb_lsm::{LsmConfig, LsmDb};

/// Rows per scan (YCSB-E's max_scan_length).
const SCAN_LEN: usize = 100;
/// Scans submitted per `apply_batch` call in the batched modes.
const SCANS_PER_BATCH: usize = 8;

fn key(i: u64) -> Key {
    Key::from(format!("sk{i:08}"))
}

/// ~2 KiB values: two rows per 4 KiB block, so block IO dominates and
/// staged-range dedup is visible in the counters.
fn value(i: u64) -> Value {
    Value::from(format!("value-{i}-{}", "s".repeat(2000)))
}

/// Deterministic xorshift so every mode replays the same scan schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Scan schedule: `[start, end)` ranges of `SCAN_LEN` consecutive keys
/// at uniform starts, grouped into batches of `SCANS_PER_BATCH`.
fn schedule(records: u64, scans: u64) -> Vec<Vec<(Key, Key)>> {
    let mut rng = Rng(0x5eed_5ca8);
    let mut batches = Vec::new();
    let mut remaining = scans;
    while remaining > 0 {
        let n = SCANS_PER_BATCH.min(remaining as usize);
        let batch = (0..n)
            .map(|_| {
                let start = rng.next() % records.saturating_sub(SCAN_LEN as u64).max(1);
                (key(start), key(start + SCAN_LEN as u64))
            })
            .collect();
        batches.push(batch);
        remaining -= n as u64;
    }
    batches
}

fn scan_ops(batch: &[(Key, Key)]) -> Vec<EngineOp> {
    batch
        .iter()
        .map(|(start, end)| EngineOp::Scan {
            start: start.clone(),
            end: Some(end.clone()),
            limit: SCAN_LEN,
        })
        .collect()
}

fn main() {
    let records = budget(20_000);
    let scans = budget(4_000);
    let mut report = BenchReport::new("scan_api");

    // Disk-resident working set: load, then flush everything out of
    // the memtable so each scan must reach SSTable blocks.
    let dir = bench_dir("scan-api");
    let db = Arc::new(LsmDb::open(LsmConfig::new(&dir)).expect("open lsm"));
    for i in 0..records {
        db.put(key(i), value(i)).unwrap();
    }
    db.flush().unwrap();

    let batches = schedule(records, scans);
    let rows_expected = scans * SCAN_LEN as u64;
    let mut rows = Vec::new();
    let mut loop_krps = 0.0;
    for batched in [false, true] {
        let before = KvEngine::batch_read_stats(db.as_ref());
        let t0 = std::time::Instant::now();
        let mut fetched = 0u64;
        for batch in &batches {
            if batched {
                // One submission per batch: every scan's block ranges
                // stage into the shared candidate arena and dedup.
                for outcome in LsmDb::apply_batch(&db, scan_ops(batch)) {
                    match outcome {
                        Ok(OpOutcome::Range(pairs)) => fetched += pairs.len() as u64,
                        other => panic!("unexpected outcome {other:?}"),
                    }
                }
            } else {
                // The old shape: a scan is a client-side get loop over
                // the consecutive keys, each paying its own pass.
                for (start, _) in batch {
                    let base: u64 = std::str::from_utf8(&start.as_slice()[2..])
                        .unwrap()
                        .parse()
                        .unwrap();
                    for j in 0..SCAN_LEN as u64 {
                        if db.get(&key(base + j)).unwrap().is_some() {
                            fetched += 1;
                        }
                    }
                }
            }
        }
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(fetched, rows_expected, "every scheduled row was loaded");
        let after = KvEngine::batch_read_stats(db.as_ref());
        let krps = fetched as f64 / elapsed / 1000.0;
        if !batched {
            loop_krps = krps;
        }
        report.add_values(
            if batched {
                "apply_batch-scan"
            } else {
                "get-loop"
            },
            &[
                ("krows_per_s", krps),
                (
                    "blocks_read",
                    (after.blocks_read - before.blocks_read) as f64,
                ),
                (
                    "scan_blocks",
                    (after.scan_blocks_read - before.scan_blocks_read) as f64,
                ),
                (
                    "dedup_hits",
                    (after.block_dedup_hits - before.block_dedup_hits) as f64,
                ),
            ],
        );
        rows.push(vec![
            if batched {
                "apply_batch scan"
            } else {
                "get-loop"
            }
            .to_string(),
            format!("{krps:.1}"),
            format!("{:.2}x", krps / loop_krps),
            format!("{}", after.blocks_read - before.blocks_read),
            format!("{}", after.scan_blocks_read - before.scan_blocks_read),
            format!("{}", after.block_dedup_hits - before.block_dedup_hits),
            format!("{}", after.scans - before.scans),
        ]);
    }
    print_table(
        "Scan API: get loop vs apply_batch scans (disk-resident LSM working set)",
        &[
            "path",
            "krows/s",
            "vs-loop",
            "blocks_read",
            "scan_blocks",
            "dedup_hits",
            "scans",
        ],
        &rows,
    );
    points_ride_the_scanned_blocks(&db);
    let _ = std::fs::remove_dir_all(&dir);

    fanout_scan(&mut report);
    report.write().expect("write bench report");
}

/// Each needed block is fetched at most once per batch: a batch that
/// scans a range and then point-reads every fifth key inside it stages
/// no extra block fetches — the point slots resolve from the blocks the
/// scan already staged.
fn points_ride_the_scanned_blocks(db: &LsmDb) {
    let range = (key(0), key(SCAN_LEN as u64));
    let mut ops = scan_ops(std::slice::from_ref(&range));
    ops.extend(
        (0..SCAN_LEN as u64)
            .step_by(5)
            .map(|j| EngineOp::Get(key(j))),
    );
    let before = KvEngine::batch_read_stats(db);
    db.apply_batch(scan_ops(&[range])).pop().unwrap().unwrap();
    let solo = KvEngine::batch_read_stats(db);
    for outcome in db.apply_batch(ops) {
        outcome.unwrap();
    }
    let mixed = KvEngine::batch_read_stats(db);
    let (solo_blocks, mixed_blocks) = (
        solo.blocks_read - before.blocks_read,
        mixed.blocks_read - solo.blocks_read,
    );
    assert!(
        mixed_blocks <= solo_blocks,
        "point reads inside a scanned range re-fetched blocks: \
         scan-only {solo_blocks}, scan+points {mixed_blocks}"
    );
    assert!(
        mixed.block_dedup_hits > solo.block_dedup_hits,
        "point reads inside a scanned range did not dedup"
    );
}

/// The same scans against one pipelined front-end shard vs
/// `ClusterClient::scan` across 3 pipelined nodes: hash
/// placement scatters every range over all owners, so the client fans
/// out, k-way-merges the per-node rows, and re-applies the limit.
fn fanout_scan(report: &mut BenchReport) {
    let records = budget(10_000);
    let scans = budget(1_000);
    let dir = bench_dir("scan-api-cluster");

    // Per-shard baseline: one node's worth of data behind one
    // pipelined front-end.
    let solo = Arc::new(LsmDb::open(LsmConfig::new(dir.join("solo"))).expect("open solo lsm"));
    for i in 0..records {
        solo.put(key(i), value(i)).unwrap();
    }
    solo.flush().unwrap();
    let fe = Frontend::start(
        solo.clone() as Arc<dyn KvEngine>,
        FrontendConfig::with_shards(2),
    );

    let dbs: Vec<Arc<LsmDb>> = (0..3)
        .map(|i| {
            Arc::new(LsmDb::open(LsmConfig::new(dir.join(format!("n{i}")))).expect("open node lsm"))
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
    for i in 0..records {
        client.put(key(i), value(i)).unwrap();
    }
    for db in &dbs {
        db.flush().unwrap();
    }

    let batches = schedule(records, scans);
    let mut rows = Vec::new();
    let mut fe_krps = 0.0;
    for cluster in [false, true] {
        let t0 = std::time::Instant::now();
        let mut fetched = 0u64;
        for batch in &batches {
            for (start, end) in batch {
                let pairs = if cluster {
                    client.scan(start, Some(end), SCAN_LEN).unwrap()
                } else {
                    fe.scan(start, Some(end), SCAN_LEN).unwrap()
                };
                fetched += pairs.len() as u64;
            }
        }
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(fetched, scans * SCAN_LEN as u64, "every scheduled row");
        let krps = fetched as f64 / elapsed / 1000.0;
        if !cluster {
            fe_krps = krps;
        }
        report.add_values(
            if cluster {
                "cluster-scan"
            } else {
                "frontend-scan"
            },
            &[("krows_per_s", krps)],
        );
        rows.push(vec![
            if cluster {
                "cluster scan (3 nodes, fan-out merge)".into()
            } else {
                "frontend scan (1 node)".into()
            },
            format!("{krps:.1}"),
            format!("{:.2}x", krps / fe_krps),
        ]);
    }
    fe.shutdown();
    print_table(
        "Scan fan-out: per-shard front-end vs cluster k-way merge",
        &["path", "krows/s", "vs-frontend"],
        &rows,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
