//! Batched submission/completion API: per-op `get` loop vs one
//! `apply_batch` pass over a disk-resident working set.
//!
//! Shape to reproduce: once the working set lives in SSTables, a
//! multi-key read pays one tree-lock pass + per-key block IO in the
//! get loop, while `apply_batch` stages every lookup under a single
//! level-state snapshot and dedups the staged block reads — each
//! needed block is fetched once per batch and shared across keys. The
//! win grows with key locality (clustered feed-style fetches share
//! almost every block) and survives the pipelined front-end, whose
//! workers lower each drained batch onto the same call.
//!
//! Both paths run the same staged lookup and completion pass; a get is
//! a one-lookup pass, so the get-loop rows count its blocks too.
//!
//! A second table takes the story across node boundaries: the same
//! clustered batches through `ClusterClient::multi_get` against
//! pipelined cluster nodes (group-by-owner, one batched engine call per
//! node), so the Fig-7/9-style scaling story crosses node boundaries.

use std::sync::Arc;
use tb_bench::{bench_dir, budget, print_table, BenchReport};
use tb_cluster::{ClusterClient, CoordinatorGroup, NodeId, NodeStore, ServingMode};
use tb_common::{EngineOp, Key, KvEngine, OpOutcome, Value};
use tb_frontend::{Frontend, FrontendConfig};
use tb_lsm::{LsmConfig, LsmDb};

const BATCH: usize = 128;

fn key(i: u64) -> Key {
    Key::from(format!("bk{i:08}"))
}

/// Deterministic xorshift so every mode replays the same key schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Key schedule: batches of `BATCH` keys. `clustered` batches read a
/// consecutive run (feed/feature fetch); uniform batches scatter.
fn schedule(records: u64, lookups: u64, clustered: bool) -> Vec<Vec<Key>> {
    let mut rng = Rng(0x5eed_cafe);
    let mut batches = Vec::new();
    let mut remaining = lookups;
    while remaining > 0 {
        let n = BATCH.min(remaining as usize);
        let mut batch = Vec::with_capacity(n);
        if clustered {
            let start = rng.next() % records.saturating_sub(n as u64).max(1);
            for j in 0..n {
                batch.push(key(start + j as u64));
            }
        } else {
            for _ in 0..n {
                batch.push(key(rng.next() % records));
            }
        }
        batches.push(batch);
        remaining -= n as u64;
    }
    batches
}

fn main() {
    let mut report = BenchReport::new("batch_api");
    let records = budget(40_000);
    let lookups = budget(120_000);

    // Disk-resident working set: load, then flush everything out of the
    // memtable so each lookup must reach SSTable blocks.
    let dir = bench_dir("batch-api");
    let db = Arc::new(LsmDb::open(LsmConfig::new(&dir)).expect("open lsm"));
    for i in 0..records {
        db.put(key(i), Value::from(format!("value-{i}-{}", "x".repeat(64))))
            .unwrap();
    }
    db.flush().unwrap();

    let mut rows = Vec::new();
    let mut loop_kqps = std::collections::HashMap::new();
    for clustered in [false, true] {
        let pattern = if clustered { "clustered" } else { "uniform" };
        let batches = schedule(records, lookups, clustered);

        for batched in [false, true] {
            let before = KvEngine::batch_read_stats(db.as_ref());
            let t0 = std::time::Instant::now();
            let mut hits = 0u64;
            for batch in &batches {
                if batched {
                    // One submission, one completion pass, deduped IO.
                    match LsmDb::apply_batch(&db, vec![EngineOp::MultiGet(batch.clone())])
                        .pop()
                        .expect("one op submitted")
                    {
                        Ok(OpOutcome::Values(values)) => {
                            hits += values.iter().flatten().count() as u64
                        }
                        other => panic!("unexpected outcome {other:?}"),
                    }
                } else {
                    // The old shape: every key pays its own pass.
                    for k in batch {
                        if db.get(k).unwrap().is_some() {
                            hits += 1;
                        }
                    }
                }
            }
            let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(hits, lookups, "every scheduled key was loaded");
            let after = KvEngine::batch_read_stats(db.as_ref());
            let kqps = lookups as f64 / elapsed / 1000.0;
            let path = if batched { "apply_batch" } else { "get-loop" };
            if !batched {
                loop_kqps.insert(pattern, kqps);
            }
            report.add_values(
                format!("{path}/{pattern}"),
                &[
                    ("kqps", kqps),
                    (
                        "blocks_read",
                        (after.blocks_read - before.blocks_read) as f64,
                    ),
                    (
                        "dedup_hits",
                        (after.block_dedup_hits - before.block_dedup_hits) as f64,
                    ),
                ],
            );
            rows.push(vec![
                path.to_string(),
                pattern.to_string(),
                format!("{kqps:.1}"),
                format!("{:.2}x", kqps / loop_kqps[pattern]),
                format!("{}", after.blocks_read - before.blocks_read),
                format!("{}", after.block_dedup_hits - before.block_dedup_hits),
                format!("{}", after.memtable_hits - before.memtable_hits),
            ]);
        }
    }

    // The same batches through the pipelined front-end: each shard
    // batch is lowered onto one apply_batch call on the engine, whose
    // counters are read directly.
    let fe = Frontend::start(
        db.clone() as Arc<dyn KvEngine>,
        FrontendConfig::with_shards(4),
    );
    let fe_before = KvEngine::batch_read_stats(db.as_ref());
    let batches = schedule(records, lookups, true);
    let t0 = std::time::Instant::now();
    for batch in &batches {
        let got = fe.multi_get(batch).unwrap();
        assert_eq!(got.len(), batch.len());
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let fe_after = KvEngine::batch_read_stats(db.as_ref());
    let kqps = lookups as f64 / elapsed / 1000.0;
    report.add_values(
        "frontend-multi_get/clustered",
        &[
            ("kqps", kqps),
            (
                "blocks_read",
                (fe_after.blocks_read - fe_before.blocks_read) as f64,
            ),
        ],
    );
    rows.push(vec![
        "frontend multi_get".to_string(),
        "clustered".to_string(),
        format!("{kqps:.1}"),
        format!("{:.2}x", kqps / loop_kqps["clustered"]),
        format!("{}", fe_after.blocks_read - fe_before.blocks_read),
        format!("{}", fe_after.block_dedup_hits - fe_before.block_dedup_hits),
        format!("{}", fe_after.memtable_hits - fe_before.memtable_hits),
    ]);
    fe.shutdown();

    print_table(
        "Batch API: get loop vs apply_batch (disk-resident LSM working set)",
        &[
            "path",
            "pattern",
            "kqps",
            "vs-loop",
            "blocks_read",
            "dedup_hits",
            "memtable_hits",
        ],
        &rows,
    );
    let _ = std::fs::remove_dir_all(&dir);

    cluster_multi_get(&mut report);
    report.write().expect("write bench report");
}

/// The same clustered batches through a 3-node in-process cluster:
/// `ClusterClient::multi_get` groups keys per owner, each pipelined
/// node lowers its group onto one `apply_batch` — the batch story
/// across node boundaries, vs a per-key client get loop. Large values
/// (~2 KiB: two entries per 4 KiB block) make the fetch list
/// block-IO-heavy.
fn cluster_multi_get(report: &mut BenchReport) {
    let records = budget(12_000);
    let lookups = budget(24_000);
    let dir = bench_dir("batch-api-cluster");
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
        client.put(key(i), big_value(i)).unwrap();
    }
    for db in &dbs {
        db.flush().unwrap();
    }

    let batches = schedule(records, lookups, true);
    let mut rows = Vec::new();
    let mut loop_kqps = 0.0;
    let blocks_read = |dbs: &[Arc<LsmDb>]| -> u64 {
        dbs.iter()
            .map(|db| KvEngine::batch_read_stats(db.as_ref()).blocks_read)
            .sum()
    };
    for batched in [false, true] {
        let before = blocks_read(&dbs);
        let t0 = std::time::Instant::now();
        let mut hits = 0u64;
        for batch in &batches {
            if batched {
                let values = client.multi_get(batch).unwrap();
                hits += values.iter().flatten().count() as u64;
            } else {
                for k in batch {
                    if client.get(k).unwrap().is_some() {
                        hits += 1;
                    }
                }
            }
        }
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(hits, lookups, "every clustered key was loaded");
        let kqps = lookups as f64 / elapsed / 1000.0;
        if !batched {
            loop_kqps = kqps;
        }
        let blocks = blocks_read(&dbs) - before;
        report.add_values(
            if batched {
                "cluster-multi_get"
            } else {
                "cluster-get-loop"
            },
            &[("kqps", kqps), ("blocks_read", blocks as f64)],
        );
        rows.push(vec![
            if batched {
                "client multi_get".into()
            } else {
                "client get loop".into()
            },
            "3 nodes".into(),
            format!("{kqps:.1}"),
            format!("{:.2}x", kqps / loop_kqps),
            format!("{blocks}"),
        ]);
    }
    print_table(
        "Cluster: per-key gets vs grouped multi_get (pipelined nodes)",
        &["path", "topology", "kqps", "vs-loop", "blocks_read"],
        &rows,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// ~2 KiB values for the cluster table: block IO dominates.
fn big_value(i: u64) -> Value {
    Value::from(format!("value-{i}-{}", "z".repeat(2000)))
}
