//! Figure 9: throughput timeline under a workload burst for
//! TierBase-s / TierBase-e / TierBase-m.
//!
//! Time-compressed replay of the paper's scenario: a calm period at a
//! throttled request rate, a burst of unthrottled load, then calm
//! again. Paper shape to reproduce: all systems serve the calm phases;
//! during the burst the single-thread systems cap near their one-core
//! limit while TierBase-e boosts to multi-thread throughput and drops
//! back afterwards. The paper's Redis-s is a one-permit, in-memory
//! store, which is `TierBase-s` here, so it has no row of its own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_bench::{bench_dir, print_table, BenchReport};
use tb_cluster::{NodeId, NodeStore};
use tb_common::testutil::MapEngine;
use tb_common::{EngineOp, Key, KvEngine, OpOutcome, Result, Value};
use tb_frontend::{Frontend, FrontendConfig};
use tb_lsm::{LsmConfig, LsmDb};
use tierbase_core::elastic::ThreadMode;
use tierbase_core::{CompressorChoice, TierBase, TierBaseConfig};

/// Phase durations, resolved once up front (the client hot loop must
/// not re-read the environment); `TB_BENCH_SMOKE` compresses the
/// timeline 5× so CI can execute the bench.
#[derive(Clone, Copy)]
struct Phases {
    calm_ms: u64,
    burst_ms: u64,
    tail_ms: u64,
    bucket_ms: u64,
}

impl Phases {
    fn resolve() -> Self {
        let scale = if tb_bench::smoke() { 5 } else { 1 };
        Self {
            calm_ms: 1500 / scale,
            burst_ms: 3000 / scale,
            tail_ms: 1500 / scale,
            bucket_ms: 500 / scale,
        }
    }

    fn total_ms(&self) -> u64 {
        self.calm_ms + self.burst_ms + self.tail_ms
    }
}

/// Throttled request rate during calm phases (ops/s across clients).
const CALM_RATE: u64 = 20_000;

/// A data node viewed as a plain engine, so the burst timeline can run
/// over the replicated write path (every put shipped to the replica,
/// an in-memory map: the ship-overhead rows charge the channel —
/// framing, ack, eager apply — not a second disk).
struct ReplicatedNode(NodeStore);

impl KvEngine for ReplicatedNode {
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        let node = &self.0;
        ops.into_iter()
            .map(|op| match op {
                EngineOp::Get(key) => node.get(&key).map(OpOutcome::Value),
                EngineOp::MultiGet(keys) => node.multi_get(&keys).map(OpOutcome::Values),
                EngineOp::Scan { start, end, limit } => {
                    node.scan(&start, end.as_ref(), limit).map(OpOutcome::Range)
                }
                EngineOp::Put(key, value) => node.put(key, value).map(OpOutcome::Done),
                EngineOp::MultiPut(pairs) => node.multi_put(pairs).map(OpOutcome::Done),
                EngineOp::Delete(key) => node.delete(&key).map(OpOutcome::Done),
                EngineOp::Cas { key, expected, new } => node
                    .cas(key, expected.as_ref(), Some(new))
                    .map(OpOutcome::Done),
                EngineOp::CasDelete { key, expected } => {
                    node.cas(key, expected.as_ref(), None).map(OpOutcome::Done)
                }
            })
            .collect()
    }
    fn resident_bytes(&self) -> u64 {
        0
    }
    fn label(&self) -> String {
        format!("repl<{}>", self.0.engine_label())
    }
}

/// Single-writer put rate in kops/s (one writer isolates the per-write
/// ship cost from `NodeStore`'s write-order serialization, which the
/// multi-client timeline rows surface separately).
fn put_rate(engine: &dyn KvEngine, ops: u64) -> f64 {
    let started = Instant::now();
    for i in 0..ops {
        engine
            .put(
                Key::from(format!("sh{}", i % 4096)),
                Value::from(vec![b'v'; 100]),
            )
            .unwrap();
    }
    ops as f64 / started.elapsed().as_secs_f64() / 1000.0
}

/// The median of `runs`, which it sorts.
fn median(runs: &mut [f64]) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn timeline(engine: Arc<dyn KvEngine>, clients: usize, phases: Phases) -> Vec<f64> {
    // Preload a small hot set.
    for i in 0..1000 {
        engine
            .put(Key::from(format!("hot{i}")), Value::from(vec![b'v'; 100]))
            .unwrap();
    }
    let total_ms = phases.total_ms();
    let done = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    let mut handles = Vec::new();
    for t in 0..clients {
        let engine = engine.clone();
        let done = done.clone();
        let completed = completed.clone();
        handles.push(std::thread::spawn(move || {
            let mut i = t as u64;
            while !done.load(Ordering::Relaxed) {
                let elapsed = started.elapsed().as_millis() as u64;
                let in_burst =
                    (phases.calm_ms..phases.calm_ms + phases.burst_ms).contains(&elapsed);
                let key = Key::from(format!("hot{}", i % 1000));
                if i.is_multiple_of(10) {
                    let _ = engine.put(key, Value::from(vec![b'v'; 100]));
                } else {
                    let _ = engine.get(&key);
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i += 1;
                if !in_burst {
                    // Throttle: clients collectively target CALM_RATE.
                    std::thread::sleep(Duration::from_micros(
                        1_000_000 * clients as u64 / CALM_RATE,
                    ));
                }
            }
        }));
    }

    // Sample per-bucket throughput.
    let mut series = Vec::new();
    let mut last = 0u64;
    for _ in 0..(total_ms / phases.bucket_ms) {
        std::thread::sleep(Duration::from_millis(phases.bucket_ms));
        let now = completed.load(Ordering::Relaxed);
        series.push((now - last) as f64 / (phases.bucket_ms as f64 / 1000.0));
        last = now;
    }
    done.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    series
}

/// A store of the figure: its threading mode and raw values, as the
/// systems its rows stand for keep them.
fn tierbase(name: &str, mode: ThreadMode) -> TierBase {
    let config = TierBaseConfig::builder(bench_dir(name))
        .threading(mode)
        .compression(CompressorChoice::Raw)
        .build();
    TierBase::open(config).unwrap()
}

fn main() {
    let systems: Vec<(&str, Arc<dyn KvEngine>)> = vec![
        (
            "TierBase-s",
            Arc::new(tierbase("fig9-tb-s", ThreadMode::Multi(1))),
        ),
        (
            "TierBase-e",
            Arc::new(tierbase("fig9-tb-e", ThreadMode::Elastic(4))),
        ),
        (
            "TierBase-m",
            Arc::new(tierbase("fig9-tb-m", ThreadMode::Multi(4))),
        ),
        (
            // TierBase-e behind a replicated data node: every put is
            // shipped (LSN-framed) to an in-memory replica before ack.
            "TierBase-e+repl",
            Arc::new(ReplicatedNode(
                NodeStore::new(
                    NodeId(0),
                    Arc::new(tierbase("fig9-tb-e-repl", ThreadMode::Elastic(4))),
                )
                .with_replica(MapEngine::shared()),
            )),
        ),
    ];

    let phases = Phases::resolve();
    let mut report = BenchReport::new("fig9_elastic_burst");
    let mut rows = Vec::new();
    for (name, engine) in systems {
        let series = timeline(engine, 16, phases);
        // Per-phase mean throughput: the burst buckets sit between the
        // calm lead-in and the tail.
        let per_phase = |lo_ms: u64, hi_ms: u64| {
            let lo = (lo_ms / phases.bucket_ms) as usize;
            let hi = ((hi_ms / phases.bucket_ms) as usize).min(series.len());
            let slice = &series[lo..hi];
            slice.iter().sum::<f64>() / slice.len().max(1) as f64 / 1000.0
        };
        report.add_values(
            name,
            &[
                ("calm_kqps", per_phase(0, phases.calm_ms)),
                (
                    "burst_kqps",
                    per_phase(phases.calm_ms, phases.calm_ms + phases.burst_ms),
                ),
                (
                    "tail_kqps",
                    per_phase(phases.calm_ms + phases.burst_ms, phases.total_ms()),
                ),
            ],
        );
        let mut row = vec![name.to_string()];
        row.extend(series.iter().map(|q| format!("{:.0}", q / 1000.0)));
        rows.push(row);
    }

    let buckets = phases.total_ms() / phases.bucket_ms;
    let mut header: Vec<String> = vec!["system".into()];
    for b in 0..buckets {
        header.push(format!(
            "t{:.1}s",
            (b + 1) as f64 * phases.bucket_ms as f64 / 1000.0
        ));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let title = format!(
        "Figure 9: throughput timeline under burst (kQPS per {:.1}s bucket; burst at {:.1}s-{:.1}s)",
        phases.bucket_ms as f64 / 1000.0,
        phases.calm_ms as f64 / 1000.0,
        (phases.calm_ms + phases.burst_ms) as f64 / 1000.0
    );
    print_table(&title, &header_refs, &rows);

    // --- replication ship overhead on the group-commit write path ----
    // Same pipelined front-end (group commit over an LSM engine) bare
    // vs. behind a replicated node, one writer each: the delta is the
    // per-write cost of framing + shipping + replica ack. Budget from
    // the PR-8 failover work: < 10%. Both paths are fsync-bound, so a
    // single pair of runs swings with the disk: the sides take turns
    // for `ROUNDS` rounds and the table reports each side's median.
    const ROUNDS: u64 = 5;
    let ops = if tb_bench::smoke() { 20_000 } else { 100_000 } / ROUNDS;
    let base_db: Arc<dyn KvEngine> =
        Arc::new(LsmDb::open(LsmConfig::new(bench_dir("fig9-gc-base"))).unwrap());
    let base_fe = Frontend::start(base_db, FrontendConfig::with_shards(2));
    let repl_db: Arc<dyn KvEngine> =
        Arc::new(LsmDb::open(LsmConfig::new(bench_dir("fig9-gc-repl"))).unwrap());
    let repl_fe: Arc<dyn KvEngine> =
        Arc::new(Frontend::start(repl_db, FrontendConfig::with_shards(2)));
    let repl_node = ReplicatedNode(
        NodeStore::new(NodeId(0), repl_fe.clone()).with_replica(MapEngine::shared()),
    );
    put_rate(&base_fe, ops / 2); // warm-up
    put_rate(&repl_node, ops / 2);
    let (mut base_runs, mut repl_runs) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        // Alternate which side goes first, so neither always follows
        // the other's writes to the disk.
        if round % 2 == 0 {
            base_runs.push(put_rate(&base_fe, ops));
            repl_runs.push(put_rate(&repl_node, ops));
        } else {
            repl_runs.push(put_rate(&repl_node, ops));
            base_runs.push(put_rate(&base_fe, ops));
        }
    }
    let (base_kops, repl_kops) = (median(&mut base_runs), median(&mut repl_runs));

    let overhead_pct = (1.0 - repl_kops / base_kops) * 100.0;
    report.add_values(
        "repl_ship_overhead",
        &[
            ("group_commit_kqps", base_kops),
            ("replicated_kqps", repl_kops),
            ("ship_overhead_pct", overhead_pct),
        ],
    );
    let runs = |r: &[f64]| {
        r.iter()
            .map(|q| format!("{q:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    print_table(
        &format!("Replication ship overhead (single-writer puts over the group-commit path; median of {ROUNDS} alternating rounds)"),
        &["path", "kops/s", "rounds (sorted)"],
        &[
            vec!["group-commit".into(), format!("{base_kops:.1}"), runs(&base_runs)],
            vec!["group-commit + ship".into(), format!("{repl_kops:.1}"), runs(&repl_runs)],
            vec!["overhead %".into(), format!("{overhead_pct:.1}"), String::new()],
        ],
    );

    report.write().expect("write bench report");
}
