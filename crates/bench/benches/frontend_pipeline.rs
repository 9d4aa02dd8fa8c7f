//! Frontend pipeline: group commit vs a WAL that fsyncs every write,
//! over the LSM engine under open-loop concurrent replay.
//!
//! Shape to reproduce: with durability paid per operation
//! (`SyncPolicy::EveryWrite`: every WAL append is an fsync) throughput
//! is capped near the storage sync rate; the front-end's group commit
//! amortizes one fsync across a drained batch (TierBase §4.1.2's
//! batched remote-tier round-trips), multiplying write throughput and
//! cutting p99. Both ticket rows run the same open-loop driver.
//!
//! The `burst-16` row drives the same trace the way `tb-server` does:
//! closed-loop clients hand the front-end 16-op bursts through
//! `Frontend::apply_batch` (one sub-batch per shard, one `sync()` per
//! burst).
//!
//! Every row must finish without a failed op, and the group-commit rows
//! must issue fewer front-end syncs than the run has writes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tb_bench::{bench_dir, budget, drive_pipelined, print_table, BenchReport, PipelineResult};
use tb_common::{EngineOp, Histogram, KvEngine};
use tb_frontend::{Frontend, FrontendConfig};
use tb_lsm::wal::SyncPolicy;
use tb_lsm::{LsmConfig, LsmDb};
use tb_workload::{Op, Trace, Workload, WorkloadSpec};

/// Ops per burst: the pipeline depth `tb-benchmark`'s client uses.
const BURST: usize = 16;

/// Replays `run` as closed-loop bursts of [`BURST`] ops from `clients`
/// threads; an op's latency is its burst's.
fn drive_bursts(frontend: &Frontend, run: &Trace, clients: usize) -> PipelineResult {
    let hist = Histogram::new();
    let errors = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let ops = run.ops();
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let from = next.fetch_add(BURST, Ordering::Relaxed);
                if from >= ops.len() {
                    return;
                }
                let burst: Vec<EngineOp> = ops[from..ops.len().min(from + BURST)]
                    .iter()
                    .map(|op| match op {
                        Op::Read { key } => EngineOp::Get(key.clone()),
                        Op::Insert { key, value }
                        | Op::Update { key, value }
                        | Op::ReadModifyWrite { key, value } => {
                            EngineOp::Put(key.clone(), value.clone())
                        }
                        Op::Delete { key } => EngineOp::Delete(key.clone()),
                        Op::Scan { start, end, limit } => EngineOp::Scan {
                            start: start.clone(),
                            end: Some(end.clone()),
                            limit: *limit as usize,
                        },
                    })
                    .collect();
                let t0 = Instant::now();
                let outcomes = frontend.apply_batch(burst);
                let took = t0.elapsed().as_nanos() as u64;
                for outcome in outcomes {
                    hist.record(took);
                    if outcome.is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    PipelineResult::measured(&hist, ops.len(), started, errors.load(Ordering::Relaxed))
}

fn main() {
    let records = budget(5_000);
    let ops = budget(20_000);

    let mut report = BenchReport::new("frontend_pipeline");
    let mut rows = Vec::new();
    for (label, wal_sync, bursts) in [
        ("wal-every-write", SyncPolicy::EveryWrite, false),
        ("group-commit", SyncPolicy::OsBuffer, false),
        ("burst-16", SyncPolicy::OsBuffer, true),
    ] {
        let dir = bench_dir(&format!("fe-pipe-{label}"));
        let config = LsmConfig {
            wal_sync,
            ..LsmConfig::new(&dir)
        };
        let db: Arc<dyn KvEngine> = Arc::new(LsmDb::open(config).expect("open lsm"));
        let fe = Frontend::start(
            db,
            FrontendConfig {
                shards: 4,
                queue_capacity: 4096,
                max_batch: 128,
            },
        );

        let mut w = Workload::new(WorkloadSpec::ycsb_a(records, ops));
        let load = Trace::new(w.load_ops());
        let run = w.run_trace();
        let writes = run
            .ops()
            .iter()
            .filter(|op| !matches!(op, Op::Read { .. } | Op::Scan { .. }))
            .count() as u64;
        // Load phase through the pipeline too, untimed.
        let loaded = drive_pipelined(&fe, &load, 4);
        let before = fe.stats().snapshot();

        let r = if bursts {
            drive_bursts(&fe, &run, 8)
        } else {
            drive_pipelined(&fe, &run, 8)
        };
        report.add_pipeline(label, &r);
        let after = fe.stats().snapshot();
        let syncs = after.group_syncs - before.group_syncs;
        let batches = after.batches - before.batches;
        let completed = after.completed - before.completed;
        assert_eq!(
            (loaded.errors, r.errors),
            (0, 0),
            "{label}: failed ops (load, run)"
        );
        if wal_sync == SyncPolicy::OsBuffer {
            assert!(
                syncs < writes,
                "{label}: group commit issued {syncs} syncs for {writes} writes"
            );
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", r.qps / 1000.0),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            format!("{writes}"),
            format!("{syncs}"),
            format!("{:.1}", completed as f64 / batches.max(1) as f64),
            format!("{}", r.errors),
        ]);
        fe.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    print_table(
        "Frontend pipeline: WAL fsync per write vs group commit vs 16-op bursts (LSM engine, YCSB-A)",
        &[
            "mode",
            "kqps",
            "p50_us",
            "p99_us",
            "writes",
            "fe_syncs",
            "ops/batch",
            "errors",
        ],
        &rows,
    );
    report.write().expect("write bench report");
}
