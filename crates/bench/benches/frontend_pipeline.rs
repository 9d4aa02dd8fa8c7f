//! Frontend pipeline: a WAL that fsyncs every write vs group commit,
//! over the LSM engine, both driven the way `tb-server` connections
//! drive the front-end: 8 closed-loop client threads of 16-op bursts
//! (`tb_bench::drive_bursts`; one sub-batch per shard, one `sync()` per
//! burst).
//!
//! Shape to reproduce: with durability paid per operation
//! (`SyncPolicy::EveryWrite`: every WAL append is an fsync) throughput
//! is capped near the storage sync rate; group commit shares one fsync
//! among many writes (TierBase §4.1.2's batched remote-tier round
//! trips). A burst makes its writes durable with one `LsmDb::sync`, and
//! concurrent bursts share an `fdatasync` there: a caller whose writes
//! an in-flight sync covers waits for it.
//!
//! Each row reports WAL fsyncs per write: hits of the `wal.sync` fault
//! site over the run (counting is on for both rows, which takes one
//! registry lock per fault-site hit) against the trace's writes. Beside
//! the burst `group-commit` row it prints the same figure for the
//! open-loop ticket driver the bench used before bursts became the
//! front-end's only protocol, and says which is higher.
//!
//! Every row must finish without a failed op, and the group-commit row
//! must issue fewer WAL fsyncs than the run has writes.

use std::sync::Arc;
use tb_bench::{bench_dir, budget, drive_bursts, print_table, BenchReport};
use tb_common::{fault, KvEngine};
use tb_frontend::{Frontend, FrontendConfig};
use tb_lsm::wal::SyncPolicy;
use tb_lsm::{LsmConfig, LsmDb};
use tb_workload::{Op, Trace, Workload, WorkloadSpec};

/// WAL fsyncs per write of the ticket `group-commit` row: the same
/// trace, engine and front-end driven open-loop by 8 ticket submit
/// threads at commit d79c6d7, on the 2-core machine that regenerated
/// this bench's committed report (162 fsyncs for 9 888 writes; 161 and
/// 164 in two more runs).
const TICKET_GROUP_COMMIT_FSYNCS_PER_WRITE: f64 = 0.0164;

fn main() {
    let records = budget(5_000);
    let ops = budget(20_000);

    let mut report = BenchReport::new("frontend_pipeline");
    let mut rows = Vec::new();
    let mut group_commit = f64::NAN;
    fault::set_counting(true);
    for (label, wal_sync) in [
        ("wal-every-write", SyncPolicy::EveryWrite),
        ("group-commit", SyncPolicy::OsBuffer),
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
        // Load phase through the front-end too, untimed.
        let loaded = drive_bursts(&fe, &load, 4);
        let before = fe.stats().snapshot();
        let fsyncs_before = fault::hit_count("wal.sync");

        let r = drive_bursts(&fe, &run, 8);
        let fsyncs = fault::hit_count("wal.sync") - fsyncs_before;
        let per_write = fsyncs as f64 / writes.max(1) as f64;
        report.add_pipeline(label, &r);
        report.add_values(
            format!("{label}-wal"),
            &[
                ("writes", writes as f64),
                ("wal_fsyncs", fsyncs as f64),
                ("wal_fsyncs_per_write", per_write),
            ],
        );
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
                fsyncs < writes,
                "{label}: group commit issued {fsyncs} WAL fsyncs for {writes} writes"
            );
            group_commit = per_write;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", r.qps / 1000.0),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            format!("{writes}"),
            format!("{syncs}"),
            format!("{fsyncs}"),
            format!("{per_write:.3}"),
            format!("{:.1}", completed as f64 / batches.max(1) as f64),
            format!("{}", r.errors),
        ]);
        fe.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    fault::set_counting(false);

    print_table(
        "Frontend pipeline: WAL fsync per write vs group commit, 8 clients x 16-op bursts (LSM engine, YCSB-A)",
        &[
            "mode",
            "kqps",
            "p50_us",
            "p99_us",
            "writes",
            "burst_syncs",
            "wal_fsyncs",
            "fsyncs/write",
            "ops/batch",
            "errors",
        ],
        &rows,
    );
    report.add_values(
        "ticket-group-commit-wal",
        &[("wal_fsyncs_per_write", TICKET_GROUP_COMMIT_FSYNCS_PER_WRITE)],
    );
    let higher = if group_commit > TICKET_GROUP_COMMIT_FSYNCS_PER_WRITE {
        "the burst row"
    } else {
        "the ticket row"
    };
    println!(
        "WAL fsyncs per write, group commit: bursts {group_commit:.3}, tickets (d79c6d7) \
         {TICKET_GROUP_COMMIT_FSYNCS_PER_WRITE:.3} — {higher} is higher"
    );
    report.write().expect("write bench report");
}
