//! Figure 7: throughput and p99 latency of caching systems in
//! single-thread and multi-thread modes, YCSB load / A / B.
//!
//! Paper shape to reproduce: single-thread — TierBase ≈ Redis, both
//! ahead of Memcached/Dragonfly (which are built for multi-thread);
//! multi-thread — Memcached/Dragonfly pull ahead of a single TierBase
//! instance, while N single-thread TierBase instances beat one
//! multi-thread competitor on equal cores.
//!
//! Every row is a TierBase configuration; the repo runs no comparator
//! (README, "Comparison figures"). Redis's signature, one thread and
//! in memory, is `TierBase-s` itself; Memcached's, a multi-threaded
//! sharded cache, is `TierBase-m`; Dragonfly's, shared-nothing shards
//! on the same cores, is `4xTierBase-s`. So the single-thread table has
//! one row, and the multi-thread table compares one instance with four
//! permits against four single-thread instances, each measured through
//! the same timed load, A and B phases with 48 clients in all (12 per
//! instance). Values are stored raw.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tb_bench::{
    apply_op, bench_dir, budget, drive, print_table, BenchReport, DriveResult, PipelineResult,
};
use tb_common::{Histogram, KvEngine};
use tb_workload::{Op, Workload, WorkloadSpec};
use tierbase_core::elastic::ThreadMode;
use tierbase_core::{CompressorChoice, TierBase, TierBaseConfig};

fn tierbase(name: &str, mode: ThreadMode) -> TierBase {
    TierBase::open(
        TierBaseConfig::builder(bench_dir(name))
            .cache_capacity(256 << 20)
            .threading(mode)
            // The rows stand for Redis, Memcached and Dragonfly: raw values.
            .compression(CompressorChoice::Raw)
            .build(),
    )
    .expect("open tierbase")
}

fn run_suite(
    rows: &mut Vec<Vec<String>>,
    report: &mut BenchReport,
    label: &str,
    engine: &dyn KvEngine,
    records: u64,
    ops: u64,
    clients: usize,
) {
    // Load phase measured separately (the paper reports load too).
    let mut w = Workload::new(WorkloadSpec::ycsb_a(records, 0));
    let load_ops = tb_workload::Trace::new(w.load_ops());
    let empty = tb_workload::Trace::default();
    let load = drive(engine, &empty, &load_ops, clients);
    for (wname, spec) in [
        ("A(50/50)", WorkloadSpec::ycsb_a(records, ops)),
        ("B(95/5)", WorkloadSpec::ycsb_b(records, ops)),
    ] {
        let mut w = Workload::new(spec);
        let _ = w.load_ops(); // engine already loaded; keep streams aligned
        let run = w.run_trace();
        let r = drive(engine, &tb_workload::Trace::default(), &run, clients);
        add_row(rows, report, label, wname, &r);
    }
    add_row(rows, report, label, "load", &load);
}

/// One (system, phase) row: kQPS and p99, in the table and the report.
fn add_row(
    rows: &mut Vec<Vec<String>>,
    report: &mut BenchReport,
    label: &str,
    phase: &str,
    r: &DriveResult,
) {
    report.add_drive(format!("{label}/{phase}"), r);
    rows.push(vec![
        label.into(),
        phase.into(),
        format!("{:.0}", r.qps / 1000.0),
        format!("{:.1}", r.p99_us),
    ]);
}

/// Drives `ops`, split by key hash over `instances`, each instance's
/// share by `clients` threads of its own, all at once under one clock
/// and one latency histogram: what [`drive`] measures for one engine,
/// for shared-nothing instances on the same cores.
fn drive_sharded(instances: &[Arc<dyn KvEngine>], ops: &[Op], clients: usize) -> DriveResult {
    let pick =
        |key: &tb_common::Key| (tb_common::fx_hash(key.as_slice()) as usize) % instances.len();
    let mut parts: Vec<Vec<Op>> = vec![Vec::new(); instances.len()];
    for op in ops {
        parts[pick(op.key())].push(op.clone());
    }
    let hist = Histogram::new();
    let errors = AtomicUsize::new(0);
    let next: Vec<AtomicUsize> = instances.iter().map(|_| AtomicUsize::new(0)).collect();
    let started = Instant::now();
    std::thread::scope(|s| {
        for ((inst, part), next) in instances.iter().zip(&parts).zip(&next) {
            for _ in 0..clients {
                let (hist, errors) = (&hist, &errors);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(op) = part.get(i) else { return };
                    let t0 = Instant::now();
                    if !apply_op(inst.as_ref(), op) {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    hist.record(t0.elapsed().as_nanos() as u64);
                });
            }
        }
    });
    let r = PipelineResult::measured(&hist, ops.len(), started, errors.into_inner());
    for inst in instances {
        let _ = inst.sync();
    }
    DriveResult {
        qps: r.qps,
        p50_us: r.p50_us,
        p95_us: r.p95_us,
        p99_us: r.p99_us,
        p999_us: r.p999_us,
        mean_us: r.mean_us,
        ops: r.ops,
        errors: r.errors,
    }
}

fn main() {
    let records = budget(20_000);
    let ops = budget(60_000);
    let mut report = BenchReport::new("fig7_thread_modes");

    // --- single-thread mode (Figures 7a, 7b): 16 client threads -------
    let mut rows = Vec::new();
    {
        let tb = tierbase("fig7-tb-s", ThreadMode::Single);
        run_suite(&mut rows, &mut report, "TierBase-s", &tb, records, ops, 16);
    }
    print_table(
        "Figure 7(a,b): single-thread mode (kQPS, p99 us)",
        &["system", "workload", "kqps", "p99_us"],
        &rows,
    );

    // --- multi-thread mode (Figures 7c, 7d): 48 client threads --------
    let mut rows = Vec::new();
    {
        let tb = tierbase("fig7-tb-m", ThreadMode::Multi(4));
        run_suite(&mut rows, &mut report, "TierBase-m", &tb, records, ops, 48);
    }
    // The paper's scaling argument: 4 single-thread TierBase instances
    // on the same 4 cores, 12 of the 48 clients each, through the same
    // load, A and B phases.
    {
        let instances: Vec<Arc<dyn KvEngine>> = (0..4)
            .map(|i| {
                Arc::new(tierbase(&format!("fig7-tb-s{i}"), ThreadMode::Single))
                    as Arc<dyn KvEngine>
            })
            .collect();
        let mut w = Workload::new(WorkloadSpec::ycsb_a(records, 0));
        let load = drive_sharded(&instances, &w.load_ops(), 12);
        for (wname, spec) in [
            ("A(50/50)", WorkloadSpec::ycsb_a(records, ops)),
            ("B(95/5)", WorkloadSpec::ycsb_b(records, ops)),
        ] {
            let mut w = Workload::new(spec);
            let _ = w.load_ops(); // instances already loaded; keep streams aligned
            let r = drive_sharded(&instances, w.run_trace().ops(), 12);
            add_row(&mut rows, &mut report, "4xTierBase-s", wname, &r);
        }
        add_row(&mut rows, &mut report, "4xTierBase-s", "load", &load);
    }
    print_table(
        "Figure 7(c,d): multi-thread mode (kQPS, p99 us)",
        &["system", "workload", "kqps", "p99_us"],
        &rows,
    );
    report.write().expect("write bench report");
}
