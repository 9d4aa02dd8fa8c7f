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
//! permits against four single-thread instances.

use std::sync::Arc;
use tb_bench::{bench_dir, budget, drive, print_table, BenchReport};
use tb_common::KvEngine;
use tb_workload::{Workload, WorkloadSpec};
use tierbase_core::elastic::ThreadMode;
use tierbase_core::{TierBase, TierBaseConfig};

fn tierbase(name: &str, mode: ThreadMode) -> TierBase {
    TierBase::open(
        TierBaseConfig::builder(bench_dir(name))
            .cache_capacity(256 << 20)
            .threading(mode)
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
        report.add_drive(format!("{label}/{wname}"), &r);
        rows.push(vec![
            label.into(),
            wname.into(),
            format!("{:.0}", r.qps / 1000.0),
            format!("{:.1}", r.p99_us),
        ]);
    }
    report.add_drive(format!("{label}/load"), &load);
    rows.push(vec![
        label.into(),
        "load".into(),
        format!("{:.0}", load.qps / 1000.0),
        format!("{:.1}", load.p99_us),
    ]);
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
    // on the same 4 cores.
    {
        let instances: Vec<Arc<dyn KvEngine>> = (0..4)
            .map(|i| {
                Arc::new(tierbase(&format!("fig7-tb-s{i}"), ThreadMode::Single))
                    as Arc<dyn KvEngine>
            })
            .collect();
        let mut w = Workload::new(WorkloadSpec::ycsb_b(records, ops));
        let load = tb_workload::Trace::new(w.load_ops());
        let run = w.run_trace();
        // Shard the streams across instances by key hash.
        let pick =
            |key: &tb_common::Key| (tb_common::fx_hash(key.as_slice()) as usize) % instances.len();
        let mut per_load: Vec<Vec<tb_workload::Op>> = vec![vec![]; 4];
        for op in load.ops() {
            per_load[pick(op.key())].push(op.clone());
        }
        let mut per_run: Vec<Vec<tb_workload::Op>> = vec![vec![]; 4];
        for op in run.ops() {
            per_run[pick(op.key())].push(op.clone());
        }
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for (i, inst) in instances.iter().enumerate() {
                let lo = tb_workload::Trace::new(per_load[i].clone());
                let ru = tb_workload::Trace::new(per_run[i].clone());
                let inst = inst.clone();
                s.spawn(move || {
                    drive(inst.as_ref(), &lo, &ru, 12);
                });
            }
        });
        let qps = (load.len() + run.len()) as f64 / t0.elapsed().as_secs_f64();
        report.add_values("4xTierBase-s/B+load", &[("kqps", qps / 1000.0)]);
        rows.push(vec![
            "4xTierBase-s".into(),
            "B(95/5)+load".into(),
            format!("{:.0}", qps / 1000.0),
            "-".into(),
        ]);
    }
    print_table(
        "Figure 7(c,d): multi-thread mode (kQPS, p99 us)",
        &["system", "workload", "kqps", "p99_us"],
        &rows,
    );
    report.write().expect("write bench report");
}
