//! Figure 8: TierBase persistence mechanisms — WAL, WAL-PMem,
//! write-back, write-through — throughput and p99 latency on YCSB
//! load / A / B.
//!
//! Paper shape to reproduce: write-back ≫ write-through on write-heavy
//! work (deferred batching vs. a synchronous remote RPC per write);
//! WAL-PMem between them (per-transaction PMem persist beats the remote
//! RPC, loses to pure deferral); WAL above WAL-PMem (OS-buffered disk
//! appends, fsync deferred); write-through tail latency ~3× write-back.
//!
//! The tiered mechanisms reach their storage tier over a modelled
//! 200 µs hop (`tb_bench::Delayed`); no real hop is measured. Record and
//! op counts go through `tb_bench::budget`.

use tb_bench::{bench_dir, budget, delayed_storage, drive, print_table};
use tb_workload::{Trace, Workload, WorkloadSpec};
use tierbase_core::{PersistenceMode, SyncPolicy, TierBase, TierBaseConfig};

fn open(name: &str, policy: SyncPolicy, persistence: PersistenceMode) -> TierBase {
    let dir = bench_dir(name);
    let mut config = TierBaseConfig::builder(&dir)
        .cache_capacity(256 << 20)
        .policy(policy)
        .persistence(persistence)
        .pmem_ring_bytes(32 << 20)
        .build();
    if config.needs_storage_tier() {
        // Same-DC RPC to the storage tier.
        config.storage = Some(delayed_storage(&dir, 200).expect("open storage tier"));
    }
    TierBase::open(config).expect("open tierbase")
}

fn main() {
    let records = budget(10_000);
    let ops = budget(20_000);
    let mut rows = Vec::new();

    let configs: Vec<(&str, SyncPolicy, PersistenceMode)> = vec![
        ("WAL", SyncPolicy::InMemory, PersistenceMode::Wal),
        ("WAL-PMem", SyncPolicy::InMemory, PersistenceMode::WalPmem),
        ("write-back", SyncPolicy::WriteBack, PersistenceMode::None),
        (
            "write-through",
            SyncPolicy::WriteThrough,
            PersistenceMode::None,
        ),
    ];

    for (label, policy, persistence) in configs {
        let engine = open(&format!("fig8-{label}"), policy, persistence);

        // Load phase.
        let mut w = Workload::new(WorkloadSpec::ycsb_a(records, 0));
        let load_trace = Trace::new(w.load_ops());
        let load = drive(&engine, &Trace::default(), &load_trace, 16);
        rows.push(vec![
            label.into(),
            "load".into(),
            format!("{:.0}", load.qps / 1000.0),
            format!("{:.1}", load.p99_us),
        ]);

        for (wname, spec) in [
            ("A(50/50)", WorkloadSpec::ycsb_a(records, ops)),
            ("B(95/5)", WorkloadSpec::ycsb_b(records, ops)),
        ] {
            let mut w = Workload::new(spec);
            let _ = w.load_ops();
            let run = w.run_trace();
            let r = drive(&engine, &Trace::default(), &run, 16);
            rows.push(vec![
                label.into(),
                wname.into(),
                format!("{:.0}", r.qps / 1000.0),
                format!("{:.1}", r.p99_us),
            ]);
        }
    }

    print_table(
        "Figure 8: persistence mechanisms (kQPS, p99 us)",
        &["mechanism", "workload", "kqps", "p99_us"],
        &rows,
    );
}
