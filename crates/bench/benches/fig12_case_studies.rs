//! Figure 12: the two production case studies.
//!
//! Case 1 — User Info Service: ~32:1 read:write, highly skewed,
//! availability-critical. Paper shape: in-memory stores pay high space
//! cost; TierBase-PBC halves the footprint and wins overall (62% cost
//! cut vs TierBase-Raw).
//!
//! Case 2 — Capital Reconciliation: ~1:1 read:write with temporal skew
//! (recent data hot). Paper shape: tiered write-through/write-back
//! configurations dominate; write-back leads on this write-heavy mix;
//! overall TierBase cuts cost ≥37% vs Cassandra/HBase and ~70% vs its
//! own default (untiered) configuration.
//!
//! Every row is a configuration of code in this repo; none runs a
//! comparator (README, "Comparison figures"). Cassandra's and HBase's
//! signature, an LSM on disk, is `LSM-lz`: a bare `LsmDb` writing `lz`
//! blocks, its memtable a quarter of the data so it flushes, billed at
//! [`tb_bench::DISK_PRICE`]. Redis's is `TierBase-Raw`, a store of raw
//! values; Memcached's, a
//! multi-threaded cache, is `TierBase-m`; Dragonfly's, shards reached
//! by message passing, is `TierBase-m+fe4`, a 4-shard `Frontend` over
//! `TierBase-m`. A row that names no codec holds raw values.
//!
//! The tiered configurations reach their storage tier over a modelled
//! 200 µs hop (`tb_bench::Delayed`); no real hop is measured. Record and
//! op counts go through `tb_bench::budget`.

use std::sync::Arc;
use tb_bench::{
    bench_dir, budget, delayed_storage, lsm_flushes, measure_cost, print_cost_plane, BenchReport,
    CostPoint, DISK_PRICE,
};
use tb_common::KvEngine;
use tb_compress::BlockCodec;
use tb_costmodel::WorkloadDemand;
use tb_frontend::{Frontend, FrontendConfig};
use tb_lsm::{LsmConfig, LsmDb};
use tb_workload::{DatasetKind, Workload, WorkloadSpec};
use tierbase_core::elastic::ThreadMode;
use tierbase_core::{CompressorChoice, PmemTuning, SyncPolicy, TierBase, TierBaseConfig};

fn tb(
    name: &str,
    dataset: DatasetKind,
    f: impl FnOnce(tierbase_core::TierBaseConfigBuilder) -> tierbase_core::TierBaseConfigBuilder,
) -> TierBase {
    let dir = bench_dir(name);
    // Raw unless the row names its codec: `TierBase-Raw`, `-m` and
    // `-m+fe4` stand for systems that store values as they come.
    let builder = TierBaseConfig::builder(&dir)
        .cache_capacity(512 << 20)
        .compression(CompressorChoice::Raw);
    let mut config = f(builder).build();
    if config.needs_storage_tier() {
        config.storage = Some(delayed_storage(&dir, 200).expect("open storage tier"));
    }
    let store = TierBase::open(config).expect("open");
    let d = dataset.build(7);
    let samples: Vec<Vec<u8>> = (0..512u64).map(|i| d.record(i)).collect();
    store
        .train_compression(&samples)
        .expect("train compression");
    store
}

fn run_case(
    report: &mut BenchReport,
    title: &str,
    case: &str,
    spec: WorkloadSpec,
    demand: WorkloadDemand,
    dataset: DatasetKind,
    logical_estimate: usize,
) {
    let mut points: Vec<CostPoint> = Vec::new();
    let cache_4x = (logical_estimate / 4).max(64 << 10);
    let mut lsm = LsmConfig::new(bench_dir("f12-lsm"));
    lsm.sst.codec = BlockCodec::Lz;
    // A quarter of the data, so the row writes and reads `lz` tables
    // rather than serving from its memtable.
    lsm.memtable_bytes = (logical_estimate / 4).max(4 << 10);
    // (name, engine, GB of data an instance holds, replica factor)
    let systems: Vec<(&str, Box<dyn KvEngine>, f64, f64)> = vec![
        (
            "LSM-lz",
            Box::new(LsmDb::open(lsm).expect("open lsm")),
            4.0 / DISK_PRICE,
            1.0,
        ),
        (
            "TierBase-Raw",
            Box::new(tb("f12-raw", dataset, |b| b)),
            4.0,
            2.0,
        ),
        (
            "TierBase-m",
            Box::new(tb("f12-m", dataset, |b| b.threading(ThreadMode::Multi(4)))),
            4.0,
            2.0,
        ),
        (
            "TierBase-m+fe4",
            Box::new(Frontend::start(
                Arc::new(tb("f12-fe", dataset, |b| b.threading(ThreadMode::Multi(4)))),
                FrontendConfig::with_shards(4),
            )),
            4.0,
            2.0,
        ),
        (
            "TierBase-e",
            Box::new(tb("f12-e", dataset, |b| {
                b.threading(ThreadMode::Elastic(4))
            })),
            4.0,
            2.0,
        ),
        (
            "TierBase-PMem",
            Box::new(tb("f12-pm", dataset, |b| b.pmem(PmemTuning::default()))),
            4.0,
            2.0,
        ),
        (
            "TierBase-wt-4X",
            Box::new(tb("f12-wt", dataset, |b| {
                b.policy(SyncPolicy::WriteThrough).cache_capacity(cache_4x)
            })),
            4.0,
            1.0,
        ),
        (
            "TierBase-wb-4X",
            Box::new(tb("f12-wb", dataset, |b| {
                b.policy(SyncPolicy::WriteBack).cache_capacity(cache_4x)
            })),
            4.0,
            2.0,
        ),
        (
            "TierBase-PBC",
            Box::new(tb("f12-pbc", dataset, |b| {
                b.compression(CompressorChoice::Pbc)
            })),
            4.0,
            2.0,
        ),
    ];
    for (name, engine, instance_capacity_gb, replica_factor) in systems {
        let (load, run) = Workload::new(spec.clone()).generate();
        let flushes = lsm_flushes();
        points.push(measure_cost(
            name,
            engine.as_ref(),
            &load,
            &run,
            16,
            &demand,
            instance_capacity_gb,
            replica_factor,
        ));
        // `measure_cost` read `resident_bytes`, which waits for the
        // background flushes.
        if name == "LSM-lz" {
            assert!(lsm_flushes() > flushes, "LSM-lz never flushed its memtable");
        }
    }
    print_cost_plane(title, &points);
    for p in &points {
        report.add_values(
            format!("{}/{case}", p.name),
            &[
                ("kqps", p.kqps),
                ("cpqps", p.cpqps),
                ("cpgb", p.cpgb),
                ("performance_cost", p.performance_cost),
                ("space_cost", p.space_cost),
            ],
        );
    }
}

fn main() {
    let records = budget(15_000);
    let ops = budget(30_000);
    let mut report = BenchReport::new("fig12_case_studies");

    // Case 1: User Info Service — read-heavy, skewed, KV1 records.
    run_case(
        &mut report,
        "Figure 12(a): User Info Service (97% read, zipfian)",
        "case1",
        WorkloadSpec::case1_user_info(records, ops),
        WorkloadDemand::new(80_000.0, 10.0),
        DatasetKind::Kv1,
        records as usize * 140,
    );

    // Case 2: Capital Reconciliation — 1:1 mix, temporal skew, KV2.
    run_case(
        &mut report,
        "Figure 12(b): Capital Reconciliation (1:1 read/write, latest)",
        "case2",
        WorkloadSpec::case2_reconciliation(records, ops),
        WorkloadDemand::new(40_000.0, 10.0),
        DatasetKind::Kv2,
        records as usize * 120,
    );
    report.write().expect("write bench report");
}
