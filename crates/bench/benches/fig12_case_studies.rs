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
//! The tiered configurations reach their storage tier over a modelled
//! 200 µs hop (`tb_bench::Delayed`); no real hop is measured. Record and
//! op counts go through `tb_bench::budget`.

use tb_baselines::{CassandraLike, DragonflyLike, HBaseLike, MemcachedLike, RedisLike};
use tb_bench::{bench_dir, budget, delayed_storage, measure_cost, print_cost_plane, CostPoint};
use tb_common::KvEngine;
use tb_costmodel::WorkloadDemand;
use tb_workload::{DatasetKind, Workload, WorkloadSpec};
use tierbase_core::elastic::ThreadMode;
use tierbase_core::{CompressorChoice, PmemTuning, SyncPolicy, TierBase, TierBaseConfig};

fn tb(
    name: &str,
    dataset: DatasetKind,
    f: impl FnOnce(tierbase_core::TierBaseConfigBuilder) -> tierbase_core::TierBaseConfigBuilder,
) -> TierBase {
    let dir = bench_dir(name);
    let mut config = f(TierBaseConfig::builder(&dir).cache_capacity(512 << 20)).build();
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
    title: &str,
    spec: WorkloadSpec,
    demand: WorkloadDemand,
    dataset: DatasetKind,
    logical_estimate: usize,
) {
    let mut points: Vec<CostPoint> = Vec::new();
    let cache_4x = (logical_estimate / 4).max(64 << 10);
    let systems: Vec<(&str, Box<dyn KvEngine>, f64)> = vec![
        (
            "Cassandra",
            Box::new(CassandraLike::open(&bench_dir("f12-cas")).unwrap()),
            1.0,
        ),
        (
            "HBase",
            Box::new(HBaseLike::open(&bench_dir("f12-hb")).unwrap()),
            1.0,
        ),
        ("Redis", Box::new(RedisLike::new()), 2.0),
        ("Memcached", Box::new(MemcachedLike::new(512 << 20, 8)), 2.0),
        ("Dragonfly", Box::new(DragonflyLike::new(4)), 2.0),
        ("TierBase-Raw", Box::new(tb("f12-raw", dataset, |b| b)), 2.0),
        (
            "TierBase-e",
            Box::new(tb("f12-e", dataset, |b| {
                b.threading(ThreadMode::Elastic(4))
            })),
            2.0,
        ),
        (
            "TierBase-PMem",
            Box::new(tb("f12-pm", dataset, |b| b.pmem(PmemTuning::default()))),
            2.0,
        ),
        (
            "TierBase-wt-4X",
            Box::new(tb("f12-wt", dataset, |b| {
                b.policy(SyncPolicy::WriteThrough).cache_capacity(cache_4x)
            })),
            1.0,
        ),
        (
            "TierBase-wb-4X",
            Box::new(tb("f12-wb", dataset, |b| {
                b.policy(SyncPolicy::WriteBack).cache_capacity(cache_4x)
            })),
            2.0,
        ),
        (
            "TierBase-PBC",
            Box::new(tb("f12-pbc", dataset, |b| {
                b.compression(CompressorChoice::Pbc)
            })),
            2.0,
        ),
    ];
    for (name, engine, replica_factor) in systems {
        let (load, run) = Workload::new(spec.clone()).generate();
        points.push(measure_cost(
            name,
            engine.as_ref(),
            &load,
            &run,
            16,
            &demand,
            4.0,
            replica_factor,
        ));
    }
    print_cost_plane(title, &points);
}

fn main() {
    let records = budget(15_000);
    let ops = budget(30_000);

    // Case 1: User Info Service — read-heavy, skewed, KV1 records.
    run_case(
        "Figure 12(a): User Info Service (97% read, zipfian)",
        WorkloadSpec::case1_user_info(records, ops),
        WorkloadDemand::new(80_000.0, 10.0),
        DatasetKind::Kv1,
        records as usize * 140,
    );

    // Case 2: Capital Reconciliation — 1:1 mix, temporal skew, KV2.
    run_case(
        "Figure 12(b): Capital Reconciliation (1:1 read/write, latest)",
        WorkloadSpec::case2_reconciliation(records, ops),
        WorkloadDemand::new(40_000.0, 10.0),
        DatasetKind::Kv2,
        records as usize * 120,
    );
}
