//! Figure 10: cost of caching systems on the space/performance plane,
//! for 50/50 and 95/5 read-write mixes (10 GB / 80 kQPS demand).
//!
//! Paper shape to reproduce: Memcached lowest storage cost among the
//! baselines, Redis/TierBase-Raw higher; single-thread systems share
//! low performance cost while Dragonfly's per-op messaging costs more;
//! TierBase-e halves performance cost by using idle cores;
//! TierBase-PMem cuts storage cost ~60%; compression cuts it further.
//!
//! Every row is a TierBase configuration; the repo runs no comparator
//! (README, "Comparison figures"). Redis's signature is `TierBase-s`;
//! Memcached's, a multi-threaded cache, is `TierBase-m`; Dragonfly's,
//! shards reached by message passing, is `TierBase-m+fe4`, a 4-shard
//! `Frontend` over `TierBase-m`. Record and op counts go through
//! `tb_bench::budget`.

use std::sync::Arc;
use tb_bench::{bench_dir, budget, measure_cost, print_cost_plane, BenchReport, CostPoint};
use tb_common::KvEngine;
use tb_costmodel::WorkloadDemand;
use tb_frontend::{Frontend, FrontendConfig};
use tb_workload::{DatasetKind, Workload, WorkloadSpec};
use tierbase_core::elastic::ThreadMode;
use tierbase_core::{CompressorChoice, PmemTuning, TierBase, TierBaseConfig};

fn tb(
    name: &str,
    f: impl FnOnce(tierbase_core::TierBaseConfigBuilder) -> tierbase_core::TierBaseConfigBuilder,
) -> TierBase {
    // Uncompressed unless a row names its codec: the rows that stand
    // for Redis, Memcached and Dragonfly hold raw values.
    let builder = TierBaseConfig::builder(bench_dir(name))
        .cache_capacity(512 << 20)
        .compression(CompressorChoice::Raw);
    let store = TierBase::open(f(builder).build()).expect("open");
    // Pre-train compression offline, as §4.2 prescribes.
    let dataset = DatasetKind::Cities.build(0x5eed);
    let samples: Vec<Vec<u8>> = (0..512u64).map(|i| dataset.record(i)).collect();
    store
        .train_compression(&samples)
        .expect("train compression");
    store
}

fn main() {
    let records = budget(20_000);
    let ops = budget(40_000);
    // The paper's synthetic demand for caching systems.
    let demand = WorkloadDemand::new(80_000.0, 10.0);
    let mut report = BenchReport::new("fig10_caching_cost");

    for (title, mix, spec_fn) in [
        (
            "Figure 10(a): 50% write / 50% read",
            "A(50/50)",
            WorkloadSpec::ycsb_a as fn(u64, u64) -> WorkloadSpec,
        ),
        (
            "Figure 10(b): 95% read / 5% write",
            "B(95/5)",
            WorkloadSpec::ycsb_b,
        ),
    ] {
        let mut points: Vec<CostPoint> = Vec::new();
        let systems: Vec<(&str, Box<dyn KvEngine>)> = vec![
            (
                "TierBase-s",
                Box::new(tb("f10-s", |b| b.threading(ThreadMode::Single))),
            ),
            (
                "TierBase-m",
                Box::new(tb("f10-m", |b| b.threading(ThreadMode::Multi(4)))),
            ),
            (
                "TierBase-m+fe4",
                Box::new(Frontend::start(
                    Arc::new(tb("f10-fe", |b| b.threading(ThreadMode::Multi(4)))),
                    FrontendConfig::with_shards(4),
                )),
            ),
            (
                "TierBase-e",
                Box::new(tb("f10-e", |b| b.threading(ThreadMode::Elastic(4)))),
            ),
            (
                "TierBase-Zstd",
                Box::new(tb("f10-z", |b| b.compression(CompressorChoice::TzstdDict))),
            ),
            (
                "TierBase-PBC",
                Box::new(tb("f10-p", |b| b.compression(CompressorChoice::Pbc))),
            ),
            (
                "TierBase-PMem",
                Box::new(tb("f10-pm", |b| b.pmem(PmemTuning::default()))),
            ),
        ];
        for (name, engine) in systems {
            let (load, run) = Workload::new(spec_fn(records, ops)).generate();
            let p = measure_cost(name, engine.as_ref(), &load, &run, 16, &demand, 4.0, 1.0);
            points.push(p);
        }
        print_cost_plane(title, &points);
        for p in &points {
            report.add_values(
                format!("{}/{mix}", p.name),
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
    report.write().expect("write bench report");
}
