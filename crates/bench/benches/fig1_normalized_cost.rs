//! Figure 1: normalized SC / PC / total cost of the TierBase
//! cost-saving configurations on the primary production scenario
//! (the Case 1 workload).
//!
//! Paper shape to reproduce: Raw has the highest (space-dominated)
//! cost; PMem and the tiered configurations cut SC at some PC increase;
//! PBC cuts total cost the most (the paper reports 62% vs Raw).
//!
//! The tiered configurations reach their storage tier over a modelled
//! 200 µs hop (`tb_bench::Delayed`); no real hop is measured. Record and
//! op counts go through `tb_bench::budget`.

use tb_bench::{bench_dir, budget, delayed_storage, measure_cost, print_table};
use tb_costmodel::WorkloadDemand;
use tb_workload::{DatasetKind, Workload, WorkloadSpec};
use tierbase_core::{CompressorChoice, PmemTuning, SyncPolicy, TierBase, TierBaseConfig};

fn main() {
    let records = budget(15_000);
    let ops = budget(30_000);
    let demand = WorkloadDemand::new(80_000.0, 10.0);
    let logical_estimate = records as usize * 140;
    let dataset = DatasetKind::Kv1.build(7);
    let samples: Vec<Vec<u8>> = (0..512u64).map(|i| dataset.record(i)).collect();
    let tiered = |name: &str, policy| {
        let dir = bench_dir(name);
        let config = TierBaseConfig::builder(&dir)
            .cache_capacity((logical_estimate / 5).max(64 << 10))
            .policy(policy)
            .storage(delayed_storage(&dir, 200).unwrap())
            .build();
        TierBase::open(config).unwrap()
    };

    let mut points = Vec::new();
    let configs: Vec<(&str, TierBase, f64)> = vec![
        (
            "TierBase-Raw",
            TierBase::open(
                TierBaseConfig::builder(bench_dir("f1-raw"))
                    .cache_capacity(512 << 20)
                    .build(),
            )
            .unwrap(),
            2.0,
        ),
        (
            "TierBase-PMem",
            TierBase::open(
                TierBaseConfig::builder(bench_dir("f1-pmem"))
                    .cache_capacity(512 << 20)
                    .pmem(PmemTuning::default())
                    .build(),
            )
            .unwrap(),
            2.0,
        ),
        (
            "TierBase-PBC",
            {
                let tb = TierBase::open(
                    TierBaseConfig::builder(bench_dir("f1-pbc"))
                        .cache_capacity(512 << 20)
                        .compression(CompressorChoice::Pbc)
                        .build(),
                )
                .unwrap();
                tb.train_compression(&samples).expect("train compression");
                tb
            },
            2.0,
        ),
        (
            "TierBase-wb-5X",
            tiered("f1-wb", SyncPolicy::WriteBack),
            2.0,
        ),
        (
            "TierBase-wt-5X",
            tiered("f1-wt", SyncPolicy::WriteThrough),
            1.0,
        ),
    ];

    for (name, engine, replica_factor) in &configs {
        let (load, run) = Workload::new(WorkloadSpec::case1_user_info(records, ops)).generate();
        points.push(measure_cost(
            *name,
            engine,
            &load,
            &run,
            16,
            &demand,
            4.0,
            *replica_factor,
        ));
    }

    // Normalize to the worst total (the figure's y axis is 0..1).
    let max_total = points
        .iter()
        .map(|p| p.total())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                format!("{:.3}", p.space_cost / max_total),
                format!("{:.3}", p.performance_cost / max_total),
                format!("{:.3}", p.total() / max_total),
            ]
        })
        .collect();
    print_table(
        "Figure 1: normalized cost comparison (SC, PC, Cost=max)",
        &["config", "SC", "PC", "Cost"],
        &rows,
    );
    let raw_total = points[0].total();
    if let Some(best) = points
        .iter()
        .min_by(|a, b| a.total().partial_cmp(&b.total()).expect("finite"))
    {
        println!(
            "--> best: {} saves {:.0}% vs TierBase-Raw",
            best.name,
            100.0 * (1.0 - best.total() / raw_total)
        );
    }
}
