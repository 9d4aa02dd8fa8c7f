//! Table 3: break-even access intervals between TierBase
//! configurations (adapted Five-Minute Rule, Eq. 5).
//!
//! Paper shape to reproduce: a ladder of intervals —
//! Raw→PMem < Raw→PBC < PMem→PBC — partitioning access-interval space
//! into "use Raw", "use PMem", "use compression" regions. The paper's
//! absolute values (98 s / 184 s / 264 s) come from Ant's prices; ours
//! come from the simulator's measured CPQPS/CPGB, so only the ordering
//! and the recommendation logic are expected to match.

use tb_bench::{bench_dir, drive, print_table, scale};
use tb_common::KvEngine;
use tb_costmodel::{break_even_interval, BreakEvenTable, CostMetrics};
use tb_workload::{DatasetKind, Workload, WorkloadSpec};
use tierbase_core::{CompressorChoice, PmemTuning, TierBase, TierBaseConfig};

fn measure(name: &str, engine: &TierBase, records: u64, ops: u64) -> (String, CostMetrics) {
    let (load, run) = Workload::new(WorkloadSpec::case1_user_info(records, ops)).generate();
    let result = drive(engine, &load, &run, 16);
    let logical = tb_bench::logical_bytes(&load);
    let expansion = engine.resident_bytes() as f64 / logical.max(1) as f64;
    let max_space_gb = 4.0 / expansion.max(1e-9);
    (
        name.to_string(),
        CostMetrics::new(result.qps, max_space_gb, 1.0),
    )
}

fn main() {
    let records = 15_000u64 * scale() as u64;
    let ops = 30_000u64 * scale() as u64;
    let dataset = DatasetKind::Kv1.build(7);
    let samples: Vec<Vec<u8>> = (0..512u64).map(|i| dataset.record(i)).collect();
    let avg_record = samples.iter().map(|s| s.len()).sum::<usize>() as f64 / samples.len() as f64;

    let raw = TierBase::open(
        TierBaseConfig::builder(bench_dir("t3-raw"))
            .cache_capacity(512 << 20)
            .compression(CompressorChoice::Raw)
            .build(),
    )
    .unwrap();
    // PMem alone: raw values, so the row trades DRAM for PMem only.
    let pmem = TierBase::open(
        TierBaseConfig::builder(bench_dir("t3-pmem"))
            .cache_capacity(512 << 20)
            .compression(CompressorChoice::Raw)
            .pmem(PmemTuning {
                value_threshold: 64,
                cost_factor: 0.5,
            })
            .build(),
    )
    .unwrap();
    let pbc = TierBase::open(
        TierBaseConfig::builder(bench_dir("t3-pbc"))
            .cache_capacity(512 << 20)
            .compression(CompressorChoice::Pbc)
            .build(),
    )
    .unwrap();
    pbc.train_compression(&samples).expect("train compression");

    let configs = vec![
        measure("Raw", &raw, records, ops),
        measure("PMem", &pmem, records, ops),
        measure("Compression(PBC)", &pbc, records, ops),
    ];

    // Pairwise break-even table.
    let table = BreakEvenTable::build(&configs, avg_record);
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.fast.clone(),
                r.slow.clone(),
                format!("{:.0}", r.interval_seconds),
            ]
        })
        .collect();
    print_table(
        "Table 3: break-even intervals between configurations",
        &["fast storage", "slow storage", "interval (s)"],
        &rows,
    );

    // The Case-1 recommendation: mean access interval > every
    // break-even ⇒ compression (the paper measured >1018 s and chose
    // PBC).
    let max_interval = table
        .rows
        .iter()
        .map(|r| r.interval_seconds)
        .fold(0.0f64, f64::max);
    let observed = max_interval * 4.0; // cold, like the paper's 1018 s
    println!(
        "\nworkload mean access interval {observed:.0}s -> recommend: {}",
        table.recommend(observed).unwrap_or("n/a")
    );
    let hot = table
        .rows
        .iter()
        .map(|r| r.interval_seconds)
        .fold(f64::INFINITY, f64::min)
        * 0.5;
    println!(
        "hot workload ({hot:.0}s) -> recommend: {}",
        table.recommend(hot).unwrap_or("n/a")
    );

    // Show the raw Eq. 5 arithmetic for one pair for the record.
    let (_, raw_m) = &configs[0];
    let (_, pbc_m) = &configs[2];
    println!(
        "\nEq.5 check Raw->PBC: CPQPS_slow={:.3e} / (CPGB_fast={:.3e} x {avg_record:.0}B) = {:.0}s",
        pbc_m.cpqps(),
        raw_m.cpgb(),
        break_even_interval(pbc_m.cpqps(), raw_m.cpgb(), avg_record),
    );
}
