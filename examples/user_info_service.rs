//! Case study 1 (§6.5): the User Info Service.
//!
//! A read-heavy (~32:1), highly skewed, availability-critical workload
//! over machine-generated profile records. This example walks the
//! paper's decision process end to end:
//!
//! 1. record a representative trace,
//! 2. replay it against candidate configurations (Raw, PMem, PBC),
//! 3. compute each configuration's cost under the model,
//! 4. compute break-even access intervals (Table 3) and check them
//!    against the workload's observed mean access interval,
//! 5. pick the cost-optimal configuration.
//!
//! ```sh
//! cargo run --release --example user_info_service
//! ```

use tierbase::costmodel::{BreakEvenTable, CostEvaluator, InstanceSpec, WorkloadDemand};
use tierbase::prelude::*;
use tierbase::workload::DatasetKind;

fn open_variant(
    name: &str,
    f: impl FnOnce(tierbase::store::TierBaseConfigBuilder) -> tierbase::store::TierBaseConfigBuilder,
) -> TierBase {
    let dir = std::env::temp_dir().join(format!("tb-example-uis-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    TierBase::open(f(TierBaseConfig::builder(dir).cache_capacity(256 << 20)).build())
        .expect("open store")
}

fn main() -> Result<()> {
    // 1. Sample the workload (the paper replays a real business trace;
    //    we generate the synthetic equivalent with the same statistics).
    let mut workload = Workload::new(WorkloadSpec::case1_user_info(10_000, 30_000));
    let load = Trace::new(workload.load_ops());
    let run = workload.run_trace();
    let stats = run.stats();
    println!(
        "trace: {} ops, {:.1}:1 read:write, top-1% keys serve {:.0}% of accesses",
        stats.op_count,
        stats.read_count as f64 / stats.write_count.max(1) as f64,
        stats.top1pct_share * 100.0,
    );

    // 2-3. Replay against candidates and compute costs.
    //    Peak demand from production: hundreds of kQPS per tenant and
    //    ~10 GB per shard group; read-heavy so performance cost is low.
    let demand = WorkloadDemand::new(80_000.0, 10.0);
    let evaluator = CostEvaluator::new(InstanceSpec::standard(), demand);

    let dataset = DatasetKind::Kv1.build(0xca5e1);
    let samples: Vec<Vec<u8>> = (0..512u64).map(|i| dataset.record(i)).collect();

    let raw = open_variant("raw", |b| b);
    let pmem = open_variant("pmem", |b| b.pmem(PmemTuning::default()));
    let pbc = open_variant("pbc", |b| b.compression(CompressorChoice::Pbc));
    pbc.train_compression(&samples)?; // offline pre-training (§4.2)

    let measured = vec![
        evaluator.measure("TierBase-Raw", &raw, &load, &run)?,
        evaluator.measure("TierBase-PMem", &pmem, &load, &run)?,
        evaluator.measure("TierBase-PBC", &pbc, &load, &run)?,
    ];

    // 4. Break-even intervals between the configurations (Table 3).
    let avg_record = samples.iter().map(|s| s.len()).sum::<usize>() as f64 / samples.len() as f64;
    let configs: Vec<(String, _)> = measured
        .iter()
        .map(|m| (m.name.clone(), m.metrics.clone()))
        .collect();
    let table = BreakEvenTable::build(&configs, avg_record);
    println!("\nbreak-even intervals:");
    for row in &table.rows {
        println!(
            "  {:>14} -> {:<14} {:>8.0} s",
            row.fast, row.slow, row.interval_seconds
        );
    }
    // The paper observed a mean access interval > 1018 s — far beyond
    // every break-even — so the space-optimized config wins.
    let observed_interval_s = 1018.0;
    println!(
        "observed mean access interval {observed_interval_s:.0}s -> rule recommends: {}",
        table.recommend(observed_interval_s).unwrap_or("n/a")
    );

    // 5. The full cost report agrees.
    let report = evaluator.report(measured);
    println!("\ncost report:");
    for c in &report.costs {
        println!(
            "  {:>14}  PC={:<8.3} SC={:<8.3} C={:.3}",
            c.name,
            c.performance_cost,
            c.space_cost,
            c.total()
        );
    }
    let optimal = report.optimal.as_deref().unwrap_or("n/a");
    println!("cost-optimal configuration: {optimal}");

    let raw_total = report.cost_of("TierBase-Raw").expect("measured").total();
    let best_total = report.cost_of(optimal).expect("measured").total();
    println!(
        "savings vs Raw: {:.0}% (paper reports 62% for this scenario)",
        100.0 * (1.0 - best_total / raw_total)
    );
    Ok(())
}
