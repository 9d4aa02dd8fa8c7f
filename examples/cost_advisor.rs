//! Cost advisor: the §5.3 optimization framework plus the §4.2
//! compressor recommender, driven by *your* workload description.
//!
//! Give it a rough workload shape on the command line and it recommends
//! a TierBase configuration:
//!
//! ```sh
//! cargo run --release --example cost_advisor -- --qps 50000 --gb 40 --read-pct 90 --skew 0.99
//! ```

use tierbase::compress::CompressorRecommender;
use tierbase::costmodel::{
    zipfian_miss_ratio_curve, CostEvaluator, InstanceSpec, TieredCostModel, TieredCostParams,
    WorkloadDemand,
};
use tierbase::prelude::*;
use tierbase::workload::ycsb::Distribution;
use tierbase::workload::DatasetKind;

struct Args {
    qps: f64,
    gb: f64,
    read_pct: f64,
    skew: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        qps: 50_000.0,
        gb: 40.0,
        read_pct: 90.0,
        skew: 0.99,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < argv.len() {
        match argv[i].as_str() {
            "--qps" => args.qps = argv[i + 1].parse().expect("--qps takes a number"),
            "--gb" => args.gb = argv[i + 1].parse().expect("--gb takes a number"),
            "--read-pct" => args.read_pct = argv[i + 1].parse().expect("--read-pct takes a number"),
            "--skew" => args.skew = argv[i + 1].parse().expect("--skew takes a number"),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }
    args
}

fn main() -> Result<()> {
    let args = parse_args();
    println!(
        "workload: {} QPS, {} GB, {}% reads, zipf({})",
        args.qps, args.gb, args.read_pct, args.skew
    );

    // --- 1. Analytic screen: is tiering even worth it? -----------------
    // Representative per-workload costs from the standard container's
    // price book (cache $/GB vs disk $/GB ≈ 20:1; miss penalty ≈ 4x).
    let demand = WorkloadDemand::new(args.qps, args.gb);
    let params = TieredCostParams {
        pc_cache: demand.qps / 100_000.0,
        pc_miss: 4.0 * demand.qps / 100_000.0,
        sc_cache: demand.data_size_gb / 4.0,
        pc_storage: 30.0 * demand.qps / 100_000.0,
        sc_storage: demand.data_size_gb / 80.0,
    };
    let model = TieredCostModel::new(params, zipfian_miss_ratio_curve(args.skew.min(0.999)));
    let opt = model.optimal_cache_ratio();
    println!(
        "\nanalytic screen (Theorem 5.1): optimal cache ratio CR*={:.3}, miss ratio {:.3}",
        opt.cache_ratio, opt.miss_ratio
    );
    println!(
        "tiered C={:.2} vs cache-only C={:.2} vs storage-only C={:.2} -> tiering wins: {}",
        model.total_cost(opt.cache_ratio),
        params.pc_cache.max(params.sc_cache),
        params.pc_storage.max(params.sc_storage),
        model.tiered_wins(),
    );

    // --- 2. Compressor recommendation on sampled records ---------------
    let dataset = DatasetKind::Kv1.build(99);
    let samples: Vec<Vec<u8>> = (0..400u64).map(|i| dataset.record(i)).collect();
    let (choice, reports) = CompressorRecommender::default().recommend(&samples);
    println!("\ncompressor candidates:");
    for r in &reports {
        println!(
            "  {:?}: ratio {:.3}, speed {:.2}x raw",
            r.choice, r.ratio, r.speed_fraction
        );
    }
    println!("recommended compressor: {choice:?}");

    // --- 3. Empirical confirmation: replay a scaled trace --------------
    let read_prop = (args.read_pct / 100.0).clamp(0.0, 1.0);
    let spec = WorkloadSpec {
        record_count: 5_000,
        operation_count: 15_000,
        read_proportion: read_prop,
        update_proportion: 1.0 - read_prop,
        insert_proportion: 0.0,
        rmw_proportion: 0.0,
        scan_proportion: 0.0,
        max_scan_length: 0,
        distribution: Distribution::Zipfian(args.skew.min(0.999)),
        dataset: DatasetKind::Kv1,
        seed: 0xad01,
    };
    let mut w = Workload::new(spec);
    let load = Trace::new(w.load_ops());
    let run = w.run_trace();

    let open = |name: &str,
                f: &dyn Fn(
        tierbase::store::TierBaseConfigBuilder,
    ) -> tierbase::store::TierBaseConfigBuilder| {
        let dir = std::env::temp_dir().join(format!("tb-example-advisor-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = f(TierBaseConfig::builder(&dir).cache_capacity(128 << 20)).build();
        if config.needs_storage_tier() {
            // A modelled 200 µs hop to the storage tier.
            config.storage = Some(tb_bench::delayed_storage(&dir, 200).expect("open storage tier"));
        }
        TierBase::open(config).unwrap()
    };
    let raw = open("raw", &|b| b);
    let compressed = open("pbc", &|b| b.compression(CompressorChoice::Pbc));
    compressed.train_compression(&samples)?;
    let tiered = open("tiered", &|b| {
        b.cache_capacity(2 << 20).policy(SyncPolicy::WriteBack)
    });

    let evaluator = CostEvaluator::new(InstanceSpec::standard(), demand);
    let report = evaluator.report(vec![
        evaluator.measure("in-memory-raw", &raw, &load, &run)?,
        evaluator.measure("in-memory-pbc", &compressed, &load, &run)?,
        evaluator.measure("tiered-wb", &tiered, &load, &run)?,
    ]);
    println!("\nempirical replay (scaled):");
    for c in &report.costs {
        println!(
            "  {:>15}  PC={:<9.3} SC={:<9.3} C={:.3}",
            c.name,
            c.performance_cost,
            c.space_cost,
            c.total()
        );
    }
    println!(
        "==> recommended configuration: {}",
        report.optimal.as_deref().unwrap_or("n/a")
    );
    Ok(())
}
