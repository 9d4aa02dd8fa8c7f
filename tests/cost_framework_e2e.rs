//! End-to-end validation of the cost-optimization story: the framework
//! must recommend the configurations the paper's theory predicts for
//! each workload regime.

use tierbase::costmodel::{
    lru_miss_ratio_curve, most_balanced_config, optimal_config, zipfian_miss_ratio_curve,
    ConfigCost, CostEvaluator, InstanceSpec, MissRatioCurve, TieredCostModel, TieredCostParams,
    WorkloadDemand,
};
use tierbase::prelude::*;
use tierbase::workload::DatasetKind;

fn tmpdir(name: &str) -> tierbase::common::TestDir {
    tierbase::common::test_dir(&format!("tb-it-cost-{name}"))
}

fn open(
    name: &str,
    f: impl FnOnce(tierbase::store::TierBaseConfigBuilder) -> tierbase::store::TierBaseConfigBuilder,
) -> (tierbase::common::TestDir, TierBase) {
    let dir = tmpdir(name);
    let store =
        TierBase::open(f(TierBaseConfig::builder(dir.path()).cache_capacity(128 << 20)).build())
            .unwrap();
    (dir, store)
}

/// Space-critical workload (large volume, low throughput): compression
/// must be selected as cost-optimal (§2.5.1, Table 1).
#[test]
fn space_critical_workload_selects_compression() {
    let mut w = Workload::new(WorkloadSpec::case1_user_info(4000, 8000));
    let load = Trace::new(w.load_ops());
    let run = w.run_trace();

    let demand = WorkloadDemand::new(1_000.0, 500.0); // low QPS, big data
    let evaluator = CostEvaluator::new(InstanceSpec::standard(), demand);

    let (_raw_dir, raw) = open("sc-raw", |b| b);
    let (_pbc_dir, pbc) = open("sc-pbc", |b| b.compression(CompressorChoice::Pbc));
    let dataset = DatasetKind::Kv1.build(0xca5e1);
    let samples: Vec<Vec<u8>> = (0..512u64).map(|i| dataset.record(i)).collect();
    pbc.train_compression(&samples).unwrap();

    let report = evaluator.report(vec![
        evaluator.measure("raw", &raw, &load, &run).unwrap(),
        evaluator.measure("pbc", &pbc, &load, &run).unwrap(),
    ]);
    assert_eq!(
        report.optimal.as_deref(),
        Some("pbc"),
        "space-critical workload must pick compression: {:?}",
        report.costs
    );
    // And both configurations must be space-critical (SC > PC).
    for c in &report.costs {
        assert!(
            c.space_cost > c.performance_cost,
            "{} should be space-critical here",
            c.name
        );
    }
}

/// Performance-critical workload (high throughput, tiny data): raw
/// in-memory must beat compression (compression only adds CPU).
#[test]
fn performance_critical_workload_selects_raw() {
    let mut w = Workload::new(WorkloadSpec::ycsb_b(2000, 12_000));
    let load = Trace::new(w.load_ops());
    let run = w.run_trace();

    let demand = WorkloadDemand::new(10_000_000.0, 0.5); // huge QPS, tiny data
    let evaluator = CostEvaluator::new(InstanceSpec::standard(), demand);

    let (_raw_dir, raw) = open("pc-raw", |b| b);
    let (_pbc_dir, pbc) = open("pc-pbc", |b| b.compression(CompressorChoice::Pbc));
    let dataset = DatasetKind::Cities.build(0x5eed);
    let samples: Vec<Vec<u8>> = (0..512u64).map(|i| dataset.record(i)).collect();
    pbc.train_compression(&samples).unwrap();

    let report = evaluator.report(vec![
        evaluator.measure("raw", &raw, &load, &run).unwrap(),
        evaluator.measure("pbc", &pbc, &load, &run).unwrap(),
    ]);
    assert_eq!(
        report.optimal.as_deref(),
        Some("raw"),
        "performance-critical workload must pick raw: {:?}",
        report.costs
    );
}

/// The measured LRU miss-ratio curve of a zipfian trace must agree in
/// shape with the analytic curve: steep drop at small cache ratios.
#[test]
fn measured_mrc_matches_analytic_shape() {
    let mut w = Workload::new(WorkloadSpec::ycsb_c(2000, 40_000));
    let _ = w.load_ops();
    let run = w.run_trace();
    let measured = lru_miss_ratio_curve(&run);
    let analytic = zipfian_miss_ratio_curve(0.99);

    // Both curves must be non-increasing and drop sharply early.
    let mut prev = 1.0f64;
    for i in 1..=20 {
        let cr = i as f64 / 20.0;
        let m = measured.miss_ratio(cr);
        assert!(m <= prev + 1e-9, "measured MRC not monotone at {cr}");
        prev = m;
    }
    // At 10% cache both say most requests hit.
    assert!(
        measured.miss_ratio(0.10) < 0.5,
        "measured {:.3}",
        measured.miss_ratio(0.10)
    );
    assert!(analytic.miss_ratio(0.10) < 0.5);
}

/// Theorem 2.1 on real measurements: among a dense family of
/// configurations, the min-max choice is also the most balanced.
#[test]
fn optimal_cost_theorem_holds_on_synthetic_frontier() {
    let demand = WorkloadDemand::new(50_000.0, 50.0);
    let configs: Vec<ConfigCost> = (1..=200)
        .map(|i| {
            let cpgb = i as f64 * 0.005;
            let cpqps = 2e-6 / cpgb; // hyperbolic trade-off
            ConfigCost::new(
                format!("s{i}"),
                cpqps * demand.qps,
                cpgb * demand.data_size_gb,
            )
        })
        .collect();
    let opt = optimal_config(&configs).unwrap();
    let bal = most_balanced_config(&configs).unwrap();
    assert_eq!(
        opt.name, bal.name,
        "min-max and balance point must agree on a dense frontier"
    );
}

/// Theorem 5.1 end-to-end: a skewed workload drives CR* low, and the
/// tiered optimum beats single-tier options under realistic prices.
#[test]
fn tiered_storage_wins_for_skewed_workloads_only() {
    let skewed = TieredCostModel::new(
        TieredCostParams {
            pc_cache: 1.0,
            pc_miss: 3.0,
            sc_cache: 25.0,
            pc_storage: 40.0,
            sc_storage: 1.5,
        },
        zipfian_miss_ratio_curve(0.99),
    );
    assert!(skewed.tiered_wins());
    let cr = skewed.optimal_cache_ratio().cache_ratio;
    assert!(
        cr < 0.3,
        "skewed workload should want a small cache, got {cr}"
    );

    let uniform = TieredCostModel::new(
        TieredCostParams {
            pc_cache: 1.0,
            pc_miss: 30.0,
            sc_cache: 3.0,
            pc_storage: 60.0,
            sc_storage: 2.8,
        },
        zipfian_miss_ratio_curve(0.0),
    );
    assert!(
        !uniform.tiered_wins(),
        "uniform access should not justify tiering here"
    );
}

/// The cache-ratio sweep of Figure 13(b) in miniature: as the cache
/// shrinks, SC falls and PC (via misses) rises, and the framework's
/// chosen optimum sits between the extremes.
#[test]
fn cache_ratio_sweep_shows_the_tradeoff() {
    let mut w = Workload::new(WorkloadSpec::case1_user_info(4000, 10_000));
    let load = Trace::new(w.load_ops());
    let run = w.run_trace();
    let logical: usize = 4000 * 140;
    let demand = WorkloadDemand::new(80_000.0, 10.0);
    let evaluator = CostEvaluator::new(InstanceSpec::standard(), demand);

    let mut measured = Vec::new();
    for ratio in [1usize, 3, 6] {
        let (_dir, store) = open(&format!("sweep-{ratio}"), |b| {
            b.cache_capacity((logical / ratio).max(64 << 10))
                .policy(SyncPolicy::WriteBack)
        });
        measured.push(
            evaluator
                .measure(format!("wb-{ratio}X"), &store, &load, &run)
                .unwrap(),
        );
    }
    // Miss ratio grows as the cache shrinks.
    // Space cost ordering: smaller cache → smaller resident bytes.
    let resident: Vec<u64> = measured
        .iter()
        .map(|m| m.measurement.resident_bytes)
        .collect();
    assert!(
        resident[0] >= resident[1] && resident[1] >= resident[2],
        "cache footprint must shrink with ratio: {resident:?}"
    );
}
