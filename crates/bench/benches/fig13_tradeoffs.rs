//! Figure 13: space-performance trade-offs under the Case 1 workload.
//!
//! (a) Compression levels: tzstd at levels {1, 4, 13, 19}, one per
//! distinct record parse (every level up to 3 is the two-probe parse;
//! then lazy chain walks over 32, 64 and 256 candidates), with and
//! without a trained dictionary (`TRAINED_DICT_BYTES`, 4 KiB), plus
//! PBC and Raw. Every model is trained on the same 512 records. Paper
//! shape:
//! higher levels buy diminishing space at growing performance cost;
//! pre-trained variants dominate untrained; the curve bends so an
//! intermediate level (≈1) is the practical pick.
//!
//! (b) Write-back cache ratios: In-mem, wb-2X … wb-5X. Paper shape:
//! higher cache ratio (smaller cache) lowers space cost and raises
//! performance cost, with ≈5X balancing the two (the Theorem 5.1
//! crossing point). The write-back stores reach their storage tier
//! over a modelled 100 µs hop (`tb_bench::Delayed`); no real hop is
//! measured. Record and op counts go through `tb_bench::budget`.

use std::time::Instant;
use tb_bench::{bench_dir, budget, delayed_storage, measure_cost, print_cost_plane, CostPoint};
use tb_compress::{measure_ratio, Compressor, Pbc, PbcConfig, RawCompressor, Tzstd, TzstdLevel};
use tb_costmodel::WorkloadDemand;
use tb_workload::{DatasetKind, Workload, WorkloadSpec};
use tierbase_core::{SyncPolicy, TierBase, TierBaseConfig};

/// Compressor-level cost point: performance cost from measured
/// records/s through compress+decompress at the workload mix,
/// space cost from the ratio.
fn compressor_point(
    name: &str,
    c: &dyn Compressor,
    test: &[Vec<u8>],
    demand: &WorkloadDemand,
) -> CostPoint {
    let ratio = measure_ratio(c, test);
    let compressed: Vec<Vec<u8>> = test.iter().map(|r| c.compress(r)).collect();
    // Case-1 mix: ~97% reads (decompress) / 3% writes (compress).
    let t0 = Instant::now();
    for _ in 0..3 {
        for z in &compressed {
            std::hint::black_box(c.decompress(z).expect("roundtrip"));
        }
    }
    let read_ops = 3.0 * test.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let t1 = Instant::now();
    for r in test {
        std::hint::black_box(c.compress(r));
    }
    let write_ops = test.len() as f64 / t1.elapsed().as_secs_f64().max(1e-9);
    let mixed_ops = 1.0 / (0.97 / read_ops + 0.03 / write_ops);

    let max_space_gb = 4.0 / ratio.max(1e-6);
    let metrics = tb_costmodel::CostMetrics::new(mixed_ops, max_space_gb, 1.0);
    CostPoint {
        name: name.into(),
        kqps: mixed_ops / 1000.0,
        cpqps: metrics.cpqps(),
        cpgb: metrics.cpgb(),
        performance_cost: metrics.performance_cost(demand),
        space_cost: metrics.space_cost(demand),
    }
}

fn main() {
    let demand = WorkloadDemand::new(80_000.0, 10.0);
    let n = budget(3000);

    // ---- (a) compression level sweep ---------------------------------
    let dataset = DatasetKind::Kv1.build(11);
    let train: Vec<Vec<u8>> = (0..512u64).map(|i| dataset.record(i)).collect();
    let test: Vec<Vec<u8>> = (1000..1000 + n).map(|i| dataset.record(i)).collect();

    let mut points = Vec::new();
    points.push(compressor_point("Raw", &RawCompressor, &test, &demand));
    for level in [1, 4, 13, 19] {
        let plain = Tzstd::train(TzstdLevel(level), &train);
        points.push(compressor_point(
            &format!("Zstd(l={level})"),
            &plain,
            &test,
            &demand,
        ));
        let with_dict = Tzstd::train_with_dict(TzstdLevel(level), &train);
        points.push(compressor_point(
            &format!("Zstd-dict(l={level})"),
            &with_dict,
            &test,
            &demand,
        ));
    }
    let pbc = Pbc::train(&train, &PbcConfig::default());
    points.push(compressor_point("PBC", &pbc, &test, &demand));
    print_cost_plane(
        "Figure 13(a): compression-level trade-offs (Case 1)",
        &points,
    );

    // ---- (b) cache-ratio sweep ---------------------------------------
    let records = budget(15_000);
    let ops = budget(30_000);
    let logical_estimate = records as usize * 140;

    let mut points = Vec::new();
    {
        // In-memory: everything cached (cache ratio 1X).
        let e = TierBase::open(
            TierBaseConfig::builder(bench_dir("f13-mem"))
                .cache_capacity(512 << 20)
                .build(),
        )
        .unwrap();
        let (load, run) = Workload::new(WorkloadSpec::case1_user_info(records, ops)).generate();
        points.push(measure_cost(
            "In-mem", &e, &load, &run, 16, &demand, 4.0, 2.0,
        ));
    }
    for ratio in [2usize, 3, 4, 5] {
        let dir = bench_dir(&format!("f13-wb{ratio}"));
        let e = TierBase::open(
            TierBaseConfig::builder(&dir)
                .cache_capacity((logical_estimate / ratio).max(64 << 10))
                .policy(SyncPolicy::WriteBack)
                .storage(delayed_storage(&dir, 100).unwrap())
                .build(),
        )
        .unwrap();
        let (load, run) = Workload::new(WorkloadSpec::case1_user_info(records, ops)).generate();
        points.push(measure_cost(
            format!("wb-{ratio}X"),
            &e,
            &load,
            &run,
            32,
            &demand,
            4.0,
            2.0,
        ));
    }
    print_cost_plane("Figure 13(b): cache-ratio trade-off (Case 1)", &points);
}
