//! Figure 11: cost of databases with persistence on the cost plane,
//! 50/50 and 95/5 mixes (10 GB / 40 kQPS demand).
//!
//! Paper shape to reproduce: Cassandra/HBase — high performance cost,
//! very low space cost (disk); Redis-AOF and TierBase-WAL — low
//! performance cost but dual-replica in-memory space cost; tiered
//! TierBase (wt-10X / wb-10X) balances both, with write-back winning
//! the write-heavy mix and the advantage fading on the read-heavy one;
//! WAL-PMem trades a little space for near-memory performance.
//!
//! Every row is a configuration of code in this repo; none runs a
//! comparator (README, "Comparison figures"). Cassandra's and HBase's
//! signature, an LSM on disk, is `LSM-lz`: a bare `LsmDb` writing
//! `lz` blocks, its memtable a quarter of the data so it flushes,
//! billed at [`tb_bench::DISK_PRICE`]. Redis-AOF's, an in-memory store
//! with an append-only log, is `TierBase-WAL`. Every TierBase row holds
//! raw values.
//!
//! The tiered configurations reach their storage tier over a modelled
//! 200 µs hop (`tb_bench::Delayed`); no real hop is measured. Record and
//! op counts go through `tb_bench::budget`.

use tb_bench::{
    bench_dir, budget, delayed_storage, lsm_flushes, measure_cost, print_cost_plane, BenchReport,
    CostPoint, DISK_PRICE,
};
use tb_compress::BlockCodec;
use tb_costmodel::WorkloadDemand;
use tb_lsm::{LsmConfig, LsmDb};
use tb_workload::{Workload, WorkloadSpec};
use tierbase_core::{CompressorChoice, PersistenceMode, SyncPolicy, TierBase, TierBaseConfig};

/// "10X" cache ratio: cache capacity = logical data / 10.
/// Every TierBase row holds raw values, as the row that stands for
/// Redis-AOF must, so the rows differ only in where the bytes live.
fn tiered(name: &str, policy: SyncPolicy, logical_bytes: usize) -> TierBase {
    let dir = bench_dir(name);
    TierBase::open(
        TierBaseConfig::builder(&dir)
            .cache_capacity((logical_bytes / 10).max(64 << 10))
            .policy(policy)
            .compression(CompressorChoice::Raw)
            .storage(delayed_storage(&dir, 200).expect("open storage tier"))
            .build(),
    )
    .expect("open")
}

fn cache_resident(name: &str, persistence: PersistenceMode) -> TierBase {
    TierBase::open(
        TierBaseConfig::builder(bench_dir(name))
            .cache_capacity(512 << 20)
            .persistence(persistence)
            .compression(CompressorChoice::Raw)
            .pmem_ring_bytes(64 << 20)
            .build(),
    )
    .expect("open")
}

fn main() {
    let records = budget(10_000);
    let ops = budget(20_000);
    let demand = WorkloadDemand::new(40_000.0, 10.0);
    // Rough logical size for the cache-ratio sizing: ~170 B/record.
    let logical_estimate = records as usize * 170;
    let mut report = BenchReport::new("fig11_persistent_cost");

    for (title, mix, spec_fn) in [
        (
            "Figure 11(a): 50% read / 50% write",
            "A(50/50)",
            WorkloadSpec::ycsb_a as fn(u64, u64) -> WorkloadSpec,
        ),
        (
            "Figure 11(b): 95% read / 5% write",
            "B(95/5)",
            WorkloadSpec::ycsb_b,
        ),
    ] {
        let mut points: Vec<CostPoint> = Vec::new();

        // On disk, single copy (replication inside the storage service,
        // as the paper assumes).
        {
            let mut config = LsmConfig::new(bench_dir("f11-lsm"));
            config.sst.codec = BlockCodec::Lz;
            // A quarter of the data, so the row writes and reads `lz`
            // tables rather than serving from its memtable.
            config.memtable_bytes = (logical_estimate / 4).max(4 << 10);
            let e = LsmDb::open(config).expect("open lsm");
            let (load, run) = Workload::new(spec_fn(records, ops)).generate();
            let flushes = lsm_flushes();
            points.push(measure_cost(
                "LSM-lz",
                &e,
                &load,
                &run,
                16,
                &demand,
                4.0 / DISK_PRICE,
                1.0,
            ));
            // `measure_cost` read `resident_bytes`, which waits for the
            // background flushes.
            assert!(lsm_flushes() > flushes, "LSM-lz never flushed its memtable");
        }
        // Memory-resident persistent stores: dual-replica → space ×2.
        {
            let e = cache_resident("f11-wal", PersistenceMode::Wal);
            let (load, run) = Workload::new(spec_fn(records, ops)).generate();
            points.push(measure_cost(
                "TierBase-WAL",
                &e,
                &load,
                &run,
                16,
                &demand,
                4.0,
                2.0,
            ));
        }
        {
            let e = cache_resident("f11-walpmem", PersistenceMode::WalPmem);
            let (load, run) = Workload::new(spec_fn(records, ops)).generate();
            points.push(measure_cost(
                "TierBase-WAL-PMem",
                &e,
                &load,
                &run,
                16,
                &demand,
                4.0,
                2.0,
            ));
        }
        // Tiered configurations at 10X cache ratio. Write-back carries
        // dirty data in replicated cache → space ×2; write-through ×1.
        {
            let e = tiered("f11-wt", SyncPolicy::WriteThrough, logical_estimate);
            let (load, run) = Workload::new(spec_fn(records, ops)).generate();
            points.push(measure_cost(
                "TierBase-wt-10X",
                &e,
                &load,
                &run,
                16,
                &demand,
                4.0,
                1.0,
            ));
        }
        {
            let e = tiered("f11-wb", SyncPolicy::WriteBack, logical_estimate);
            let (load, run) = Workload::new(spec_fn(records, ops)).generate();
            points.push(measure_cost(
                "TierBase-wb-10X",
                &e,
                &load,
                &run,
                16,
                &demand,
                4.0,
                2.0,
            ));
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
