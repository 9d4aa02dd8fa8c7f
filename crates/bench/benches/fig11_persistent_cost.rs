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
//! The tiered configurations reach their storage tier over a modelled
//! 200 µs hop (`tb_bench::Delayed`); no real hop is measured. Record and
//! op counts go through `tb_bench::budget`.

use tb_baselines::{CassandraLike, HBaseLike, RedisLike};
use tb_bench::{bench_dir, budget, delayed_storage, measure_cost, print_cost_plane, CostPoint};
use tb_costmodel::WorkloadDemand;
use tb_workload::{Workload, WorkloadSpec};
use tierbase_core::{PersistenceMode, SyncPolicy, TierBase, TierBaseConfig};

/// "10X" cache ratio: cache capacity = logical data / 10.
fn tiered(name: &str, policy: SyncPolicy, logical_bytes: usize) -> TierBase {
    let dir = bench_dir(name);
    TierBase::open(
        TierBaseConfig::builder(&dir)
            .cache_capacity((logical_bytes / 10).max(64 << 10))
            .policy(policy)
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

    for (title, spec_fn) in [
        (
            "Figure 11(a): 50% read / 50% write",
            WorkloadSpec::ycsb_a as fn(u64, u64) -> WorkloadSpec,
        ),
        ("Figure 11(b): 95% read / 5% write", WorkloadSpec::ycsb_b),
    ] {
        let mut points: Vec<CostPoint> = Vec::new();

        // Disk-based comparators (single copy; replication inside the
        // storage service, as the paper assumes).
        {
            let e = CassandraLike::open(&bench_dir("f11-cas")).unwrap();
            let (load, run) = Workload::new(spec_fn(records, ops)).generate();
            points.push(measure_cost(
                "Cassandra",
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
            let e = HBaseLike::open(&bench_dir("f11-hb")).unwrap();
            let (load, run) = Workload::new(spec_fn(records, ops)).generate();
            points.push(measure_cost(
                "HBase", &e, &load, &run, 16, &demand, 4.0, 1.0,
            ));
        }
        // Memory-resident persistent stores: dual-replica → space ×2.
        {
            let e = RedisLike::with_aof(&bench_dir("f11-raof")).unwrap();
            let (load, run) = Workload::new(spec_fn(records, ops)).generate();
            points.push(measure_cost(
                "Redis-AOF",
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
    }
}
