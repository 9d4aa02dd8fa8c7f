//! What the benchmark declares: the five workloads and every metric
//! name, unit, direction and bound. `BENCHMARK.json` at the repository
//! root repeats these by hand; `tests/smoke.rs` holds the two equal.

use tb_workload::ycsb::Distribution;
use tb_workload::{DatasetKind, WorkloadSpec};

/// Ops per pipelined burst in the measured phases (one `ServerClient`
/// connection, closed loop: the next burst leaves after all 16 replies).
pub const PIPELINE_DEPTH: usize = 16;
/// Ops per burst while loading records during set-up.
pub const LOAD_BURST: usize = 256;
/// Shard queues of the front-end under test.
pub const FRONTEND_SHARDS: usize = 2;
/// Nominal seconds of the timed phase when `--seconds` is not given;
/// `run_seconds` in `BENCHMARK.json` repeats it.
pub const RUN_SECONDS: u64 = 12;
/// A burst slower than this counts as a stall (`client.stall_ms_per_s`).
pub const STALL_NS: u64 = 5_000_000;

/// The engine a workload serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `TierBase`, `SyncPolicy::InMemory`: cache tier only, no disk.
    TierInMemory { cache_bytes: usize },
    /// `TierBase`, `SyncPolicy::WriteBack` over its default `LsmDb`
    /// storage tier (block codec `none`).
    TierWriteBack {
        cache_bytes: usize,
        max_dirty_bytes: u64,
    },
    /// Bare `LsmDb`, block codec `lz`.
    Lsm { memtable_bytes: usize },
}

/// Operation mix; the four shares sum to 1.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub get: f64,
    pub update: f64,
    pub insert: f64,
    pub scan: f64,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub engine: EngineKind,
    /// Records loaded through the socket during set-up.
    pub records: u64,
    /// Timed operations per second of `--seconds`. A run measures a
    /// *fixed op count* (`ops_per_second * seconds`) so that flush,
    /// compaction and eviction counts repeat run to run and a stall
    /// cannot fall on either side of a time cut-off; the rates are
    /// sized so the timed phase lasts about `--seconds` on the 2-core
    /// reference sandbox.
    pub ops_per_second: u64,
    pub mix: Mix,
}

const LSM_MEMTABLE: usize = 1 << 20;

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "serve-hot",
        why: "Data fits the cache: engine work is a hash lookup, so tb-server + tb-frontend + tb-cache do most of it. The control every storage-tier change must leave unchanged.",
        engine: EngineKind::TierInMemory {
            cache_bytes: 256 << 20,
        },
        records: 50_000,
        ops_per_second: 80_000,
        mix: Mix {
            get: 0.95,
            update: 0.05,
            insert: 0.0,
            scan: 0.0,
        },
    },
    WorkloadDef {
        name: "tiered-skew",
        why: "Data is ~6x the cache: skewed gets hit in cache or fetch from the LSM tier, dirty data is batched down (paper 4.1). Exercises tierbase-core sync policy, tb-cache eviction, tb-lsm point reads.",
        engine: EngineKind::TierWriteBack {
            cache_bytes: 2 << 20,
            max_dirty_bytes: 512 << 10,
        },
        records: 100_000,
        ops_per_second: 8_000,
        mix: Mix {
            get: 0.75,
            update: 0.25,
            insert: 0.0,
            scan: 0.0,
        },
    },
    WorkloadDef {
        name: "lsm-ingest",
        why: "Write side of tb-lsm: WAL append, group-commit fsync, memtable flushes, compactions, lz block encode. Where taking flush and compaction off the caller must show.",
        engine: EngineKind::Lsm {
            memtable_bytes: LSM_MEMTABLE,
        },
        records: 100_000,
        ops_per_second: 14_000,
        mix: Mix {
            get: 0.10,
            update: 0.60,
            insert: 0.30,
            scan: 0.0,
        },
    },
    WorkloadDef {
        name: "lsm-read",
        why: "Read side of the same LSM, data 13x the memtable, no block cache: bloom, locate, block fetch, lz decode, search. Where a faster decoder or a block cache must show; write-path changes must not.",
        engine: EngineKind::Lsm {
            memtable_bytes: LSM_MEMTABLE,
        },
        records: 100_000,
        ops_per_second: 10_000,
        mix: Mix {
            get: 1.0,
            update: 0.0,
            insert: 0.0,
            scan: 0.0,
        },
    },
    WorkloadDef {
        name: "lsm-scan",
        why: "YCSB-E on the same LSM: block ranges, k-way merge, scans as batch barriers in the front-end. Catches a point-read gain that costs range scans.",
        engine: EngineKind::Lsm {
            memtable_bytes: LSM_MEMTABLE,
        },
        records: 100_000,
        ops_per_second: 2_000,
        mix: Mix {
            get: 0.0,
            update: 0.0,
            insert: 0.05,
            scan: 0.95,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadDef {
    /// Records and timed ops of one run. `--smoke` shrinks both so all
    /// five workloads finish in seconds (plumbing check, not a number).
    pub fn sizes(&self, seconds: u64, smoke: bool) -> (u64, u64) {
        let burst = PIPELINE_DEPTH as u64;
        let ops = self.ops_per_second * seconds;
        let (records, ops) = if smoke {
            (self.records / 10, ops / 50)
        } else {
            (self.records, ops)
        };
        // Whole bursts only, and enough of them for every phase to run.
        (records, (ops / burst).max(20) * burst)
    }

    /// The `tb-workload` stream for this workload: zipfian 0.99 keys,
    /// `Cities` values (~100 B), everything derived from `seed`.
    pub fn stream_spec(&self, records: u64, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            record_count: records,
            operation_count: 0,
            read_proportion: self.mix.get,
            update_proportion: self.mix.update,
            insert_proportion: self.mix.insert,
            rmw_proportion: 0.0,
            scan_proportion: self.mix.scan,
            max_scan_length: 100,
            distribution: Distribution::Zipfian(0.99),
            dataset: DatasetKind::Cities,
            seed,
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the served stack would see, steady enough on the
/// sandbox to carry a bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Fraction by which it may worsen before it counts as a regression.
    pub bound: f64,
}

// The stack's own timings (`ops_per_s`, `burst_p50_us`, `cpu_us_per_op`)
// were meant to stand here with a bound of 0.10. Two sets of runs of the
// same code do not agree that closely on the shared 2-core sandbox, and a
// longer run does not help (README, "Run-to-run spread"), so they are
// per-layer diagnostics under the same names instead of bounds widened
// until they pass. `setup_s` is a timing too, and two ten-run sets of the
// same code were up to 17 % apart on it; the benchmark contract wants it
// here regardless, with the widest bound there is.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// A metric of a single layer; no bound, read as a diagnosis.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// How many of [`PER_LAYER`], from the top, are the timed phase's
/// timings, which every run measures, traced or not.
pub const TIMINGS: usize = 3;

pub const PER_LAYER: [PerLayer; 64] = [
    // The whole served stack in the timed phase, shims absent: what a
    // user feels, without a bound (see END_TO_END).
    higher("ops_per_s", "ops/s"),
    lower("burst_p50_us", "us"),
    lower("cpu_us_per_op", "us"),
    // client: the generator's own view of a burst.
    lower("client.burst_p95_us", "us"),
    lower("client.burst_p99_us", "us"),
    lower("client.burst_p999_us", "us"),
    lower("client.burst_max_ms", "ms"),
    lower("client.stall_ms_per_s", "ms/s"),
    higher("client.samples", "count"),
    lower("client.trace_overhead_pct", "%"),
    // server: tb-server.
    lower("server.self_us_p50", "us"),
    lower("server.self_us_p99", "us"),
    lower("server.self_share", "ratio"),
    higher("server.ops_per_burst", "ops"),
    lower("server.bytes_in_per_op", "B"),
    lower("server.bytes_out_per_op", "B"),
    lower("server.proto_encode_ns_per_op", "ns"),
    lower("server.proto_decode_ns_per_op", "ns"),
    // frontend: tb-frontend.
    lower("frontend.self_us_p50", "us"),
    lower("frontend.self_us_p99", "us"),
    lower("frontend.self_share", "ratio"),
    lower("frontend.engine_calls_per_burst", "count"),
    lower("frontend.syncs_per_burst", "count"),
    higher("frontend.mean_batch", "ops"),
    higher("frontend.coalesced_puts_per_kop", "count"),
    // engine: the KvEngine under the front-end.
    lower("engine.apply_us_p50", "us"),
    lower("engine.apply_us_p99", "us"),
    lower("engine.apply_share", "ratio"),
    lower("engine.sync_us_p50", "us"),
    lower("engine.sync_us_p99", "us"),
    lower("engine.sync_share", "ratio"),
    lower("engine.reopen_ms", "ms"),
    // core: tierbase-core.
    higher("core.cache_hit_ratio", "ratio"),
    lower("core.storage_fetches_per_kop", "count"),
    lower("core.dirty_flushes_per_kop", "count"),
    higher("core.flushed_entries_per_flush", "count"),
    // cache: tb-cache.
    lower("cache.evictions_per_kop", "count"),
    lower("cache.get_ns", "ns"),
    lower("cache.insert_ns", "ns"),
    // lsm: tb-lsm.
    lower("lsm.blocks_read_per_kop", "count"),
    lower("lsm.blocks_decompressed_per_kop", "count"),
    higher("lsm.dedup_hits_per_kop", "count"),
    higher("lsm.memtable_hit_ratio", "ratio"),
    lower("lsm.flushes_per_mop", "count"),
    lower("lsm.compactions_per_mop", "count"),
    lower("lsm.write_amp", "ratio"),
    higher("lsm.compress_ratio", "ratio"),
    lower("lsm.dir_bytes_per_user_byte", "ratio"),
    lower("lsm.flush_ms_p50", "ms"),
    lower("lsm.compaction_ms_p50", "ms"),
    lower("lsm.compaction_ms_max", "ms"),
    lower("lsm.wal_sync_us_p50", "us"),
    lower("lsm.batch_fetch_us_p50", "us"),
    lower("lsm.block_decompress_us_p50", "us"),
    lower("lsm.wal_append_ns", "ns"),
    lower("lsm.wal_sync_us", "us"),
    // compress: tb-compress block codecs.
    higher("compress.lz_encode_mb_s", "MB/s"),
    higher("compress.lz_decode_mb_s", "MB/s"),
    higher("compress.dict_encode_mb_s", "MB/s"),
    higher("compress.dict_decode_mb_s", "MB/s"),
    higher("compress.pbc_encode_mb_s", "MB/s"),
    higher("compress.pbc_decode_mb_s", "MB/s"),
    // proc: the whole process, from /proc.
    lower("proc.peak_rss_mib", "MiB"),
    lower("proc.ctx_switches_per_kop", "count"),
];
