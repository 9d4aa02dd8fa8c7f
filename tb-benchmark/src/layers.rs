//! Turns what the traced phase recorded — spans, `tb-obs` snapshots,
//! the generator's burst times — into the per-layer metrics.

use crate::spec::STALL_NS;
use crate::trace::{covered_ns, self_times_ns, Layer, Span};
use std::collections::BTreeMap;
use tb_obs::MetricsSnapshot;

pub type Metrics = Vec<(&'static str, f64)>;

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two when even), sorting them.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `tb-obs` histograms the benchmark reads. They are cumulative in
/// the program, so the benchmark resets them where its window starts.
pub const WHOLE_RUN_HISTOGRAMS: [&str; 2] = ["lsm_flush_ns", "lsm_compaction_ns"];
pub const TRACED_PHASE_HISTOGRAMS: [&str; 3] = [
    "lsm_wal_sync_ns",
    "lsm_batch_fetch_ns",
    "lsm_block_decompress_ns",
];

pub fn reset_histograms(names: &[&str]) {
    for name in names {
        tb_obs::global().histogram(name).histogram().reset();
    }
}

/// `client.*`: the generator's view of the timed phase's bursts (the
/// phase `ops_per_s` comes from, five times the samples of the traced
/// one), plus what tracing cost: how much longer the median burst took
/// with the shims in place. Medians, because on a write workload the two
/// phases hold different flushes and compactions, which their
/// throughputs would compare instead.
pub fn client_metrics(timed_ns: &[u64], timed_wall_s: f64, traced_ns: &[u64]) -> Metrics {
    let sorted = |bursts: &[u64]| {
        let mut sorted = bursts.to_vec();
        sorted.sort_unstable();
        sorted
    };
    let (timed, traced) = (sorted(timed_ns), sorted(traced_ns));
    let us = |q| percentile(&timed, q) as f64 / 1e3;
    let stalled: u64 = timed.iter().filter(|&&b| b > STALL_NS).sum();
    vec![
        ("client.burst_p95_us", us(0.95)),
        ("client.burst_p99_us", us(0.99)),
        ("client.burst_p999_us", us(0.999)),
        (
            "client.burst_max_ms",
            timed.last().copied().unwrap_or(0) as f64 / 1e6,
        ),
        (
            "client.stall_ms_per_s",
            ratio(stalled as f64 / 1e6, timed_wall_s),
        ),
        ("client.samples", timed.len() as f64),
        (
            "client.trace_overhead_pct",
            100.0
                * (ratio(
                    percentile(&traced, 0.5) as f64,
                    percentile(&timed, 0.5) as f64,
                ) - 1.0),
        ),
    ]
}

#[derive(Default)]
struct Burst {
    window: (u64, u64),
    server_self: u64,
    frontend_self: u64,
    engine: Vec<(u64, u64)>,
    syncs: Vec<(u64, u64)>,
}

/// `server.*`, `frontend.*`, `engine.*` from spans. Per burst, the
/// server's self time is the burst minus the front-end spans (socket,
/// frame codec, connection thread, and the generator's own encode and
/// decode); the front-end's is its spans minus the engine spans (queue
/// wait, ticketing, worker wake-up); engine time is the union of the
/// engine spans, of which `sync` calls are reported apart (where an
/// apply on one shard worker overlaps a sync on the other, the overlap
/// counts as sync). The four shares therefore sum to 1.
pub fn span_metrics(spans: &[Span]) -> Metrics {
    let self_ns = self_times_ns(spans);
    let mut bursts: BTreeMap<u64, Burst> = BTreeMap::new();
    let (mut apply_ns, mut sync_ns) = (Vec::new(), Vec::new());
    for (span, &own) in spans.iter().zip(&self_ns) {
        let burst = bursts.entry(span.burst).or_default();
        match span.layer {
            Layer::Client => {
                burst.window = (span.start_ns, span.end_ns);
                burst.server_self = own;
            }
            Layer::Frontend => burst.frontend_self += own,
            Layer::Engine => {
                burst.engine.push((span.start_ns, span.end_ns));
                if span.method == "sync" {
                    burst.syncs.push((span.start_ns, span.end_ns));
                    sync_ns.push(span.duration_ns());
                } else {
                    apply_ns.push(span.duration_ns());
                }
            }
        }
    }
    let (mut total, mut in_sync, mut in_engine) = (0u64, 0u64, 0u64);
    let (mut server, mut frontend) = (Vec::new(), Vec::new());
    let (mut engine_calls, mut syncs) = (0usize, 0usize);
    for burst in bursts.values_mut() {
        let (lo, hi) = burst.window;
        total += hi - lo;
        in_engine += covered_ns(&mut burst.engine, lo, hi);
        in_sync += covered_ns(&mut burst.syncs, lo, hi);
        server.push(burst.server_self);
        frontend.push(burst.frontend_self);
        engine_calls += burst.engine.len();
        syncs += burst.syncs.len();
    }
    for samples in [&mut server, &mut frontend, &mut apply_ns, &mut sync_ns] {
        samples.sort_unstable();
    }
    let n = bursts.len() as f64;
    let total = total as f64;
    let us = |samples: &[u64], q| percentile(samples, q) as f64 / 1e3;
    let sum = |samples: &[u64]| samples.iter().sum::<u64>() as f64;
    vec![
        ("server.self_us_p50", us(&server, 0.50)),
        ("server.self_us_p99", us(&server, 0.99)),
        ("server.self_share", ratio(sum(&server), total)),
        ("frontend.self_us_p50", us(&frontend, 0.50)),
        ("frontend.self_us_p99", us(&frontend, 0.99)),
        ("frontend.self_share", ratio(sum(&frontend), total)),
        (
            "frontend.engine_calls_per_burst",
            ratio(engine_calls as f64, n),
        ),
        ("frontend.syncs_per_burst", ratio(syncs as f64, n)),
        ("engine.apply_us_p50", us(&apply_ns, 0.50)),
        ("engine.apply_us_p99", us(&apply_ns, 0.99)),
        (
            "engine.apply_share",
            ratio((in_engine - in_sync) as f64, total),
        ),
        ("engine.sync_us_p50", us(&sync_ns, 0.50)),
        ("engine.sync_us_p99", us(&sync_ns, 0.99)),
        ("engine.sync_share", ratio(in_sync as f64, total)),
    ]
}

/// Counter and histogram metrics from `tb_obs::global().snapshot()`.
/// `before`/`after` bracket the traced phase (`traced_ops` operations);
/// `run_start` was taken before set-up, and the ratios that describe
/// the engine's whole life (write and compression amplification, flush
/// and compaction rates) are taken from there, over `run_ops` operations
/// and `run_bytes_written` user bytes, because a read-only or short
/// traced phase writes too little to show them.
pub fn obs_metrics(
    run_start: &MetricsSnapshot,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    traced_ops: u64,
    run_ops: u64,
    run_bytes_written: u64,
) -> Metrics {
    let phase = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let run = |name: &str| after.counter(name).saturating_sub(run_start.counter(name)) as f64;
    let per_kop = |name: &str| ratio(phase(name), traced_ops as f64 / 1e3);
    let per_run_mop = |name: &str| ratio(run(name), run_ops as f64 / 1e6);
    let histo = |name: &str| after.histogram(name).copied();
    let p50 = |name: &str, unit_ns: f64| histo(name).map_or(0.0, |h| h.p50 as f64 / unit_ns);
    vec![
        (
            "server.ops_per_burst",
            ratio(phase("server_ops"), phase("server_bursts")),
        ),
        (
            "server.bytes_in_per_op",
            ratio(phase("server_bytes_in"), phase("server_ops")),
        ),
        (
            "server.bytes_out_per_op",
            ratio(phase("server_bytes_out"), phase("server_ops")),
        ),
        (
            "frontend.mean_batch",
            ratio(phase("frontend_completed"), phase("frontend_batches")),
        ),
        (
            "frontend.coalesced_puts_per_kop",
            per_kop("frontend_coalesced_puts"),
        ),
        (
            "core.cache_hit_ratio",
            ratio(
                phase("core_cache_hits"),
                phase("core_cache_hits") + phase("core_cache_misses"),
            ),
        ),
        (
            "core.storage_fetches_per_kop",
            per_kop("core_storage_fetches"),
        ),
        ("core.dirty_flushes_per_kop", per_kop("core_dirty_flushes")),
        (
            "core.flushed_entries_per_flush",
            ratio(phase("core_flushed_entries"), phase("core_dirty_flushes")),
        ),
        ("cache.evictions_per_kop", per_kop("cache_evictions")),
        ("lsm.blocks_read_per_kop", per_kop("lsm_batch_blocks_read")),
        (
            "lsm.blocks_decompressed_per_kop",
            per_kop("lsm_blocks_decompressed"),
        ),
        (
            "lsm.dedup_hits_per_kop",
            per_kop("lsm_batch_block_dedup_hits"),
        ),
        (
            "lsm.memtable_hit_ratio",
            ratio(phase("lsm_batch_memtable_hits"), phase("lsm_gets")),
        ),
        ("lsm.flushes_per_mop", per_run_mop("lsm_flushes")),
        ("lsm.compactions_per_mop", per_run_mop("lsm_compactions")),
        (
            "lsm.write_amp",
            ratio(
                run("lsm_compressed_bytes_written"),
                run_bytes_written as f64,
            ),
        ),
        (
            "lsm.compress_ratio",
            ratio(
                run("lsm_uncompressed_bytes_written"),
                run("lsm_compressed_bytes_written"),
            ),
        ),
        ("lsm.flush_ms_p50", p50("lsm_flush_ns", 1e6)),
        ("lsm.compaction_ms_p50", p50("lsm_compaction_ns", 1e6)),
        (
            "lsm.compaction_ms_max",
            histo("lsm_compaction_ns").map_or(0.0, |h| h.max as f64 / 1e6),
        ),
        ("lsm.wal_sync_us_p50", p50("lsm_wal_sync_ns", 1e3)),
        ("lsm.batch_fetch_us_p50", p50("lsm_batch_fetch_ns", 1e3)),
        (
            "lsm.block_decompress_us_p50",
            p50("lsm_block_decompress_ns", 1e3),
        ),
    ]
}
