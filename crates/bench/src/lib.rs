//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every `benches/figN_*.rs` / `benches/tableN_*.rs` target regenerates
//! one table or figure from the paper's evaluation (§6). The harness
//! supplies the common pieces: a multi-threaded replay driver, cost
//! computation against the standard-container cost model, and aligned
//! table printing.
//!
//! Scale: the paper's 10 GB / 80 kQPS workloads are scaled down so each
//! bench finishes in seconds; the cost model normalizes per-instance,
//! so *relative* positions (who wins, crossover order) are preserved.
//! Set `TB_BENCH_SCALE` (default 1) to multiply record/op counts.

#![deny(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tb_common::{Histogram, KvEngine};
use tb_costmodel::{CostMetrics, WorkloadDemand};
use tb_workload::{Op, Trace};

mod delayed;
pub mod report;
pub use delayed::{delayed_storage, Delayed};
pub use report::BenchReport;

/// Benchmark scale factor from `TB_BENCH_SCALE`.
pub fn scale() -> usize {
    std::env::var("TB_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// True when `TB_BENCH_SMOKE` asks for a tiny CI smoke budget.
pub fn smoke() -> bool {
    std::env::var("TB_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Record/op budget: `base` × `TB_BENCH_SCALE`, shrunk ~50× (floor
/// 200) under `TB_BENCH_SMOKE` so CI *executes* benches instead of
/// only compile-checking them.
pub fn budget(base: u64) -> u64 {
    let scaled = base * scale() as u64;
    if smoke() {
        (scaled / 50).max(200)
    } else {
        scaled
    }
}

/// Result of driving a run-phase trace against an engine.
#[derive(Debug, Clone)]
pub struct DriveResult {
    pub qps: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub mean_us: f64,
    pub ops: usize,
    pub errors: usize,
}

/// Applies one op, ignoring NotFound-style outcomes.
pub fn apply_op(engine: &dyn KvEngine, op: &Op) -> bool {
    let r = match op {
        Op::Read { key } => engine.get(key).map(|_| ()),
        Op::Insert { key, value } | Op::Update { key, value } => {
            engine.put(key.clone(), value.clone())
        }
        Op::Delete { key } => engine.delete(key),
        Op::ReadModifyWrite { key, value } => engine
            .get(key)
            .and_then(|_| engine.put(key.clone(), value.clone())),
        Op::Scan { start, end, limit } => {
            engine.scan(start, Some(end), *limit as usize).map(|_| ())
        }
    };
    r.is_ok()
}

/// Loads a trace (untimed), then drives the run trace with
/// `client_threads` workers sharing the op stream, measuring throughput
/// and latency (the YCSB run phase).
pub fn drive(
    engine: &dyn KvEngine,
    load: &Trace,
    run: &Trace,
    client_threads: usize,
) -> DriveResult {
    for op in load.ops() {
        apply_op(engine, op);
    }
    let _ = engine.sync();

    let hist = Histogram::new();
    let errors = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let ops = run.ops();
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..client_threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ops.len() {
                    return;
                }
                let t0 = Instant::now();
                if !apply_op(engine, &ops[i]) {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                hist.record(t0.elapsed().as_nanos() as u64);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let _ = engine.sync();

    DriveResult {
        qps: ops.len() as f64 / elapsed,
        p50_us: hist.percentile(0.50) as f64 / 1000.0,
        p95_us: hist.percentile(0.95) as f64 / 1000.0,
        p99_us: hist.p99() as f64 / 1000.0,
        p999_us: hist.percentile(0.999) as f64 / 1000.0,
        mean_us: hist.mean() / 1000.0,
        ops: ops.len(),
        errors: errors.load(Ordering::Relaxed),
    }
}

/// Result of a burst replay through a front-end ([`drive_bursts`]).
#[derive(Debug, Clone)]
pub struct PipelineResult {
    pub qps: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub mean_us: f64,
    pub ops: usize,
    pub errors: usize,
}

impl PipelineResult {
    /// Result of replaying `ops` operations since `started`, with the
    /// per-op latencies (ns) recorded in `hist`.
    pub fn measured(hist: &Histogram, ops: usize, started: Instant, errors: usize) -> Self {
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        Self {
            qps: ops as f64 / elapsed,
            p50_us: hist.percentile(0.50) as f64 / 1000.0,
            p95_us: hist.percentile(0.95) as f64 / 1000.0,
            p99_us: hist.p99() as f64 / 1000.0,
            p999_us: hist.percentile(0.999) as f64 / 1000.0,
            mean_us: hist.mean() / 1000.0,
            ops,
            errors,
        }
    }
}

/// Ops per burst in [`drive_bursts`]: the pipeline depth
/// `tb-benchmark`'s client uses.
pub const BURST: usize = 16;

/// Replays `run` through a [`tb_frontend::Frontend`] the way `tb-server`
/// connections drive it: `clients` closed-loop threads, each handing the
/// front-end [`BURST`]-op bursts through `apply_batch` (one sub-batch
/// per shard, one `sync()` per burst). An op's latency is its burst's.
pub fn drive_bursts(
    frontend: &tb_frontend::Frontend,
    run: &Trace,
    clients: usize,
) -> PipelineResult {
    use tb_common::EngineOp;

    let hist = Histogram::new();
    let errors = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let ops = run.ops();
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| loop {
                let from = next.fetch_add(BURST, Ordering::Relaxed);
                if from >= ops.len() {
                    return;
                }
                let burst: Vec<EngineOp> = ops[from..ops.len().min(from + BURST)]
                    .iter()
                    .map(|op| match op {
                        Op::Read { key } => EngineOp::Get(key.clone()),
                        Op::Insert { key, value }
                        | Op::Update { key, value }
                        | Op::ReadModifyWrite { key, value } => {
                            EngineOp::Put(key.clone(), value.clone())
                        }
                        Op::Delete { key } => EngineOp::Delete(key.clone()),
                        Op::Scan { start, end, limit } => EngineOp::Scan {
                            start: start.clone(),
                            end: Some(end.clone()),
                            limit: *limit as usize,
                        },
                    })
                    .collect();
                let t0 = Instant::now();
                let outcomes = frontend.apply_batch(burst);
                let took = t0.elapsed().as_nanos() as u64;
                for outcome in outcomes {
                    hist.record(took);
                    if outcome.is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    PipelineResult::measured(&hist, ops.len(), started, errors.load(Ordering::Relaxed))
}

/// Price of a GB of disk relative to a GB of DRAM (cloud SSD vs
/// memory, order 1:20). A configuration whose data lives on disk is
/// billed at this price by passing [`measure_cost`] an
/// `instance_capacity_gb` of the DRAM capacity divided by it.
pub const DISK_PRICE: f64 = 0.05;

/// A measured configuration's position on the cost plane.
#[derive(Debug, Clone)]
pub struct CostPoint {
    pub name: String,
    /// Measured throughput, thousands of ops per second.
    pub kqps: f64,
    pub cpqps: f64,
    pub cpgb: f64,
    pub performance_cost: f64,
    pub space_cost: f64,
}

impl CostPoint {
    pub fn total(&self) -> f64 {
        self.performance_cost.max(self.space_cost)
    }
}

/// Computes a configuration's cost-plane point from a drive result and
/// the engine's resident footprint.
///
/// `logical_bytes` is the workload's true data size; the expansion
/// factor (resident/logical) shrinks or grows the instance's effective
/// `MaxSpace` exactly as in §5.3. `replica_factor` multiplies space for
/// replicated configurations (the paper charges ×2 for dual-replica).
pub fn cost_point(
    name: impl Into<String>,
    result: &DriveResult,
    resident_bytes: u64,
    logical_bytes: u64,
    demand: &WorkloadDemand,
    instance_capacity_gb: f64,
    replica_factor: f64,
) -> CostPoint {
    let expansion = if logical_bytes == 0 {
        1.0
    } else {
        resident_bytes as f64 / logical_bytes as f64
    } * replica_factor;
    let max_space_gb = (instance_capacity_gb / expansion.max(1e-9)).max(1e-9);
    let metrics = CostMetrics::new(result.qps.max(1.0), max_space_gb, 1.0);
    CostPoint {
        name: name.into(),
        kqps: result.qps / 1000.0,
        cpqps: metrics.cpqps(),
        cpgb: metrics.cpgb(),
        performance_cost: metrics.performance_cost(demand),
        space_cost: metrics.space_cost(demand),
    }
}

/// Sum of key+value bytes of the final state of a load trace.
pub fn logical_bytes(load: &Trace) -> u64 {
    use std::collections::HashMap;
    let mut last: HashMap<&tb_common::Key, usize> = HashMap::new();
    for op in load.ops() {
        match op {
            Op::Insert { key, value }
            | Op::Update { key, value }
            | Op::ReadModifyWrite { key, value } => {
                last.insert(key, key.len() + value.len());
            }
            Op::Delete { key } => {
                last.remove(key);
            }
            Op::Read { .. } | Op::Scan { .. } => {}
        }
    }
    last.values().map(|&v| v as u64).sum()
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints cost-plane points like the paper's scatter figures.
pub fn print_cost_plane(title: &str, points: &[CostPoint]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                format!("{:.3}", p.space_cost),
                format!("{:.3}", p.performance_cost),
                format!("{:.3}", p.total()),
            ]
        })
        .collect();
    print_table(
        title,
        &["config", "space-cost", "perf-cost", "total=max"],
        &rows,
    );
    if let Some(best) = points
        .iter()
        .min_by(|a, b| a.total().partial_cmp(&b.total()).expect("finite"))
    {
        println!(
            "--> cost-optimal: {} (total {:.3})",
            best.name,
            best.total()
        );
    }
}

/// Drives an engine with a workload and returns its cost-plane point in
/// one call (the §5.3 sample→load→replay→calculate pipeline).
#[allow(clippy::too_many_arguments)]
pub fn measure_cost(
    name: impl Into<String>,
    engine: &dyn KvEngine,
    load: &Trace,
    run: &Trace,
    clients: usize,
    demand: &WorkloadDemand,
    instance_capacity_gb: f64,
    replica_factor: f64,
) -> CostPoint {
    let result = drive(engine, load, run, clients);
    let logical = logical_bytes(load);
    cost_point(
        name,
        &result,
        engine.resident_bytes(),
        logical,
        demand,
        instance_capacity_gb,
        replica_factor,
    )
}

/// Memtable flushes so far in this process (the `lsm_flush_ns`
/// histogram's count): a row that means an LSM on disk asserts that it
/// wrote tables.
pub fn lsm_flushes() -> u64 {
    tb_obs::global()
        .snapshot()
        .histogram("lsm_flush_ns")
        .map_or(0, |h| h.count)
}

/// Temp directory helper for bench engines.
pub fn bench_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tb-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// Shared handle so `drive` can be used with engines behind `Arc`.
pub fn drive_arc(
    engine: &Arc<dyn KvEngine>,
    load: &Trace,
    run: &Trace,
    client_threads: usize,
) -> DriveResult {
    drive(engine.as_ref(), load, run, client_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::testutil::MapEngine;
    use tb_common::{Key, Value};
    use tb_workload::{Workload, WorkloadSpec};

    #[test]
    fn drive_handles_scan_workloads() {
        let (load, run) = Workload::new(WorkloadSpec::ycsb_e(200, 500)).generate();
        let e = MapEngine::default();
        let r = drive(&e, &load, &run, 2);
        assert_eq!(r.ops, 500);
        assert_eq!(r.errors, 0, "scans must apply cleanly");
    }

    #[test]
    fn drive_measures_throughput() {
        let (load, run) = Workload::new(WorkloadSpec::ycsb_a(100, 2000)).generate();
        let e = MapEngine::default();
        let r = drive(&e, &load, &run, 2);
        assert_eq!(r.ops, 2000);
        assert_eq!(r.errors, 0);
        assert!(r.qps > 0.0);
        assert!(r.p99_us >= 0.0);
    }

    #[test]
    fn cost_point_reflects_expansion() {
        let demand = WorkloadDemand::new(1000.0, 10.0);
        let r = DriveResult {
            qps: 10_000.0,
            p50_us: 1.0,
            p95_us: 1.0,
            p99_us: 1.0,
            p999_us: 1.0,
            mean_us: 1.0,
            ops: 1,
            errors: 0,
        };
        let light = cost_point("light", &r, 100, 100, &demand, 4.0, 1.0);
        let heavy = cost_point("heavy", &r, 300, 100, &demand, 4.0, 1.0);
        assert!(heavy.space_cost > light.space_cost * 2.9);
        let replicated = cost_point("rep", &r, 100, 100, &demand, 4.0, 2.0);
        assert!((replicated.space_cost / light.space_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn logical_bytes_counts_final_state() {
        let load = Trace::new(vec![
            Op::Insert {
                key: Key::from("a"),
                value: Value::from("12345"),
            },
            Op::Update {
                key: Key::from("a"),
                value: Value::from("1"),
            },
            Op::Insert {
                key: Key::from("b"),
                value: Value::from("22"),
            },
            Op::Delete {
                key: Key::from("b"),
            },
        ]);
        assert_eq!(logical_bytes(&load), 2); // "a" + "1"
    }
}
