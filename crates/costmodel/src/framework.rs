//! The cost-optimization framework (paper §5.3): sample → load → replay
//! → calculate → iterate.
//!
//! A recorded workload trace is replayed against a live engine per
//! candidate configuration; the measured `MaxPerf`/`MaxSpace` feed the
//! cost model, and iterating over candidates approaches the cost-optimal
//! configuration.

use crate::model::{CostMetrics, InstanceSpec, WorkloadDemand};
use crate::optimal::{optimal_config, ConfigCost};
use std::time::Instant;
use tb_common::{Histogram, KvEngine, Result};
use tb_workload::{Op, Trace};

/// Raw measurements from one replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayMeasurement {
    /// Operations per second sustained during the run phase.
    pub achieved_qps: f64,
    /// Engine-reported expensive-resource footprint after the load.
    pub resident_bytes: u64,
    /// Logical bytes stored (keys + final values), for the expansion
    /// factor.
    pub logical_bytes: u64,
    /// p99 operation latency in nanoseconds.
    pub p99_latency_ns: u64,
    /// Mean operation latency in nanoseconds.
    pub mean_latency_ns: f64,
    /// Operations that returned an error (backpressure etc.).
    pub error_count: u64,
}

impl ReplayMeasurement {
    /// Bytes of resource consumed per logical byte stored (≥ 0; > 1 for
    /// engines with index/replica overhead, < 1 with compression).
    pub fn expansion_factor(&self) -> f64 {
        if self.logical_bytes == 0 {
            1.0
        } else {
            self.resident_bytes as f64 / self.logical_bytes as f64
        }
    }
}

/// Steps 2–3 of the framework: load the snapshot, replay the recorded
/// operations, and measure performance and space.
pub fn evaluate_engine(
    engine: &dyn KvEngine,
    load: &Trace,
    run: &Trace,
) -> Result<ReplayMeasurement> {
    // Load phase (not timed — the paper measures the run phase).
    let mut logical = std::collections::HashMap::new();
    for op in load.ops() {
        apply(engine, op)?;
        track_logical(&mut logical, op);
    }
    engine.sync()?;

    // Run phase, timed per-op.
    let hist = Histogram::new();
    let mut errors = 0u64;
    let started = Instant::now();
    for op in run.ops() {
        let t0 = Instant::now();
        if apply(engine, op).is_err() {
            errors += 1;
        }
        hist.record(t0.elapsed().as_nanos() as u64);
        track_logical(&mut logical, op);
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    engine.sync()?;

    Ok(ReplayMeasurement {
        achieved_qps: run.len() as f64 / elapsed,
        resident_bytes: engine.resident_bytes(),
        logical_bytes: logical.values().sum(),
        p99_latency_ns: hist.p99(),
        mean_latency_ns: hist.mean(),
        error_count: errors,
    })
}

fn apply(engine: &dyn KvEngine, op: &Op) -> Result<()> {
    match op {
        Op::Read { key } => engine.get(key).map(|_| ()),
        Op::Insert { key, value } | Op::Update { key, value } => {
            engine.put(key.clone(), value.clone())
        }
        Op::Delete { key } => engine.delete(key),
        Op::ReadModifyWrite { key, value } => {
            engine.get(key)?;
            engine.put(key.clone(), value.clone())
        }
        Op::Scan { start, end, limit } => {
            engine.scan(start, Some(end), *limit as usize).map(|_| ())
        }
    }
}

fn track_logical(map: &mut std::collections::HashMap<tb_common::Key, u64>, op: &Op) {
    match op {
        Op::Insert { key, value }
        | Op::Update { key, value }
        | Op::ReadModifyWrite { key, value } => {
            map.insert(key.clone(), (key.len() + value.len()) as u64);
        }
        Op::Delete { key } => {
            map.remove(key);
        }
        Op::Read { .. } | Op::Scan { .. } => {}
    }
}

/// A named configuration with its derived cost metrics (step 4 output).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredConfig {
    pub name: String,
    pub metrics: CostMetrics,
    pub measurement: ReplayMeasurement,
}

/// Step 4–5 driver: converts measurements into cost metrics against an
/// instance spec and workload demand, and selects the optimum.
pub struct CostEvaluator {
    pub instance: InstanceSpec,
    pub demand: WorkloadDemand,
    /// Space capacity of one instance in GB for the engine class under
    /// test (memory capacity for caching systems, provisioned disk for
    /// persistent ones).
    pub instance_capacity_gb: f64,
}

impl CostEvaluator {
    pub fn new(instance: InstanceSpec, demand: WorkloadDemand) -> Self {
        let cap = instance.memory_gb;
        Self {
            instance,
            demand,
            instance_capacity_gb: cap,
        }
    }

    /// Overrides the per-instance space capacity (disk-based engines).
    pub fn with_capacity_gb(mut self, gb: f64) -> Self {
        self.instance_capacity_gb = gb;
        self
    }

    /// Step 4: derive `CostMetrics` from a replay measurement.
    ///
    /// `MaxPerf` is the measured sustainable QPS; `MaxSpace` is the
    /// instance capacity divided by the engine's expansion factor
    /// (overheads shrink it, compression grows it).
    pub fn measure(
        &self,
        name: impl Into<String>,
        engine: &dyn KvEngine,
        load: &Trace,
        run: &Trace,
    ) -> Result<MeasuredConfig> {
        let m = evaluate_engine(engine, load, run)?;
        let max_space = self.instance_capacity_gb / m.expansion_factor().max(1e-9);
        let metrics = CostMetrics::new(m.achieved_qps.max(1e-9), max_space, self.instance.cost);
        Ok(MeasuredConfig {
            name: name.into(),
            metrics,
            measurement: m,
        })
    }

    /// Step 5: evaluate all candidates and pick the cost-optimal one.
    pub fn report(&self, configs: Vec<MeasuredConfig>) -> EvaluationReport {
        let costs: Vec<ConfigCost> = configs
            .iter()
            .map(|c| ConfigCost::from_metrics(c.name.clone(), &c.metrics, &self.demand))
            .collect();
        let optimal = optimal_config(&costs).map(|c| c.name.clone());
        EvaluationReport {
            configs,
            costs,
            optimal,
        }
    }
}

/// Final framework output: per-config costs and the selected optimum.
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    pub configs: Vec<MeasuredConfig>,
    pub costs: Vec<ConfigCost>,
    /// Name of the cost-optimal configuration (None if no candidates).
    pub optimal: Option<String>,
}

impl EvaluationReport {
    /// Cost row for a named configuration.
    pub fn cost_of(&self, name: &str) -> Option<&ConfigCost> {
        self.costs.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::testutil::MapEngine;
    use tb_common::{EngineOp, OpOutcome};
    use tb_workload::{Workload, WorkloadSpec};

    /// Deterministic toy engine: a map with a simulated space overhead.
    struct ToyEngine {
        map: MapEngine,
        overhead_num: u64,
        overhead_den: u64,
    }

    impl ToyEngine {
        fn with_expansion(num: u64, den: u64) -> Self {
            Self {
                map: MapEngine::default(),
                overhead_num: num,
                overhead_den: den,
            }
        }
    }

    impl KvEngine for ToyEngine {
        fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
            self.map.apply_batch(ops)
        }
        fn resident_bytes(&self) -> u64 {
            self.map.resident_bytes() * self.overhead_num / self.overhead_den
        }
        fn label(&self) -> String {
            "toy".into()
        }
    }

    fn small_traces() -> (Trace, Trace) {
        Workload::new(WorkloadSpec::ycsb_a(200, 1000)).generate()
    }

    #[test]
    fn replay_measures_space_and_latency() {
        let (load, run) = small_traces();
        let e = ToyEngine::with_expansion(2, 1); // 2x overhead
        let m = evaluate_engine(&e, &load, &run).unwrap();
        assert!(m.achieved_qps > 0.0);
        assert!(m.logical_bytes > 0);
        assert!(
            (m.expansion_factor() - 2.0).abs() < 0.01,
            "{}",
            m.expansion_factor()
        );
        assert!(m.p99_latency_ns > 0);
        assert_eq!(m.error_count, 0);
    }

    #[test]
    fn compressed_engine_gets_more_max_space() {
        let (load, run) = small_traces();
        let demand = WorkloadDemand::new(80_000.0, 10.0);
        let ev = CostEvaluator::new(InstanceSpec::standard(), demand);

        let raw = ev
            .measure("raw", &ToyEngine::with_expansion(1, 1), &load, &run)
            .unwrap();
        let compressed = ev
            .measure("pbc", &ToyEngine::with_expansion(1, 2), &load, &run)
            .unwrap();
        assert!(
            compressed.metrics.max_space_gb > raw.metrics.max_space_gb * 1.5,
            "compression must raise MaxSpace: {} vs {}",
            compressed.metrics.max_space_gb,
            raw.metrics.max_space_gb
        );
    }

    #[test]
    fn report_selects_min_total_cost() {
        let (load, run) = small_traces();
        // Space-critical demand: compression should win.
        let demand = WorkloadDemand::new(10.0, 1000.0);
        let ev = CostEvaluator::new(InstanceSpec::standard(), demand);
        let raw = ev
            .measure("raw", &ToyEngine::with_expansion(1, 1), &load, &run)
            .unwrap();
        let pbc = ev
            .measure("pbc", &ToyEngine::with_expansion(1, 4), &load, &run)
            .unwrap();
        let report = ev.report(vec![raw, pbc]);
        assert_eq!(report.optimal.as_deref(), Some("pbc"));
        assert!(report.cost_of("raw").unwrap().total() > report.cost_of("pbc").unwrap().total());
    }

    #[test]
    fn capacity_override_scales_max_space() {
        let (load, run) = small_traces();
        let demand = WorkloadDemand::new(100.0, 10.0);
        let small = CostEvaluator::new(InstanceSpec::standard(), demand);
        let big = CostEvaluator::new(InstanceSpec::standard(), demand).with_capacity_gb(400.0);
        let e1 = ToyEngine::with_expansion(1, 1);
        let e2 = ToyEngine::with_expansion(1, 1);
        let a = small.measure("a", &e1, &load, &run).unwrap();
        let b = big.measure("b", &e2, &load, &run).unwrap();
        assert!((b.metrics.max_space_gb / a.metrics.max_space_gb - 100.0).abs() < 1.0);
    }

    #[test]
    fn empty_report() {
        let ev = CostEvaluator::new(InstanceSpec::standard(), WorkloadDemand::new(1.0, 1.0));
        let r = ev.report(vec![]);
        assert!(r.optimal.is_none());
    }
}
