//! The Space-Performance Cost Model (paper §2 and §5).
//!
//! The model prices a workload on a fleet of identical resource
//! instances: the *performance cost* `PC` pays for enough instances to
//! serve the workload's QPS, the *space cost* `SC` pays for enough
//! instances to hold its data, and the bill is `C = max(PC, SC)` because
//! a shared-nothing deployment must provision for the larger demand.
//!
//! Modules:
//! * [`model`] — Definitions 1–2: `PC`, `SC`, `CPQPS`, `CPGB`, instance
//!   and workload descriptions, tolerance ratios.
//! * [`optimal`] — Theorem 2.1 (Optimal Cost): configuration selection
//!   and the `PC = SC` balance point.
//! * [`tiered`] — §2.4/§5.2: the tiered-storage cost model (Eq. 3/6),
//!   miss-ratio curves, and Theorem 5.1's optimal cache ratio.
//! * [`five_minute`] — §5.1: the adapted Five-Minute Rule and break-even
//!   intervals (Eq. 5, Table 3).
//! * [`framework`] — §5.3: the sample → load → replay → calculate →
//!   iterate evaluation loop over live engines.

#![deny(unsafe_code)]

pub mod advisor;
pub mod five_minute;
pub mod framework;
pub mod model;
pub mod optimal;
pub mod shards;
pub mod tiered;

pub use advisor::{
    advise, classify, option_shortlist, options_for, Advice, AdvisorThresholds, OptimizationOption,
    WorkloadFeature, WorkloadProfile,
};
pub use five_minute::{break_even_interval, classic_five_minute_rule, BreakEvenTable};
pub use framework::{
    evaluate_engine, CostEvaluator, EvaluationReport, MeasuredConfig, ReplayMeasurement,
};
pub use model::{CostMetrics, InstanceSpec, WorkloadDemand};
pub use optimal::{most_balanced_config, optimal_config, sweep_frontier, ConfigCost};
pub use shards::{shards_miss_ratio_curve, ShardsConfig};
pub use tiered::{
    lru_miss_ratio_curve, zipfian_miss_ratio_curve, CacheTierCost, MissRatioCurve, TieredCostModel,
    TieredCostParams,
};
