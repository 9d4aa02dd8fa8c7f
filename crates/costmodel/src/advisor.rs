//! The Table 1 advisor: workload features → optimization options.
//!
//! Section 2.5.3 introduces "a general framework for mapping workload
//! characteristics to optimization strategies" and Table 1 spells the
//! mapping out. This module is that table as code: classify a workload
//! profile into the paper's feature rows, then emit the option column
//! for every matched row. It needs only a workload description, no
//! running store.

use crate::model::CostMetrics;

/// An offline description of a workload, the advisor's input.
/// Estimates are fine; the thresholds below are deliberately coarse,
/// matching how the paper's Table 1 is phrased.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Aggregate queries per second.
    pub qps: f64,
    /// Total data volume in GB.
    pub data_size_gb: f64,
    /// Fraction of operations that are reads (`[0, 1]`).
    pub read_fraction: f64,
    /// Access-skew estimate as a zipfian θ (`0` uniform, `→1` extreme).
    pub zipf_theta: f64,
    /// p99 latency budget in milliseconds.
    pub p99_budget_ms: f64,
}

impl WorkloadProfile {
    pub fn new(qps: f64, data_size_gb: f64) -> Self {
        Self {
            qps,
            data_size_gb,
            read_fraction: 0.5,
            zipf_theta: 0.0,
            p99_budget_ms: f64::INFINITY,
        }
    }

    pub fn read_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.read_fraction = f;
        self
    }

    pub fn zipf_theta(mut self, theta: f64) -> Self {
        assert!((0.0..1.0).contains(&theta));
        self.zipf_theta = theta;
        self
    }

    pub fn p99_budget_ms(mut self, ms: f64) -> Self {
        self.p99_budget_ms = ms;
        self
    }
}

/// Table 1's left column: workload features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadFeature {
    /// A small subset of data accessed frequently.
    SkewedAccess,
    /// Low latency requirements.
    LowLatency,
    /// Large volume, low throughput.
    SpaceCritical,
    /// High throughput, small volume.
    PerformanceCritical,
    /// Read-heavy, write-less.
    ReadHeavy,
    /// Write-heavy.
    WriteHeavy,
}

/// Table 1's right column: optimization options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptimizationOption {
    TieredStorage,
    ElasticThreading,
    InMemoryMode,
    PmemUsage,
    LargerStorageInstance,
    PretrainedCompression,
    PmemForPersistence,
    WriteBackCaching,
    PmemWal,
}

/// One matched Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    pub feature: WorkloadFeature,
    pub options: Vec<OptimizationOption>,
    pub reason: String,
}

/// Classification thresholds. The defaults encode the paper's informal
/// language ("a small subset accessed frequently", "low latency", ...);
/// override them when calibrating against a specific fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorThresholds {
    /// θ at or above which access counts as skewed.
    pub skew_theta: f64,
    /// p99 budgets at or below this are "low latency" (ms).
    pub low_latency_ms: f64,
    /// PC/SC above this ⇒ performance-critical; below its inverse ⇒
    /// space-critical (computed on the reference configuration).
    pub criticality_ratio: f64,
    /// Read fraction at or above this is read-heavy.
    pub read_heavy_fraction: f64,
    /// Write fraction at or above this is write-heavy.
    pub write_heavy_fraction: f64,
}

impl Default for AdvisorThresholds {
    fn default() -> Self {
        Self {
            skew_theta: 0.6,
            low_latency_ms: 2.0,
            criticality_ratio: 2.0,
            read_heavy_fraction: 0.8,
            write_heavy_fraction: 0.4,
        }
    }
}

/// Classifies a profile into Table 1 features. `reference` supplies the
/// CPQPS/CPGB of the fleet's standard configuration, from which the
/// space-critical / performance-critical split is computed exactly as
/// the cost model defines it (PC vs SC, §2.1).
pub fn classify(
    profile: &WorkloadProfile,
    reference: &CostMetrics,
    t: &AdvisorThresholds,
) -> Vec<WorkloadFeature> {
    let mut out = Vec::new();
    if profile.zipf_theta >= t.skew_theta {
        out.push(WorkloadFeature::SkewedAccess);
    }
    if profile.p99_budget_ms <= t.low_latency_ms {
        out.push(WorkloadFeature::LowLatency);
    }
    let demand = crate::model::WorkloadDemand::new(profile.qps, profile.data_size_gb);
    let pc = reference.performance_cost(&demand);
    let sc = reference.space_cost(&demand);
    if sc > pc * t.criticality_ratio {
        out.push(WorkloadFeature::SpaceCritical);
    } else if pc > sc * t.criticality_ratio {
        out.push(WorkloadFeature::PerformanceCritical);
    }
    if profile.read_fraction >= t.read_heavy_fraction {
        out.push(WorkloadFeature::ReadHeavy);
    }
    if 1.0 - profile.read_fraction >= t.write_heavy_fraction {
        out.push(WorkloadFeature::WriteHeavy);
    }
    out
}

/// Table 1, row by row.
pub fn options_for(feature: WorkloadFeature) -> (Vec<OptimizationOption>, &'static str) {
    use OptimizationOption::*;
    match feature {
        WorkloadFeature::SkewedAccess => (
            vec![TieredStorage, ElasticThreading],
            "a small hot set serves most requests: cache it in a small tier \
             and let hot shards borrow idle cores",
        ),
        WorkloadFeature::LowLatency => (
            vec![InMemoryMode, PmemUsage],
            "sub-millisecond budgets rule out storage-tier reads on the hot path",
        ),
        WorkloadFeature::SpaceCritical => (
            vec![LargerStorageInstance, TieredStorage, PretrainedCompression],
            "space cost dominates: shrink bytes (compression), move them to \
             cheaper media (tiering), or buy denser instances",
        ),
        WorkloadFeature::PerformanceCritical => (
            vec![InMemoryMode, PmemForPersistence],
            "throughput dominates: keep everything memory-resident; PMem \
             gives persistence without the IOPS ceiling",
        ),
        WorkloadFeature::ReadHeavy => (
            vec![ElasticThreading, PretrainedCompression],
            "reads decompress nearly for free (§4.2) and scale across \
             elastic threads without write contention",
        ),
        WorkloadFeature::WriteHeavy => (
            vec![WriteBackCaching, PmemWal],
            "write-back batches storage round-trips; a PMem WAL absorbs the \
             per-write persistence cost (§4.1.3, §4.3)",
        ),
    }
}

/// Runs the full Table 1 mapping: classify, then emit one [`Advice`]
/// per matched feature.
pub fn advise(
    profile: &WorkloadProfile,
    reference: &CostMetrics,
    thresholds: &AdvisorThresholds,
) -> Vec<Advice> {
    classify(profile, reference, thresholds)
        .into_iter()
        .map(|feature| {
            let (options, reason) = options_for(feature);
            Advice {
                feature,
                options,
                reason: reason.to_string(),
            }
        })
        .collect()
}

/// Deduplicated union of all recommended options, ordered by how many
/// feature rows recommend each (most-supported first) — a shortlist for
/// the §5.3 evaluation loop to measure.
pub fn option_shortlist(advice: &[Advice]) -> Vec<(OptimizationOption, usize)> {
    use std::collections::BTreeMap;
    let mut votes: BTreeMap<OptimizationOption, usize> = BTreeMap::new();
    for a in advice {
        for &opt in &a.options {
            *votes.entry(opt).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(OptimizationOption, usize)> = votes.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostMetrics;

    /// Reference configuration: the paper's standard container sustains
    /// ~80k QPS and holds ~3 GB of data.
    fn reference() -> CostMetrics {
        CostMetrics::new(80_000.0, 3.0, 1.0)
    }

    fn t() -> AdvisorThresholds {
        AdvisorThresholds::default()
    }

    #[test]
    fn case1_user_info_profile() {
        // §6.5 Case 1: 16M reads / 500k writes per second, highly
        // skewed, large footprint, low-latency online serving.
        let profile = WorkloadProfile::new(16_500_000.0, 50_000.0)
            .read_fraction(0.97)
            .zipf_theta(0.9)
            .p99_budget_ms(1.0);
        let features = classify(&profile, &reference(), &t());
        assert!(features.contains(&WorkloadFeature::SkewedAccess));
        assert!(features.contains(&WorkloadFeature::LowLatency));
        assert!(features.contains(&WorkloadFeature::SpaceCritical));
        assert!(features.contains(&WorkloadFeature::ReadHeavy));
        assert!(!features.contains(&WorkloadFeature::WriteHeavy));

        let advice = advise(&profile, &reference(), &t());
        let shortlist = option_shortlist(&advice);
        // Pre-trained compression is the paper's chosen optimization for
        // this case — it must sit in the top vote tier (recommended by
        // both the space-critical and read-heavy rows).
        let top_votes = shortlist[0].1;
        assert_eq!(top_votes, 2);
        assert!(shortlist
            .iter()
            .take_while(|(_, v)| *v == top_votes)
            .any(|(o, _)| *o == OptimizationOption::PretrainedCompression));
    }

    #[test]
    fn case2_reconciliation_profile() {
        // §6.5 Case 2: ~1:1 read/write, strong temporal skew, relaxed
        // latency, cost-sensitive.
        let profile = WorkloadProfile::new(10_000_000.0, 30_000.0)
            .read_fraction(0.5)
            .zipf_theta(0.8)
            .p99_budget_ms(20.0);
        let features = classify(&profile, &reference(), &t());
        assert!(features.contains(&WorkloadFeature::SkewedAccess));
        assert!(features.contains(&WorkloadFeature::WriteHeavy));
        assert!(features.contains(&WorkloadFeature::SpaceCritical));

        let advice = advise(&profile, &reference(), &t());
        let opts: Vec<OptimizationOption> = option_shortlist(&advice)
            .into_iter()
            .map(|(o, _)| o)
            .collect();
        // Tiering + write-back is what the paper deploys for Case 2.
        assert!(opts.contains(&OptimizationOption::TieredStorage));
        assert!(opts.contains(&OptimizationOption::WriteBackCaching));
    }

    #[test]
    fn performance_critical_small_hot_store() {
        let profile = WorkloadProfile::new(1_000_000.0, 2.0).read_fraction(0.6);
        let features = classify(&profile, &reference(), &t());
        assert!(features.contains(&WorkloadFeature::PerformanceCritical));
        assert!(!features.contains(&WorkloadFeature::SpaceCritical));
        let advice = advise(&profile, &reference(), &t());
        let row = advice
            .iter()
            .find(|a| a.feature == WorkloadFeature::PerformanceCritical)
            .unwrap();
        assert!(row.options.contains(&OptimizationOption::InMemoryMode));
        assert!(row
            .options
            .contains(&OptimizationOption::PmemForPersistence));
    }

    #[test]
    fn balanced_workload_matches_no_criticality_row() {
        // PC ≈ SC on the reference configuration: neither row fires.
        let profile = WorkloadProfile::new(80_000.0, 3.0).read_fraction(0.5);
        let features = classify(&profile, &reference(), &t());
        assert!(!features.contains(&WorkloadFeature::SpaceCritical));
        assert!(!features.contains(&WorkloadFeature::PerformanceCritical));
    }

    #[test]
    fn uniform_relaxed_workload_gets_no_skew_or_latency_rows() {
        let profile = WorkloadProfile::new(10_000.0, 1.0)
            .zipf_theta(0.1)
            .p99_budget_ms(100.0);
        let features = classify(&profile, &reference(), &t());
        assert!(!features.contains(&WorkloadFeature::SkewedAccess));
        assert!(!features.contains(&WorkloadFeature::LowLatency));
    }

    #[test]
    fn every_feature_row_has_options() {
        for f in [
            WorkloadFeature::SkewedAccess,
            WorkloadFeature::LowLatency,
            WorkloadFeature::SpaceCritical,
            WorkloadFeature::PerformanceCritical,
            WorkloadFeature::ReadHeavy,
            WorkloadFeature::WriteHeavy,
        ] {
            let (options, reason) = options_for(f);
            assert!(!options.is_empty());
            assert!(!reason.is_empty());
        }
    }

    #[test]
    fn shortlist_orders_by_votes() {
        let advice = vec![
            Advice {
                feature: WorkloadFeature::SpaceCritical,
                options: vec![
                    OptimizationOption::PretrainedCompression,
                    OptimizationOption::TieredStorage,
                ],
                reason: String::new(),
            },
            Advice {
                feature: WorkloadFeature::ReadHeavy,
                options: vec![OptimizationOption::PretrainedCompression],
                reason: String::new(),
            },
        ];
        let shortlist = option_shortlist(&advice);
        assert_eq!(shortlist[0], (OptimizationOption::PretrainedCompression, 2));
        assert_eq!(shortlist[1], (OptimizationOption::TieredStorage, 1));
    }
}
