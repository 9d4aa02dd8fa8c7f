//! Tiered-storage cost model (paper §2.4, §5.2).
//!
//! A tiered deployment pays for a cache tier sized to a *cache ratio*
//! `CR` (cached capacity / total capacity) and a storage tier absorbing
//! the *miss ratio* `MR` of requests. The two are linked by the
//! workload's miss-ratio curve `MR = f(CR)`, and Theorem 5.1 locates the
//! optimal `CR*` where the cache tier's performance cost (including miss
//! penalty) equals its space cost.

use tb_workload::Trace;

/// A workload's miss-ratio curve: `MR = f(CR)`, non-increasing,
/// `f(0) = 1`, `f(1) = 0` for cacheable workloads.
pub trait MissRatioCurve: Send + Sync {
    /// Miss ratio at cache ratio `cr ∈ [0, 1]`.
    fn miss_ratio(&self, cr: f64) -> f64;
}

/// Analytic MRC for a zipfian workload: caching the hottest `CR`
/// fraction of items captures `CR^(1-θ)` of accesses, so
/// `MR(CR) = 1 − CR^(1−θ)`. Steeper skew (θ → 1) ⇒ tiny caches absorb
/// almost everything — the regime where tiered storage wins (§2.5.2).
pub struct ZipfianMrc {
    theta: f64,
}

/// Builds the zipfian analytic curve (θ ∈ [0, 1)).
pub fn zipfian_miss_ratio_curve(theta: f64) -> ZipfianMrc {
    assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
    ZipfianMrc { theta }
}

impl MissRatioCurve for ZipfianMrc {
    fn miss_ratio(&self, cr: f64) -> f64 {
        let cr = cr.clamp(0.0, 1.0);
        if cr == 0.0 {
            return 1.0;
        }
        1.0 - cr.powf(1.0 - self.theta)
    }
}

/// Empirical MRC measured from a trace with the Mattson stack algorithm
/// (exact LRU miss ratios at every cache size in one pass).
pub struct MeasuredMrc {
    /// `points[k]` = miss ratio with a cache of `k+1` *items*;
    /// interpolated over the unique-key count to map to cache *ratio*.
    points: Vec<f64>,
}

impl MeasuredMrc {
    /// Builds a curve from raw per-item-count miss ratios (the sampled
    /// estimator in [`crate::shards`] produces these).
    pub(crate) fn from_points(points: Vec<f64>) -> Self {
        Self { points }
    }

    /// Number of cache-size points (= unique keys observed).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Computes the LRU miss-ratio curve of `trace` (§5.2's `f(CR)`).
///
/// Item-granular (uniform record sizes assumed); cold misses count. The
/// cache tier evicts by CLOCK, not exact LRU; this curve stands in for
/// it, since CLOCK's miss ratio tracks LRU's closely.
pub fn lru_miss_ratio_curve(trace: &Trace) -> MeasuredMrc {
    use std::collections::HashMap;
    // Mattson: maintain an LRU stack; a hit at stack depth d (1-based) is
    // a hit for every cache size >= d.
    let mut stack: Vec<u64> = Vec::new(); // key ids, most recent last
    let mut ids: HashMap<&tb_common::Key, u64> = HashMap::new();
    let mut next_id = 0u64;
    let mut hits_at_depth: Vec<u64> = Vec::new();
    let mut total = 0u64;

    for op in trace.ops() {
        total += 1;
        let id = *ids.entry(op.key()).or_insert_with(|| {
            next_id += 1;
            next_id
        });
        if let Some(pos) = stack.iter().rposition(|&x| x == id) {
            let depth = stack.len() - pos; // 1-based from the top
            if hits_at_depth.len() < depth {
                hits_at_depth.resize(depth, 0);
            }
            hits_at_depth[depth - 1] += 1;
            stack.remove(pos);
        }
        stack.push(id);
    }

    let unique = stack.len().max(1);
    let mut points = Vec::with_capacity(unique);
    let mut cum_hits = 0u64;
    for k in 0..unique {
        cum_hits += hits_at_depth.get(k).copied().unwrap_or(0);
        let miss = 1.0 - cum_hits as f64 / total.max(1) as f64;
        points.push(miss);
    }
    MeasuredMrc { points }
}

impl MissRatioCurve for MeasuredMrc {
    fn miss_ratio(&self, cr: f64) -> f64 {
        if self.points.is_empty() {
            return 1.0;
        }
        let cr = cr.clamp(0.0, 1.0);
        if cr == 0.0 {
            return 1.0;
        }
        let n = self.points.len();
        let items = cr * n as f64;
        let k = (items.ceil() as usize).clamp(1, n);
        self.points[k - 1]
    }
}

/// Workload-level cost parameters for the tiered model (Eq. 3). All
/// costs are for the *whole workload*: e.g. `pc_cache` is what serving
/// every request from cache costs, `sc_cache` what caching every byte
/// costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieredCostParams {
    /// `PC_cache` — performance cost of the request stream on the cache tier.
    pub pc_cache: f64,
    /// `PC_miss` — additional performance cost if *every* request missed
    /// (multiplied by MR in the model).
    pub pc_miss: f64,
    /// `SC_cache` — space cost of holding *all* data in the cache tier
    /// (multiplied by CR).
    pub sc_cache: f64,
    /// `PC_storage` — performance cost of the full stream on the storage
    /// tier (multiplied by MR).
    pub pc_storage: f64,
    /// `SC_storage` — space cost of all data on the storage tier.
    pub sc_storage: f64,
}

/// Cache-tier cost at a given cache ratio (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheTierCost {
    pub cache_ratio: f64,
    pub miss_ratio: f64,
    pub performance_cost: f64,
    pub space_cost: f64,
}

impl CacheTierCost {
    pub fn total(&self) -> f64 {
        self.performance_cost.max(self.space_cost)
    }
}

/// The tiered cost model: parameters + a miss-ratio curve.
pub struct TieredCostModel<M: MissRatioCurve> {
    pub params: TieredCostParams,
    pub mrc: M,
}

impl<M: MissRatioCurve> TieredCostModel<M> {
    pub fn new(params: TieredCostParams, mrc: M) -> Self {
        Self { params, mrc }
    }

    /// Cache-tier cost at `cr` (Eq. 6):
    /// `max(PC_cache + PC_miss × MR, SC_cache × CR)`.
    pub fn cache_tier_cost(&self, cr: f64) -> CacheTierCost {
        let mr = self.mrc.miss_ratio(cr);
        let p = &self.params;
        CacheTierCost {
            cache_ratio: cr,
            miss_ratio: mr,
            performance_cost: p.pc_cache + p.pc_miss * mr,
            space_cost: p.sc_cache * cr,
        }
    }

    /// Storage-tier cost at `cr`: `max(PC_storage × MR, SC_storage)`.
    pub fn storage_tier_cost(&self, cr: f64) -> f64 {
        let mr = self.mrc.miss_ratio(cr);
        (self.params.pc_storage * mr).max(self.params.sc_storage)
    }

    /// Full tiered cost (Eq. 3): cache tier + storage tier.
    pub fn total_cost(&self, cr: f64) -> f64 {
        self.cache_tier_cost(cr).total() + self.storage_tier_cost(cr)
    }

    /// Theorem 5.1: the optimal cache ratio `CR*` solves
    /// `PC_cache + PC_miss × f(CR) = SC_cache × CR` — the intersection
    /// of the non-increasing g and the increasing h. Solved by bisection;
    /// returns the boundary optimum when the curves do not cross.
    pub fn optimal_cache_ratio(&self) -> CacheTierCost {
        let g = |cr: f64| self.params.pc_cache + self.params.pc_miss * self.mrc.miss_ratio(cr);
        let h = |cr: f64| self.params.sc_cache * cr;

        // g(0) >= h(0) = 0 always. If g(1) > h(1), g never crosses below
        // h: cache everything (performance dominates regardless).
        if g(1.0) >= h(1.0) {
            return self.cache_tier_cost(1.0);
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if g(mid) >= h(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.cache_tier_cost(0.5 * (lo + hi))
    }

    /// §2.4: tiered storage is cost-effective when
    /// `C_tiered < min(C_cache_only, C_storage_only)`.
    /// Cache-only cost: `max(PC_cache, SC_cache)`; storage-only:
    /// `max(PC_storage, SC_storage)`.
    pub fn tiered_wins(&self) -> bool {
        let tiered = self.total_cost(self.optimal_cache_ratio().cache_ratio);
        let cache_only = self.params.pc_cache.max(self.params.sc_cache);
        let storage_only = self.params.pc_storage.max(self.params.sc_storage);
        tiered < cache_only.min(storage_only)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::Key;
    use tb_workload::Op;

    fn skewed_params() -> TieredCostParams {
        // Cache is fast but expensive; storage cheap but slow; misses
        // carry a moderate penalty.
        TieredCostParams {
            pc_cache: 1.0,
            pc_miss: 4.0,
            sc_cache: 20.0,
            pc_storage: 30.0,
            sc_storage: 2.0,
        }
    }

    #[test]
    fn zipfian_mrc_shape() {
        let mrc = zipfian_miss_ratio_curve(0.99);
        assert_eq!(mrc.miss_ratio(0.0), 1.0);
        assert!(mrc.miss_ratio(1.0).abs() < 1e-12);
        // Skewed: 1% of items absorb most accesses.
        assert!(mrc.miss_ratio(0.01) < 0.1);
        // Monotone non-increasing.
        let mut prev = 1.0;
        for i in 0..=100 {
            let mr = mrc.miss_ratio(i as f64 / 100.0);
            assert!(mr <= prev + 1e-12);
            prev = mr;
        }
    }

    #[test]
    fn uniform_zipf_theta0_is_linear() {
        let mrc = zipfian_miss_ratio_curve(0.0);
        assert!((mrc.miss_ratio(0.3) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn measured_mrc_from_cyclic_trace() {
        // Round-robin over 4 keys: LRU of size < 4 always misses,
        // size >= 4 hits after the first cycle.
        let keys = ["a", "b", "c", "d"];
        let ops: Vec<Op> = (0..400)
            .map(|i| Op::Read {
                key: Key::from(keys[i % 4]),
            })
            .collect();
        let mrc = lru_miss_ratio_curve(&Trace::new(ops));
        assert!(mrc.miss_ratio(0.75) > 0.95, "LRU<4 must thrash");
        assert!(mrc.miss_ratio(1.0) < 0.05, "LRU=4 must hit");
    }

    #[test]
    fn measured_mrc_skewed_trace() {
        // 90% of accesses to one key: tiny cache already absorbs most.
        let mut ops = vec![];
        for i in 0..1000 {
            let key = if i % 10 == 0 {
                Key::from(format!("cold{}", i))
            } else {
                Key::from("hot")
            };
            ops.push(Op::Read { key });
        }
        let mrc = lru_miss_ratio_curve(&Trace::new(ops));
        assert!(mrc.miss_ratio(0.02) < 0.2, "mr {}", mrc.miss_ratio(0.02));
    }

    #[test]
    fn eq3_components_add_up() {
        let m = TieredCostModel::new(skewed_params(), zipfian_miss_ratio_curve(0.99));
        let cr = 0.1;
        let cache = m.cache_tier_cost(cr);
        let total = m.total_cost(cr);
        assert!((total - (cache.total() + m.storage_tier_cost(cr))).abs() < 1e-12);
    }

    #[test]
    fn theorem51_balance_point() {
        let m = TieredCostModel::new(skewed_params(), zipfian_miss_ratio_curve(0.99));
        let opt = m.optimal_cache_ratio();
        // Interior optimum: g(CR*) == h(CR*).
        assert!(
            (opt.performance_cost - opt.space_cost).abs() / opt.total() < 1e-6,
            "PC {} != SC {}",
            opt.performance_cost,
            opt.space_cost
        );
        // And it is no worse than a scan of the ratio space.
        for i in 1..=100 {
            let cr = i as f64 / 100.0;
            assert!(
                m.cache_tier_cost(cr).total() >= opt.total() - 1e-9,
                "cr={cr} beats the 'optimal'"
            );
        }
    }

    #[test]
    fn boundary_case_cache_everything() {
        // Space nearly free ⇒ no crossing ⇒ CR* = 1.
        let params = TieredCostParams {
            pc_cache: 5.0,
            pc_miss: 10.0,
            sc_cache: 0.5,
            pc_storage: 1.0,
            sc_storage: 0.1,
        };
        let m = TieredCostModel::new(params, zipfian_miss_ratio_curve(0.9));
        assert_eq!(m.optimal_cache_ratio().cache_ratio, 1.0);
    }

    #[test]
    fn tiered_wins_on_skewed_workloads() {
        // §2.5.2's three conditions hold: skew, cost disparity, low miss
        // penalty ⇒ tiering beats both single-tier options.
        let m = TieredCostModel::new(skewed_params(), zipfian_miss_ratio_curve(0.99));
        assert!(m.tiered_wins());
    }

    #[test]
    fn tiered_loses_on_uniform_workloads() {
        // No skew: every miss is expensive and the cache can't be small.
        let params = TieredCostParams {
            pc_cache: 1.0,
            pc_miss: 30.0,
            sc_cache: 3.0,
            pc_storage: 50.0,
            sc_storage: 2.5,
        };
        let m = TieredCostModel::new(params, zipfian_miss_ratio_curve(0.0));
        assert!(!m.tiered_wins());
    }

    #[test]
    fn empty_trace_mrc_defaults_to_miss() {
        let mrc = lru_miss_ratio_curve(&Trace::default());
        assert_eq!(mrc.miss_ratio(0.5), 1.0);
    }
}
