//! The tiered store's counters, their `tb-obs` source, and its
//! resident-byte accounting.

use crate::store::Inner;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Operational counters.
#[derive(Debug, Default)]
pub struct TierBaseStats {
    pub puts: AtomicU64,
    pub gets: AtomicU64,
    pub deletes: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub storage_fetches: AtomicU64,
    pub dirty_flushes: AtomicU64,
    pub flushed_entries: AtomicU64,
    pub write_through_failures: AtomicU64,
    /// Keys lazily or actively reclaimed because their TTL passed.
    pub expired: AtomicU64,
}

impl TierBaseStats {
    /// Observed cache miss ratio (the `MR` of Eq. 3).
    pub fn miss_ratio(&self) -> f64 {
        let h = self.cache_hits.load(Ordering::Relaxed);
        let m = self.cache_misses.load(Ordering::Relaxed);
        if h + m == 0 {
            0.0
        } else {
            m as f64 / (h + m) as f64
        }
    }

    /// Exports the counters as `core_*` through `tb-obs` for as long as
    /// the returned guard lives.
    pub(crate) fn register(stats: &Arc<TierBaseStats>) -> tb_obs::SourceGuard {
        let stats = stats.clone();
        tb_obs::global().register_source(move |b| {
            let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
            b.counter("core_puts", c(&stats.puts));
            b.counter("core_gets", c(&stats.gets));
            b.counter("core_deletes", c(&stats.deletes));
            b.counter("core_cache_hits", c(&stats.cache_hits));
            b.counter("core_cache_misses", c(&stats.cache_misses));
            b.counter("core_storage_fetches", c(&stats.storage_fetches));
            b.counter("core_dirty_flushes", c(&stats.dirty_flushes));
            b.counter("core_flushed_entries", c(&stats.flushed_entries));
            b.counter(
                "core_write_through_failures",
                c(&stats.write_through_failures),
            );
            b.counter("core_expired", c(&stats.expired));
        })
    }
}

impl Inner {
    pub(crate) fn resident_bytes(&self) -> u64 {
        // The cache tier is the expensive resource. PMem bytes count at
        // their discounted factor; the compression models are DRAM.
        let (dram, pmem) = self.cache.bytes_by_medium();
        let factor = self.config.pmem.map(|t| t.cost_factor).unwrap_or(1.0);
        dram + self.model_bytes() + (pmem as f64 * factor) as u64
    }
}
