//! Insight: monitoring, diagnosis, and workload-based suggestions (§3).
//!
//! TierBase ships "monitoring and analysis tools for real-time metrics
//! collection, problem diagnosis, and workload-based suggestions". This
//! module is that service: it snapshots a store's live counters,
//! diagnoses the workload regime against the cost model's decision
//! table (Table 1), and emits concrete configuration advice —
//! tiering, compression (including the §4.2 retrain trigger), PMem,
//! elastic threading, and cache sizing.

use crate::config::SyncPolicy;
use crate::store::TierBase;
use std::sync::atomic::Ordering;
use tb_common::KvEngine;
use tb_compress::CompressorChoice;

/// A point-in-time view of a store's health.
#[derive(Debug, Clone, PartialEq)]
pub struct InsightSnapshot {
    pub gets: u64,
    pub puts: u64,
    pub read_write_ratio: f64,
    pub miss_ratio: f64,
    pub resident_bytes: u64,
    pub dirty_bytes: u64,
    pub write_through_failures: u64,
    pub compression_should_retrain: bool,
    /// Sampled mean key re-access interval (§6.5.3), if observed.
    pub mean_access_interval_secs: Option<f64>,
}

/// One piece of advice with its rationale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    pub action: Action,
    pub reason: String,
}

/// Actions the advisor can recommend (Table 1's option column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    EnableTieredStorage,
    EnableCompression,
    RetrainCompression,
    EnablePmem,
    EnableElasticThreading,
    IncreaseCacheCapacity,
    SwitchToWriteBack,
    InvestigateStorageFailures,
}

/// The monitoring/suggestion service for one store.
pub struct Insight<'s> {
    store: &'s TierBase,
}

impl<'s> Insight<'s> {
    pub fn new(store: &'s TierBase) -> Self {
        Self { store }
    }

    /// Captures the live counters.
    pub fn snapshot(&self) -> InsightSnapshot {
        let stats = self.store.stats();
        let gets = stats.gets.load(Ordering::Relaxed);
        let puts = stats.puts.load(Ordering::Relaxed);
        InsightSnapshot {
            gets,
            puts,
            read_write_ratio: gets as f64 / puts.max(1) as f64,
            miss_ratio: stats.miss_ratio(),
            resident_bytes: self.store.resident_bytes(),
            dirty_bytes: self.store.dirty_bytes(),
            write_through_failures: stats.write_through_failures.load(Ordering::Relaxed),
            compression_should_retrain: self.store.compression_should_retrain(),
            mean_access_interval_secs: self.store.mean_access_interval_secs(),
        }
    }

    /// Diagnoses the snapshot against the configuration and emits
    /// suggestions (the Table 1 mapping, §2.5.3).
    pub fn suggest(&self) -> Vec<Suggestion> {
        let snap = self.snapshot();
        let config = self.store.config();
        let mut out = Vec::new();

        // Compression health (§4.2 monitor).
        if snap.compression_should_retrain {
            out.push(Suggestion {
                action: Action::RetrainCompression,
                reason: "compression ratio degraded or pattern-miss rate exceeded threshold".into(),
            });
        }

        // Space-heavy, untiered, uncompressed → Table 1 "Space-critical".
        if config.policy == SyncPolicy::InMemory
            && config.compression == CompressorChoice::Raw
            && snap.read_write_ratio >= 1.0
        {
            out.push(Suggestion {
                action: Action::EnableCompression,
                reason: format!(
                    "read-heavy in-memory store ({:.0}:1) pays full DRAM price; \
                     pre-trained compression trades cheap CPU for space",
                    snap.read_write_ratio
                ),
            });
            if config.pmem.is_none() {
                out.push(Suggestion {
                    action: Action::EnablePmem,
                    reason: "values can move to PMem at a fraction of DRAM cost".into(),
                });
            }
        }

        // Untested tiering for skewed access: high hit ratio in a small
        // cache implies a tiered deployment would serve most traffic
        // from a fraction of the footprint.
        if config.policy == SyncPolicy::InMemory && snap.miss_ratio < 0.2 && snap.gets > 1000 {
            out.push(Suggestion {
                action: Action::EnableTieredStorage,
                reason: format!(
                    "miss ratio {:.2} suggests strong locality; a cache tier over \
                     disaggregated storage would cut space cost",
                    snap.miss_ratio
                ),
            });
        }

        // Tiered stores: cache sizing and policy fit.
        if config.needs_storage_tier() {
            if snap.miss_ratio > 0.5 && snap.gets > 1000 {
                out.push(Suggestion {
                    action: Action::IncreaseCacheCapacity,
                    reason: format!(
                        "miss ratio {:.2}: the cache is too small for the hot set \
                         (every miss pays PC_miss)",
                        snap.miss_ratio
                    ),
                });
            }
            let write_share = snap.puts as f64 / (snap.gets + snap.puts).max(1) as f64;
            if config.policy == SyncPolicy::WriteThrough && write_share > 0.4 {
                out.push(Suggestion {
                    action: Action::SwitchToWriteBack,
                    reason: format!(
                        "{:.0}% writes: write-back batching would cut per-write \
                         storage round-trips (§4.1.3)",
                        write_share * 100.0
                    ),
                });
            }
        }

        // Threading.
        if matches!(config.threading, tb_elastic::ThreadMode::Single)
            && snap.gets + snap.puts > 10_000
        {
            out.push(Suggestion {
                action: Action::EnableElasticThreading,
                reason: "hot single-threaded instance; elastic boost uses idle \
                         container cores for free (§4.4)"
                    .into(),
            });
        }

        // Reliability.
        if snap.write_through_failures > 0 {
            out.push(Suggestion {
                action: Action::InvestigateStorageFailures,
                reason: format!(
                    "{} storage writes failed and invalidated cache entries",
                    snap.write_through_failures
                ),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TierBaseConfig;
    use tb_common::{Key, KvEngine, Value};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tb-insight-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn has(suggestions: &[Suggestion], action: Action) -> bool {
        suggestions.iter().any(|s| s.action == action)
    }

    #[test]
    fn read_heavy_in_memory_suggests_compression_and_pmem() {
        let store = TierBase::open(
            TierBaseConfig::builder(tmpdir("rh"))
                .cache_capacity(16 << 20)
                .build(),
        )
        .unwrap();
        for i in 0..100 {
            store
                .put(Key::from(format!("k{i}")), Value::from("v"))
                .unwrap();
        }
        for _ in 0..15 {
            for i in 0..100 {
                store.get(&Key::from(format!("k{i}"))).unwrap();
            }
        }
        let insight = Insight::new(&store);
        let snap = insight.snapshot();
        assert!(snap.read_write_ratio > 5.0);
        let suggestions = insight.suggest();
        assert!(
            has(&suggestions, Action::EnableCompression),
            "{suggestions:?}"
        );
        assert!(has(&suggestions, Action::EnablePmem));
        assert!(has(&suggestions, Action::EnableTieredStorage));
    }

    #[test]
    fn write_heavy_write_through_suggests_write_back() {
        let store = TierBase::open(
            TierBaseConfig::builder(tmpdir("wh"))
                .cache_capacity(16 << 20)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        for i in 0..2000 {
            store
                .put(Key::from(format!("k{i}")), Value::from("v"))
                .unwrap();
        }
        let suggestions = Insight::new(&store).suggest();
        assert!(
            has(&suggestions, Action::SwitchToWriteBack),
            "{suggestions:?}"
        );
    }

    #[test]
    fn thrashing_tiered_cache_suggests_more_capacity() {
        let store = TierBase::open(
            TierBaseConfig::builder(tmpdir("thrash"))
                .cache_capacity(16 << 10)
                .cache_shards(2)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        for i in 0..2000 {
            store
                .put(Key::from(format!("k{i}")), Value::from(vec![b'x'; 100]))
                .unwrap();
        }
        // Uniform scan: guaranteed thrash.
        for i in 0..2000 {
            store.get(&Key::from(format!("k{i}"))).unwrap();
        }
        let insight = Insight::new(&store);
        assert!(insight.snapshot().miss_ratio > 0.5);
        assert!(has(&insight.suggest(), Action::IncreaseCacheCapacity));
    }

    #[test]
    fn storage_failures_flagged() {
        let store = TierBase::open(
            TierBaseConfig::builder(tmpdir("fail"))
                .cache_capacity(16 << 20)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        store.inject_storage_write_failures(1);
        let _ = store.put(Key::from("k"), Value::from("v"));
        assert!(has(
            &Insight::new(&store).suggest(),
            Action::InvestigateStorageFailures
        ));
    }

    #[test]
    fn quiet_healthy_store_is_mostly_silent() {
        let store = TierBase::open(
            TierBaseConfig::builder(tmpdir("quiet"))
                .cache_capacity(16 << 20)
                .policy(SyncPolicy::WriteBack)
                .build(),
        )
        .unwrap();
        store.put(Key::from("k"), Value::from("v")).unwrap();
        let suggestions = Insight::new(&store).suggest();
        assert!(
            !has(&suggestions, Action::InvestigateStorageFailures)
                && !has(&suggestions, Action::IncreaseCacheCapacity),
            "{suggestions:?}"
        );
    }
}
