//! Online access-interval statistics (§6.5.3).
//!
//! The paper's Case 1 chooses between Raw / PMem / Compression by
//! "collecting the average access interval for a key in the real
//! workload" and comparing it against the Table 3 break-even intervals.
//! This module is that collector: a spatially-sampled map of
//! key → last-access time whose mean re-access interval plugs straight
//! into `tb_costmodel::BreakEvenTable::recommend`.
//!
//! Sampling uses the same fixed-rate spatial hashing as SHARDS: a key
//! is tracked iff its hash falls below the sampling threshold, so *all*
//! accesses to a tracked key are observed and its re-access intervals
//! are exact. The tracked-key population is additionally capped to
//! bound memory on unbounded key spaces.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tb_common::hash::FxBuildHasher;
use tb_common::{fx_hash, Clock, Key};

/// Default spatial sampling rate (1/64 of keys tracked).
pub const DEFAULT_SAMPLING_RATE: f64 = 1.0 / 64.0;

/// Default cap on tracked keys.
pub const DEFAULT_MAX_TRACKED: usize = 65_536;

/// Collects mean key re-access intervals from a live access stream.
pub struct AccessIntervalTracker {
    clock: Arc<dyn Clock>,
    sampling_rate: f64,
    max_tracked: usize,
    /// Last access per tracked key, by a 64-bit hash of the key.
    last_access: Mutex<HashMap<u64, u64, FxBuildHasher>>,
    interval_sum_nanos: AtomicU64,
    interval_count: AtomicU64,
}

impl AccessIntervalTracker {
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self::with_config(clock, DEFAULT_SAMPLING_RATE, DEFAULT_MAX_TRACKED)
    }

    /// Tracker with an explicit sampling rate (`(0, 1]`) and tracked-key
    /// cap.
    pub fn with_config(clock: Arc<dyn Clock>, sampling_rate: f64, max_tracked: usize) -> Self {
        assert!(
            sampling_rate > 0.0 && sampling_rate <= 1.0,
            "sampling rate must be in (0, 1], got {sampling_rate}"
        );
        Self {
            clock,
            sampling_rate,
            max_tracked,
            last_access: Mutex::new(HashMap::default()),
            interval_sum_nanos: AtomicU64::new(0),
            interval_count: AtomicU64::new(0),
        }
    }

    #[inline]
    fn sampled(&self, key: &Key) -> bool {
        // High bits, independent of the sharding use of fx_hash.
        let u = (fx_hash(key.as_slice()) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.sampling_rate
    }

    /// Observes one access to `key`. Cheap for unsampled keys (one hash).
    pub fn record(&self, key: &Key) {
        if !self.sampled(key) {
            return;
        }
        // A tracked key is kept as a 64-bit SipHash, not a copy: fx_hash
        // collides on keys that differ in a few bytes.
        let hash = {
            let mut h = DefaultHasher::new();
            h.write(key.as_slice());
            h.finish()
        };
        let now = self.clock.now_nanos();
        let mut map = self.last_access.lock();
        match map.get_mut(&hash) {
            Some(prev) => {
                let delta = now.saturating_sub(*prev);
                *prev = now;
                drop(map);
                self.interval_sum_nanos.fetch_add(delta, Ordering::Relaxed);
                self.interval_count.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                if map.len() < self.max_tracked {
                    map.insert(hash, now);
                }
            }
        }
    }

    /// Mean re-access interval in seconds, or `None` before any key has
    /// been re-accessed. First accesses (cold misses) do not count — the
    /// paper's statistic is the interval *between* accesses.
    pub fn mean_interval_secs(&self) -> Option<f64> {
        let count = self.interval_count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let sum = self.interval_sum_nanos.load(Ordering::Relaxed);
        Some(sum as f64 / count as f64 / 1e9)
    }

    /// Number of distinct keys currently tracked.
    #[cfg(test)]
    pub(crate) fn tracked_keys(&self) -> usize {
        self.last_access.lock().len()
    }

    /// Number of re-access intervals observed.
    #[cfg(test)]
    fn interval_count(&self) -> u64 {
        self.interval_count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tb_common::ManualClock;

    fn k(i: usize) -> Key {
        Key::from(format!("key-{i:05}"))
    }

    #[test]
    fn mean_interval_matches_access_pattern() {
        let clock = ManualClock::new();
        let t = AccessIntervalTracker::with_config(clock.clone(), 1.0, 1 << 20);
        // Access the same key every 10 seconds, 5 times.
        for _ in 0..5 {
            t.record(&k(1));
            clock.advance(Duration::from_secs(10));
        }
        let mean = t.mean_interval_secs().unwrap();
        assert!((mean - 10.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(t.interval_count(), 4, "5 accesses = 4 intervals");
    }

    #[test]
    fn no_reaccess_means_no_estimate() {
        let clock = ManualClock::new();
        let t = AccessIntervalTracker::with_config(clock.clone(), 1.0, 1 << 20);
        for i in 0..100 {
            t.record(&k(i));
        }
        assert_eq!(t.mean_interval_secs(), None, "cold misses don't count");
        assert_eq!(t.tracked_keys(), 100);
    }

    #[test]
    fn mixed_hot_cold_averages() {
        let clock = ManualClock::new();
        let t = AccessIntervalTracker::with_config(clock.clone(), 1.0, 1 << 20);
        // Hot key every 1s (x10), cold key every 100s (x2).
        t.record(&k(1));
        t.record(&k(2));
        for _ in 0..10 {
            clock.advance(Duration::from_secs(1));
            t.record(&k(1));
        }
        clock.advance(Duration::from_secs(90));
        t.record(&k(2));
        // 10 intervals of 1s + 1 interval of 100s = 110s / 11.
        let mean = t.mean_interval_secs().unwrap();
        assert!((mean - 10.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn sampling_tracks_a_fraction() {
        let clock = ManualClock::new();
        let t = AccessIntervalTracker::with_config(clock.clone(), 0.1, 1 << 20);
        for i in 0..10_000 {
            t.record(&k(i));
        }
        let tracked = t.tracked_keys();
        assert!(
            (500..2000).contains(&tracked),
            "~10% of 10k keys expected, got {tracked}"
        );
    }

    #[test]
    fn sampled_estimate_stays_unbiased() {
        // Spatial sampling keeps *all* accesses of tracked keys, so the
        // per-key interval statistics are exact; the mean over a uniform
        // population matches the full-rate tracker.
        let clock = ManualClock::new();
        let full = AccessIntervalTracker::with_config(clock.clone(), 1.0, 1 << 20);
        let sampled = AccessIntervalTracker::with_config(clock.clone(), 0.25, 1 << 20);
        for round in 0..20 {
            for i in 0..500 {
                full.record(&k(i));
                sampled.record(&k(i));
            }
            clock.advance(Duration::from_secs(60));
            let _ = round;
        }
        let f = full.mean_interval_secs().unwrap();
        let s = sampled.mean_interval_secs().unwrap();
        assert!(
            (f - s).abs() / f < 0.05,
            "sampled {s} vs full {f} drifted more than 5%"
        );
    }

    #[test]
    fn tracked_population_is_capped() {
        let clock = ManualClock::new();
        let t = AccessIntervalTracker::with_config(clock.clone(), 1.0, 100);
        for i in 0..10_000 {
            t.record(&k(i));
        }
        assert_eq!(t.tracked_keys(), 100);
        // Capped keys still produce intervals.
        clock.advance(Duration::from_secs(5));
        for i in 0..100 {
            t.record(&k(i));
        }
        assert!(t.interval_count() >= 100);
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn zero_rate_rejected() {
        let clock = ManualClock::new();
        let _ = AccessIntervalTracker::with_config(clock, 0.0, 10);
    }
}
