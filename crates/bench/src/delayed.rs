//! A modelled network hop in front of an engine: the figure benches'
//! stand-in for a same-datacenter storage service (§3's disaggregated
//! storage tier).
//!
//! Every `apply_batch` pays one round trip plus the transfer of its
//! request, and after the call the transfer of the rows its scans
//! returned, so batch APIs amortise the round trip: that is why the
//! write-back policy's batched flushes beat per-key write-through on
//! write-heavy work. The stall is modelled, not measured: it waits on
//! the clock in a yield loop so it shows up in throughput as an RPC
//! stall would, without occupying a core.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_common::{EngineOp, Key, KvEngine, OpOutcome, Result};
use tb_lsm::{LsmConfig, LsmDb};

/// Transfer cost of a delayed engine, charged only when its round trip
/// is non-zero.
const PER_KIB_US: u64 = 2;

/// `inner` behind a modelled hop of `rtt_us` per call plus
/// [`PER_KIB_US`] per KiB moved.
pub struct Delayed<E> {
    inner: E,
    rtt_us: u64,
    /// Payload bytes charged: every request, plus every scan's rows.
    bytes: AtomicU64,
}

impl<E: KvEngine> Delayed<E> {
    pub fn new(inner: E, rtt_us: u64) -> Self {
        Self {
            inner,
            rtt_us,
            bytes: AtomicU64::new(0),
        }
    }

    /// Payload bytes charged so far.
    pub fn charged_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Blocks for `round_trips` RTTs plus the transfer of `bytes`.
    fn stall(&self, round_trips: u64, bytes: usize) {
        if self.rtt_us == 0 {
            return;
        }
        let us = self.rtt_us * round_trips + PER_KIB_US * (bytes as u64).div_ceil(1024);
        // `thread::sleep` overshoots badly at sub-millisecond scale
        // under load; a yield loop is accurate to about the scheduler
        // quantum while ceding the CPU to runnable threads.
        let deadline = Instant::now() + Duration::from_micros(us);
        while Instant::now() < deadline {
            if us >= 20 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// The storage tier `TierBase::open` opens by default (an `LsmDb` at
/// `<dir>/storage`) behind a modelled hop of `rtt_us`.
pub fn delayed_storage(dir: &std::path::Path, rtt_us: u64) -> Result<Arc<dyn KvEngine>> {
    let db = LsmDb::open(LsmConfig::new(dir.join("storage")))?;
    Ok(Arc::new(Delayed::new(db, rtt_us)))
}

impl<E: KvEngine> KvEngine for Delayed<E> {
    /// One round trip per batch. The request's bytes are charged before
    /// the call and every `Scan`'s rows after it, so `scan` and a
    /// batched `Scan` of the same range cost the same.
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        let request: usize = ops
            .iter()
            .map(|op| match op {
                EngineOp::Get(k) | EngineOp::Delete(k) | EngineOp::CasDelete { key: k, .. } => {
                    k.len()
                }
                EngineOp::Put(k, v) => k.len() + v.len(),
                EngineOp::Cas { key, new, .. } => key.len() + new.len(),
                EngineOp::MultiGet(ks) => ks.iter().map(Key::len).sum(),
                EngineOp::MultiPut(pairs) => pairs.iter().map(|(k, v)| k.len() + v.len()).sum(),
                EngineOp::Scan { start, end, .. } => start.len() + end.as_ref().map_or(0, Key::len),
            })
            .sum();
        self.stall(1, request);
        let outcomes = self.inner.apply_batch(ops);
        let response: usize = outcomes
            .iter()
            .map(|outcome| match outcome {
                Ok(OpOutcome::Range(rows)) => rows.iter().map(|(k, v)| k.len() + v.len()).sum(),
                _ => 0,
            })
            .sum();
        self.stall(0, response);
        self.bytes
            .fetch_add((request + response) as u64, Ordering::Relaxed);
        outcomes
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::testutil::{Flaky, MapEngine};
    use tb_common::Value;

    fn delayed(rtt_us: u64) -> Delayed<Flaky<MapEngine>> {
        Delayed::new(Flaky::new(MapEngine::default()), rtt_us)
    }

    #[test]
    fn delayed_roundtrip() {
        let s = delayed(0);
        s.put(Key::from("a"), Value::from("1")).unwrap();
        assert_eq!(s.get(&Key::from("a")).unwrap(), Some(Value::from("1")));
        s.delete(&Key::from("a")).unwrap();
        assert_eq!(s.get(&Key::from("a")).unwrap(), None);
        assert_eq!(s.inner.calls(), 4);
    }

    #[test]
    fn batch_apis_are_one_call() {
        let s = delayed(0);
        let items: Vec<(Key, Value)> = (0..50)
            .map(|i| (Key::from(format!("k{i}")), Value::from(format!("v{i}"))))
            .collect();
        s.multi_put(items).unwrap();
        assert_eq!(s.inner.calls(), 1);

        let keys: Vec<Key> = (0..50).map(|i| Key::from(format!("k{i}"))).collect();
        let got = s.multi_get(&keys).unwrap();
        assert_eq!(s.inner.calls(), 2);
        assert!(got.iter().all(|v| v.is_some()));
    }

    #[test]
    fn scan_and_batched_scan_charge_the_same_bytes() {
        let s = delayed(0);
        let pairs = (0..20).map(|i| (Key::from(format!("k{i:02}")), Value::from("v".repeat(100))));
        s.multi_put(pairs.collect()).unwrap();
        let (start, end) = (Key::from("k05"), Key::from("k15"));

        let before = s.charged_bytes();
        let rows = s.scan(&start, Some(&end), usize::MAX).unwrap();
        let by_scan = s.charged_bytes() - before;
        let row_bytes: usize = rows.iter().map(|(k, v)| k.len() + v.len()).sum();
        assert_eq!(rows.len(), 10);
        assert_eq!(by_scan, (start.len() + end.len() + row_bytes) as u64);

        let before = s.charged_bytes();
        let batched = s.apply_batch(vec![EngineOp::Scan {
            start,
            end: Some(end),
            limit: usize::MAX,
        }]);
        assert_eq!(batched, vec![Ok(OpOutcome::Range(rows))]);
        assert_eq!(
            s.charged_bytes() - before,
            by_scan,
            "both routes charge the rows"
        );
    }

    #[test]
    fn latency_slows_calls() {
        let s = delayed(2000);
        let t0 = Instant::now();
        for i in 0..10 {
            s.put(Key::from(format!("k{i}")), Value::from("v")).unwrap();
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "network stall missing: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn batching_amortizes_latency() {
        let (s1, s2) = (delayed(1000), delayed(1000));
        let items: Vec<(Key, Value)> = (0..20)
            .map(|i| (Key::from(format!("k{i}")), Value::from("v")))
            .collect();

        let t0 = Instant::now();
        for (k, v) in items.clone() {
            s1.put(k, v).unwrap();
        }
        let individual = t0.elapsed();

        let t1 = Instant::now();
        s2.multi_put(items).unwrap();
        let batched = t1.elapsed();

        assert!(
            batched < individual / 5,
            "batching should amortize RTTs: {batched:?} vs {individual:?}"
        );
    }
}
