//! Disaggregated-storage façade (the UCS role in §3).
//!
//! TierBase's cache tier reaches the storage tier over the network, so
//! every call pays a round-trip in addition to the engine's own work —
//! and batch APIs amortize that round-trip, which is precisely why the
//! write-back policy's batched flushes beat per-key write-through on
//! write-heavy workloads. [`NetworkModel`] injects the round-trip;
//! latency is simulated with a busy-wait so it shows up in measured
//! throughput the same way a real RPC stall would.

use crate::db::LsmDb;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_common::{BatchReadStats, EngineOp, Key, KvEngine, OpOutcome, Result};

/// Round-trip cost model for cache-tier → storage-tier calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Fixed round-trip latency per call.
    pub rtt_us: u64,
    /// Additional cost per KiB transferred.
    pub per_kib_us: u64,
}

impl NetworkModel {
    /// Typical same-datacenter RPC: ~200 µs RTT, ~2 µs/KiB.
    pub fn datacenter() -> Self {
        Self {
            rtt_us: 200,
            per_kib_us: 2,
        }
    }

    /// No simulated network (unit tests).
    pub fn none() -> Self {
        Self {
            rtt_us: 0,
            per_kib_us: 0,
        }
    }

    /// Blocks for `round_trips` RTTs plus the transfer of `payload_bytes`.
    fn stall(&self, round_trips: u64, payload_bytes: usize) {
        let us =
            self.rtt_us * round_trips + self.per_kib_us * (payload_bytes as u64).div_ceil(1024);
        if us == 0 {
            return;
        }
        // A network round-trip blocks the caller but must not occupy a
        // core. thread::sleep overshoots badly at sub-millisecond scale
        // under load, so wait in a yield loop: accurate to ~the scheduler
        // quantum while ceding the CPU to runnable threads.
        let deadline = Instant::now() + Duration::from_micros(us);
        if us >= 20 {
            while Instant::now() < deadline {
                std::thread::yield_now();
            }
            return;
        }
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }
}

/// Remote-call counters (observability + cost attribution).
#[derive(Debug, Default)]
pub struct RemoteStats {
    pub calls: AtomicU64,
    pub batched_ops: AtomicU64,
    /// Payload bytes the network model charged: every request, plus the
    /// rows every scan returned.
    pub bytes: AtomicU64,
}

/// An [`LsmDb`] behind a simulated network: the storage tier.
pub struct DisaggregatedStore {
    db: Arc<LsmDb>,
    network: NetworkModel,
    pub stats: Arc<RemoteStats>,
    _obs: tb_obs::SourceGuard,
}

impl DisaggregatedStore {
    pub fn new(db: Arc<LsmDb>, network: NetworkModel) -> Self {
        let stats = Arc::new(RemoteStats::default());
        let obs = {
            let stats = stats.clone();
            tb_obs::global().register_source(move |b| {
                b.counter("remote_calls", stats.calls.load(Ordering::Relaxed));
                b.counter(
                    "remote_batched_ops",
                    stats.batched_ops.load(Ordering::Relaxed),
                );
            })
        };
        Self {
            db,
            network,
            stats,
            _obs: obs,
        }
    }

    /// The wrapped engine (test access).
    pub fn db(&self) -> &Arc<LsmDb> {
        &self.db
    }
}

impl KvEngine for DisaggregatedStore {
    /// Submits a heterogeneous op batch over one round-trip; the
    /// engine's native submission/completion pass runs server-side.
    /// The request's bytes are charged before the call and every
    /// `Scan`'s rows after it, so `scan` and a batched `Scan` of the
    /// same range cost the same. `multi_get` (§4.1.2's deferred
    /// cache-fetching) and `multi_put` (the write-back flush) are
    /// one-op batches through here.
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        let (request, keys) = ops.iter().fold((0, 0), |(bytes, keys), op| {
            let (b, k) = match op {
                EngineOp::Get(k) | EngineOp::Delete(k) | EngineOp::CasDelete { key: k, .. } => {
                    (k.len(), 1)
                }
                EngineOp::Put(k, v) => (k.len() + v.len(), 1),
                EngineOp::Cas { key, new, .. } => (key.len() + new.len(), 1),
                EngineOp::MultiGet(ks) => (ks.iter().map(Key::len).sum(), ks.len()),
                EngineOp::MultiPut(pairs) => {
                    let bytes = pairs.iter().map(|(k, v)| k.len() + v.len()).sum();
                    (bytes, pairs.len())
                }
                EngineOp::Scan { start, end, .. } => {
                    (start.len() + end.as_ref().map_or(0, Key::len), 1)
                }
            };
            (bytes + b, keys + k)
        });
        self.stats
            .batched_ops
            .fetch_add(keys as u64, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.network.stall(1, request);
        let outcomes = self.db.apply_batch(ops);
        let response: usize = outcomes
            .iter()
            .map(|outcome| match outcome {
                Ok(OpOutcome::Range(rows)) => rows.iter().map(|(k, v)| k.len() + v.len()).sum(),
                _ => 0,
            })
            .sum();
        self.network.stall(0, response);
        self.stats
            .bytes
            .fetch_add((request + response) as u64, Ordering::Relaxed);
        outcomes
    }

    fn batch_read_stats(&self) -> BatchReadStats {
        self.db.batch_read_stats()
    }

    fn resident_bytes(&self) -> u64 {
        self.db.disk_bytes()
    }

    fn label(&self) -> String {
        "disaggregated-lsm".into()
    }

    fn sync(&self) -> Result<()> {
        KvEngine::sync(self.db.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::LsmConfig;
    use tb_common::Value;

    fn store(name: &str, network: NetworkModel) -> (tb_common::TestDir, DisaggregatedStore) {
        let dir = tb_common::test_dir(&format!("tb-remote-{name}"));
        let db = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap());
        (dir, DisaggregatedStore::new(db, network))
    }

    #[test]
    fn remote_roundtrip() {
        let (_dir, s) = store("rt", NetworkModel::none());
        s.put(Key::from("a"), Value::from("1")).unwrap();
        assert_eq!(s.get(&Key::from("a")).unwrap(), Some(Value::from("1")));
        s.delete(&Key::from("a")).unwrap();
        assert_eq!(s.get(&Key::from("a")).unwrap(), None);
        assert_eq!(s.stats.calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn batch_apis_count_one_call() {
        let (_dir, s) = store("batch", NetworkModel::none());
        let items: Vec<(Key, Value)> = (0..50)
            .map(|i| (Key::from(format!("k{i}")), Value::from(format!("v{i}"))))
            .collect();
        s.multi_put(items).unwrap();
        assert_eq!(s.stats.calls.load(Ordering::Relaxed), 1);
        assert_eq!(s.stats.batched_ops.load(Ordering::Relaxed), 50);

        let keys: Vec<Key> = (0..50).map(|i| Key::from(format!("k{i}"))).collect();
        let got = s.multi_get(&keys).unwrap();
        assert_eq!(s.stats.calls.load(Ordering::Relaxed), 2);
        assert!(got.iter().all(|v| v.is_some()));
    }

    #[test]
    fn scan_and_batched_scan_charge_the_same_bytes() {
        let (_dir, s) = store("scanbytes", NetworkModel::none());
        let pairs = (0..20).map(|i| (Key::from(format!("k{i:02}")), Value::from("v".repeat(100))));
        s.multi_put(pairs.collect()).unwrap();
        let charged = || s.stats.bytes.load(Ordering::Relaxed);
        let (start, end) = (Key::from("k05"), Key::from("k15"));

        let before = charged();
        let rows = s.scan(&start, Some(&end), usize::MAX).unwrap();
        let by_scan = charged() - before;
        let row_bytes: usize = rows.iter().map(|(k, v)| k.len() + v.len()).sum();
        assert_eq!(rows.len(), 10);
        assert_eq!(by_scan, (start.len() + end.len() + row_bytes) as u64);

        let before = charged();
        let batched = s.apply_batch(vec![EngineOp::Scan {
            start,
            end: Some(end),
            limit: usize::MAX,
        }]);
        assert_eq!(batched, vec![Ok(OpOutcome::Range(rows))]);
        assert_eq!(charged() - before, by_scan, "both routes charge the rows");
    }

    #[test]
    fn network_latency_slows_calls() {
        let (_dir, s) = store(
            "slow",
            NetworkModel {
                rtt_us: 2000,
                per_kib_us: 0,
            },
        );
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
        let net = NetworkModel {
            rtt_us: 1000,
            per_kib_us: 0,
        };
        let (_dir, s1) = store("amort1", net);
        let (_dir, s2) = store("amort2", net);
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
