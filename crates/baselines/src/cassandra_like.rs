//! Cassandra- and HBase-like baselines: LSM trees on disk with
//! JVM-class per-operation CPU overhead.
//!
//! Signature properties: data lives on cheap disk (low `SC` — resident
//! bytes are charged at a disk-vs-DRAM cost factor), while each request
//! pays a fixed CPU toll for protocol/JVM work on top of the LSM's own
//! I/O (high `PC`). That combination puts both systems in the
//! bottom-right of the Figure 11/12 cost planes, exactly where the
//! paper draws them. The two differ in tuning: the HBase-like engine
//! uses larger blocks and a bigger memstore (region-server style),
//! trading read latency for write throughput.

use crate::burn_cpu_us;
use std::path::Path;
use tb_common::{EngineOp, KvEngine, OpOutcome, Result};
use tb_lsm::{LsmConfig, LsmDb};

/// Disk $/GB relative to DRAM (cloud SSD vs memory, order 1:20).
const DISK_COST_FACTOR: f64 = 0.05;

/// Fixed CPU cost per op, microseconds (JVM dispatch, SEDA stages).
const CASSANDRA_OP_US: u64 = 12;
const HBASE_OP_US: u64 = 15;

/// Shared implementation for the two LSM-backed comparators.
pub struct JvmLsmEngine {
    db: LsmDb,
    op_cost_us: u64,
    name: &'static str,
}

impl JvmLsmEngine {
    fn open(_dir: &Path, op_cost_us: u64, name: &'static str, config: LsmConfig) -> Result<Self> {
        Ok(Self {
            db: LsmDb::open(config)?,
            op_cost_us,
            name,
        })
    }

    /// The wrapped LSM (test access).
    pub fn db(&self) -> &LsmDb {
        &self.db
    }
}

impl KvEngine for JvmLsmEngine {
    /// Charges the JVM toll per key — once per scan, a token-range read
    /// / HBase Scan being one request — then runs the batch on the LSM,
    /// whose CAS is atomic under one write lock (lightweight
    /// transactions, Cassandra-style).
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        for op in &ops {
            let keys = match op {
                EngineOp::MultiGet(keys) => keys.len(),
                EngineOp::MultiPut(pairs) => pairs.len(),
                EngineOp::Get(_)
                | EngineOp::Put(..)
                | EngineOp::Delete(_)
                | EngineOp::Cas { .. }
                | EngineOp::CasDelete { .. }
                | EngineOp::Scan { .. } => 1,
            };
            burn_cpu_us(self.op_cost_us * keys as u64);
        }
        self.db.apply_batch(ops)
    }

    fn resident_bytes(&self) -> u64 {
        // Disk bytes charged at the disk cost factor: the cost model
        // compares engines on DRAM-equivalent dollars.
        (self.db.disk_bytes() as f64 * DISK_COST_FACTOR) as u64
    }

    fn label(&self) -> String {
        self.name.into()
    }

    fn sync(&self) -> Result<()> {
        KvEngine::sync(&self.db)
    }
}

/// Cassandra-like comparator.
pub struct CassandraLike;

impl CassandraLike {
    pub fn open(dir: &Path) -> Result<JvmLsmEngine> {
        let config = LsmConfig::new(dir.join("cassandra"));
        JvmLsmEngine::open(dir, CASSANDRA_OP_US, "cassandra-like", config)
    }
}

/// HBase-like comparator (bigger blocks, bigger memstore).
pub struct HBaseLike;

impl HBaseLike {
    pub fn open(dir: &Path) -> Result<JvmLsmEngine> {
        let mut config = LsmConfig::new(dir.join("hbase"));
        config.memtable_bytes = 16 << 20;
        config.sst.block_size = 64 << 10;
        JvmLsmEngine::open(dir, HBASE_OP_US, "hbase-like", config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tb_common::{Key, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tb-jvm-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cassandra_like_roundtrip() {
        let e = CassandraLike::open(&tmpdir("cas")).unwrap();
        e.put(Key::from("k"), Value::from("v")).unwrap();
        assert_eq!(e.get(&Key::from("k")).unwrap(), Some(Value::from("v")));
        assert_eq!(e.label(), "cassandra-like");
    }

    #[test]
    fn disk_cost_factor_discounts_space() {
        let e = HBaseLike::open(&tmpdir("hb")).unwrap();
        for i in 0..500 {
            e.put(Key::from(format!("k{i}")), Value::from(vec![b'x'; 200]))
                .unwrap();
        }
        e.sync().unwrap();
        let disk = e.db().disk_bytes();
        let charged = e.resident_bytes();
        assert!(
            charged < disk / 10,
            "disk must be charged cheap: {charged} vs {disk}"
        );
    }

    #[test]
    fn op_overhead_slows_throughput() {
        use std::time::Instant;
        let e = CassandraLike::open(&tmpdir("slow")).unwrap();
        let t0 = Instant::now();
        for i in 0..100 {
            e.put(Key::from(format!("k{i}")), Value::from("v")).unwrap();
        }
        // 100 ops × 12µs ≥ 1.2ms of injected CPU cost alone.
        assert!(t0.elapsed().as_micros() >= 1200);
    }
}
