//! # TierBase
//!
//! A workload-driven, cost-optimized key-value store — a from-scratch
//! Rust reproduction of *"TierBase: A Workload-Driven Cost-Optimized
//! Key-Value Store"* (Shen et al., ICDE 2025, Ant Group).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`store`] | `tierbase-core` | the TierBase store: tiered cache+storage, write-through/write-back, persistence modes, compression, elastic threading, data types |
//! | [`costmodel`] | `tb-costmodel` | the Space-Performance Cost Model, Optimal Cost Theorem, tiered cost, Five-Minute-Rule break-even, evaluation framework |
//! | [`cache`] | `tb-cache` | the cache tier: sharded tables with CLOCK eviction, dirty tracking, insert-if-absent miss fills, DRAM/PMem value placement |
//! | [`lsm`] | `tb-lsm` | the default storage tier: WAL, SSTables, bloom filters, leveled compaction |
//! | [`pmem`] | `tb-pmem` | simulated persistent memory: latency-modeled device, persistent ring buffer |
//! | [`compress`] | `tb-compress` | pre-trained compression: tzstd (dictionary LZ) and PBC (pattern-based) |
//! | [`elastic`] | `tierbase-core` | elastic threading: the permit gate behind single/multi/elastic modes |
//! | [`workload`] | `tb-workload` | YCSB-style generators, datasets, trace record/replay |
//! | [`frontend`] | `tb-frontend` | pipelined request front-end: sharded submission queues, group-commit workers, backpressure |
//! | [`cluster`] | `tb-cluster` | hash-slot sharding, coordinators, failover, smart client, proxy |
//! | [`server`] | `tb-server` | network serving: pipelined wire protocol, TCP/Unix-socket server, `KvEngine` socket client |
//! | [`obs`] | `tb-obs` | unified telemetry: global metrics registry (counters/gauges/latency histograms), span tracer, Prometheus/JSON snapshots |
//! | [`common`] | `tb-common` | shared types, errors, clocks, histograms, hashing, `KvEngine` |
//!
//! ## Quickstart
//!
//! ```no_run
//! use tierbase::prelude::*;
//!
//! let dir = std::env::temp_dir().join("tierbase-quickstart");
//! let store = TierBase::open(
//!     TierBaseConfig::builder(dir)
//!         .cache_capacity(64 << 20)
//!         .policy(SyncPolicy::WriteThrough)
//!         .build(),
//! )?;
//! store.put(Key::from("greeting"), Value::from("hello"))?;
//! assert_eq!(store.get(&Key::from("greeting"))?, Some(Value::from("hello")));
//! # Ok::<(), tierbase::common::Error>(())
//! ```

#![deny(unsafe_code)]

pub use tb_cache as cache;
pub use tb_cluster as cluster;
pub use tb_common as common;
pub use tb_compress as compress;
pub use tb_costmodel as costmodel;
pub use tb_frontend as frontend;
pub use tb_lsm as lsm;
pub use tb_obs as obs;
pub use tb_pmem as pmem;
pub use tb_server as server;
pub use tb_workload as workload;
pub use tierbase_core as store;
pub use tierbase_core::elastic;

/// The items most applications need.
pub mod prelude {
    pub use tb_common::{
        BatchReadStats, EngineOp, Error, Key, KvEngine, Lsn, OpOutcome, Result, TtlState, Value,
    };
    pub use tb_costmodel::{CostMetrics, InstanceSpec, WorkloadDemand};
    pub use tb_frontend::{Frontend, FrontendConfig};
    pub use tb_workload::{Op, Trace, Workload, WorkloadSpec};
    pub use tierbase_core::{
        CompressorChoice, DataTypes, PersistenceMode, PmemTuning, SyncPolicy, TierBase,
        TierBaseConfig,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_work() {
        let dir = tb_common::test_dir("tb-umbrella");
        let store = TierBase::open(TierBaseConfig::builder(dir.path()).build()).unwrap();
        store.put(Key::from("k"), Value::from("v")).unwrap();
        assert_eq!(store.get(&Key::from("k")).unwrap(), Some(Value::from("v")));
    }
}
