//! Shared substrate for the TierBase workspace.
//!
//! This crate holds the small, dependency-light pieces every other crate
//! needs: byte-string key/value types, the common error enum, real and
//! virtual clocks, latency histograms, the hashing utilities used for
//! sharding and hash-slot routing, the one protocol every durable
//! file is published by, and the one frame and record format every log
//! is written in.

#![deny(unsafe_code)]

pub mod clock;
pub mod crc;
pub mod durable;
pub mod engine;
pub mod error;
pub mod fault;
pub mod hash;
pub mod histogram;
pub mod log;
pub mod testutil;
pub mod ttl;
pub mod types;
pub mod varint;

pub use clock::{Clock, ManualClock, SystemClock};
pub use crc::{crc32, Crc32};
pub use engine::{apply_write, BatchReadStats, EngineOp, KvEngine, Lsn, OpOutcome};
pub use error::{Error, Result};
pub use hash::{fx_hash, slot_for_key, FxBuildHasher, SLOT_COUNT};
pub use histogram::Histogram;
pub use testutil::{test_dir, TestDir};
pub use ttl::{deadline_after, is_expired, TtlState};
pub use types::{prefix_successor, Key, Value};
pub use varint::{read_bytes, read_varint, varint_bytes, write_bytes, write_varint};
