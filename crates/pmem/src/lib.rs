//! Simulated persistent memory (paper §4.3).
//!
//! Real Optane DCPMM is byte-addressable, persistent, denser and cheaper
//! than DRAM, and slower — reads ~2–3× DRAM latency, writes ~4–5×.
//! This crate reproduces that profile in software:
//!
//! * [`device::PmemDevice`] — a file-backed byte-addressable region with
//!   a configurable latency model. Data written and flushed survives
//!   process restarts (the file is the persistence domain).
//! * [`ring::PersistentRingBuffer`] — the WAL-PMem design: log records
//!   append to a persistent ring at memory-like speed and are
//!   batch-drained to slower bulk storage, decoupling commit latency
//!   from disk IOPS.
//!
//! Which cache values live in PMem is a rule of the cache tier's
//! configuration (`tb_cache::PmemPlacement`): values at or above a
//! size threshold, which pay [`LatencyModel`]'s premium on access.

#![deny(unsafe_code)]

pub mod device;
pub mod ring;

pub use device::{LatencyModel, PmemDevice};
pub use ring::{PersistentRingBuffer, RingConfig};
