//! `tb-lsm`: a from-scratch log-structured merge-tree storage engine.
//!
//! This is the workspace's stand-in for UCS, the internal Ant Group
//! storage engine TierBase uses as its storage tier (§3): an LSM tree
//! with a write-ahead log, block-based SSTables with bloom filters and
//! sparse indexes, leveled compaction, and manifest-based recovery.
//! `TierBase` uses an [`LsmDb`] as its storage tier by default, through
//! the `KvEngine` batch API alone.
//!
//! Write path: WAL append → memtable insert → (on threshold) freeze: the
//! WAL segment is fsynced, the next one opened, and the memtable queued,
//! still readable. One background worker per engine then flushes each
//! frozen memtable to an L0 SSTable and compacts toward L_max, off the
//! caller's thread.
//! Read path: memtable → frozen memtables (newest first) → L0 (newest
//! first) → L1+ (one table per level can contain the key). Every
//! op — point get, CAS read, batched get, range scan — is one
//! `KvEngine::apply_batch` pass: lookups are staged under the tree lock
//! and completed by one pass that reads in rounds, newest table first,
//! each staged block at most once, and fills results in submission
//! order. The bottom level's table carries a pass-through bloom filter.

#![deny(unsafe_code)]

mod batch;
pub mod bloom;
pub mod compaction;

/// Unit tests that arm `tb_common::fault` injections serialize on this
/// gate: the registry holds one injection slot per process.
#[cfg(test)]
pub(crate) fn fault_test_gate() -> parking_lot::MutexGuard<'static, ()> {
    static GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    GATE.lock()
}
pub mod db;
mod flush;
pub mod memtable;
pub mod sstable;
mod version;
pub mod wal;

pub use db::{LsmConfig, LsmDb};

/// Every named fault point threaded through this crate's IO surface
/// (`tb_common::fault`). Torture harnesses enumerate this list; the
/// `fault_sites_all_reachable` test in `tests/fault_torture.rs` keeps
/// it honest against the code.
pub const FAULT_SITES: &[&str] = &[
    "wal.append.header",
    "wal.append.payload",
    "wal.sync",
    "wal.rotate",
    "wal.remove",
    "sst.write.data",
    "sst.write.filter",
    "sst.write.index",
    "sst.write.footer",
    "sst.sync",
    "sst.rename",
    "sst.dir_sync",
    "manifest.write",
    "manifest.sync",
    "manifest.rename",
    "manifest.dir_sync",
    "compact.remove_obsolete",
    "batch.complete",
    "batch.block_read",
    "sst.block_decode",
];

/// The subset of [`FAULT_SITES`] that are buffer writes, where a torn
/// (partial-write-then-crash) injection is meaningful.
pub const FAULT_WRITE_SITES: &[&str] = &[
    "wal.append.payload",
    "sst.write.data",
    "sst.write.filter",
    "sst.write.index",
    "sst.write.footer",
    "manifest.write",
];
