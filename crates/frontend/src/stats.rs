//! Front-end operational counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters exposed by a running front-end. All relaxed: these are
/// diagnostics, not synchronization.
#[derive(Debug, Default)]
pub struct FrontendStats {
    /// Ops accepted by a shard: queued, or claimed inline as part of a
    /// burst's sub-batch.
    pub submitted: AtomicU64,
    /// Ops resolved (successfully or not) — including ops a panicked
    /// batch abandoned, which resolve `Unavailable` and are reconciled
    /// by the worker so this converges to `submitted`.
    pub completed: AtomicU64,
    /// Batches executed: drained by a shard worker, or run inline by a
    /// burst's submitting thread.
    pub batches: AtomicU64,
    /// Group-commit `sync()` calls: one per burst holding writes.
    pub group_syncs: AtomicU64,
    /// Put operations that rode a coalesced `multi_put` with company.
    pub coalesced_puts: AtomicU64,
    /// Ops shed because their sub-batch did not fit its shard queue.
    pub backpressure_rejections: AtomicU64,
    /// Batches (or burst syncs) abandoned because an engine call
    /// panicked: their ops resolved `Unavailable`; the executing
    /// thread — worker or burst submitter — survived.
    pub worker_panics: AtomicU64,
}

impl FrontendStats {
    pub(crate) fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Snapshot for reports.
    pub fn snapshot(&self) -> FrontendStatsSnapshot {
        FrontendStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            group_syncs: self.group_syncs.load(Ordering::Relaxed),
            coalesced_puts: self.coalesced_puts.load(Ordering::Relaxed),
            backpressure_rejections: self.backpressure_rejections.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            shard_queue_depths: Vec::new(),
        }
    }
}

/// Point-in-time copy of [`FrontendStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendStatsSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub batches: u64,
    pub group_syncs: u64,
    pub coalesced_puts: u64,
    pub backpressure_rejections: u64,
    pub worker_panics: u64,
    /// Submission-queue depth of each shard at snapshot time. Empty
    /// through [`FrontendStats::snapshot`]; filled by
    /// `Frontend::stats_snapshot`, which can reach the shards.
    pub shard_queue_depths: Vec<usize>,
}

impl FrontendStatsSnapshot {
    /// Mean ops per drained batch — the pipelining depth actually
    /// achieved under the observed load.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}
