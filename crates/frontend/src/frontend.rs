//! The pipelined request front-end.
//!
//! One [`Frontend`] sits between many client threads and a single
//! [`KvEngine`]. Every call on it is a **burst**
//! ([`KvEngine::apply_batch`], which every synchronous `KvEngine` call
//! becomes): its ops hash to a shard (the cluster routing hash,
//! [`slot_for_key`]) and enter that shard's bounded submission queue as
//! one sub-batch per shard, with one completion latch per run and one
//! `sync()` for the whole burst. Each queue is drained in batches by its
//! shard's one worker (a burst's sub-batch may instead run on the
//! submitting thread when its shard is idle), which hands the whole
//! drained batch to the engine as **one** [`KvEngine::apply_batch`]
//! submission, coalescing consecutive writes into a single `MultiPut`
//! op. So an engine with a native submission/completion path — `tb-lsm`
//! — resolves the batch's reads in one overlapped storage pass instead
//! of serializing them behind per-op block IO (TierBase §4.1.2 batches
//! the remote tier the same way).
//!
//! Backpressure is the queue bound: a sub-batch its shard queue cannot
//! admit answers [`Error::Backpressure`] in every slot.

use crate::burst::{Run, RunPlan, SubBatchDone};
use crate::queue::{PushRefused, SubmitQueue};
use crate::stats::{FrontendStats, FrontendStatsSnapshot};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tb_common::{
    slot_for_key, BatchReadStats, EngineOp, Error, Key, KvEngine, Lsn, OpOutcome, Result, Value,
};

/// How long an idle worker parks between queue polls.
const DRAIN_WAIT: Duration = Duration::from_millis(5);

fn is_put_like(op: &EngineOp) -> bool {
    matches!(op, EngineOp::Put(..) | EngineOp::MultiPut(..))
}

/// Front-end tuning.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Submission queues / event loops.
    pub shards: usize,
    /// Bound of each shard queue in operations (the backpressure
    /// watermark). A burst's sub-batch is admitted whole or shed whole;
    /// one larger than the bound is admitted into an empty queue.
    pub queue_capacity: usize,
    /// Most operations a worker takes per drain (a burst's sub-batch is
    /// never split, so one larger than this is a drain of its own).
    pub max_batch: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            max_batch: 64,
        }
    }
}

impl FrontendConfig {
    /// Config with `n` shards, otherwise defaults.
    pub fn with_shards(n: usize) -> Self {
        Self {
            shards: n.max(1),
            ..Self::default()
        }
    }
}

/// Where a queued op's outcome goes: part `.1` of run `.0`, and the
/// op's telemetry submit stamp (`None` when telemetry is disabled) —
/// the stamp yields the queue-wait histogram at drain and the
/// end-to-end latency histogram at completion.
type Pending = (Arc<Run>, usize, Option<Instant>);

/// One queued op and where its outcome goes.
type Queued = (EngineOp, Pending);

/// One shard's share of a burst's run, enqueued with one lock and one
/// wake-up and never split by a drain. Its guard opens the run's latch
/// once the sub-batch has run, or was dropped unrun.
type SubBatch = (Vec<Queued>, SubBatchDone);

struct Inner {
    engine: Arc<dyn KvEngine>,
    /// One submission queue per shard, drained by that shard's worker.
    shards: Vec<SubmitQueue<SubBatch>>,
    config: FrontendConfig,
    shutdown: AtomicBool,
    stats: FrontendStats,
}

/// Pipelined, sharded serving layer over one [`KvEngine`].
pub struct Frontend {
    inner: Arc<Inner>,
    /// One drain worker per shard; joined by [`Frontend::shutdown`].
    workers: Mutex<Vec<JoinHandle<()>>>,
    down: AtomicBool,
    /// Keeps this front-end's counters and per-shard depth gauges
    /// contributing to [`tb_obs::global`] snapshots; drops with it.
    _obs: tb_obs::SourceGuard,
}

impl Frontend {
    /// Starts one drain worker per shard over `engine`.
    pub fn start(engine: Arc<dyn KvEngine>, mut config: FrontendConfig) -> Self {
        config.shards = config.shards.max(1);
        let inner = Arc::new(Inner {
            engine,
            shards: (0..config.shards)
                .map(|_| SubmitQueue::new(config.queue_capacity))
                .collect(),
            config,
            shutdown: AtomicBool::new(false),
            stats: FrontendStats::default(),
        });
        let workers = (0..inner.shards.len())
            .map(|shard| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(inner, shard))
            })
            .collect();
        let obs = {
            let inner = inner.clone();
            tb_obs::global().register_source(move |b| {
                let s = &inner.stats;
                let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
                b.counter("frontend_submitted", c(&s.submitted));
                b.counter("frontend_completed", c(&s.completed));
                b.counter("frontend_batches", c(&s.batches));
                b.counter("frontend_group_syncs", c(&s.group_syncs));
                b.counter("frontend_coalesced_puts", c(&s.coalesced_puts));
                b.counter(
                    "frontend_backpressure_rejections",
                    c(&s.backpressure_rejections),
                );
                b.counter("frontend_worker_panics", c(&s.worker_panics));
                for (i, queue) in inner.shards.iter().enumerate() {
                    b.gauge(
                        &format!("frontend_shard{i}_queue_depth"),
                        queue.len() as i64,
                    );
                }
            })
        };
        Self {
            inner,
            workers: Mutex::new(workers),
            down: AtomicBool::new(false),
            _obs: obs,
        }
    }

    /// Operational counters.
    pub fn stats(&self) -> &FrontendStats {
        &self.inner.stats
    }

    /// Snapshot of the front-end counters plus each shard's queue depth.
    pub fn stats_snapshot(&self) -> FrontendStatsSnapshot {
        let mut snapshot = self.inner.stats.snapshot();
        snapshot.shard_queue_depths = self.inner.shards.iter().map(|q| q.len()).collect();
        snapshot
    }

    /// Shard a key routes to.
    pub fn shard_of(&self, key: &Key) -> usize {
        slot_for_key(key.as_slice()) as usize % self.inner.shards.len()
    }

    /// Queue depth of one shard.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.inner.shards[shard].len()
    }

    /// Ops queued across all shards.
    pub fn total_queue_depth(&self) -> usize {
        self.inner.shards.iter().map(|q| q.len()).sum()
    }

    /// Shard of a single-key op. A scan routes by `start`: all shards
    /// front the same engine, so any queue serves the full key range —
    /// sharding partitions the *queues*, not the data.
    fn shard_of_op(&self, op: &EngineOp) -> usize {
        let key = match op {
            EngineOp::Get(k) | EngineOp::Put(k, _) | EngineOp::Delete(k) => k,
            EngineOp::Cas { key, .. } | EngineOp::CasDelete { key, .. } => key,
            EngineOp::Scan { start, .. } => start,
            EngineOp::MultiGet(_) | EngineOp::MultiPut(_) => {
                unreachable!("a burst splits multi-key ops by shard")
            }
        };
        self.shard_of(key)
    }

    /// Submits a burst with the [`KvEngine::apply_batch`] contract
    /// (submission-order results) and awaits it.
    ///
    /// The burst is cut into **runs** at its scans. A scan is a
    /// cross-shard read: every shard owns part of any range, so it
    /// cannot ride per-shard FIFO order — every earlier op completes
    /// before the scan is submitted, and the scan completes before any
    /// later op is. Within a run, ops bucket by shard into **one
    /// sub-batch per shard** (same-key ops share a shard, so their
    /// order is the sub-batch's order; a multi-key op splits into one
    /// part per shard). Each sub-batch is enqueued whole — one lock,
    /// one wake-up, never split by a drain — except that one of them
    /// runs right here, through the same `process_batch`, when its
    /// shard is idle: this thread would otherwise only park. Idle means
    /// nothing queued and no drained batch in flight, decided under the
    /// queue lock, so an inline sub-batch never overtakes an op
    /// submitted before it. The submitter waits on one latch per run.
    /// A sub-batch its shard queue does not admit is shed: each of its
    /// ops answers [`Error::Backpressure`] with the queue's depth.
    ///
    /// Writes share **one durability point**: after every sub-batch has
    /// applied, one `engine.sync()` covers the whole burst, and only
    /// then is any write outcome returned. If it fails, every write
    /// that had applied fails with its error (reads keep their
    /// answers).
    fn burst(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        if self.down.load(Ordering::SeqCst) {
            let down = || Err(Error::Unavailable("front-end shut down".into()));
            return ops.iter().map(|_| down()).collect();
        }
        let shards = self.inner.shards.len();
        let mut outcomes: Vec<Option<Result<OpOutcome>>> = ops.iter().map(|_| None).collect();
        // Whether any write applied — even one slice of a spanning
        // `MultiPut` whose other slice failed: it is in the engine, so
        // the burst owes it the durability point.
        let mut dirty = false;
        let mut run = RunPlan::new(shards);
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                EngineOp::Scan { .. } => {
                    dirty |= self.complete_run(&mut run, &mut outcomes);
                    run.add(self.shard_of_op(&op), op, i, None);
                    self.complete_run(&mut run, &mut outcomes);
                }
                // An empty multi-key op resolves on the spot, touching
                // nothing.
                EngineOp::MultiGet(keys) if keys.is_empty() => {
                    outcomes[i] = Some(Ok(OpOutcome::Values(Vec::new())));
                }
                EngineOp::MultiPut(pairs) if pairs.is_empty() => {
                    outcomes[i] = Some(Ok(OpOutcome::Done(Lsn::NONE)));
                }
                // One part per shard the keys touch: a `MultiGet` slice
                // fills its keys' positions, and a `MultiPut` acks the
                // max LSN across its slices.
                EngineOp::MultiGet(keys) => {
                    let len = keys.len();
                    let mut per = vec![(Vec::new(), Vec::new()); shards];
                    for (position, key) in keys.into_iter().enumerate() {
                        let s = self.shard_of(&key);
                        per[s].0.push(position);
                        per[s].1.push(key);
                    }
                    for (shard, (positions, keys)) in per.into_iter().enumerate() {
                        if !keys.is_empty() {
                            let slice = Some((positions, len));
                            run.add(shard, EngineOp::MultiGet(keys), i, slice);
                        }
                    }
                }
                EngineOp::MultiPut(pairs) => {
                    let mut per: Vec<Vec<(Key, Value)>> = vec![Vec::new(); shards];
                    for (key, value) in pairs {
                        per[self.shard_of(&key)].push((key, value));
                    }
                    for (shard, pairs) in per.into_iter().enumerate() {
                        if !pairs.is_empty() {
                            run.add(shard, EngineOp::MultiPut(pairs), i, None);
                        }
                    }
                }
                op => run.add(self.shard_of_op(&op), op, i, None),
            }
        }
        dirty |= self.complete_run(&mut run, &mut outcomes);

        if dirty {
            // The burst's one durability point. A panicking engine is
            // contained like in a worker: the writes fail, the caller
            // (a server connection thread) lives on.
            let t0 = tb_obs::start();
            let engine = &self.inner.engine;
            let synced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.sync()))
                .unwrap_or_else(|_| {
                    FrontendStats::bump(&self.inner.stats.worker_panics, 1);
                    Err(Error::Unavailable(
                        "engine panicked in the burst's sync".into(),
                    ))
                });
            tb_obs::histo!("frontend_group_sync_ns").record_since(t0);
            FrontendStats::bump(&self.inner.stats.group_syncs, 1);
            if let Err(e) = synced {
                // Only writes resolve `Done`: they fail together.
                for outcome in &mut outcomes {
                    if matches!(outcome, Some(Ok(OpOutcome::Done(_)))) {
                        *outcome = Some(Err(e.clone()));
                    }
                }
            }
        }
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every op has a part in some run"))
            .collect()
    }

    /// Submits the run collected in `run` — one sub-batch per shard, at
    /// most one of them inline — waits for it, and merges each part's
    /// outcome into its op's. Leaves `run` empty; returns whether a
    /// write of the run applied.
    fn complete_run(&self, run: &mut RunPlan, outcomes: &mut [Option<Result<OpOutcome>>]) -> bool {
        if run.parts.is_empty() {
            return false;
        }
        let parts = std::mem::take(&mut run.parts);
        let latch = Run::new(parts.len());
        let stamp = tb_obs::start();
        let mut inline = None;
        let queues = self.inner.shards.iter().zip(&mut run.per_shard);
        for (shard, (queue, ops)) in queues.enumerate() {
            if ops.is_empty() {
                continue;
            }
            let len = ops.len();
            let batch: Vec<Queued> = ops
                .drain(..)
                .map(|(op, part)| (op, (latch.clone(), part, stamp)))
                .collect();
            let done = latch.sub_batch();
            if inline.is_none() && queue.claim_idle() {
                inline = Some((queue, batch, done));
            } else {
                match queue.try_push((batch, done), len) {
                    Ok(()) => {}
                    Err((PushRefused::Full, (batch, _done))) => {
                        self.shed(shard, batch);
                        continue;
                    }
                    // A concurrent shutdown closed the queue: the dropped
                    // sub-batch opens the latch, its parts read
                    // `Unavailable`.
                    Err((PushRefused::Closed, _)) => continue,
                }
            }
            FrontendStats::bump(&self.inner.stats.submitted, len as u64);
        }
        if let Some((queue, batch, done)) = inline {
            run_batch(&self.inner, queue, batch);
            drop(done);
        }
        let mut dirty = false;
        for (part, result) in parts.into_iter().zip(latch.wait()) {
            let result = result
                .unwrap_or_else(|| Err(Error::Unavailable("request dropped by front-end".into())));
            dirty |= matches!(result, Ok(OpOutcome::Done(_)));
            let outcome = &mut outcomes[part.op];
            *outcome = Some(part.merge(outcome.take(), result));
        }
        dirty
    }

    /// Answers every op of a sub-batch its full shard queue refused. The
    /// queue's depth, at least its capacity, is the retry-after hint the
    /// wire's `RETRY` reply carries.
    fn shed(&self, shard: usize, batch: Vec<Queued>) {
        let capacity = self.inner.config.queue_capacity;
        let depth = self.inner.shards[shard].len().max(capacity);
        let shed = Error::backpressure_at_depth(
            format!("shard {shard} queue full ({capacity} operations)"),
            u32::try_from(depth).unwrap_or(u32::MAX),
        );
        FrontendStats::bump(
            &self.inner.stats.backpressure_rejections,
            batch.len() as u64,
        );
        for (_, (run, part, _)) in batch {
            run.fill(part, Err(shed.clone()));
        }
    }

    /// Drains the queues, stops the workers, joins them. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Let queued work finish before stopping the drain loops.
        while self.total_queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for queue in &self.inner.shards {
            queue.close();
        }
        for worker in std::mem::take(&mut *self.workers.lock()) {
            let _ = worker.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: Arc<Inner>, shard: usize) {
    let queue = &inner.shards[shard];
    loop {
        let drained = queue.drain(inner.config.max_batch, DRAIN_WAIT);
        if drained.is_empty() {
            if inner.shutdown.load(Ordering::SeqCst) && queue.len() == 0 {
                return;
            }
            continue;
        }
        // One batch from every drained sub-batch; their latch guards are
        // held until it has run (or unwound).
        let (batches, done): (Vec<Vec<Queued>>, Vec<SubBatchDone>) = drained.into_iter().unzip();
        run_batch(&inner, queue, batches.into_iter().flatten().collect());
        drop(done);
    }
}

/// Runs one batch the caller took from `queue` — drained by its worker,
/// or claimed idle by a burst's submitting thread — and reports it done.
fn run_batch(inner: &Inner, queue: &SubmitQueue<SubBatch>, batch: Vec<Queued>) {
    // Queue wait: submit stamp → drain. The stamp stays with the op so
    // completion can record the full end-to-end latency.
    if tb_obs::enabled() {
        let waits = tb_obs::histo!("frontend_queue_wait_ns");
        for (_, (_, _, stamp)) in &batch {
            waits.record_since(*stamp);
        }
    }
    // Contain engine panics: the unwind drops the batch's unresolved
    // ops (their run slots read as dropped — no caller hangs) and the
    // thread lives on: a poisoned engine call must not wedge the
    // shard, nor kill a submitter.
    let batch_len = batch.len() as u64;
    let settled = AtomicU64::new(0);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        process_batch(inner, batch, &settled);
    }));
    queue.drain_done();
    if outcome.is_err() {
        // The unwind resolved the rest of the batch by dropping it;
        // count those ops so `submitted == completed` holds once every
        // op has resolved. Reconciled before the panic counter so
        // observers that saw the panic also see consistent accounting.
        let abandoned = batch_len.saturating_sub(settled.load(Ordering::SeqCst));
        FrontendStats::bump(&inner.stats.completed, abandoned);
        FrontendStats::bump(&inner.stats.worker_panics, 1);
    }
}

/// Resolves one op into its run slot: the completed-counter bump
/// happens *before* the burst's latch can open, so a caller that has
/// awaited all of its ops observes `submitted == completed`. `settled`
/// is the per-batch count `run_batch` uses to reconcile a
/// panic-abandoned batch.
fn finish(stats: &FrontendStats, settled: &AtomicU64, pending: Pending, result: Result<OpOutcome>) {
    let (run, part, stamp) = pending;
    settled.fetch_add(1, Ordering::SeqCst);
    FrontendStats::bump(&stats.completed, 1);
    tb_obs::histo!("frontend_e2e_ns").record_since(stamp);
    run.fill(part, result);
}

fn process_batch(inner: &Inner, batch: Vec<Queued>, settled: &AtomicU64) {
    FrontendStats::bump(&inner.stats.batches, 1);
    let stats = &inner.stats;

    // --- one engine submission for the drained batch -----------------
    // Adjacent put-likes coalesce into a single MultiPut op (one WAL/
    // memtable pass); every other op goes as it was queued. `acks[i]`
    // lists the queued ops `ops[i]` settles.
    let mut ops: Vec<EngineOp> = Vec::with_capacity(batch.len());
    let mut acks: Vec<Vec<Pending>> = Vec::with_capacity(batch.len());
    let mut iter = batch.into_iter().peekable();
    while let Some((op, pending)) = iter.next() {
        if !is_put_like(&op) {
            ops.push(op);
            acks.push(vec![pending]);
            continue;
        }
        let mut pairs: Vec<(Key, Value)> = Vec::new();
        let mut writers = vec![pending];
        let mut absorb = |op: EngineOp| match op {
            EngineOp::Put(k, v) => pairs.push((k, v)),
            EngineOp::MultiPut(ps) => pairs.extend(ps),
            _ => unreachable!("absorb only sees put-like ops"),
        };
        absorb(op);
        while let Some((op, pending)) = iter.next_if(|(op, _)| is_put_like(op)) {
            absorb(op);
            writers.push(pending);
        }
        if writers.len() > 1 {
            FrontendStats::bump(&stats.coalesced_puts, writers.len() as u64);
        }
        ops.push(EngineOp::MultiPut(pairs));
        acks.push(writers);
    }

    // --- one storage pass for the whole batch -------------------------
    // An engine with a native submission/completion path (tb-lsm)
    // resolves every read here with its block IO deduped across the
    // batch.
    let outcomes = inner.engine.apply_batch(ops);

    // --- completion: the writers of a coalesced run share its outcome,
    // which carries the covering LSN. A write reports *applied*; its
    // burst syncs before returning it.
    for (mut pending, outcome) in acks.into_iter().zip(outcomes) {
        let last = pending.pop().expect("every engine op settles a queued op");
        for writer in pending {
            finish(stats, settled, writer, outcome.clone());
        }
        finish(stats, settled, last, outcome);
    }
}

/// The front-end is itself a [`KvEngine`]: synchronous callers (the
/// wire server, the replay harness, cluster nodes) drive the pipelined
/// path through the plain engine interface. Every call is a burst: the
/// trait's provided point and multi-key methods are one-op bursts.
impl KvEngine for Frontend {
    /// Batch submission with the trait's submission-order semantics:
    /// one sub-batch per shard between scan barriers, one `sync()` for
    /// the burst.
    ///
    /// # Cross-shard multi-key writes: independent commit, not a transaction
    ///
    /// A `MultiPut` spanning shards is split into one slice per shard,
    /// and each slice commits on its own; there is no cross-shard
    /// atomicity and no rollback. When one shard fails mid-batch the
    /// documented (and regression-tested) partial state is:
    ///
    /// * every pair routed to a *healthy* shard is applied (and durable
    ///   once the burst's sync succeeded — the op then still reports
    ///   the failing shard's error);
    /// * the pairs of the *failing* shard follow the engine's error
    ///   contract for that slice (indeterminate on error — see the
    ///   LSN/ack contract in `tb_common::engine`);
    /// * the op reports the first shard error. Callers needing
    ///   per-pair attribution submit per-shard batches themselves.
    ///
    /// The tb-server wire protocol inherits exactly these semantics for
    /// its `MULTIPUT` frame and never converts a partial failure into
    /// an all-or-nothing ack: each op in a pipelined burst gets its own
    /// positional outcome reply.
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        self.burst(ops)
    }

    fn batch_read_stats(&self) -> BatchReadStats {
        self.inner.engine.batch_read_stats()
    }

    fn applied_lsn(&self) -> Lsn {
        self.inner.engine.applied_lsn()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.engine.resident_bytes()
    }

    fn label(&self) -> String {
        format!("frontend<{}>", self.inner.engine.label())
    }

    /// A burst acks no write it has not synced, so there is nothing of
    /// the front-end's own to wait for: this is the engine's sync.
    fn sync(&self) -> Result<()> {
        self.inner.engine.sync()
    }
}
