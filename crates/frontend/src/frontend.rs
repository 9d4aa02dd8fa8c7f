//! The pipelined request front-end.
//!
//! One [`Frontend`] sits between many client threads and a single
//! [`KvEngine`]. Requests hash to a shard (the cluster routing hash,
//! [`slot_for_key`]) and enter that shard's bounded submission queue —
//! one at a time behind a [`Ticket`] ([`Frontend::submit`]), or as a
//! burst ([`KvEngine::apply_batch`] on the front-end: one sub-batch per
//! shard, one completion latch per run, one `sync()` for the whole
//! burst). Each queue is drained in batches by its shard's one worker
//! (a burst's sub-batch may instead run on the submitting thread when
//! its shard is idle), which:
//!
//! * lowers the whole drained batch into **one**
//!   [`KvEngine::apply_batch`] submission (coalescing consecutive
//!   writes into a single `MultiPut` op), so an engine with a native
//!   submission/completion path — `tb-lsm` — resolves the batch's
//!   reads in one overlapped storage pass instead of serializing them
//!   behind per-op block IO (TierBase §4.1.2 batches the remote tier
//!   the same way). And
//! * group-commits: one `sync()` per dirty batch instead of one per
//!   write, acknowledging ticket writes only after the batch is durable
//!   (a burst's writes wait for the burst's own single `sync()`).
//!
//! Backpressure is the queue bound: blocking `submit` stalls producers
//! when a shard saturates, `try_submit` sheds load with
//! [`Error::Backpressure`].

use crate::burst::{Run, RunPlan, SubBatchDone};
use crate::queue::{PushRefused, SubmitQueue};
use crate::stats::{FrontendStats, FrontendStatsSnapshot};
use crate::ticket::{gather, ticket, Completer, Response, Ticket};
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

/// One operation submitted to the front-end.
#[derive(Debug, Clone)]
pub enum Request {
    Get(Key),
    Put(Key, Value),
    Delete(Key),
    /// Batched lookups for one shard; the response aligns with key order.
    MultiGet(Vec<Key>),
    /// Batched writes for one shard.
    MultiPut(Vec<(Key, Value)>),
    Cas {
        key: Key,
        expected: Option<Value>,
        new: Value,
    },
    /// Ordered range scan (`start <= key < end`, at most `limit` live
    /// entries). Routes by `start`: all shards front the same engine,
    /// so any queue serves the full key range — sharding partitions
    /// the *queues*, not the data.
    Scan {
        start: Key,
        end: Option<Key>,
        limit: usize,
    },
}

impl Request {
    /// Key that decides the owning shard. Multi-key requests route by
    /// their first key — [`Frontend::multi_get`]/[`Frontend::multi_put`]
    /// split by shard before submitting, so worker-visible multi
    /// requests are single-shard already.
    fn routing_key(&self) -> Option<&Key> {
        match self {
            Request::Get(k) | Request::Put(k, _) | Request::Delete(k) => Some(k),
            Request::MultiGet(keys) => keys.first(),
            Request::MultiPut(pairs) => pairs.first().map(|(k, _)| k),
            Request::Cas { key, .. } => Some(key),
            Request::Scan { start, .. } => Some(start),
        }
    }

    fn is_put_like(&self) -> bool {
        matches!(self, Request::Put(..) | Request::MultiPut(..))
    }
}

/// Front-end tuning.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Submission queues / event loops.
    pub shards: usize,
    /// Bound of each shard queue in operations (the backpressure
    /// watermark). A burst's sub-batch is admitted whole: one larger
    /// than the bound waits for an empty queue.
    pub queue_capacity: usize,
    /// Most operations a worker takes per drain (a burst's sub-batch is
    /// never split, so one larger than this is a drain of its own).
    pub max_batch: usize,
    /// `true`: one `sync()` per dirty batch, writes acknowledged after
    /// it; `false`: every write is applied and synced individually (the
    /// per-op-durability baseline the bench compares against).
    pub group_commit: bool,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            max_batch: 64,
            group_commit: true,
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

/// Routing decision for one submitted request.
enum Route {
    /// Lands whole on one shard's queue.
    Shard(usize),
    /// A `MultiGet` spanning shards: split into per-shard sub-batches,
    /// gathered in key order by the returned ticket.
    Scatter,
}

/// Where one request's response goes.
enum Sink {
    /// A `submit`/`try_submit` ticket. Its write ack waits for the
    /// group sync of the batch that applied it.
    Ticket(Completer),
    /// Part `.1` of a burst's run. Its write ack reports *applied*:
    /// the burst issues one `sync()` of its own after every sub-batch
    /// has, before any write outcome is returned.
    Part(Arc<Run>, usize),
}

impl Sink {
    fn resolve(self, result: Result<Response>) {
        match self {
            Sink::Ticket(completer) => completer.complete(result),
            Sink::Part(run, part) => run.fill(part, result),
        }
    }
}

/// One submitted request: the op, where its response goes, and the
/// telemetry submit stamp (`None` when telemetry is disabled) — the
/// stamp yields the queue-wait histogram at drain and the end-to-end
/// latency histogram at completion.
type Queued = (Request, Sink, Option<Instant>);

/// What a shard queue holds.
enum Item {
    /// A single request (weight 1).
    One(Queued),
    /// One shard's share of a burst's run (weight = its requests):
    /// enqueued with one lock and one wake-up, never split by a drain.
    SubBatch(Vec<Queued>, SubBatchDone),
}

struct Inner {
    engine: Arc<dyn KvEngine>,
    /// One submission queue per shard, drained by that shard's worker.
    shards: Vec<SubmitQueue<Item>>,
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
                b.counter("frontend_per_op_syncs", c(&s.per_op_syncs));
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

    /// Requests queued across all shards.
    pub fn total_queue_depth(&self) -> usize {
        self.inner.shards.iter().map(|q| q.len()).sum()
    }

    /// Submits a request, blocking while the target shard queue is
    /// full — backpressure propagates to the producer. A `MultiGet`
    /// whose keys span shards is scattered into per-shard sub-batches
    /// and its ticket gathers the results in key order. A spanning
    /// `MultiPut` resolves to [`Error::InvalidArgument`]: each shard's
    /// slice would commit independently (cross-shard write atomicity
    /// is out of scope; use [`Frontend::multi_put`], which splits by
    /// shard explicitly).
    pub fn submit(&self, request: Request) -> Ticket {
        match self.route(&request) {
            Ok(Route::Shard(shard)) => self.submit_to(shard, request),
            Ok(Route::Scatter) => {
                let Request::MultiGet(keys) = request else {
                    unreachable!("only MultiGet scatters")
                };
                let len = keys.len();
                let parts = self
                    .scatter_get(keys)
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (idx, _))| !idx.is_empty())
                    .map(|(s, (idx, keys))| (idx, self.submit_to(s, Request::MultiGet(keys))))
                    .collect();
                gather(parts, len)
            }
            Err(e) => {
                let (t, c) = ticket();
                c.complete(Err(e));
                t
            }
        }
    }

    /// Non-blocking submit; a full shard queue sheds the request with
    /// [`Error::Backpressure`]. A spanning `MultiGet` scatters like in
    /// [`Frontend::submit`]; if any sub-batch is shed the whole request
    /// reports backpressure (already-queued sub-reads drain harmlessly).
    pub fn try_submit(&self, request: Request) -> Result<Ticket> {
        if self.down.load(Ordering::SeqCst) {
            return Err(Error::Unavailable("front-end shut down".into()));
        }
        match self.route(&request)? {
            Route::Shard(shard) => self.try_submit_to(shard, request),
            Route::Scatter => {
                let Request::MultiGet(keys) = request else {
                    unreachable!("only MultiGet scatters")
                };
                let len = keys.len();
                let mut parts = Vec::new();
                for (s, (idx, keys)) in self.scatter_get(keys).into_iter().enumerate() {
                    if idx.is_empty() {
                        continue;
                    }
                    parts.push((idx, self.try_submit_to(s, Request::MultiGet(keys))?));
                }
                Ok(gather(parts, len))
            }
        }
    }

    fn try_submit_to(&self, shard: usize, request: Request) -> Result<Ticket> {
        let (t, c) = ticket();
        let item = Item::One((request, Sink::Ticket(c), tb_obs::start()));
        match self.inner.shards[shard].try_push(item, 1) {
            Ok(()) => {
                FrontendStats::bump(&self.inner.stats.submitted, 1);
                Ok(t)
            }
            Err((PushRefused::Full, _)) => {
                FrontendStats::bump(&self.inner.stats.backpressure_rejections, 1);
                // The queue was at capacity when it refused us; report that
                // depth as the retry-after hint so callers (and the wire
                // protocol's RETRY reply) can scale their backoff.
                let depth = self.inner.shards[shard].len() as u32;
                // (The refused item dropped its completer: the orphan
                // ticket is resolved, nothing can wait on it.)
                Err(Error::backpressure_at_depth(
                    format!(
                        "shard {shard} queue full ({} operations)",
                        self.inner.config.queue_capacity
                    ),
                    depth.max(self.inner.config.queue_capacity as u32),
                ))
            }
            Err((PushRefused::Closed, _)) => Err(Error::Unavailable("front-end shut down".into())),
        }
    }

    fn route(&self, request: &Request) -> Result<Route> {
        match request {
            Request::MultiGet(keys) => Ok(match self.single_shard_of(keys.iter()) {
                Ok(shard) => Route::Shard(shard),
                // Reads have no write-ordering to protect: scatter them.
                Err(_) => Route::Scatter,
            }),
            Request::MultiPut(pairs) => self
                .single_shard_of(pairs.iter().map(|(k, _)| k))
                .map(Route::Shard),
            _ => Ok(Route::Shard(
                request.routing_key().map(|k| self.shard_of(k)).unwrap_or(0),
            )),
        }
    }

    /// Splits keys into per-shard `(response positions, keys)` buckets.
    fn scatter_get(&self, keys: Vec<Key>) -> Vec<(Vec<usize>, Vec<Key>)> {
        let mut per: Vec<(Vec<usize>, Vec<Key>)> =
            vec![(Vec::new(), Vec::new()); self.inner.shards.len()];
        for (i, key) in keys.into_iter().enumerate() {
            let s = self.shard_of(&key);
            per[s].0.push(i);
            per[s].1.push(key);
        }
        per
    }

    /// Common shard of a multi-key request, or `InvalidArgument` when
    /// the keys span shards.
    fn single_shard_of<'a>(&self, keys: impl Iterator<Item = &'a Key>) -> Result<usize> {
        let mut shard = None;
        for key in keys {
            let s = self.shard_of(key);
            match shard {
                None => shard = Some(s),
                Some(previous) if previous != s => {
                    return Err(Error::InvalidArgument(
                        "multi-key write spans shards; use Frontend::multi_put".into(),
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(shard.unwrap_or(0))
    }

    fn submit_to(&self, shard: usize, request: Request) -> Ticket {
        let (t, c) = ticket();
        // Fail fast once shutdown started: producers must stop feeding
        // the queues or the shutdown drain could spin forever.
        if self.down.load(Ordering::SeqCst) {
            c.complete(Err(Error::Unavailable("front-end shut down".into())));
            return t;
        }
        let item = Item::One((request, Sink::Ticket(c), tb_obs::start()));
        // A closed queue hands the item back; dropping it resolves the
        // ticket `Unavailable`.
        if self.inner.shards[shard].push(item, 1).is_ok() {
            FrontendStats::bump(&self.inner.stats.submitted, 1);
        }
        t
    }

    /// Waits until every request queued *before* the call has been
    /// processed (a barrier per shard). Bounded even under sustained
    /// concurrent submission: it waits only on batches drained up to
    /// its own marker, never on later traffic.
    pub fn barrier(&self) {
        let tickets: Vec<Ticket> = (0..self.inner.shards.len())
            .map(|s| self.submit_to(s, Request::MultiGet(Vec::new())))
            .collect();
        let mut targets = Vec::with_capacity(tickets.len());
        for (s, t) in tickets.into_iter().enumerate() {
            let _ = t.wait();
            // The queue is FIFO, so everything enqueued before this
            // marker was drained in a batch numbered no later than the
            // count observed at marker resolution. A burst's sub-batch
            // claimed inline before the marker may still be running
            // beside the worker; wait for exactly those batches.
            targets.push((s, self.inner.shards[s].drains_started()));
        }
        for (s, target) in targets {
            while self.inner.shards[s].drains_finished() < target {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    // --- synchronous conveniences -----------------------------------

    /// Pipelined point lookup, awaited.
    pub fn get(&self, key: &Key) -> Result<Option<Value>> {
        match self.submit(Request::Get(key.clone())).wait()? {
            Response::Value(v) => Ok(v),
            other => Err(Error::Internal(format!("get resolved to {other:?}"))),
        }
    }

    /// Pipelined write, awaited (durable in group-commit mode).
    pub fn put(&self, key: Key, value: Value) -> Result<()> {
        self.submit(Request::Put(key, value)).wait().map(|_| ())
    }

    /// Pipelined delete, awaited.
    pub fn delete(&self, key: &Key) -> Result<()> {
        self.submit(Request::Delete(key.clone())).wait().map(|_| ())
    }

    /// Pipelined compare-and-set, awaited.
    pub fn cas(&self, key: Key, expected: Option<&Value>, new: Value) -> Result<()> {
        self.submit(Request::Cas {
            key,
            expected: expected.cloned(),
            new,
        })
        .wait()
        .map(|_| ())
    }

    /// Batched lookup, awaited: a one-op burst — the keys split by
    /// shard into one sub-batch each and gather in request order.
    pub fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        match self.burst(vec![EngineOp::MultiGet(keys.to_vec())]).pop() {
            Some(Ok(OpOutcome::Values(values))) => Ok(values),
            Some(Err(e)) => Err(e),
            other => Err(Error::Internal(format!("multi_get resolved to {other:?}"))),
        }
    }

    /// Batched write, awaited: a one-op burst — the pairs split by
    /// shard into one `MultiPut` per shard, made durable by one sync.
    ///
    /// # Cross-shard semantics: independent commit, not a transaction
    ///
    /// Each per-shard slice commits on its own; there is no cross-shard
    /// atomicity and no rollback. When one shard fails mid-batch the
    /// documented (and regression-tested) partial state is:
    ///
    /// * every pair routed to a *healthy* shard is applied (and durable
    ///   once the burst's sync succeeded — the call then still reports
    ///   the failing shard's error);
    /// * the pairs of the *failing* shard follow the engine's error
    ///   contract for that slice (indeterminate on error — see the
    ///   LSN/ack contract in `tb_common::engine`);
    /// * the call reports the first shard error. Callers needing
    ///   per-pair attribution submit per-shard batches themselves.
    ///
    /// The tb-server wire protocol inherits exactly these semantics for
    /// its `MULTIPUT` frame and never converts a partial failure into
    /// an all-or-nothing ack: each op in a pipelined burst gets its own
    /// positional outcome reply.
    pub fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<()> {
        match self.burst(vec![EngineOp::MultiPut(pairs)]).pop() {
            Some(Ok(_)) => Ok(()),
            Some(Err(e)) => Err(e),
            None => Err(Error::Internal("multi_put left unresolved".into())),
        }
    }

    /// Pipelined range scan, awaited. One op in its shard's drained
    /// batch; the result reflects the engine state when that batch ran
    /// — writes still queued on *other* shards are not yet visible
    /// (the cross-shard consistency caveat of a sharded front-end).
    pub fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        let request = Request::Scan {
            start: start.clone(),
            end: end.cloned(),
            limit,
        };
        match self.submit(request).wait()? {
            Response::Range(rows) => Ok(rows),
            other => Err(Error::Internal(format!("scan resolved to {other:?}"))),
        }
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
    /// queue lock, so an inline sub-batch never overtakes a request
    /// submitted before it. The submitter waits on one latch per run.
    ///
    /// Writes share **one durability point**: after every sub-batch has
    /// applied, one `engine.sync()` covers the whole burst, and only
    /// then is any write outcome returned. If it fails, every write
    /// that had applied fails with its error (reads keep their
    /// answers). With `group_commit` off, whoever executes a write
    /// syncs it on the spot, as for tickets.
    fn burst(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        if self.down.load(Ordering::SeqCst) {
            let down = || Err(Error::Unavailable("front-end shut down".into()));
            return ops.iter().map(|_| down()).collect();
        }
        let mut outcomes: Vec<Option<Result<OpOutcome>>> = ops.iter().map(|_| None).collect();
        // Whether any write request applied — even one slice of a
        // spanning `MultiPut` whose other slice failed: it is in the
        // engine, so the burst owes it the durability point.
        let mut dirty = false;
        let mut run = RunPlan::new(self.inner.shards.len());
        for (op, request) in ops.into_iter().enumerate() {
            match request {
                EngineOp::Scan { start, end, limit } => {
                    dirty |= self.complete_run(&mut run, &mut outcomes);
                    let shard = self.shard_of(&start);
                    run.add(shard, Request::Scan { start, end, limit }, op, None);
                    self.complete_run(&mut run, &mut outcomes);
                }
                EngineOp::MultiGet(keys) => match self.single_shard_of(keys.iter()) {
                    Ok(shard) => run.add(shard, Request::MultiGet(keys), op, None),
                    Err(_) => {
                        let len = keys.len();
                        for (shard, (positions, keys)) in
                            self.scatter_get(keys).into_iter().enumerate()
                        {
                            if !keys.is_empty() {
                                let slice = Some((positions, len));
                                run.add(shard, Request::MultiGet(keys), op, slice);
                            }
                        }
                    }
                },
                // An empty write resolves on the spot, covering nothing.
                EngineOp::MultiPut(pairs) if pairs.is_empty() => {
                    outcomes[op] = Some(Ok(OpOutcome::Done(Lsn::NONE)));
                }
                // Each shard's slice is a part; the op acks the max
                // LSN across them.
                EngineOp::MultiPut(pairs) => {
                    let mut per: Vec<Vec<(Key, Value)>> = vec![Vec::new(); self.inner.shards.len()];
                    for (key, value) in pairs {
                        per[self.shard_of(&key)].push((key, value));
                    }
                    for (shard, pairs) in per.into_iter().enumerate() {
                        if !pairs.is_empty() {
                            run.add(shard, Request::MultiPut(pairs), op, None);
                        }
                    }
                }
                EngineOp::Get(key) => run.add(self.shard_of(&key), Request::Get(key), op, None),
                EngineOp::Put(key, value) => {
                    run.add(self.shard_of(&key), Request::Put(key, value), op, None);
                }
                EngineOp::Delete(key) => {
                    run.add(self.shard_of(&key), Request::Delete(key), op, None);
                }
                EngineOp::Cas { key, expected, new } => {
                    let shard = self.shard_of(&key);
                    run.add(shard, Request::Cas { key, expected, new }, op, None);
                }
            }
        }
        dirty |= self.complete_run(&mut run, &mut outcomes);

        if self.inner.config.group_commit && dirty {
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
    /// response into its op's outcome. Leaves `run` empty; returns
    /// whether a write request of the run applied.
    fn complete_run(&self, run: &mut RunPlan, outcomes: &mut [Option<Result<OpOutcome>>]) -> bool {
        if run.parts.is_empty() {
            return false;
        }
        let parts = std::mem::take(&mut run.parts);
        let latch = Run::new(parts.len());
        let stamp = tb_obs::start();
        let mut inline = None;
        for (queue, requests) in self.inner.shards.iter().zip(&mut run.per_shard) {
            if requests.is_empty() {
                continue;
            }
            let ops = requests.len();
            let batch: Vec<Queued> = requests
                .drain(..)
                .map(|(request, part)| (request, Sink::Part(latch.clone(), part), stamp))
                .collect();
            let done = latch.sub_batch();
            let accepted = if inline.is_none() && queue.claim_idle() {
                inline = Some((queue, batch, done));
                true
            } else {
                // Refused only when a concurrent shutdown closed the
                // queue: the dropped item opens the latch and its parts
                // read `Unavailable`.
                queue.push(Item::SubBatch(batch, done), ops).is_ok()
            };
            if accepted {
                FrontendStats::bump(&self.inner.stats.submitted, ops as u64);
            }
        }
        if let Some((queue, batch, done)) = inline {
            run_batch(&self.inner, queue, batch);
            drop(done);
        }
        let mut dirty = false;
        for (part, result) in parts.into_iter().zip(latch.wait()) {
            let result = result
                .unwrap_or_else(|| Err(Error::Unavailable("request dropped by front-end".into())));
            dirty |= matches!(result, Ok(Response::Done(_)));
            let outcome = &mut outcomes[part.op];
            *outcome = Some(part.merge(outcome.take(), result));
        }
        dirty
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
        // One batch from everything drained; a sub-batch's latch guard
        // is held until the batch has run (or unwound).
        let mut batch = Vec::with_capacity(drained.len());
        let mut sub_batches = Vec::new();
        for item in drained {
            match item {
                Item::One(queued) => batch.push(queued),
                Item::SubBatch(requests, done) => {
                    batch.extend(requests);
                    sub_batches.push(done);
                }
            }
        }
        run_batch(&inner, queue, batch);
        drop(sub_batches);
    }
}

/// Runs one batch the caller took from `queue` — drained by its worker,
/// or claimed idle by a burst's submitting thread — and reports it done.
fn run_batch(inner: &Inner, queue: &SubmitQueue<Item>, batch: Vec<Queued>) {
    // Queue wait: submit stamp → drain. The stamp stays with the
    // request so completion can record the full end-to-end latency.
    if tb_obs::enabled() {
        let waits = tb_obs::histo!("frontend_queue_wait_ns");
        for (_, _, stamp) in &batch {
            waits.record_since(*stamp);
        }
    }
    // Contain engine panics: the batch's unresolved sinks are dropped
    // by the unwind (tickets resolve Unavailable, burst parts read as
    // dropped — no caller hangs) and the thread lives on: a poisoned
    // engine call must not wedge the shard, nor kill a submitter.
    let batch_len = batch.len() as u64;
    let settled = AtomicU64::new(0);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        process_batch(inner, batch, &settled);
    }));
    queue.drain_done();
    if outcome.is_err() {
        // The unwind resolved the rest of the batch by dropping its
        // sinks; count them so `submitted == completed` holds once
        // every request has resolved. Reconciled before the panic
        // counter so observers that saw the panic also see consistent
        // accounting.
        let abandoned = batch_len.saturating_sub(settled.load(Ordering::SeqCst));
        FrontendStats::bump(&inner.stats.completed, abandoned);
        FrontendStats::bump(&inner.stats.worker_panics, 1);
    }
}

/// A sink still awaiting its result, paired with the request's
/// telemetry submit stamp (for the end-to-end latency histogram).
type Pending = (Sink, Option<Instant>);

/// Resolves one request: the completed-counter bump happens *before*
/// the waiter wakes, so a caller that has awaited all of its requests
/// observes `submitted == completed`. `settled` is the per-batch count
/// `run_batch` uses to reconcile a panic-abandoned batch.
fn finish(stats: &FrontendStats, settled: &AtomicU64, pending: Pending, result: Result<Response>) {
    let (sink, stamp) = pending;
    settled.fetch_add(1, Ordering::SeqCst);
    FrontendStats::bump(&stats.completed, 1);
    tb_obs::histo!("frontend_e2e_ns").record_since(stamp);
    sink.resolve(result);
}

/// How the completion of one lowered [`EngineOp`] settles back into
/// request tickets.
enum OpAcks {
    /// A write op (one request, or a coalesced put-like run): every
    /// writer acks together — tickets deferred to the group sync on
    /// success, burst parts at once (their burst syncs for them).
    Write(Vec<Pending>),
    /// A `Get` awaiting [`OpOutcome::Value`].
    Get(Pending),
    /// A `MultiGet` awaiting [`OpOutcome::Values`].
    MultiGet(Pending),
    /// A `Scan` awaiting [`OpOutcome::Range`].
    Scan(Pending),
}

fn process_batch(inner: &Inner, batch: Vec<Queued>, settled: &AtomicU64) {
    FrontendStats::bump(&inner.stats.batches, 1);
    if !inner.config.group_commit {
        // The per-op-durability baseline: every request is its own
        // engine call and every write its own sync, on purpose.
        return process_batch_per_op(inner, batch, settled);
    }
    let stats = &inner.stats;

    // --- lower the drained batch into one engine submission ----------
    // Adjacent put-likes coalesce into a single MultiPut op (one WAL/
    // memtable pass, acked together at the group sync); everything else
    // maps 1:1. `acks[i]` settles `ops[i]`.
    let mut ops: Vec<EngineOp> = Vec::with_capacity(batch.len());
    let mut acks: Vec<OpAcks> = Vec::with_capacity(batch.len());
    let mut iter = batch.into_iter().peekable();
    while let Some((req, c, stamp)) = iter.next() {
        let done = (c, stamp);
        match req {
            req @ (Request::Put(..) | Request::MultiPut(..)) => {
                let mut pairs: Vec<(Key, Value)> = Vec::new();
                let mut writers: Vec<Pending> = vec![done];
                let absorb = |req: Request, pairs: &mut Vec<(Key, Value)>| match req {
                    Request::Put(k, v) => pairs.push((k, v)),
                    Request::MultiPut(ps) => pairs.extend(ps),
                    _ => unreachable!("absorb only sees put-like requests"),
                };
                absorb(req, &mut pairs);
                while iter.peek().is_some_and(|(r, _, _)| r.is_put_like()) {
                    let (r, c, stamp) = iter.next().expect("peeked");
                    absorb(r, &mut pairs);
                    writers.push((c, stamp));
                }
                if writers.len() > 1 {
                    FrontendStats::bump(&stats.coalesced_puts, writers.len() as u64);
                }
                ops.push(EngineOp::MultiPut(pairs));
                acks.push(OpAcks::Write(writers));
            }
            Request::Delete(key) => {
                ops.push(EngineOp::Delete(key));
                acks.push(OpAcks::Write(vec![done]));
            }
            Request::Cas { key, expected, new } => {
                ops.push(EngineOp::Cas { key, expected, new });
                acks.push(OpAcks::Write(vec![done]));
            }
            Request::Get(key) => {
                ops.push(EngineOp::Get(key));
                acks.push(OpAcks::Get(done));
            }
            Request::MultiGet(keys) => {
                ops.push(EngineOp::MultiGet(keys));
                acks.push(OpAcks::MultiGet(done));
            }
            Request::Scan { start, end, limit } => {
                ops.push(EngineOp::Scan { start, end, limit });
                acks.push(OpAcks::Scan(done));
            }
        }
    }

    // --- one storage pass for the whole batch -------------------------
    // An engine with a native submission/completion path (tb-lsm)
    // resolves every read here with its block IO deduped across the
    // batch; the default trait implementation degrades to the old
    // per-op loop.
    let outcomes = inner.engine.apply_batch(ops);

    // --- completion: settle each op's tickets in submission order -----
    let mut unsynced: Vec<(Pending, Lsn)> = Vec::new();
    for (ack, outcome) in acks.into_iter().zip(outcomes) {
        match ack {
            OpAcks::Write(writers) => match outcome {
                // Ticket acks defer to the batch's single sync below;
                // a burst's parts report *applied* and leave the sync
                // to their burst. Each carries the LSN the engine
                // assigned to its op (coalesced writers share the
                // covering MultiPut LSN).
                Ok(o) => {
                    let lsn = match o {
                        OpOutcome::Done(l) => l,
                        _ => Lsn::NONE,
                    };
                    for writer in writers {
                        match writer.0 {
                            Sink::Ticket(_) => unsynced.push((writer, lsn)),
                            Sink::Part(..) => {
                                finish(stats, settled, writer, Ok(Response::Done(lsn)))
                            }
                        }
                    }
                }
                Err(e) => {
                    for w in writers {
                        finish(stats, settled, w, Err(e.clone()));
                    }
                }
            },
            OpAcks::Get(done) => {
                let result = outcome.and_then(|o| match o {
                    OpOutcome::Value(v) => Ok(Response::Value(v)),
                    other => Err(Error::Internal(format!("get completed as {other:?}"))),
                });
                finish(stats, settled, done, result);
            }
            OpAcks::MultiGet(done) => {
                let result = outcome.and_then(|o| match o {
                    OpOutcome::Values(v) => Ok(Response::Values(v)),
                    other => Err(Error::Internal(format!("multi_get completed as {other:?}"))),
                });
                finish(stats, settled, done, result);
            }
            OpAcks::Scan(done) => {
                let result = outcome.and_then(|o| match o {
                    OpOutcome::Range(rows) => Ok(Response::Range(rows)),
                    other => Err(Error::Internal(format!("scan completed as {other:?}"))),
                });
                finish(stats, settled, done, result);
            }
        }
    }

    if !unsynced.is_empty() {
        // The group commit: one durability point for the whole batch.
        let t0 = tb_obs::start();
        let sync_result = inner.engine.sync();
        tb_obs::histo!("frontend_group_sync_ns").record_since(t0);
        FrontendStats::bump(&stats.group_syncs, 1);
        for (ack, lsn) in unsynced {
            finish(
                stats,
                settled,
                ack,
                sync_result.clone().map(|_| Response::Done(lsn)),
            );
        }
    }
}

/// The group-commit-disabled baseline: each request is applied and (for
/// writes) synced individually.
fn process_batch_per_op(inner: &Inner, batch: Vec<Queued>, settled: &AtomicU64) {
    let engine = inner.engine.as_ref();
    let stats = &inner.stats;
    let settle_write = |result: Result<()>, done: Pending| match result {
        Err(e) => finish(stats, settled, done, Err(e)),
        Ok(()) => {
            // The engine's applied LSN after a successful write covers
            // it (the per-op path applies writes one at a time).
            let lsn = engine.applied_lsn();
            let synced = engine.sync();
            FrontendStats::bump(&stats.per_op_syncs, 1);
            finish(stats, settled, done, synced.map(|_| Response::Done(lsn)));
        }
    };
    for (req, c, stamp) in batch {
        let done = (c, stamp);
        match req {
            Request::Put(key, value) => settle_write(engine.put(key, value), done),
            Request::MultiPut(pairs) => settle_write(engine.multi_put(pairs), done),
            Request::Delete(key) => settle_write(engine.delete(&key), done),
            Request::Cas { key, expected, new } => {
                settle_write(engine.cas(key, expected.as_ref(), new), done)
            }
            Request::Get(key) => {
                finish(stats, settled, done, engine.get(&key).map(Response::Value));
            }
            Request::MultiGet(keys) => {
                finish(
                    stats,
                    settled,
                    done,
                    engine.multi_get(&keys).map(Response::Values),
                );
            }
            Request::Scan { start, end, limit } => {
                finish(
                    stats,
                    settled,
                    done,
                    engine
                        .scan(&start, end.as_ref(), limit)
                        .map(Response::Range),
                );
            }
        }
    }
}

/// The front-end is itself a [`KvEngine`]: synchronous callers (the
/// replay harness, cluster nodes) drive the pipelined path through the
/// plain engine interface.
impl KvEngine for Frontend {
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        Frontend::get(self, key)
    }

    fn put(&self, key: Key, value: Value) -> Result<()> {
        Frontend::put(self, key, value)
    }

    fn delete(&self, key: &Key) -> Result<()> {
        Frontend::delete(self, key)
    }

    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        Frontend::multi_get(self, keys)
    }

    fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<()> {
        Frontend::multi_put(self, pairs)
    }

    fn cas(&self, key: Key, expected: Option<&Value>, new: Value) -> Result<()> {
        Frontend::cas(self, key, expected, new)
    }

    fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        Frontend::scan(self, start, end, limit)
    }

    /// Batch submission with the trait's submission-order semantics:
    /// one sub-batch per shard between scan barriers, one `sync()` for
    /// the burst — see [`Frontend::multi_put`] for what a multi-key
    /// write spanning shards guarantees.
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

    fn sync(&self) -> Result<()> {
        // Everything already queued lands (and, per batch, group-
        // commits) before the barrier returns; then flush the engine.
        self.barrier();
        self.inner.engine.sync()
    }
}
