//! The tiered store's one data path. Point ops, batch ops and
//! `apply_batch` submissions are all passes of [`Inner::apply_batch`],
//! run under one gate permit. A pass first builds the envelopes of all
//! its put values, in one run, then walks its ops in order:
//! * a cache hit is answered at once; a miss is staged as a storage
//!   fetch (§4.1.2's deferred cache-fetching);
//! * an `InMemory` or `WriteBack` put applies to the cache at once;
//! * a `WriteThrough` put is staged as a storage write, and a later get
//!   of its key is staged behind it, so storage's submission order
//!   answers that get and a refused write is never read back;
//! * `Delete`, `Cas`, `Scan` and write-back flushes are barriers: what
//!   is staged goes down first.
//!
//! What is staged goes down in **one** `storage.apply_batch`, in op
//! order, with no same-key merging: it is §4.1.1's write queue and
//! temporary update buffer. A fetched value fills the cache only if the
//! key is still absent; a written one goes in clean once storage has it;
//! a failed write invalidates its key and answers `StorageWriteFailed`.

use crate::config::SyncPolicy;
use crate::store::{Envelopes, Inner};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use tb_cache::Lookup;
use tb_common::hash::FxBuildHasher;
use tb_common::{is_expired, EngineOp, Error, Key, Lsn, OpOutcome, Result, Value};

const DONE: Result<OpOutcome> = Ok(OpOutcome::Done(Lsn::NONE));

/// One pass over an op batch.
struct Pass<'a> {
    inner: &'a Inner,
    out: Vec<Result<OpOutcome>>,
    /// Storage `Get`s and `Put`s for the next round trip, and for each
    /// the slot it completes: `(op, key index in the op, put expiry)`.
    staged: Vec<EngineOp>,
    slots: Vec<(usize, usize, Option<u64>)>,
    /// Keys with a staged write; a get of one is staged behind it.
    written: HashSet<Key, FxBuildHasher>,
}

/// The values `ops` put, in op order.
fn put_values(ops: &[EngineOp]) -> impl Iterator<Item = &Value> {
    ops.iter().flat_map(|op| {
        let (one, many) = match op {
            EngineOp::Put(_, value) => (Some(value), &[][..]),
            EngineOp::MultiPut(pairs) => (None, &pairs[..]),
            _ => (None, &[][..]),
        };
        one.into_iter().chain(many.iter().map(|(_, value)| value))
    })
}

impl Inner {
    /// Applies `ops` in submission order; `results[i]` answers `ops[i]`.
    pub(crate) fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        Inner::with_envelopes(|envelopes| {
            let (values, bytes) = put_values(&ops).fold((0, 0), |(n, b), v| (n + 1, b + v.len()));
            // A compressed frame may be its value and one byte.
            envelopes.reserve(values, bytes + values);
            for value in put_values(&ops) {
                self.encode(envelopes, value, None);
            }
            self.apply_encoded(ops, envelopes)
        })
    }

    /// [`Self::apply_batch`], the envelopes of its put values built.
    fn apply_encoded(&self, ops: Vec<EngineOp>, envelopes: &Envelopes) -> Vec<Result<OpOutcome>> {
        let mut pass = Pass::new(self, Vec::with_capacity(ops.len()));
        let mut envelopes = (0..).map(|k| envelopes.get(k));
        let mut next = || envelopes.next().expect("one envelope per put");
        for (op, entry) in ops.into_iter().enumerate() {
            match entry {
                EngineOp::Get(key) => {
                    pass.out.push(Ok(OpOutcome::Value(None)));
                    pass.get(op, 0, key);
                }
                EngineOp::MultiGet(keys) => {
                    pass.out.push(Ok(OpOutcome::Values(vec![None; keys.len()])));
                    for (at, key) in keys.into_iter().enumerate() {
                        pass.get(op, at, key);
                    }
                }
                EngineOp::Put(key, _) => {
                    pass.out.push(DONE);
                    pass.put(op, key, next(), None);
                }
                EngineOp::MultiPut(pairs) => {
                    pass.out.push(DONE);
                    for (key, _) in pairs {
                        pass.put(op, key, next(), None);
                    }
                }
                EngineOp::Delete(key) => {
                    pass.submit();
                    pass.out.push(self.do_delete(&key).and(DONE));
                }
                EngineOp::Cas { key, expected, new } => {
                    pass.submit();
                    pass.out
                        .push(self.do_cas(key, expected, Some(new)).and(DONE));
                }
                EngineOp::CasDelete { key, expected } => {
                    pass.submit();
                    pass.out.push(self.do_cas(key, expected, None).and(DONE));
                }
                EngineOp::Scan { start, end, limit } => {
                    pass.submit();
                    let rows = self.do_scan_range(&start, end.as_ref(), limit);
                    pass.out.push(rows.map(OpOutcome::Range));
                }
            }
        }
        pass.submit();
        pass.out
    }

    /// A point get, as a batch of one.
    pub(crate) fn get(&self, key: Key) -> Result<Option<Value>> {
        match self.apply_batch(vec![EngineOp::Get(key)]).pop() {
            Some(Ok(OpOutcome::Value(value))) => Ok(value),
            Some(Err(e)) => Err(e),
            other => unreachable!("a get resolved to {other:?}"),
        }
    }

    /// A put with an expiry deadline (`None` = never expires), as a
    /// batch of one.
    pub(crate) fn put(&self, key: Key, value: Value, expires_at: Option<u64>) -> Result<()> {
        Inner::with_envelopes(|envelopes| {
            self.encode(envelopes, &value, expires_at);
            let mut pass = Pass::new(self, vec![DONE]);
            pass.put(0, key, envelopes.get(0), expires_at);
            pass.submit();
            pass.out.pop().expect("one slot").map(|_| ())
        })
    }
}

impl<'a> Pass<'a> {
    fn new(inner: &'a Inner, out: Vec<Result<OpOutcome>>) -> Self {
        Self {
            inner,
            out,
            staged: Vec::new(),
            slots: Vec::new(),
            written: HashSet::default(),
        }
    }

    /// Fails op `op` with its first error.
    fn fail(&mut self, op: usize, e: Error) {
        if self.out[op].is_ok() {
            self.out[op] = Err(e);
        }
    }

    /// Answers key `at` of get-like op `op`.
    fn answer(&mut self, op: usize, at: usize, value: Result<Option<Value>>) {
        match (value, &mut self.out[op]) {
            (Ok(v), Ok(OpOutcome::Value(slot))) => *slot = v,
            (Ok(v), Ok(OpOutcome::Values(slots))) => slots[at] = v,
            (Ok(_), _) => {}
            (Err(e), _) => self.fail(op, e),
        }
    }

    fn stage(&mut self, op: EngineOp, slot: (usize, usize, Option<u64>)) {
        self.staged.push(op);
        self.slots.push(slot);
    }

    fn get(&mut self, op: usize, at: usize, key: Key) {
        let inner = self.inner;
        inner.stats.gets.fetch_add(1, Ordering::Relaxed);
        inner.intervals.record(&key);
        // Behind a staged write of its key, a get skips the cache: storage
        // answers it after the write.
        let lookup = (!self.written.contains(&key)).then(|| inner.cache.lookup(&key));
        let counter = match &lookup {
            Some(Lookup::Live(_)) => &inner.stats.cache_hits,
            _ => &inner.stats.cache_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        match lookup {
            Some(Lookup::Live(stored)) => {
                self.answer(op, at, inner.decode_value(&stored).map(Some))
            }
            // The freshest version has expired; the storage copy is stale
            // by definition, so both go and the key reads as gone.
            Some(Lookup::Expired) => {
                self.answer(op, at, inner.reclaim_expired(&key).map(|()| None))
            }
            _ if inner.storage.is_some() => {
                inner.stats.storage_fetches.fetch_add(1, Ordering::Relaxed);
                self.stage(EngineOp::Get(key), (op, at, None));
            }
            _ => {}
        }
    }

    /// One put of op `op`, its envelope `stored`. A `MultiPut` stops at
    /// its first failed pair.
    fn put(&mut self, op: usize, key: Key, stored: &[u8], expires_at: Option<u64>) {
        if self.out[op].is_err() {
            return;
        }
        let inner = self.inner;
        inner.stats.puts.fetch_add(1, Ordering::Relaxed);
        inner.intervals.record(&key);
        // A value the cache cannot hold is refused before it is logged
        // or staged.
        let applied = inner
            .cache
            .admit(&key, stored)
            .and_then(|()| match inner.config.policy {
                SyncPolicy::WriteThrough => {
                    self.written.insert(key.clone());
                    let put = EngineOp::Put(key, Value::copy_from(stored));
                    self.stage(put, (op, 0, expires_at));
                    Ok(())
                }
                SyncPolicy::InMemory => inner
                    .log_persistence(&key, Some(stored))
                    .and_then(|()| inner.cache.insert_full(key, stored, false, expires_at))
                    .map(drop),
                SyncPolicy::WriteBack => self.put_dirty(key, stored, expires_at),
            });
        if let Err(e) = applied {
            self.fail(op, e);
        }
    }

    /// A write-back put: the cache takes it dirty at once. A flush writes
    /// storage, so the staged fetches go down before it: a fetch must not
    /// read a write submitted after its get.
    fn put_dirty(&mut self, key: Key, stored: &[u8], expires_at: Option<u64>) -> Result<()> {
        let inner = self.inner;
        let cache = &inner.cache;
        match cache.insert_full(key.clone(), stored, true, expires_at) {
            Err(Error::Backpressure { .. }) => {
                // Reclaim by flushing dirty data, then retry once.
                self.submit();
                inner.flush_dirty()?;
                cache.insert_full(key, stored, true, expires_at)?;
            }
            other => drop(other?),
        }
        let ops = inner.ops_since_flush.fetch_add(1, Ordering::Relaxed) + 1;
        let wb = &inner.config.write_back;
        if ops >= wb.flush_every_ops || cache.dirty_bytes() > wb.max_dirty_bytes {
            self.submit();
            inner.flush_dirty()?;
        }
        Ok(())
    }

    /// Sends what is staged down in one `storage.apply_batch` and
    /// completes it in op order.
    fn submit(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let inner = self.inner;
        let staged = std::mem::take(&mut self.staged);
        let slots = std::mem::take(&mut self.slots);
        self.written.clear();
        let storage = inner.storage.as_ref().expect("only a tiered store stages");
        let mut done = storage.apply_batch(staged.clone()).into_iter();
        for (i, (access, (op, at, expires_at))) in staged.iter().zip(slots).enumerate() {
            let short = || Err(Error::Internal("storage answered fewer ops".into()));
            match (access, done.next().unwrap_or_else(short)) {
                (EngineOp::Get(key), Ok(OpOutcome::Value(stored))) => {
                    let value = self.fetched(key, stored, &staged[i + 1..]);
                    self.answer(op, at, value);
                }
                (EngineOp::Put(key, stored), Ok(_)) => {
                    let cached =
                        inner
                            .cache
                            .insert_full(key.clone(), stored.clone(), false, expires_at);
                    if let Err(e) = cached {
                        inner.cache.remove(key);
                        self.fail(op, e);
                    }
                }
                (EngineOp::Put(key, _), Err(e)) => {
                    // Invalidate so reads refetch the authoritative value
                    // from storage (§4.1.1).
                    inner.cache.remove(key);
                    if self.out[op].is_ok() {
                        // One per failed op, as when each op was one call.
                        let failures = &inner.stats.write_through_failures;
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                    self.fail(op, Error::StorageWriteFailed(e.to_string()));
                }
                (_, Err(e)) => self.fail(op, e),
                (_, other) => self.fail(op, Error::Internal(format!("storage answered {other:?}"))),
            }
        }
    }

    /// Completes a fetch: decodes the envelope and fills the cache with
    /// it, unless a write got to the key first. `later` is what the pass
    /// staged after the fetch.
    fn fetched(
        &self,
        key: &Key,
        found: Option<Value>,
        later: &[EngineOp],
    ) -> Result<Option<Value>> {
        let inner = self.inner;
        let Some(stored) = found else {
            return Ok(None);
        };
        let (value, expires_at) = inner.decode_envelope(&stored)?;
        if is_expired(expires_at, inner.config.clock.now_nanos()) {
            // A write since the fetch replaces the storage copy, and
            // reclaiming would delete it: one staged later in this pass
            // (write-through), or one the cache took meanwhile, as
            // `fill` below assumes (write-back, other threads).
            let rewritten = |op: &EngineOp| matches!(op, EngineOp::Put(k, _) if k == key);
            let cached = || inner.cache.contains(key);
            if !later.iter().any(rewritten) && !cached() {
                inner.reclaim_expired(key)?;
            }
            return Ok(None);
        }
        let _ = inner.cache.fill(key.clone(), stored, expires_at);
        Ok(Some(value))
    }
}
