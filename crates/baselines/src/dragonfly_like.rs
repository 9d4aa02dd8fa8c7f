//! Dragonfly-like baseline: shared-nothing per-core shards.
//!
//! Signature properties: each shard is owned by exactly one worker
//! thread (no locks on the data path) and requests reach their shard by
//! message passing. Parallel throughput scales with shard count, but
//! every operation pays a cross-thread hop — which is why Dragonfly's
//! single-instance *performance cost* in Figure 10 sits above the
//! single-threaded stores while its parallel throughput in Figure 7(c)
//! is high.

use crossbeam::channel::{bounded, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use tb_common::hash::FxBuildHasher;
use tb_common::{fx_hash, EngineOp, Error, Key, KvEngine, Lsn, OpOutcome, Result, Value};

enum Request {
    Get(Key, Sender<Option<Value>>),
    Put(Key, Value, Sender<Option<Value>>),
    Delete(Key, Sender<Option<Value>>),
    /// Compare-and-set (`None` deletes); atomic because the shard owner
    /// serializes it with every other operation on its keys.
    Cas(Key, Option<Value>, Option<Value>, Sender<Result<()>>),
    /// Range scan of one shard's keys (`start <= key < end`); the
    /// hash-sharded client fans the request out to every shard and
    /// merge-sorts the replies.
    Scan(Key, Option<Key>, usize, Sender<Vec<(Key, Value)>>),
    Stop,
}

thread_local! {
    /// Per-client reusable reply channel: the hot path allocates no
    /// channels (one pair per client thread, like a real connection's
    /// response slot).
    static REPLY: (Sender<Option<Value>>, crossbeam::channel::Receiver<Option<Value>>) =
        bounded(1);
}

/// Per-entry overhead: compact dash-table entry (~40 bytes).
const ENTRY_OVERHEAD: u64 = 40;

/// Inserts into a shard's map, keeping the shared byte count.
fn insert(map: &mut HashMap<Key, Value, FxBuildHasher>, bytes: &AtomicU64, key: Key, value: Value) {
    let klen = key.len() as u64;
    let vlen = value.len() as u64;
    match map.insert(key, value) {
        // Replacement: only the value delta moves.
        Some(old) => {
            bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
            bytes.fetch_add(vlen, Ordering::Relaxed);
        }
        None => {
            bytes.fetch_add(klen + vlen + ENTRY_OVERHEAD, Ordering::Relaxed);
        }
    }
}

/// Removes from a shard's map, keeping the shared byte count.
fn remove(map: &mut HashMap<Key, Value, FxBuildHasher>, bytes: &AtomicU64, key: &Key) {
    if let Some(old) = map.remove(key) {
        bytes.fetch_sub(
            key.len() as u64 + old.len() as u64 + ENTRY_OVERHEAD,
            Ordering::Relaxed,
        );
    }
}

/// Shared-nothing multi-threaded store.
pub struct DragonflyLike {
    senders: Vec<Sender<Request>>,
    workers: Vec<JoinHandle<()>>,
    bytes: Arc<AtomicU64>,
}

impl DragonflyLike {
    /// Spawns one owner thread per shard.
    pub fn new(shards: usize) -> Self {
        let bytes = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..shards.max(1) {
            let (tx, rx) = bounded::<Request>(4096);
            let bytes = bytes.clone();
            workers.push(std::thread::spawn(move || {
                let mut map: HashMap<Key, Value, FxBuildHasher> = HashMap::default();
                while let Ok(req) = rx.recv() {
                    match req {
                        Request::Get(key, reply) => {
                            let _ = reply.send(map.get(&key).cloned());
                        }
                        Request::Put(key, value, reply) => {
                            insert(&mut map, &bytes, key, value);
                            let _ = reply.send(None);
                        }
                        Request::Delete(key, reply) => {
                            remove(&mut map, &bytes, &key);
                            let _ = reply.send(None);
                        }
                        Request::Cas(key, expected, new, reply) => {
                            let result = if map.get(&key) != expected.as_ref() {
                                Err(Error::CasMismatch)
                            } else {
                                match new {
                                    Some(value) => insert(&mut map, &bytes, key, value),
                                    None => remove(&mut map, &bytes, &key),
                                }
                                Ok(())
                            };
                            let _ = reply.send(result);
                        }
                        Request::Scan(start, end, limit, reply) => {
                            // Dash-table shard: unordered walk, local
                            // sort, local limit (the global limit is
                            // re-applied after the client's merge).
                            let mut rows: Vec<(Key, Value)> = map
                                .iter()
                                .filter(|(k, _)| {
                                    **k >= start && end.as_ref().is_none_or(|e| *k < e)
                                })
                                .map(|(k, v)| (k.clone(), v.clone()))
                                .collect();
                            rows.sort_by(|a, b| a.0.cmp(&b.0));
                            rows.truncate(limit);
                            let _ = reply.send(rows);
                        }
                        Request::Stop => break,
                    }
                }
            }));
            senders.push(tx);
        }
        Self {
            senders,
            workers,
            bytes,
        }
    }

    fn shard(&self, key: &Key) -> &Sender<Request> {
        &self.senders[(fx_hash(key.as_slice()) as usize) % self.senders.len()]
    }
}

impl DragonflyLike {
    fn roundtrip(
        &self,
        shard: &Sender<Request>,
        make: impl FnOnce(Sender<Option<Value>>) -> Request,
    ) -> Result<Option<Value>> {
        REPLY.with(|(tx, rx)| {
            shard.send(make(tx.clone())).map_err(|_| gone())?;
            // Spin briefly before parking: shard owners answer in
            // sub-microsecond time, so parking the client thread would
            // dominate the round-trip (fibers spin in the real system).
            for _ in 0..2000 {
                match rx.try_recv() {
                    Ok(v) => return Ok(v),
                    Err(_) => std::hint::spin_loop(),
                }
            }
            rx.recv().map_err(|_| gone())
        })
    }

    fn fetch(&self, key: &Key) -> Result<Option<Value>> {
        self.roundtrip(self.shard(key), |tx| Request::Get(key.clone(), tx))
    }

    fn store(&self, key: Key, value: Value) -> Result<()> {
        self.roundtrip(self.shard(&key), |tx| Request::Put(key, value, tx))
            .map(drop)
    }

    /// CAS is rare enough that a fresh reply channel (instead of the
    /// thread-local value slot) is fine.
    fn cas(&self, key: Key, expected: Option<Value>, new: Option<Value>) -> Result<()> {
        let (tx, rx) = bounded::<Result<()>>(1);
        self.shard(&key)
            .send(Request::Cas(key, expected, new, tx))
            .map_err(|_| gone())?;
        rx.recv().map_err(|_| gone())?
    }

    fn apply(&self, op: EngineOp) -> Result<OpOutcome> {
        let done = Ok(OpOutcome::Done(Lsn::NONE));
        match op {
            EngineOp::Get(key) => self.fetch(&key).map(OpOutcome::Value),
            EngineOp::MultiGet(keys) => keys
                .iter()
                .map(|k| self.fetch(k))
                .collect::<Result<_>>()
                .map(OpOutcome::Values),
            EngineOp::Put(key, value) => self.store(key, value).and(done),
            EngineOp::MultiPut(pairs) => {
                for (key, value) in pairs {
                    self.store(key, value)?;
                }
                done
            }
            EngineOp::Delete(key) => self
                .roundtrip(self.shard(&key), |tx| Request::Delete(key.clone(), tx))
                .and(done),
            EngineOp::Cas { key, expected, new } => self.cas(key, expected, Some(new)).and(done),
            EngineOp::CasDelete { key, expected } => self.cas(key, expected, None).and(done),
            // Hash sharding scatters every key range across all shards:
            // fan the scan out to each owner thread, then merge the
            // sorted replies and re-apply the limit. Fresh reply
            // channels — scans are rare and the thread-local slot is
            // sized for point ops.
            EngineOp::Scan { start, end, limit } => {
                let mut pending = Vec::with_capacity(self.senders.len());
                for sender in &self.senders {
                    let (tx, rx) = bounded::<Vec<(Key, Value)>>(1);
                    sender
                        .send(Request::Scan(start.clone(), end.clone(), limit, tx))
                        .map_err(|_| gone())?;
                    pending.push(rx);
                }
                let mut rows = Vec::new();
                for rx in pending {
                    rows.extend(rx.recv().map_err(|_| gone())?);
                }
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                rows.truncate(limit);
                Ok(OpOutcome::Range(rows))
            }
        }
    }
}

fn gone() -> Error {
    Error::Unavailable("shard worker gone".into())
}

impl KvEngine for DragonflyLike {
    /// Every op is its own message to the owning shard (a multi-key op
    /// one per key; a scan fans out to all of them).
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        ops.into_iter().map(|op| self.apply(op)).collect()
    }

    fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn label(&self) -> String {
        "dragonfly-like".into()
    }
}

impl Drop for DragonflyLike {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Request::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_across_shards() {
        let d = DragonflyLike::new(4);
        for i in 0..200 {
            d.put(Key::from(format!("k{i}")), Value::from(format!("v{i}")))
                .unwrap();
        }
        for i in 0..200 {
            assert_eq!(
                d.get(&Key::from(format!("k{i}"))).unwrap(),
                Some(Value::from(format!("v{i}")))
            );
        }
        d.delete(&Key::from("k0")).unwrap();
        assert_eq!(d.get(&Key::from("k0")).unwrap(), None);
    }

    #[test]
    fn byte_accounting() {
        let d = DragonflyLike::new(2);
        d.put(Key::from("k"), Value::from("value")).unwrap();
        assert_eq!(d.resident_bytes(), 1 + 5 + 40);
        d.put(Key::from("k"), Value::from("v")).unwrap();
        assert_eq!(d.resident_bytes(), 1 + 1 + 40);
        d.delete(&Key::from("k")).unwrap();
        assert_eq!(d.resident_bytes(), 0);
    }

    #[test]
    fn parallel_clients_scale() {
        use std::sync::Arc;
        let d = Arc::new(DragonflyLike::new(4));
        let mut handles = vec![];
        for t in 0..4 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    d.put(Key::from(format!("t{t}-k{i}")), Value::from("v"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            d.get(&Key::from("t3-k499")).unwrap(),
            Some(Value::from("v"))
        );
    }
}
