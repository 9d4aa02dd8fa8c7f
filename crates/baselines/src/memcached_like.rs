//! Memcached-like baseline: multi-threaded sharded slab cache.
//!
//! Signature properties: (1) lock striping over many shards, so
//! concurrent clients scale across cores; (2) slab allocation — values
//! round up to power-of-two size classes, wasting some memory inside
//! the slab but keeping per-entry header overhead small (~48 bytes);
//! (3) strict LRU per shard with a hard byte budget, no persistence.

use crate::burn_cpu_us;
use parking_lot::Mutex;
use tb_cache::LruShard;
use tb_common::{fx_hash, EngineOp, Error, Key, KvEngine, Lsn, OpOutcome, Result, Value};

/// Per-entry header (item header + hash chain pointer): `LruShard`
/// bills each entry's own heap bytes, [`tb_cache::entry_cost`] — a
/// 32-byte node and a 10-byte index share beside the key and value —
/// close to memcached's ~48-56; slab rounding is applied to the value
/// size.
fn slab_rounded(len: usize) -> usize {
    // Size classes: 64, 128, 256, ... (growth factor 2 for simplicity;
    // memcached's default is 1.25).
    let mut class = 64usize;
    while class < len {
        class *= 2;
    }
    class
}

/// Pads a value to its slab class, prefixed with the true length.
fn encode_slab(value: &Value) -> Value {
    let class = slab_rounded(value.len() + 4);
    let mut buf = Vec::with_capacity(class);
    buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
    buf.extend_from_slice(value.as_slice());
    buf.resize(class, 0);
    Value::from(buf)
}

/// Strips slab padding from a stored buffer.
fn decode_slab(stored: &Value) -> Value {
    let bytes = stored.as_slice();
    let orig_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    Value::copy_from(&bytes[4..4 + orig_len])
}

/// Multi-threaded slab cache.
pub struct MemcachedLike {
    shards: Vec<Mutex<LruShard>>,
}

impl MemcachedLike {
    /// Builds a cache with the given total budget.
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        let per = (capacity_bytes / shards.max(1)).max(1024);
        Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(LruShard::new(per)))
                .collect(),
        }
    }

    fn shard(&self, key: &Key) -> &Mutex<LruShard> {
        &self.shards[(fx_hash(key.as_slice()) as usize) % self.shards.len()]
    }

    fn lookup(&self, key: &Key) -> Option<Value> {
        burn_cpu_us(OP_COST_US);
        // Stored values carry slab padding; strip it on read.
        self.shard(key)
            .lock()
            .get(key, 0)
            .map(|stored| decode_slab(&stored))
    }

    fn store(&self, key: Key, value: Value) {
        burn_cpu_us(OP_COST_US);
        // Represent slab rounding physically: pad the stored buffer to
        // its size class so `resident_bytes` reflects slab waste.
        let stored = encode_slab(&value);
        // Cache semantics: eviction is expected, never an error.
        let _ = self.shard(&key).lock().insert(key, stored, false);
    }

    /// Compare-and-set (`new: None` deletes), atomic within the key's
    /// shard: read-compare-write under one striped-lock acquisition
    /// (memcached's `cas` command).
    fn cas(&self, key: Key, expected: Option<Value>, new: Option<Value>) -> Result<()> {
        burn_cpu_us(OP_COST_US);
        let mut shard = self.shard(&key).lock();
        if shard.get(&key, 0).map(|stored| decode_slab(&stored)) != expected {
            return Err(Error::CasMismatch);
        }
        match new {
            Some(value) => {
                let _ = shard.insert(key, encode_slab(&value), false);
            }
            None => {
                shard.remove(&key);
            }
        }
        Ok(())
    }
}

/// Per-command CPU: memcached pays more per command in single-thread
/// mode (its threading machinery is engineered for multi-thread), which
/// is the Figure 7(a) ordering the paper reports.
const OP_COST_US: u64 = 6;

impl KvEngine for MemcachedLike {
    /// Every command on its own, each key paying the per-command CPU
    /// (a scan pays it once).
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        let done = || Ok(OpOutcome::Done(Lsn::NONE));
        ops.into_iter()
            .map(|op| match op {
                EngineOp::Get(key) => Ok(OpOutcome::Value(self.lookup(&key))),
                EngineOp::MultiGet(keys) => Ok(OpOutcome::Values(
                    keys.iter().map(|k| self.lookup(k)).collect(),
                )),
                EngineOp::Put(key, value) => {
                    self.store(key, value);
                    done()
                }
                EngineOp::MultiPut(pairs) => {
                    for (key, value) in pairs {
                        self.store(key, value);
                    }
                    done()
                }
                EngineOp::Delete(key) => {
                    self.shard(&key).lock().remove(&key);
                    done()
                }
                EngineOp::Cas { key, expected, new } => {
                    self.cas(key, expected, Some(new)).and(done())
                }
                EngineOp::CasDelete { key, expected } => self.cas(key, expected, None).and(done()),
                // Memcached has no range primitive: a scan walks every
                // shard's hash table (striped locks taken one at a time),
                // merges, and sorts client-side.
                EngineOp::Scan { start, end, limit } => {
                    burn_cpu_us(OP_COST_US);
                    let mut rows = Vec::new();
                    for shard in &self.shards {
                        rows.extend(
                            shard
                                .lock()
                                .scan_range(start.as_slice(), end.as_ref().map(Key::as_slice), 0)
                                .into_iter()
                                .map(|(k, e)| (k, decode_slab(&e.value))),
                        );
                    }
                    rows.sort_by(|a, b| a.0.cmp(&b.0));
                    rows.truncate(limit);
                    Ok(OpOutcome::Range(rows))
                }
            })
            .collect()
    }

    fn resident_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().used_bytes() as u64)
            .sum()
    }

    fn label(&self) -> String {
        "memcached-like".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_classes_round_up() {
        assert_eq!(slab_rounded(1), 64);
        assert_eq!(slab_rounded(64), 64);
        assert_eq!(slab_rounded(65), 128);
        assert_eq!(slab_rounded(1000), 1024);
    }

    #[test]
    fn roundtrip_strips_padding() {
        let m = MemcachedLike::new(1 << 20, 4);
        let key = Key::from("k");
        m.put(key.clone(), Value::from("exact-value")).unwrap();
        assert_eq!(m.get(&key).unwrap(), Some(Value::from("exact-value")));
        m.delete(&key).unwrap();
        assert_eq!(m.get(&key).unwrap(), None);
    }

    #[test]
    fn resident_includes_slab_waste() {
        let m = MemcachedLike::new(1 << 20, 1);
        m.put(Key::from("k"), Value::from(vec![b'x'; 65])).unwrap();
        // 65+4 → 128-byte class, billed with the key and the header.
        assert_eq!(m.resident_bytes(), tb_cache::entry_cost(1, 128) as u64);
    }

    #[test]
    fn bounded_by_capacity() {
        let m = MemcachedLike::new(64 << 10, 4);
        for i in 0..5000 {
            m.put(Key::from(format!("k{i}")), Value::from(vec![0u8; 100]))
                .unwrap();
        }
        assert!(m.resident_bytes() <= 64 << 10);
    }
}
