//! Redis-like baseline: one event-loop thread, rich object headers,
//! optional append-only-file persistence.
//!
//! The signature property is the *single serialization point*: every
//! command runs under one global lock, exactly like commands queue
//! behind Redis's event loop. Per-entry memory overhead models Redis's
//! `robj`/dict-entry/SDS headers (~90 bytes per key-value pair). AOF
//! mode logs every write before applying it, doubling as the
//! "Redis-AOF" comparator of Figure 11 (replica cost is applied by the
//! harness, as in the paper).

use crate::burn_cpu_us;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use tb_common::hash::FxBuildHasher;
use tb_common::{EngineOp, Error, Key, KvEngine, Lsn, OpOutcome, Result, Value};
use tb_lsm::wal::{SyncPolicy, Wal};

/// Modeled per-entry header overhead (dictEntry + robj + SDS headers).
const ENTRY_OVERHEAD: u64 = 90;

/// Modeled per-command CPU: RESP parsing, dispatch, robj handling.
/// Calibrated so the simulated event loop lands near real Redis's
/// ~150-250k commands/s/core.
const OP_COST_US: u64 = 2;

struct State {
    map: HashMap<Key, Value, FxBuildHasher>,
    bytes: u64,
    aof: Option<Wal>,
    /// Local frame sequence: the AOF has no LSN concept, so records
    /// carry a counter purely to satisfy the WAL framing.
    aof_seq: u64,
}

impl State {
    fn log_aof(&mut self, rec: &[u8]) -> Result<()> {
        if let Some(aof) = self.aof.as_mut() {
            self.aof_seq += 1;
            aof.append(self.aof_seq, rec)?;
        }
        Ok(())
    }

    fn put(&mut self, key: Key, value: Value) -> Result<()> {
        self.log_aof(&encode_aof(&key, Some(&value)))?;
        let klen = key.len() as u64;
        let new_vlen = value.len() as u64;
        match self.map.insert(key, value) {
            // Replacement: key and header were already counted.
            Some(old) => self.bytes = self.bytes - old.len() as u64 + new_vlen,
            None => self.bytes += klen + new_vlen + ENTRY_OVERHEAD,
        }
        Ok(())
    }

    /// Runs one command. The burn models command parsing and dispatch;
    /// a multi-key command pays it per key.
    fn apply(&mut self, op: EngineOp) -> Result<OpOutcome> {
        let burn = || burn_cpu_us(OP_COST_US);
        let done = Ok(OpOutcome::Done(Lsn::NONE));
        match op {
            EngineOp::Get(key) => {
                burn();
                Ok(OpOutcome::Value(self.map.get(&key).cloned()))
            }
            EngineOp::MultiGet(keys) => Ok(OpOutcome::Values(
                keys.iter()
                    .map(|k| {
                        burn();
                        self.map.get(k).cloned()
                    })
                    .collect(),
            )),
            EngineOp::Put(key, value) => {
                burn();
                self.put(key, value).and(done)
            }
            EngineOp::MultiPut(pairs) => {
                for (key, value) in pairs {
                    burn();
                    self.put(key, value)?;
                }
                done
            }
            EngineOp::Delete(key) => {
                self.log_aof(&encode_aof(&key, None))?;
                if let Some(old) = self.map.remove(&key) {
                    self.bytes -= key.len() as u64 + old.len() as u64 + ENTRY_OVERHEAD;
                }
                done
            }
            // Atomic by construction: the whole read-compare-write runs
            // under the event-loop lock, like a real Redis command. A
            // match applies as the plain write.
            EngineOp::Cas { key, expected, .. } | EngineOp::CasDelete { key, expected }
                if self.map.get(&key) != expected.as_ref() =>
            {
                burn();
                Err(Error::CasMismatch)
            }
            EngineOp::Cas { key, new, .. } => self.apply(EngineOp::Put(key, new)),
            EngineOp::CasDelete { key, .. } => {
                burn();
                self.apply(EngineOp::Delete(key))
            }
            // Redis's keyspace is an unordered dict: a range scan is a
            // full enumeration plus a sort, like SCAN + MATCH +
            // client-side ordering.
            EngineOp::Scan { start, end, limit } => {
                burn();
                let mut rows: Vec<(Key, Value)> = self
                    .map
                    .iter()
                    .filter(|(k, _)| **k >= start && end.as_ref().is_none_or(|e| *k < e))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                rows.truncate(limit);
                Ok(OpOutcome::Range(rows))
            }
        }
    }
}

/// Single-threaded in-memory store with optional AOF.
pub struct RedisLike {
    state: Mutex<State>,
    aof_enabled: bool,
}

impl RedisLike {
    /// Pure cache mode (the "Redis" rows of Figures 7 and 10).
    pub fn new() -> Self {
        Self {
            state: Mutex::new(State {
                map: HashMap::default(),
                bytes: 0,
                aof: None,
                aof_seq: 0,
            }),
            aof_enabled: false,
        }
    }

    /// AOF-persistent mode (the "Redis-AOF" rows of Figure 11).
    /// Replays any existing log on open.
    pub fn with_aof(dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("redis.aof");
        let mut map: HashMap<Key, Value, FxBuildHasher> = HashMap::default();
        let mut aof_seq = 0;
        for (lsn, rec) in Wal::replay(&path)? {
            apply_aof(&mut map, &rec)?;
            aof_seq = aof_seq.max(lsn);
        }
        let bytes = map
            .iter()
            .map(|(k, v)| k.len() as u64 + v.len() as u64 + ENTRY_OVERHEAD)
            .sum();
        Ok(Self {
            state: Mutex::new(State {
                map,
                bytes,
                aof: Some(Wal::open(&path, SyncPolicy::OsBuffer)?),
                aof_seq,
            }),
            aof_enabled: true,
        })
    }
}

impl Default for RedisLike {
    fn default() -> Self {
        Self::new()
    }
}

fn encode_aof(key: &Key, value: Option<&Value>) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + 16);
    match value {
        Some(v) => {
            out.push(0);
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key.as_slice());
            out.extend_from_slice(v.as_slice());
        }
        None => {
            out.push(1);
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key.as_slice());
        }
    }
    out
}

fn apply_aof(map: &mut HashMap<Key, Value, FxBuildHasher>, rec: &[u8]) -> Result<()> {
    if rec.len() < 5 {
        return Err(Error::Corruption("short AOF record".into()));
    }
    let flag = rec[0];
    let klen = u32::from_le_bytes(rec[1..5].try_into().unwrap()) as usize;
    if 5 + klen > rec.len() {
        return Err(Error::Corruption("AOF key overflow".into()));
    }
    let key = Key::copy_from(&rec[5..5 + klen]);
    match flag {
        0 => {
            map.insert(key, Value::copy_from(&rec[5 + klen..]));
            Ok(())
        }
        1 => {
            map.remove(&key);
            Ok(())
        }
        other => Err(Error::Corruption(format!("bad AOF flag {other}"))),
    }
}

impl KvEngine for RedisLike {
    /// One global lock per batch = the event-loop serialization point:
    /// a pipelined batch's commands run back to back.
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        let mut s = self.state.lock();
        ops.into_iter().map(|op| s.apply(op)).collect()
    }

    fn resident_bytes(&self) -> u64 {
        self.state.lock().bytes
    }

    fn label(&self) -> String {
        if self.aof_enabled {
            "redis-aof".into()
        } else {
            "redis-like".into()
        }
    }

    fn sync(&self) -> Result<()> {
        let mut s = self.state.lock();
        if let Some(aof) = s.aof.as_mut() {
            aof.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tb-redis-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_overhead() {
        let r = RedisLike::new();
        r.put(Key::from("k"), Value::from("value")).unwrap();
        assert_eq!(r.get(&Key::from("k")).unwrap(), Some(Value::from("value")));
        // 1 + 5 + 90 overhead.
        assert_eq!(r.resident_bytes(), 96);
        r.put(Key::from("k"), Value::from("vv")).unwrap();
        assert_eq!(r.resident_bytes(), 93);
        r.delete(&Key::from("k")).unwrap();
        assert_eq!(r.resident_bytes(), 0);
    }

    #[test]
    fn aof_recovers_after_restart() {
        let dir = tmpdir("aof");
        {
            let r = RedisLike::with_aof(&dir).unwrap();
            r.put(Key::from("persist"), Value::from("me")).unwrap();
            r.put(Key::from("gone"), Value::from("x")).unwrap();
            r.delete(&Key::from("gone")).unwrap();
            r.sync().unwrap();
        }
        let r = RedisLike::with_aof(&dir).unwrap();
        assert_eq!(
            r.get(&Key::from("persist")).unwrap(),
            Some(Value::from("me"))
        );
        assert_eq!(r.get(&Key::from("gone")).unwrap(), None);
        assert_eq!(r.label(), "redis-aof");
    }
}
