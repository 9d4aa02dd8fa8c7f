//! The tiered store's writes outside the batch pass (deletes, CAS,
//! TTL rewrites) and the cache tier's persistence log (disk WAL or PMem
//! ring, §4.3).

use crate::store::{envelope_expiry, Inner};
use std::sync::atomic::Ordering;
use std::time::Duration;
use tb_cache::ShardedCache;
use tb_common::{deadline_after, read_bytes, write_bytes, Error, Key, KvEngine, Result, Value};

impl Inner {
    /// Rewrites a live key with a new expiry deadline (`EXPIRE` /
    /// `PERSIST`): a get and a put, which `TierBase` runs alone. Returns
    /// `false` when the key does not exist.
    pub(crate) fn do_set_ttl(&self, key: &Key, ttl: Option<Duration>) -> Result<bool> {
        let Some(value) = self.get(key.clone())? else {
            return Ok(false);
        };
        let deadline = ttl.map(|t| deadline_after(self.config.clock.now_nanos(), t));
        self.put(key.clone(), value, deadline)?;
        Ok(true)
    }

    /// Compare-and-set (`new: None` deletes): a get and a write.
    /// `TierBase` runs a batch that holds one alone, which makes it
    /// atomic against every write.
    pub(crate) fn do_cas(
        &self,
        key: Key,
        expected: Option<Value>,
        new: Option<Value>,
    ) -> Result<()> {
        if self.get(key.clone())? != expected {
            return Err(Error::CasMismatch);
        }
        match new {
            Some(value) => self.put(key, value, None),
            None => self.do_delete(&key),
        }
    }

    pub(crate) fn do_delete(&self, key: &Key) -> Result<()> {
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        self.log_persistence(key, None)?;
        if let Some(storage) = &self.storage {
            // Deletes synchronize eagerly under both tiered policies
            // (the evaluated workloads are read/update-dominated).
            storage.delete(key)?;
        }
        self.cache.remove(key);
        Ok(())
    }

    pub(crate) fn log_persistence(&self, key: &Key, stored: Option<&Value>) -> Result<()> {
        if self.wal.is_none() && self.ring.is_none() {
            return Ok(());
        }
        let rec = encode_log_record(key, stored);
        if let Some(wal) = &self.wal {
            let lsn = self.wal_seq.fetch_add(1, Ordering::Relaxed) + 1;
            wal.lock().append(lsn, &rec)?;
        }
        if let Some(ring) = &self.ring {
            match ring.append(&rec) {
                Ok(()) => {}
                Err(Error::Backpressure { .. }) => {
                    // Ring full: batch-drain to the "cloud" WAL file and retry
                    // (the PMem ring is a staging buffer, §4.3).
                    self.drain_ring_to_file()?;
                    ring.append(&rec)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Moves the ring's records to the cold log ([`COLD_LOG`]): they
    /// are appended and `fdatasync`ed before the ring's head moves past
    /// them, so each acknowledged record is always in one or the other.
    fn drain_ring_to_file(&self) -> Result<()> {
        let Some(ring) = &self.ring else {
            return Ok(());
        };
        ring.drain_batch(usize::MAX, |drained| {
            let path = self.config.dir.join(COLD_LOG);
            let mut wal = tb_lsm::wal::Wal::open(&path, tb_lsm::wal::SyncPolicy::OsBuffer)?;
            for rec in drained {
                let lsn = self.wal_seq.fetch_add(1, Ordering::Relaxed) + 1;
                wal.append(lsn, rec)?;
            }
            wal.sync()
        })?;
        Ok(())
    }
}

/// The file a full PMem ring drains to; `TierBase::open` replays it
/// before the ring.
pub(crate) const COLD_LOG: &str = "cache.cold.wal";

fn encode_log_record(key: &Key, stored: Option<&Value>) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + 16);
    out.push(u8::from(stored.is_none()));
    write_bytes(&mut out, key.as_slice());
    if let Some(v) = stored {
        out.extend_from_slice(v.as_slice());
    }
    out
}

/// Replays one persistence-log record into the cache (recovery). A
/// record the cache cannot hold was refused when it was written, so it
/// is skipped: older logs hold such records, logged before the refusal.
pub(crate) fn apply_log_record(cache: &ShardedCache, rec: &[u8]) -> Result<()> {
    let (&flag, rest) = rec
        .split_first()
        .ok_or_else(|| Error::Corruption("empty cache log record".into()))?;
    let mut pos = 0usize;
    let key = Key::copy_from(read_bytes(rest, &mut pos)?);
    match flag {
        0 => {
            let value = Value::copy_from(&rest[pos..]);
            if cache.admit(&key, &value).is_ok() {
                let expires_at = envelope_expiry(&value);
                cache.insert_full(key, value, false, expires_at)?;
            }
            Ok(())
        }
        1 => {
            cache.remove(&key);
            Ok(())
        }
        other => Err(Error::Corruption(format!("bad cache log flag {other}"))),
    }
}
