//! The tiered store's writes outside the batch pass (deletes, CAS,
//! TTL rewrites) and the cache tier's persistence log (disk WAL or PMem
//! ring, §4.3).

use crate::store::{envelope_expiry, Inner};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Duration;
use tb_cache::ShardedCache;
use tb_common::log::WriteRecord;
use tb_common::{deadline_after, Error, Key, Result, Value};
use tb_lsm::wal::{SyncPolicy, Wal, WalSites};
use tb_pmem::PersistentRingBuffer;

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

    pub(crate) fn log_persistence(&self, key: &Key, stored: Option<&[u8]>) -> Result<()> {
        if self.wal.is_none() && self.ring.is_none() {
            return Ok(());
        }
        let rec = WriteRecord {
            key: key.clone(),
            value: stored.map(Value::copy_from),
        }
        .encode();
        // The LSN is taken under the log's lock, so each log holds its
        // records in LSN order.
        let next_lsn = || self.wal_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(wal) = &self.wal {
            let mut wal = wal.lock();
            wal.append(next_lsn(), &rec)?;
        }
        if let Some(ring) = &self.ring {
            let ring = ring.lock();
            let lsn = next_lsn();
            match ring.append(lsn, &rec) {
                Ok(()) => {}
                Err(Error::Backpressure { .. }) => {
                    // Ring full: batch-drain to the "cloud" WAL file and retry
                    // (the PMem ring is a staging buffer, §4.3).
                    self.drain_ring_to_file(&ring)?;
                    ring.append(lsn, &rec)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Moves the ring's records to the cold log ([`COLD_LOG`]) at the
    /// LSNs they were appended at: they are appended and `fdatasync`ed
    /// before the ring's head moves past them, so each acknowledged
    /// record is always in one or the other.
    fn drain_ring_to_file(&self, ring: &PersistentRingBuffer) -> Result<()> {
        ring.drain_batch(usize::MAX, |drained| {
            let mut wal = open_cache_log(&self.config.dir.join(COLD_LOG))?;
            for (lsn, rec) in drained {
                wal.append(*lsn, rec)?;
            }
            wal.sync()
        })?;
        Ok(())
    }
}

/// The file a full PMem ring drains to; `TierBase::open` replays it
/// before the ring.
pub(crate) const COLD_LOG: &str = "cache.cold.wal";

/// Opens one of the cache tier's logs, `cache.wal` or [`COLD_LOG`].
pub(crate) fn open_cache_log(path: &Path) -> Result<Wal> {
    Wal::open_with_sites(path, SyncPolicy::OsBuffer, WalSites::CACHE)
}

/// Replays one persistence-log record into the cache (recovery). A
/// record the cache cannot hold was refused when it was written, so it
/// is skipped: older logs hold such records, logged before the refusal.
pub(crate) fn apply_log_record(cache: &ShardedCache, rec: &[u8]) -> Result<()> {
    let WriteRecord { key, value } = WriteRecord::decode(rec)?;
    match value {
        Some(value) if cache.admit(&key, value.as_slice()).is_ok() => {
            let expires_at = envelope_expiry(&value);
            cache.insert_full(key, value, false, expires_at)?;
        }
        Some(_) => {}
        None => {
            cache.remove(&key);
        }
    }
    Ok(())
}
