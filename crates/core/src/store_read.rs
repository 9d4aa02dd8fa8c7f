//! The tiered store's reads outside the batch pass: TTL lookups and
//! reclamation, and scans merged across both tiers.

use crate::store::{envelope_expiry, parse_envelope, Inner};
use std::sync::atomic::Ordering;
use tb_cache::Lookup;
use tb_common::{is_expired, prefix_successor, Key, Result, TtlState, Value};

impl Inner {
    /// Lazy TTL reclamation: drops the key from both tiers and the
    /// persistence log.
    pub(crate) fn reclaim_expired(&self, key: &Key) -> Result<()> {
        self.stats.expired.fetch_add(1, Ordering::Relaxed);
        self.log_persistence(key, None)?;
        if let Some(storage) = &self.storage {
            storage.delete(key)?;
        }
        self.cache.remove(key);
        Ok(())
    }

    pub(crate) fn do_ttl(&self, key: &Key) -> Result<TtlState> {
        let now = self.config.clock.now_nanos();
        match self.cache.lookup(key) {
            Lookup::Live(stored) => {
                let (_, _, _) = parse_envelope(stored.as_slice())?;
                Ok(TtlState::from_deadline(envelope_expiry(&stored), now))
            }
            Lookup::Expired => {
                self.reclaim_expired(key)?;
                Ok(TtlState::Missing)
            }
            Lookup::Absent => {
                let Some(storage) = &self.storage else {
                    return Ok(TtlState::Missing);
                };
                match storage.get(key)? {
                    Some(stored) => {
                        let deadline = envelope_expiry(&stored);
                        if is_expired(deadline, now) {
                            self.reclaim_expired(key)?;
                            Ok(TtlState::Missing)
                        } else {
                            Ok(TtlState::from_deadline(deadline, now))
                        }
                    }
                    None => Ok(TtlState::Missing),
                }
            }
        }
    }

    /// A prefix scan is the range scan `[prefix, prefix_successor)`.
    pub(crate) fn do_scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Key, Value)>> {
        let end = prefix_successor(prefix);
        self.do_scan_range(&Key::copy_from(prefix), end.as_ref(), usize::MAX)
    }

    pub(crate) fn do_scan_range(
        &self,
        start: &Key,
        end: Option<&Key>,
        limit: usize,
    ) -> Result<Vec<(Key, Value)>> {
        let now = self.config.clock.now_nanos();
        let mut merged: std::collections::BTreeMap<Key, Value> = std::collections::BTreeMap::new();
        if let Some(storage) = &self.storage {
            // Unbounded fetch: cache shadowing and TTL masking can both
            // shrink the storage rows, so a storage-side `limit` could
            // starve the merge of rows the caller is owed.
            for (key, stored) in storage.scan(start, end, usize::MAX)? {
                let (value, expires_at) = self.decode_envelope(&stored)?;
                if !is_expired(expires_at, now) {
                    merged.insert(key, value);
                }
            }
        }
        // Cache entries are at least as fresh as storage (strictly
        // fresher under write-back), so they win the merge.
        for (key, entry) in self
            .cache
            .scan_range(start.as_slice(), end.map(Key::as_slice))
        {
            let (value, expires_at) = self.decode_envelope(&entry.value)?;
            if !is_expired(expires_at, now) {
                merged.insert(key, value);
            }
        }
        Ok(merged.into_iter().take(limit).collect())
    }

    pub(crate) fn do_sweep_expired(&self) -> Result<usize> {
        let keys = self.cache.sweep_expired();
        for key in &keys {
            self.log_persistence(key, None)?;
            if let Some(storage) = &self.storage {
                storage.delete(key)?;
            }
        }
        self.stats
            .expired
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        Ok(keys.len())
    }
}
