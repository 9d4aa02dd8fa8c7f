//! Synchronization with the storage tier: `sync()`, the write-back
//! dirty flush, and the storage-write failure hook.

use crate::store::Inner;
use std::sync::atomic::Ordering;
use tb_common::{Error, Key, KvEngine, Result, Value};

impl Inner {
    pub(crate) fn do_sync(&self) -> Result<()> {
        if self.storage.is_some() {
            self.flush_dirty()?;
        }
        if let Some(wal) = &self.wal {
            wal.lock().sync()?;
        }
        if let Some(storage) = &self.storage {
            KvEngine::sync(storage)?;
        }
        Ok(())
    }

    pub(crate) fn take_injected_failure(&self) -> bool {
        loop {
            let n = self.inject_storage_failures.load(Ordering::SeqCst);
            if n == 0 {
                return false;
            }
            if self
                .inject_storage_failures
                .compare_exchange(n, n - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return true;
            }
        }
    }

    pub(crate) fn flush_dirty(&self) -> Result<usize> {
        self.write_back(self.cache.dirty_entries())
    }

    /// Writes a snapshot of dirty entries down to the storage tier and
    /// cleans what it wrote. Writers are not excluded while this runs
    /// (`ThreadMode::Multi`/`Elastic`), so an entry is cleaned only if
    /// it still holds the snapshot's bytes: a put that landed in
    /// between stays dirty, pinned against eviction, for the next flush.
    pub(crate) fn write_back(&self, dirty: Vec<(Key, Value)>) -> Result<usize> {
        let Some(storage) = &self.storage else {
            return Ok(0);
        };
        if dirty.is_empty() {
            self.ops_since_flush.store(0, Ordering::Relaxed);
            return Ok(0);
        }
        let total = dirty.len();
        for chunk in dirty.chunks(self.config.write_back.batch_size) {
            if self.take_injected_failure() {
                return Err(Error::StorageWriteFailed(
                    "injected failure during dirty flush".into(),
                ));
            }
            storage.multi_put(chunk.to_vec())?;
            for (k, flushed) in chunk {
                self.cache.mark_clean(k, flushed);
            }
        }
        self.stats.dirty_flushes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .flushed_entries
            .fetch_add(total as u64, Ordering::Relaxed);
        self.ops_since_flush.store(0, Ordering::Relaxed);
        Ok(total)
    }
}
