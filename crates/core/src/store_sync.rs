//! Synchronization with the storage tier: `sync()` and the write-back
//! dirty flush.

use crate::store::Inner;
use std::sync::atomic::Ordering;
use tb_common::{Key, Result, Value};

impl Inner {
    pub(crate) fn do_sync(&self) -> Result<()> {
        if self.storage.is_some() {
            self.flush_dirty()?;
        }
        if let Some(wal) = &self.wal {
            wal.lock().sync()?;
        }
        if let Some(storage) = &self.storage {
            storage.sync()?;
        }
        Ok(())
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
