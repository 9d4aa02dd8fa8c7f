//! The level state — which SSTables serve reads, level by level — and
//! its durable form, the manifest.
//!
//! A [`Version`] is never edited in place: the background worker (the
//! only writer of levels) clones the installed one, edits the clone,
//! makes it durable with [`Version::write_manifest`], and only then
//! swaps it into the tree.

use crate::sstable::{SstDecodeStats, SstMeta, SstReader};
use std::path::Path;
use std::sync::Arc;
use tb_common::{durable, read_bytes, read_varint, write_bytes, write_varint, Error, Key, Result};

const MANIFEST_MAGIC: u32 = 0x7b4d_414e;

/// One level state of the tree.
#[derive(Clone)]
pub(crate) struct Version {
    /// `levels[0]` newest-first and overlapping; deeper levels are each
    /// one sorted run (possibly several non-overlapping tables).
    pub(crate) levels: Vec<Vec<Arc<SstReader>>>,
    /// Highest LSN whose write is inside a table listed here. Recovery
    /// skips WAL records at or below it.
    pub(crate) flushed_lsn: u64,
}

impl Version {
    /// Loads the manifest in `dir` (none = empty tree at LSN 0) and
    /// opens every table it lists. Also returns the highest table id.
    pub(crate) fn load(
        dir: &Path,
        max_level: usize,
        decode: &Arc<SstDecodeStats>,
    ) -> Result<(Self, u64)> {
        let (metas, flushed_lsn) = read_manifest(&dir.join("MANIFEST"))?;
        let mut max_id = 0u64;
        let mut levels: Vec<Vec<Arc<SstReader>>> = vec![Vec::new(); max_level + 1];
        for (level, meta) in metas {
            max_id = max_id.max(meta.id);
            if level >= levels.len() {
                return Err(Error::Corruption(format!(
                    "manifest level {level} out of range"
                )));
            }
            levels[level].push(Arc::new(SstReader::open_shared(meta, decode.clone())?));
        }
        let version = Self {
            levels,
            flushed_lsn,
        };
        Ok((version, max_id))
    }

    /// Bytes of every table listed.
    pub(crate) fn sst_bytes(&self) -> u64 {
        self.levels.iter().flatten().map(|t| t.meta.file_size).sum()
    }

    /// Durably replaces `dir`'s manifest with this version
    /// ([`durable::publish`]).
    pub(crate) fn write_manifest(&self, dir: &Path) -> Result<()> {
        let mut body = Vec::new();
        // The flushed LSN first: recovery resumes numbering after it
        // even once every WAL segment is gone (and replication
        // watermarks stay comparable across restarts).
        write_varint(&mut body, self.flushed_lsn);
        let tables: Vec<(usize, &SstMeta)> = self
            .levels
            .iter()
            .enumerate()
            .flat_map(|(lvl, tables)| tables.iter().map(move |t| (lvl, &t.meta)))
            .collect();
        write_varint(&mut body, tables.len() as u64);
        for (lvl, meta) in tables {
            write_varint(&mut body, lvl as u64);
            write_varint(&mut body, meta.id);
            write_varint(&mut body, meta.entry_count as u64);
            write_varint(&mut body, meta.file_size);
            write_bytes(&mut body, meta.min_key.as_slice());
            write_bytes(&mut body, meta.max_key.as_slice());
        }
        durable::publish(
            &dir.join("MANIFEST"),
            &durable::Sites {
                sync: "manifest.sync",
                rename: "manifest.rename",
                dir_sync: "manifest.dir_sync",
            },
            &[("manifest.write", &durable::seal(MANIFEST_MAGIC, &body))],
        )
    }
}

/// Reads `(level, meta)` rows plus the persisted LSN high-water mark
/// from a manifest file; absent file = empty DB at LSN 0.
fn read_manifest(path: &Path) -> Result<(Vec<(usize, SstMeta)>, u64)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((vec![], 0)),
        Err(e) => return Err(e.into()),
    };
    let body = durable::unseal(MANIFEST_MAGIC, &bytes, "manifest")?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut pos = 0usize;
    let max_lsn = read_varint(body, &mut pos)?;
    let count = read_varint(body, &mut pos)? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let level = read_varint(body, &mut pos)? as usize;
        let id = read_varint(body, &mut pos)?;
        let entry_count = read_varint(body, &mut pos)? as u32;
        let file_size = read_varint(body, &mut pos)?;
        let min_key = Key::copy_from(read_bytes(body, &mut pos)?);
        let max_key = Key::copy_from(read_bytes(body, &mut pos)?);
        out.push((
            level,
            SstMeta {
                id,
                path: dir.join(format!("{id:010}.sst")),
                min_key,
                max_key,
                entry_count,
                file_size,
            },
        ));
    }
    Ok((out, max_lsn))
}
