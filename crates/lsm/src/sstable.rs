//! Block-based sorted string tables with compressed, checksummed
//! block frames.
//!
//! File layout:
//!
//! ```text
//! [block frame]* [dict payload] [filter block] [index block] [footer]
//! block frame := codec_tag u8 | uncompressed_len u32 | crc32(payload) u32 | payload
//! data entry  := flag u8 | varint(klen) | varint(vlen) | key | value
//! index entry := varint(klen) | first_key | off u64 | len u32   (on-disk frame extents)
//! footer      := dict_off u64 | dict_len u32 | codec u8 |
//!                index_off u64 | index_len u32 | filter_off u64 |
//!                filter_len u32 | entry_count u32 | crc u32 | MAGIC u32
//! ```
//!
//! Blocks are sized pre-compression (`SstConfig::block_size` bounds the
//! *uncompressed* payload) and framed through the table's
//! [`BlockCodec`]; index entries point at the variable-length on-disk
//! frames. The codec's trained state is stored once as the table-level
//! dict payload, so a table is self-describing and no block carries a
//! model: the tzstd dictionary / PBC model is trained on sampled input
//! values, the `lz`/`dict` entropy tables on the LZ output of the
//! table's own blocks (every flush and compaction holds them all in
//! memory before the first frame is written, and a compaction
//! re-trains on its merged output). Every block read verifies the
//! frame CRC before any key search; a bad block is a per-slot
//! [`Error::Corruption`], never a torn batch.
//!
//! Readers keep the sparse index and bloom filter in memory. Lookups
//! split into an in-memory half ([`SstReader::locate`],
//! [`SstReader::locate_range`]) and one frame read per block
//! ([`SstReader::read_block`]), so the engine's completion pass can
//! dedup block reads across every lookup it stages.

use crate::bloom::BloomFilter;
use crate::memtable::Entry;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tb_common::{crc32, fault, read_varint, write_varint, Error, Key, Result, Value};
use tb_compress::block::MAX_TRAIN_SAMPLES;
pub use tb_compress::block::{BlockCodec, FRAME_HEADER_LEN, FRAME_TAG_STORED};
use tb_compress::BlockCodecState;

/// Fsyncs `path`'s parent directory so a just-renamed file survives a
/// crash of the directory metadata. `site` names the fault point.
pub(crate) fn sync_parent_dir(path: &Path, site: &'static str) -> Result<()> {
    fault::hit(site)?;
    if let Some(dir) = path.parent() {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

const MAGIC: u32 = 0x7b5d_57a2;
const FOOTER_LEN: usize = 8 + 4 + 1 + 8 + 4 + 8 + 4 + 4 + 4 + 4;
const FLAG_PUT: u8 = 0;
const FLAG_TOMBSTONE: u8 = 1;

/// Build-time options.
#[derive(Debug, Clone, Copy)]
pub struct SstConfig {
    /// Target uncompressed data-block size.
    pub block_size: usize,
    /// Bloom filter bits per key.
    pub bloom_bits_per_key: usize,
    /// Per-table block codec; trained state is sampled from the input
    /// values at flush/compaction and stored in the table.
    pub codec: BlockCodec,
}

impl Default for SstConfig {
    fn default() -> Self {
        Self {
            block_size: 4096,
            bloom_bits_per_key: 10,
            codec: BlockCodec::None,
        }
    }
}

/// Metadata of one table, kept in the manifest and in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SstMeta {
    pub id: u64,
    pub path: PathBuf,
    pub min_key: Key,
    pub max_key: Key,
    pub entry_count: u32,
    pub file_size: u64,
}

/// What one table build did on the compression dimension.
#[derive(Debug, Clone, Copy, Default)]
pub struct SstBuildStats {
    /// Data blocks written.
    pub blocks: u64,
    /// Blocks whose frame carries a compressed payload (the rest fell
    /// back to stored frames).
    pub blocks_compressed: u64,
    /// Raw block bytes before framing.
    pub uncompressed_bytes: u64,
    /// On-disk data region bytes: frames (headers included) plus the
    /// dict payload.
    pub compressed_bytes: u64,
}

/// Decode-side counters, shared by every reader of one store so the
/// engine can export them (`lsm_block_decode_errors` and friends).
#[derive(Debug, Default)]
pub struct SstDecodeStats {
    /// Frames decoded (CRC-verified) on any read path.
    pub blocks_decoded: AtomicU64,
    /// Frames whose payload was actually decompressed (stored frames
    /// don't count).
    pub blocks_decompressed: AtomicU64,
    /// Frames that failed CRC/decode — surfaced as per-slot
    /// [`Error::Corruption`].
    pub block_decode_errors: AtomicU64,
}

/// Writes a sorted entry stream into an SSTable file.
pub fn write_sstable(
    id: u64,
    path: &Path,
    entries: impl Iterator<Item = (Key, Entry)>,
    config: &SstConfig,
) -> Result<SstMeta> {
    write_sstable_with_stats(id, path, entries, config).map(|(meta, _)| meta)
}

/// [`write_sstable`], also returning the build's compression counters.
pub fn write_sstable_with_stats(
    id: u64,
    path: &Path,
    entries: impl Iterator<Item = (Key, Entry)>,
    config: &SstConfig,
) -> Result<(SstMeta, SstBuildStats)> {
    // Pass 1 (streaming): encode entries into uncompressed blocks cut
    // at `block_size`, collecting the codec's training samples (first
    // MAX_TRAIN_SAMPLES put values — deterministic for a fixed input)
    // when the codec trains on them.
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    let mut first_keys: Vec<Key> = Vec::new();
    let mut block = Vec::new();
    let mut block_first_key: Option<Key> = None;
    let mut samples: Vec<Vec<u8>> = Vec::new();
    let max_samples = if config.codec.trains_on_samples() {
        MAX_TRAIN_SAMPLES
    } else {
        0
    };
    let mut filter_items: Vec<Key> = Vec::new();
    let mut min_key: Option<Key> = None;
    let mut max_key: Option<Key> = None;
    let mut entry_count = 0u32;
    let mut prev_key: Option<Key> = None;

    for (key, entry) in entries {
        if let Some(prev) = &prev_key {
            if *prev >= key {
                return Err(Error::InvalidArgument(format!(
                    "entries must be strictly sorted: {prev:?} >= {key:?}"
                )));
            }
        }
        prev_key = Some(key.clone());
        if block_first_key.is_none() {
            block_first_key = Some(key.clone());
        }
        match &entry {
            Entry::Put(v) => {
                block.push(FLAG_PUT);
                write_varint(&mut block, key.len() as u64);
                write_varint(&mut block, v.len() as u64);
                block.extend_from_slice(key.as_slice());
                block.extend_from_slice(v.as_slice());
                if samples.len() < max_samples {
                    samples.push(v.as_slice().to_vec());
                }
            }
            Entry::Tombstone => {
                block.push(FLAG_TOMBSTONE);
                write_varint(&mut block, key.len() as u64);
                write_varint(&mut block, 0);
                block.extend_from_slice(key.as_slice());
            }
        }
        filter_items.push(key.clone());
        min_key.get_or_insert_with(|| key.clone());
        max_key = Some(key.clone());
        entry_count += 1;

        if block.len() >= config.block_size {
            first_keys.push(block_first_key.take().expect("block has a first key"));
            blocks.push(std::mem::take(&mut block));
        }
    }
    if let Some(first) = block_first_key.take() {
        first_keys.push(first);
        blocks.push(block);
    }
    if entry_count == 0 {
        return Err(Error::InvalidArgument(
            "refusing to write empty sstable".into(),
        ));
    }

    // Pass 2: train the codec on the sampled values and on the blocks
    // themselves, then frame-encode every block. Index entries point
    // at the on-disk frame extents.
    let codec_state = BlockCodecState::train_on_blocks(config.codec, &samples, &blocks);
    let mut stats = SstBuildStats::default();
    let mut data = Vec::new();
    let mut index = Vec::new();
    for (first, raw) in first_keys.iter().zip(&blocks) {
        let frame_start = data.len();
        stats.blocks += 1;
        stats.uncompressed_bytes += raw.len() as u64;
        if codec_state.encode_frame(raw, &mut data) {
            stats.blocks_compressed += 1;
        }
        write_varint(&mut index, first.len() as u64);
        index.extend_from_slice(first.as_slice());
        index.extend_from_slice(&(frame_start as u64).to_le_bytes());
        index.extend_from_slice(&((data.len() - frame_start) as u32).to_le_bytes());
    }
    // The dict payload rides in the data region, after the frames, so
    // the existing `sst.write.data` fault site covers it.
    let dict_off = data.len() as u64;
    let dict_payload = codec_state.dict_payload();
    data.extend_from_slice(dict_payload);
    stats.compressed_bytes = data.len() as u64;

    let mut bloom = BloomFilter::new(filter_items.len(), config.bloom_bits_per_key);
    for k in &filter_items {
        bloom.insert(k.as_slice());
    }
    let filter = bloom.to_bytes();

    let filter_off = data.len() as u64;
    let index_off = filter_off + filter.len() as u64;

    let mut footer = Vec::with_capacity(FOOTER_LEN);
    footer.extend_from_slice(&dict_off.to_le_bytes());
    footer.extend_from_slice(&(dict_payload.len() as u32).to_le_bytes());
    footer.push(config.codec.tag());
    footer.extend_from_slice(&index_off.to_le_bytes());
    footer.extend_from_slice(&(index.len() as u32).to_le_bytes());
    footer.extend_from_slice(&filter_off.to_le_bytes());
    footer.extend_from_slice(&(filter.len() as u32).to_le_bytes());
    footer.extend_from_slice(&entry_count.to_le_bytes());
    let crc = crc32(&footer);
    footer.extend_from_slice(&crc.to_le_bytes());
    footer.extend_from_slice(&MAGIC.to_le_bytes());

    let tmp = path.with_extension("tmp");
    let written = (|| -> Result<()> {
        let mut f = File::create(&tmp)?;
        fault::write_all("sst.write.data", &mut f, &data)?;
        fault::write_all("sst.write.filter", &mut f, &filter)?;
        fault::write_all("sst.write.index", &mut f, &index)?;
        fault::write_all("sst.write.footer", &mut f, &footer)?;
        fault::hit("sst.sync")?;
        f.sync_all()?;
        fault::hit("sst.rename")?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path, "sst.dir_sync")
    })();
    if let Err(e) = written {
        // Don't leave a half-written .tmp behind a transient error.
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }

    let file_size = (data.len() + filter.len() + index.len() + FOOTER_LEN) as u64;
    let meta = SstMeta {
        id,
        path: path.to_path_buf(),
        min_key: min_key.expect("non-empty"),
        max_key: max_key.expect("non-empty"),
        entry_count,
        file_size,
    };
    Ok((meta, stats))
}

struct IndexEntry {
    first_key: Key,
    offset: u64,
    len: u32,
}

/// An open SSTable: sparse index + bloom filter in memory, data on disk.
///
/// Block reads are positional (`pread`-style), so any number of
/// tree-lock-free completion passes can fetch blocks from one reader
/// concurrently without serializing on a seek cursor.
pub struct SstReader {
    file: File,
    /// Platforms without a positional read serialize their shared
    /// seek+read here; unix/windows read positionally, lock-free.
    #[cfg(not(any(unix, windows)))]
    seek_lock: parking_lot::Mutex<()>,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    pub meta: SstMeta,
    codec_state: BlockCodecState,
    decode_stats: Arc<SstDecodeStats>,
}

impl SstReader {
    /// Opens and validates a table with private decode counters.
    pub fn open(meta: SstMeta) -> Result<Self> {
        Self::open_shared(meta, Arc::new(SstDecodeStats::default()))
    }

    /// Opens and validates a table written by [`write_sstable`],
    /// recording decode activity into `decode_stats` (one engine shares
    /// a single stats instance across all its tables).
    pub fn open_shared(meta: SstMeta, decode_stats: Arc<SstDecodeStats>) -> Result<Self> {
        let mut file = File::open(&meta.path)?;
        let file_len = file.metadata()?.len();
        if file_len < FOOTER_LEN as u64 {
            return Err(Error::Corruption("sstable shorter than footer".into()));
        }
        let mut footer = [0u8; FOOTER_LEN];
        file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        file.read_exact(&mut footer)?;
        if footer[FOOTER_LEN - 4..] != MAGIC.to_le_bytes() {
            return Err(Error::Corruption("bad sstable magic".into()));
        }
        let stored_crc =
            u32::from_le_bytes(footer[FOOTER_LEN - 8..FOOTER_LEN - 4].try_into().unwrap());
        if crc32(&footer[..FOOTER_LEN - 8]) != stored_crc {
            return Err(Error::Corruption("sstable footer crc mismatch".into()));
        }
        let dict_off = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let dict_len = u32::from_le_bytes(footer[8..12].try_into().unwrap()) as usize;
        let codec_tag = footer[12];
        let index_off = u64::from_le_bytes(footer[13..21].try_into().unwrap());
        let index_len = u32::from_le_bytes(footer[21..25].try_into().unwrap()) as usize;
        let filter_off = u64::from_le_bytes(footer[25..33].try_into().unwrap());
        let filter_len = u32::from_le_bytes(footer[33..37].try_into().unwrap()) as usize;
        let codec = BlockCodec::from_tag(codec_tag)
            .ok_or_else(|| Error::Corruption(format!("unknown sstable codec tag {codec_tag}")))?;
        // The three sections tile the file up to the footer, so each
        // length below is bounded by the bytes actually present before
        // it sizes a buffer.
        let tiles = |off: u64, len: usize, next: u64| off.checked_add(len as u64) == Some(next);
        if !tiles(dict_off, dict_len, filter_off)
            || !tiles(filter_off, filter_len, index_off)
            || !tiles(index_off, index_len, file_len - FOOTER_LEN as u64)
        {
            return Err(Error::Corruption(
                "sstable section offsets inconsistent".into(),
            ));
        }

        let mut dict_payload = vec![0u8; dict_len];
        file.seek(SeekFrom::Start(dict_off))?;
        file.read_exact(&mut dict_payload)?;
        let codec_state = BlockCodecState::from_dict_payload(codec, &dict_payload)?;

        let mut filter_bytes = vec![0u8; filter_len];
        file.seek(SeekFrom::Start(filter_off))?;
        file.read_exact(&mut filter_bytes)?;
        let bloom = BloomFilter::from_bytes(&filter_bytes)
            .ok_or_else(|| Error::Corruption("bad bloom filter block".into()))?;

        let mut index_bytes = vec![0u8; index_len];
        file.seek(SeekFrom::Start(index_off))?;
        file.read_exact(&mut index_bytes)?;
        let mut index = Vec::new();
        let mut pos = 0usize;
        while pos < index_bytes.len() {
            let klen = read_varint(&index_bytes, &mut pos)? as usize;
            if klen.saturating_add(12) > index_bytes.len() - pos {
                return Err(Error::Corruption("index entry truncated".into()));
            }
            let first_key = Key::copy_from(&index_bytes[pos..pos + klen]);
            pos += klen;
            let offset = u64::from_le_bytes(index_bytes[pos..pos + 8].try_into().unwrap());
            pos += 8;
            let len = u32::from_le_bytes(index_bytes[pos..pos + 4].try_into().unwrap());
            pos += 4;
            // Frames live in the data region, before the dict payload:
            // an extent from disk sizes a read buffer only once it is
            // known to lie inside the file.
            if offset
                .checked_add(len as u64)
                .is_none_or(|end| end > dict_off)
            {
                return Err(Error::Corruption(
                    "index entry points outside the data region".into(),
                ));
            }
            index.push(IndexEntry {
                first_key,
                offset,
                len,
            });
        }

        Ok(Self {
            file,
            #[cfg(not(any(unix, windows)))]
            seek_lock: parking_lot::Mutex::new(()),
            index,
            bloom,
            meta,
            codec_state,
            decode_stats,
        })
    }

    /// The table's block codec.
    pub fn codec(&self) -> BlockCodec {
        self.codec_state.codec()
    }

    /// Index of the one data block that could hold `key`, or `None`
    /// when the key-range or bloom filter rules the table out — the
    /// in-memory half of a point lookup, split from the block IO so a
    /// batched read path can stage the IO and dedup it across keys.
    pub fn locate(&self, key: &Key) -> Option<usize> {
        if key < &self.meta.min_key || key > &self.meta.max_key {
            return None;
        }
        if !self.bloom.may_contain(key.as_slice()) {
            return None;
        }
        // Last block whose first key <= key.
        match self.index.binary_search_by(|e| e.first_key.cmp(key)) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// The run of data blocks that could hold keys in
    /// `start <= key < end` (`end = None` = unbounded above), as
    /// `(first_block, count)` — the in-memory half of a range scan,
    /// split from the block IO exactly like [`Self::locate`] so the
    /// batched read path can stage the run into its deduped fetch list. `None` when the table's key range
    /// cannot intersect the scan.
    pub fn locate_range(&self, start: &Key, end: Option<&Key>) -> Option<(usize, usize)> {
        if &self.meta.max_key < start {
            return None;
        }
        if let Some(end) = end {
            if &self.meta.min_key >= end {
                return None;
            }
        }
        // First block that could hold `start`: the last block whose
        // first key <= start, or block 0 when start precedes them all.
        let first = match self.index.binary_search_by(|e| e.first_key.cmp(start)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        // Last block whose first key < end still holds in-range keys.
        let last = match end {
            None => self.index.len() - 1,
            Some(end) => match self.index.binary_search_by(|e| e.first_key.cmp(end)) {
                Ok(0) | Err(0) => 0,
                Ok(i) => i - 1,
                Err(i) => i - 1,
            },
        };
        Some((first, last.max(first) - first + 1))
    }

    /// Streams every entry in key order (compaction input).
    pub fn scan(&self) -> Result<Vec<(Key, Entry)>> {
        let mut out = Vec::with_capacity(self.meta.entry_count as usize);
        for i in 0..self.index.len() {
            decode_block_into(&self.read_block(i)?, &mut out)?;
        }
        Ok(out)
    }

    /// Reads and decodes data block `idx` (the IO half of a lookup):
    /// fetch the on-disk frame, verify its CRC, decompress.
    pub fn read_block(&self, idx: usize) -> Result<Vec<u8>> {
        self.read_block_marked(idx, false)
    }

    /// [`Self::read_block`] with a fault-injection corruption mark: a
    /// marked block's frame is deterministically mangled before decode
    /// (bad CRC / truncated frame / garbage payload, chosen by frame
    /// length), so it surfaces as the same [`Error::Corruption`] a real
    /// torn or rotted block would. Tracks the decode, decompression and
    /// error counters and the decompression latency histogram.
    pub fn read_block_marked(&self, idx: usize, corrupt: bool) -> Result<Vec<u8>> {
        let e = &self.index[idx];
        let mut raw = vec![0u8; e.len as usize];
        self.read_at(&mut raw, e.offset)?;
        if corrupt {
            raw = mangle_frame(&raw);
        }
        self.decode_stats
            .blocks_decoded
            .fetch_add(1, Ordering::Relaxed);
        let compressed = raw.first().is_some_and(|&tag| tag != FRAME_TAG_STORED);
        let t0 = tb_obs::start();
        let out = self.codec_state.decode_frame(&raw);
        match &out {
            Ok(_) if compressed => {
                tb_obs::histo!("lsm_block_decompress_ns").record_since(t0);
                self.decode_stats
                    .blocks_decompressed
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {}
            Err(_) => {
                self.decode_stats
                    .block_decode_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    #[cfg(windows)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        // seek_read moves the handle's cursor, but nothing else relies
        // on it — every read path in this reader is positional.
        use std::os::windows::fs::FileExt;
        let mut pos = 0usize;
        while pos < buf.len() {
            let n = self.file.seek_read(&mut buf[pos..], offset + pos as u64)?;
            if n == 0 {
                return Err(Error::Corruption("sstable read past end of file".into()));
            }
            pos += n;
        }
        Ok(())
    }

    #[cfg(not(any(unix, windows)))]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        // No positional read: serialize seek+read on the *retained*
        // handle. Re-opening by path would break the Arc-pinned
        // snapshot guarantee once a compaction unlinks this table.
        let _guard = self.seek_lock.lock();
        let mut file = &self.file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)?;
        Ok(())
    }
}

/// Deterministically mangles a frame for the `sst.block_decode` fault
/// site, cycling through the three corruption shapes by frame length:
/// a flipped CRC byte, a truncation below the header, and a garbage
/// payload (CRC re-stamped for compressed frames so the *codec* has to
/// catch it; left stale for stored frames so the CRC check does).
fn mangle_frame(frame: &[u8]) -> Vec<u8> {
    let mut bad = frame.to_vec();
    match frame.len() % 3 {
        0 => {
            if bad.len() > 5 {
                bad[5] ^= 0xff;
            } else {
                bad.clear();
            }
        }
        1 => bad.truncate(bad.len().min(FRAME_HEADER_LEN - 5)),
        _ => {
            for b in bad.iter_mut().skip(FRAME_HEADER_LEN) {
                *b = 0x5a;
            }
            if bad.len() > FRAME_HEADER_LEN && bad[0] != FRAME_TAG_STORED {
                let crc = crc32(&bad[FRAME_HEADER_LEN..]);
                bad[5..9].copy_from_slice(&crc.to_le_bytes());
            }
        }
    }
    bad
}

/// Decodes every entry of a data block in key order (a range scan's
/// per-block input).
pub fn decode_block(block: &[u8]) -> Result<Vec<(Key, Entry)>> {
    let mut out = Vec::new();
    decode_block_into(block, &mut out)?;
    Ok(out)
}

fn decode_block_into(block: &[u8], out: &mut Vec<(Key, Entry)>) -> Result<()> {
    let mut pos = 0usize;
    while pos < block.len() {
        let (raw, next) = decode_entry(block, pos)?;
        out.push((Key::copy_from(raw.key), raw.entry()));
        pos = next;
    }
    Ok(())
}

/// Searches a decoded data block for `key` (entries are sorted, so the
/// scan stops at the first greater key). Only the match is copied out.
pub fn find_in_block(block: &[u8], key: &Key) -> Result<Option<Entry>> {
    let mut pos = 0usize;
    while pos < block.len() {
        let (raw, next) = decode_entry(block, pos)?;
        match raw.key.cmp(key.as_slice()) {
            std::cmp::Ordering::Less => pos = next,
            std::cmp::Ordering::Equal => return Ok(Some(raw.entry())),
            std::cmp::Ordering::Greater => return Ok(None),
        }
    }
    Ok(None)
}

/// One data-block entry, borrowed from the block.
struct RawEntry<'a> {
    key: &'a [u8],
    /// `None` = tombstone.
    value: Option<&'a [u8]>,
}

impl RawEntry<'_> {
    fn entry(&self) -> Entry {
        self.value
            .map_or(Entry::Tombstone, |v| Entry::Put(Value::copy_from(v)))
    }
}

/// The entry at `pos` and the position after it.
fn decode_entry(block: &[u8], mut pos: usize) -> Result<(RawEntry<'_>, usize)> {
    let flag = *block
        .get(pos)
        .ok_or_else(|| Error::Corruption("entry flag missing".into()))?;
    pos += 1;
    let klen = read_varint(block, &mut pos)? as usize;
    let vlen = read_varint(block, &mut pos)? as usize;
    let end = pos
        .checked_add(klen)
        .and_then(|k| k.checked_add(vlen))
        .filter(|&end| end <= block.len())
        .ok_or_else(|| Error::Corruption("entry overflows block".into()))?;
    let key = &block[pos..pos + klen];
    let value = match flag {
        FLAG_PUT => Some(&block[pos + klen..end]),
        FLAG_TOMBSTONE => None,
        other => return Err(Error::Corruption(format!("bad entry flag {other}"))),
    };
    Ok((RawEntry { key, value }, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> tb_common::TestDir {
        tb_common::test_dir("tb-sst")
    }

    fn sample_entries(n: usize) -> Vec<(Key, Entry)> {
        (0..n)
            .map(|i| {
                let key = Key::from(format!("key-{i:06}"));
                if i % 7 == 3 {
                    (key, Entry::Tombstone)
                } else {
                    (
                        key,
                        Entry::Put(Value::from(format!("value-{i}-{}", "x".repeat(i % 50)))),
                    )
                }
            })
            .collect()
    }

    /// Point lookup the way the engine's completion pass does it:
    /// locate, read the one candidate block, search it.
    fn get(r: &SstReader, key: &Key) -> Result<Option<Entry>> {
        match r.locate(key) {
            Some(idx) => find_in_block(&r.read_block(idx)?, key),
            None => Ok(None),
        }
    }

    fn build(name: &str, entries: Vec<(Key, Entry)>) -> (tb_common::TestDir, SstReader) {
        let dir = tmpdir();
        let path = dir.create().join(name);
        let meta = write_sstable(1, &path, entries.into_iter(), &SstConfig::default()).unwrap();
        (dir, SstReader::open(meta).unwrap())
    }

    fn cfg(block_size: usize, codec: BlockCodec) -> SstConfig {
        SstConfig {
            block_size,
            bloom_bits_per_key: 10,
            codec,
        }
    }

    #[test]
    fn write_open_get_all() {
        let entries = sample_entries(500);
        let (_dir, r) = build("basic.sst", entries.clone());
        assert_eq!(r.meta.entry_count, 500);
        for (k, e) in &entries {
            let got = get(&r, k).unwrap();
            assert_eq!(got.as_ref(), Some(e), "key {k:?}");
        }
    }

    #[test]
    fn absent_keys_return_none() {
        let (_dir, r) = build("absent.sst", sample_entries(100));
        assert_eq!(get(&r, &Key::from("nope")).unwrap(), None);
        assert_eq!(get(&r, &Key::from("key-000000a")).unwrap(), None);
        assert_eq!(get(&r, &Key::from("zzz")).unwrap(), None);
        assert_eq!(get(&r, &Key::from("")).unwrap(), None);
    }

    #[test]
    fn scan_returns_sorted_everything() {
        let entries = sample_entries(300);
        let (_dir, r) = build("scan.sst", entries.clone());
        let scanned = r.scan().unwrap();
        assert_eq!(scanned, entries);
    }

    #[test]
    fn unsorted_input_rejected() {
        let dir = tmpdir();
        let path = dir.create().join("unsorted.sst");
        let entries = vec![
            (Key::from("b"), Entry::Put(Value::from("1"))),
            (Key::from("a"), Entry::Put(Value::from("2"))),
        ];
        assert!(write_sstable(1, &path, entries.into_iter(), &SstConfig::default()).is_err());
    }

    #[test]
    fn duplicate_keys_rejected() {
        let dir = tmpdir();
        let path = dir.create().join("dup.sst");
        let entries = vec![
            (Key::from("a"), Entry::Put(Value::from("1"))),
            (Key::from("a"), Entry::Put(Value::from("2"))),
        ];
        assert!(write_sstable(1, &path, entries.into_iter(), &SstConfig::default()).is_err());
    }

    #[test]
    fn empty_table_rejected() {
        let dir = tmpdir();
        let path = dir.create().join("empty.sst");
        assert!(write_sstable(1, &path, std::iter::empty(), &SstConfig::default()).is_err());
    }

    #[test]
    fn corrupted_footer_detected() {
        let dir = tmpdir();
        let path = dir.create().join("corrupt.sst");
        let meta = write_sstable(
            1,
            &path,
            sample_entries(50).into_iter(),
            &SstConfig::default(),
        )
        .unwrap();
        // Flip a footer byte.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(SstReader::open(meta).is_err());
    }

    #[test]
    fn truncated_file_detected() {
        let dir = tmpdir();
        let path = dir.create().join("trunc.sst");
        let meta = write_sstable(
            1,
            &path,
            sample_entries(50).into_iter(),
            &SstConfig::default(),
        )
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(SstReader::open(meta).is_err());
    }

    #[test]
    fn small_blocks_force_multiple_index_entries() {
        let dir = tmpdir();
        let path = dir.create().join("blocks.sst");
        let entries = sample_entries(200);
        let meta = write_sstable(
            1,
            &path,
            entries.clone().into_iter(),
            &cfg(64, BlockCodec::None),
        )
        .unwrap();
        let r = SstReader::open(meta).unwrap();
        assert!(
            r.index.len() > 5,
            "expected many blocks, got {}",
            r.index.len()
        );
        for (k, e) in &entries {
            assert_eq!(get(&r, k).unwrap().as_ref(), Some(e));
        }
    }

    #[test]
    fn single_entry_table() {
        let (_dir, r) = build(
            "single.sst",
            vec![(Key::from("only"), Entry::Put(Value::from("one")))],
        );
        assert_eq!(
            get(&r, &Key::from("only")).unwrap(),
            Some(Entry::Put(Value::from("one")))
        );
        assert_eq!(r.meta.min_key, r.meta.max_key);
    }

    #[test]
    fn locate_range_covers_exactly_the_overlapping_blocks() {
        let dir = tmpdir();
        let path = dir.create().join("range.sst");
        let entries = sample_entries(200);
        let meta = write_sstable(
            1,
            &path,
            entries.clone().into_iter(),
            &cfg(64, BlockCodec::None),
        )
        .unwrap();
        let r = SstReader::open(meta).unwrap();
        assert!(r.index.len() > 5);

        // Any sub-range: decoding exactly the located blocks yields
        // every in-range entry (reference: filter the full entry list).
        let cases = [
            (Key::from("key-000010"), Some(Key::from("key-000050"))),
            (Key::from("key-000000"), Some(Key::from("key-000001"))),
            (Key::from("a"), Some(Key::from("zzz"))),
            (Key::from("key-000150"), None),
            (Key::from("key-000199"), None),
        ];
        for (start, end) in cases {
            let (first, count) = r.locate_range(&start, end.as_ref()).unwrap();
            let mut got = Vec::new();
            for b in first..first + count {
                for (k, e) in decode_block(&r.read_block(b).unwrap()).unwrap() {
                    if k >= start && end.as_ref().is_none_or(|e| &k < e) {
                        got.push((k, e));
                    }
                }
            }
            let expect: Vec<(Key, Entry)> = entries
                .iter()
                .filter(|(k, _)| *k >= start && end.as_ref().is_none_or(|e| k < e))
                .cloned()
                .collect();
            assert_eq!(got, expect, "range {start:?}..{end:?}");
        }

        // Disjoint ranges rule the table out without IO.
        assert!(r.locate_range(&Key::from("zzz"), None).is_none());
        assert!(r
            .locate_range(&Key::from("a"), Some(&Key::from("b")))
            .is_none());
    }

    #[test]
    fn concurrent_positional_reads_share_one_reader() {
        let dir = tmpdir();
        let path = dir.create().join("pread.sst");
        let entries = sample_entries(400);
        let meta = write_sstable(
            1,
            &path,
            entries.clone().into_iter(),
            &cfg(256, BlockCodec::Lz),
        )
        .unwrap();
        let r = std::sync::Arc::new(SstReader::open(meta).unwrap());
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = r.clone();
                let entries = &entries;
                s.spawn(move || {
                    for (i, (k, e)) in entries.iter().enumerate() {
                        if i % 4 == t {
                            assert_eq!(get(&r, k).unwrap().as_ref(), Some(e), "key {k:?}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn every_codec_roundtrips_the_full_table() {
        for codec in BlockCodec::ALL {
            let dir = tmpdir();
            let path = dir.create().join("codec.sst");
            let entries = sample_entries(400);
            let (meta, stats) =
                write_sstable_with_stats(1, &path, entries.clone().into_iter(), &cfg(512, codec))
                    .unwrap();
            assert_eq!(stats.blocks as usize, {
                let r = SstReader::open(meta.clone()).unwrap();
                r.index.len()
            });
            let r = SstReader::open(meta).unwrap();
            assert_eq!(r.codec(), codec);
            assert_eq!(r.scan().unwrap(), entries, "codec {}", codec.name());
            for (k, e) in &entries {
                assert_eq!(
                    get(&r, k).unwrap().as_ref(),
                    Some(e),
                    "codec {}",
                    codec.name()
                );
            }
            if codec != BlockCodec::None {
                assert!(
                    stats.blocks_compressed > 0,
                    "codec {} never compressed a block",
                    codec.name()
                );
                assert!(stats.compressed_bytes < stats.uncompressed_bytes);
            }
        }
    }

    #[test]
    fn compressed_table_detects_data_corruption() {
        // Flip bytes inside a data frame: reads of that block fail with
        // Corruption (never a panic, never silent garbage), other
        // blocks still read.
        let dir = tmpdir();
        let path = dir.create().join("bitrot.sst");
        let entries = sample_entries(300);
        let meta = write_sstable(
            1,
            &path,
            entries.clone().into_iter(),
            &cfg(256, BlockCodec::Lz),
        )
        .unwrap();
        let r = SstReader::open(meta.clone()).unwrap();
        assert!(r.index.len() > 3);
        let victim = &r.index[1];
        let mut bytes = std::fs::read(&path).unwrap();
        // Hit the middle of block 1's frame payload.
        let off = victim.offset as usize + victim.len as usize / 2;
        bytes[off] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let r = SstReader::open(meta).unwrap();
        match r.read_block(1) {
            Err(Error::Corruption(_)) => {}
            other => panic!("bit rot must be Corruption, got {other:?}"),
        }
        assert_eq!(
            r.decode_stats.block_decode_errors.load(Ordering::Relaxed),
            1
        );
        // Unrelated blocks are unaffected.
        assert!(r.read_block(0).is_ok());
        assert!(r.read_block(2).is_ok());
    }

    #[test]
    fn marked_corrupt_blocks_fail_deterministically() {
        for codec in BlockCodec::ALL {
            let dir = tmpdir();
            let path = dir.create().join("marked.sst");
            let meta =
                write_sstable(1, &path, sample_entries(300).into_iter(), &cfg(256, codec)).unwrap();
            let r = SstReader::open(meta).unwrap();
            let blocks = r.index.len();
            assert!(blocks >= 3);
            for idx in 0..blocks {
                match r.read_block_marked(idx, true) {
                    Err(Error::Corruption(_)) => {}
                    other => panic!(
                        "marked block {idx} (codec {}) must be Corruption, got {other:?}",
                        codec.name()
                    ),
                }
                // Unmarked read of the same block still answers.
                assert!(r.read_block(idx).is_ok());
            }
        }
    }

    #[test]
    fn dict_payload_survives_reopen() {
        // Dict/PBC state must round-trip through the file alone (no
        // training samples at open time).
        let dir = tmpdir();
        for codec in [BlockCodec::Dict, BlockCodec::Pbc] {
            let path = dir.create().join(format!("{}.sst", codec.name()));
            let entries: Vec<(Key, Entry)> = (0..400)
                .map(|i| {
                    (
                        Key::from(format!("user{i:012}")),
                        Entry::Put(Value::from(format!(
                            "city\t{i}\tMetropolis-{}\tpop={}\tcountry=XX",
                            i % 10,
                            i * 37
                        ))),
                    )
                })
                .collect();
            let (meta, stats) =
                write_sstable_with_stats(1, &path, entries.clone().into_iter(), &cfg(512, codec))
                    .unwrap();
            assert!(
                stats.blocks_compressed > 0,
                "{} should compress templated rows",
                codec.name()
            );
            let r = SstReader::open(meta).unwrap();
            assert_eq!(r.scan().unwrap(), entries, "codec {}", codec.name());
        }
    }

    #[test]
    fn decode_stats_count_each_block_once() {
        let dir = tmpdir();
        let path = dir.create().join("stats.sst");
        let meta = write_sstable(
            1,
            &path,
            sample_entries(300).into_iter(),
            &cfg(256, BlockCodec::Lz),
        )
        .unwrap();
        let stats = Arc::new(SstDecodeStats::default());
        let r = SstReader::open_shared(meta, stats.clone()).unwrap();
        let blocks = r.index.len();
        for idx in 0..blocks {
            r.read_block(idx).unwrap();
        }
        assert_eq!(
            stats.blocks_decoded.load(Ordering::Relaxed),
            blocks as u64,
            "each block read decodes its frame exactly once"
        );
        assert!(stats.blocks_decompressed.load(Ordering::Relaxed) > 0);
        assert_eq!(stats.block_decode_errors.load(Ordering::Relaxed), 0);
    }

    /// Shows that no length read from disk sizes a buffer beyond the
    /// file it came from.
    #[global_allocator]
    static PROBE: tb_common::testutil::AllocProbe = tb_common::testutil::AllocProbe;

    /// One way to damage a table file.
    #[derive(Debug, Clone)]
    enum Damage {
        /// Flip bit `bit` of the byte at `at % len`.
        Flip { at: usize, bit: u8 },
        /// Flip bit `bit` of a byte of the dict payload — for an `lz`
        /// table, its ten entropy tables.
        FlipTable { at: usize, bit: u8 },
        /// Keep only the first `at % len` bytes.
        Truncate { at: usize },
        /// Overwrite a length or offset with `value`: `field` 0..7 is a
        /// footer field (CRC re-stamped, so the forgery gets past it),
        /// 7 a spot in the index, 8/9 the bloom filter's bit count /
        /// probe count, 10 a spot in the dict payload.
        Forge { field: usize, at: usize, value: u64 },
    }

    fn damage_strategy() -> impl proptest::strategy::Strategy<Value = Damage> {
        use proptest::prelude::*;
        let value = prop_oneof![
            Just(0u64),
            Just(1u64),
            Just(u32::MAX as u64),
            Just(u64::MAX),
            0u64..1 << 20,
            any::<u64>(),
        ];
        prop_oneof![
            3 => (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::Flip { at, bit }),
            1 => (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::FlipTable { at, bit }),
            1 => any::<usize>().prop_map(|at| Damage::Truncate { at }),
            4 => (0usize..11, any::<usize>(), value)
                .prop_map(|(field, at, value)| Damage::Forge { field, at, value }),
        ]
    }

    /// Writes the low `width` bytes of `value` at `pos`, clipped to the
    /// buffer.
    fn put_le(bytes: &mut [u8], pos: usize, value: u64, width: usize) {
        let end = pos.saturating_add(width).min(bytes.len());
        if pos < end {
            bytes[pos..end].copy_from_slice(&value.to_le_bytes()[..end - pos]);
        }
    }

    fn apply(bytes: &mut Vec<u8>, damage: &Damage) {
        if bytes.is_empty() {
            return;
        }
        let len = bytes.len();
        let footer = len.saturating_sub(FOOTER_LEN);
        let field_u64 = |b: &[u8], at: usize| {
            b.get(footer + at..footer + at + 8)
                .map_or(0, |f| u64::from_le_bytes(f.try_into().unwrap()) as usize)
        };
        let field_u32 = |b: &[u8], at: usize| {
            b.get(footer + at..footer + at + 4)
                .map_or(0, |f| u32::from_le_bytes(f.try_into().unwrap()) as usize)
        };
        // A spot inside the section whose (offset, length) the footer
        // names at (off_at, len_at).
        let spot = |b: &[u8], off_at: usize, len_at: usize, at: usize| {
            field_u64(b, off_at).saturating_add(at % field_u32(b, len_at).max(1))
        };
        match *damage {
            Damage::Flip { at, bit } => bytes[at % len] ^= 1 << bit,
            Damage::FlipTable { at, bit } => {
                let pos = spot(bytes, 0, 8, at);
                if let Some(b) = bytes.get_mut(pos) {
                    *b ^= 1 << bit;
                }
            }
            Damage::Truncate { at } => bytes.truncate(at % len),
            Damage::Forge { field, value, .. } if field < 7 => {
                const FIELDS: [(usize, usize); 7] =
                    [(0, 8), (8, 4), (13, 8), (21, 4), (25, 8), (33, 4), (37, 4)];
                if len >= FOOTER_LEN {
                    let (off, width) = FIELDS[field];
                    put_le(bytes, footer + off, value, width);
                    let crc = crc32(&bytes[footer..len - 8]);
                    put_le(bytes, len - 8, crc as u64, 4);
                }
            }
            Damage::Forge {
                field: 7,
                at,
                value,
            } => {
                let pos = spot(bytes, 13, 21, at);
                put_le(bytes, pos, value, 4);
            }
            Damage::Forge {
                field: 8, value, ..
            } => {
                let pos = field_u64(bytes, 25);
                put_le(bytes, pos, value, 8);
            }
            Damage::Forge {
                field: 9, value, ..
            } => {
                let pos = field_u64(bytes, 25).saturating_add(8);
                put_le(bytes, pos, value, 4);
            }
            Damage::Forge { at, value, .. } => {
                let pos = spot(bytes, 0, 8, at);
                put_le(bytes, pos, value, 4);
            }
        }
    }

    fn pristine_lz_table() -> &'static (Vec<u8>, SstMeta) {
        static TABLE: std::sync::OnceLock<(Vec<u8>, SstMeta)> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            let dir = tmpdir();
            let path = dir.create().join("pristine.sst");
            // Big enough (~57 KiB) that the codec's fixed 40 KiB of
            // decode tables fit under the file-length bound, small
            // enough to stay fast.
            let meta = write_sstable(
                1,
                &path,
                sample_entries(4000).into_iter(),
                &cfg(512, BlockCodec::Lz),
            )
            .unwrap();
            (std::fs::read(&path).unwrap(), meta)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Whatever a table file holds — flipped bits, a truncation,
        /// forged footer/index/bloom/dict lengths — opening it, locating
        /// keys and ranges, reading every block and decoding it each
        /// return `Ok` or `Err(Corruption | Io)`: never a panic, and no
        /// allocation larger than the file (ROADMAP 9c).
        #[test]
        fn damaged_tables_never_panic_or_overallocate(
            damages in proptest::collection::vec(damage_strategy(), 1..4),
        ) {
            let (pristine, meta) = pristine_lz_table();
            let mut bytes = pristine.clone();
            for damage in &damages {
                apply(&mut bytes, damage);
            }
            let dir = tmpdir();
            let path = dir.create().join("damaged.sst");
            std::fs::write(&path, &bytes).unwrap();
            let meta = SstMeta { path, ..meta.clone() };
            let clean_error = |e: &Error| matches!(e, Error::Corruption(_) | Error::Io(_));
            let (outcome, largest) = tb_common::testutil::largest_allocation(|| -> Result<()> {
                let r = SstReader::open(meta)?;
                for i in (0..4100).step_by(21) {
                    let key = Key::from(format!("key-{i:06}"));
                    r.locate(&key);
                    r.locate_range(&key, Some(&Key::from(format!("key-{:06}", i + 40))));
                }
                r.locate_range(&Key::from(""), None);
                for idx in 0..r.index.len() {
                    match r.read_block(idx) {
                        Ok(block) => {
                            if let Err(e) = decode_block(&block) {
                                assert!(clean_error(&e), "block {idx} decode: {e:?}");
                            }
                        }
                        Err(e) => assert!(clean_error(&e), "block {idx} read: {e:?}"),
                    }
                }
                Ok(())
            });
            if let Err(e) = &outcome {
                proptest::prop_assert!(clean_error(e), "open: {e:?}");
            }
            // The floor covers a truncated file's path and error text.
            proptest::prop_assert!(
                largest <= bytes.len().max(1024),
                "{damages:?}: a {largest}-byte allocation for a {}-byte file",
                bytes.len()
            );
        }
    }
}
