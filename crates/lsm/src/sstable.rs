//! Block-based sorted string tables with compressed, checksummed
//! block frames.
//!
//! File layout:
//!
//! ```text
//! [block frame]* [dict payload] [filter block] [index block] [footer]
//! block frame := codec_tag u8 | uncompressed_len u32 | crc32(payload) u32 | payload
//! data block  := data entry*                      (a frame's decoded payload)
//! data entry  := varint(shared) | varint(unshared) | varint(tag) | key[shared..] | value
//! index block := index entry*                     (one per data block, in order)
//! index entry := varint(shared) | varint(unshared) | first_key[shared..] | varint(frame_len)
//! footer      := dict_off u64 | dict_len u32 | codec u8 |
//!                index_off u64 | index_len u32 | filter_off u64 |
//!                filter_len u32 | entry_count u32 | crc u32 | MAGIC u32
//! ```
//!
//! A data entry's `shared` counts the key bytes it shares with the
//! entry before it *in the same block*, so a block's first entry has
//! `shared = 0` and every block decodes alone; `unshared` bytes of key
//! follow. `tag` is 0 for a tombstone and `n + 1` for an `n`-byte
//! value. An index entry shares its first key's prefix with the
//! previous block's first key; frame offsets are the running sum of
//! `frame_len`, and the frames tile the data region up to `dict_off`.
//! `MAGIC` names this layout: a table in any earlier one fails to open
//! with [`Error::Corruption`].
//!
//! Blocks are cut before compression, by the bytes their entries would
//! take unshared: `SstConfig::block_size` counts each entry as
//! `1 + varint(klen) + varint(vlen) + klen + vlen`, so prefix sharing
//! shrinks a block without changing where blocks end. Each block is
//! framed through the table's [`BlockCodec`]. The codec's trained
//! state is stored once as the table-level dict payload, so a table is
//! self-describing and no block carries a model: the `dict` dictionary
//! and the PBC model are trained on sampled input values, an `lz`
//! table's 4 KiB dictionary is cut from its own blocks, and the
//! `lz`/`dict` entropy tables are trained on the LZ output of the
//! table's own blocks, each parsed after the dictionary (every flush
//! and compaction holds them all in memory before the first frame is
//! written, and a compaction re-trains on its merged output). Blocks,
//! the index and `locate` do not depend on the codec.
//! Every block read verifies the frame CRC before any key search; a bad
//! block is a per-slot [`Error::Corruption`], never a torn batch.
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

const MAGIC: u32 = 0x7b5d_57c4;
const FOOTER_LEN: usize = 8 + 4 + 1 + 8 + 4 + 8 + 4 + 4 + 4 + 4;

/// Build-time options.
#[derive(Debug, Clone, Copy)]
pub struct SstConfig {
    /// Target data-block size, counting every entry at its unshared,
    /// uncompressed size (`1 + varint(klen) + varint(vlen) + klen +
    /// vlen`); a block ends with the entry that reaches it.
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
    // The block's size as `block_size` counts it: entries unshared.
    let mut block_cost = 0usize;
    let mut block_first_key: Option<Key> = None;
    let mut samples: Vec<Vec<u8>> = Vec::new();
    let max_samples = if config.codec.trains_on_samples() {
        MAX_TRAIN_SAMPLES
    } else {
        0
    };
    let mut filter_items: Vec<Key> = Vec::new();
    let mut entry_count = 0u32;
    let mut prev_key: Option<Key> = None;

    for (key, entry) in entries {
        let prev_in_block = match &prev_key {
            Some(prev) if *prev >= key => {
                return Err(Error::InvalidArgument(format!(
                    "entries must be strictly sorted: {prev:?} >= {key:?}"
                )));
            }
            Some(prev) if block_first_key.is_some() => prev.as_slice(),
            _ => &[],
        };
        let value = match &entry {
            Entry::Put(v) => Some(v.as_slice()),
            Entry::Tombstone => None,
        };
        block_cost += encode_entry(&mut block, prev_in_block, key.as_slice(), value);
        if let Some(v) = value {
            if samples.len() < max_samples {
                samples.push(v.to_vec());
            }
        }
        block_first_key.get_or_insert_with(|| key.clone());
        filter_items.push(key.clone());
        prev_key = Some(key);
        entry_count += 1;

        if block_cost >= config.block_size {
            first_keys.push(block_first_key.take().expect("block has a first key"));
            blocks.push(std::mem::take(&mut block));
            block_cost = 0;
        }
    }
    if let Some(first) = block_first_key.take() {
        first_keys.push(first);
        blocks.push(block);
    }
    let Some(max_key) = prev_key else {
        return Err(Error::InvalidArgument(
            "refusing to write empty sstable".into(),
        ));
    };
    let min_key = first_keys[0].clone();

    // Pass 2: train the codec on the sampled values and on the blocks
    // themselves, then frame-encode every block. Index entries give
    // each frame's on-disk length; its offset is the sum before it.
    let mut data = Vec::new();
    let (codec_state, frames) =
        BlockCodecState::train_and_encode(config.codec, &samples, &blocks, &mut data);
    let mut stats = SstBuildStats::default();
    let mut index = Vec::new();
    let mut prev_first: &[u8] = &[];
    for ((first, raw), (frame_len, compressed)) in first_keys.iter().zip(&blocks).zip(frames) {
        stats.blocks += 1;
        stats.uncompressed_bytes += raw.len() as u64;
        if compressed {
            stats.blocks_compressed += 1;
        }
        let shared = shared_prefix_len(prev_first, first.as_slice());
        write_varint(&mut index, shared as u64);
        write_varint(&mut index, (first.len() - shared) as u64);
        index.extend_from_slice(&first.as_slice()[shared..]);
        write_varint(&mut index, frame_len as u64);
        prev_first = first.as_slice();
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
        min_key,
        max_key,
        entry_count,
        file_size,
    };
    Ok((meta, stats))
}

/// Appends one data entry (`value` `None` = tombstone) whose key shares
/// a prefix with `prev`, the entry before it in the block (empty for a
/// block's first entry). Returns the entry's size as `block_size`
/// counts it: unshared, `1 + varint(klen) + varint(vlen) + klen + vlen`.
fn encode_entry(block: &mut Vec<u8>, prev: &[u8], key: &[u8], value: Option<&[u8]>) -> usize {
    let shared = shared_prefix_len(prev, key);
    write_varint(block, shared as u64);
    write_varint(block, (key.len() - shared) as u64);
    write_varint(block, value.map_or(0, |v| v.len() as u64 + 1));
    block.extend_from_slice(&key[shared..]);
    let vlen = value.map_or(0, |v| {
        block.extend_from_slice(v);
        v.len()
    });
    1 + varint_len(key.len()) + varint_len(vlen) + key.len() + vlen
}

/// Bytes `a` and `b` share from their start.
fn shared_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Bytes [`write_varint`] spends on `v`.
fn varint_len(v: usize) -> usize {
    (usize::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

struct IndexEntry {
    first_key: Key,
    offset: u64,
    len: u32,
}

/// Parses the index block. Every frame lies in the data region, before
/// the dict payload at `dict_off`, and together they tile it: an extent
/// from disk sizes a read buffer only once it is known to lie inside
/// the file.
fn decode_index(bytes: &[u8], dict_off: u64) -> Result<Vec<IndexEntry>> {
    let mut index = Vec::new();
    let mut pos = 0usize;
    let mut offset = 0u64;
    let mut key = Vec::new();
    while pos < bytes.len() {
        let shared = check_shared(read_varint(bytes, &mut pos)?, key.len())?;
        let unshared = read_varint(bytes, &mut pos)?;
        let suffix = take(bytes, &mut pos, unshared)
            .ok_or_else(|| Error::Corruption("index entry truncated".into()))?;
        rebuild_key(&mut key, shared, suffix);
        let len = u32::try_from(read_varint(bytes, &mut pos)?)
            .map_err(|_| Error::Corruption("index frame length above u32::MAX".into()))?;
        if offset + len as u64 > dict_off {
            return Err(Error::Corruption(
                "index entry points outside the data region".into(),
            ));
        }
        index.push(IndexEntry {
            first_key: Key::copy_from(&key),
            offset,
            len,
        });
        offset += len as u64;
    }
    if index.is_empty() {
        return Err(Error::Corruption("sstable index holds no blocks".into()));
    }
    if offset != dict_off {
        return Err(Error::Corruption(
            "index frames do not tile the data region".into(),
        ));
    }
    Ok(index)
}

/// The next `len` bytes at `*pos`, advancing it, or `None` when fewer
/// remain.
fn take<'a>(bytes: &'a [u8], pos: &mut usize, len: u64) -> Option<&'a [u8]> {
    let len = usize::try_from(len).ok()?;
    let out = bytes.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(out)
}

/// `shared` as a length, when the previous key is at least that long.
fn check_shared(shared: u64, prev_len: usize) -> Result<usize> {
    match usize::try_from(shared) {
        Ok(shared) if shared <= prev_len => Ok(shared),
        _ => Err(Error::Corruption(format!(
            "entry shares {shared} bytes with a {prev_len}-byte previous key"
        ))),
    }
}

/// Turns `key`, the previous key, into the next one: its first `shared`
/// bytes, then `suffix`. Grows the buffer to exactly the key it holds,
/// so its capacity never exceeds the longest key the bytes spell.
fn rebuild_key(key: &mut Vec<u8>, shared: usize, suffix: &[u8]) {
    key.truncate(shared);
    key.reserve_exact(suffix.len());
    key.extend_from_slice(suffix);
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
        let index = decode_index(&index_bytes, dict_off)?;

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
    let mut entries = BlockEntries::new(block);
    let mut key = Vec::new();
    while let Some(raw) = entries.next_entry()? {
        rebuild_key(&mut key, raw.shared, raw.suffix);
        out.push((Key::copy_from(&key), raw.entry()));
    }
    Ok(())
}

/// Searches a decoded data block for `key` (entries are sorted, so the
/// walk stops at the first greater key). Keys are compared, not
/// rebuilt: the walk tracks how many leading bytes the last key before
/// `key` shares with it. An entry that keeps more of that key than
/// those bytes keeps the byte where it sorted below `key`, so it sorts
/// below `key` too; any other entry compares only its suffix. Only the
/// match is copied out.
pub fn find_in_block(block: &[u8], key: &Key) -> Result<Option<Entry>> {
    let key = key.as_slice();
    let mut entries = BlockEntries::new(block);
    let mut matched = 0;
    while let Some(raw) = entries.next_entry()? {
        if raw.shared > matched {
            continue;
        }
        let rest = &key[raw.shared..];
        match raw.suffix.cmp(rest) {
            std::cmp::Ordering::Less => matched = raw.shared + shared_prefix_len(raw.suffix, rest),
            std::cmp::Ordering::Equal => return Ok(Some(raw.entry())),
            std::cmp::Ordering::Greater => return Ok(None),
        }
    }
    Ok(None)
}

/// One data-block entry, borrowed from the block: its key is the
/// previous entry's first `shared` bytes, then `suffix`.
struct RawEntry<'a> {
    shared: usize,
    suffix: &'a [u8],
    /// `None` = tombstone.
    value: Option<&'a [u8]>,
}

impl RawEntry<'_> {
    fn entry(&self) -> Entry {
        self.value
            .map_or(Entry::Tombstone, |v| Entry::Put(Value::copy_from(v)))
    }
}

/// A forward walk over a data block's entries, checking each against
/// the block's bounds and the length of the key before it.
struct BlockEntries<'a> {
    block: &'a [u8],
    pos: usize,
    prev_len: usize,
}

impl<'a> BlockEntries<'a> {
    fn new(block: &'a [u8]) -> Self {
        Self {
            block,
            pos: 0,
            prev_len: 0,
        }
    }

    /// The next entry, or `None` at the end of the block.
    fn next_entry(&mut self) -> Result<Option<RawEntry<'a>>> {
        if self.pos == self.block.len() {
            return Ok(None);
        }
        let (block, pos) = (self.block, &mut self.pos);
        let shared = entry_varint(block, pos)?;
        let unshared = entry_varint(block, pos)?;
        let tag = entry_varint(block, pos)?;
        let overflow = || Error::Corruption("entry overflows block".into());
        let suffix = take(block, pos, unshared).ok_or_else(overflow)?;
        let value = match tag.checked_sub(1) {
            None => None,
            Some(vlen) => Some(take(block, pos, vlen).ok_or_else(overflow)?),
        };
        let shared = check_shared(shared, self.prev_len)?;
        self.prev_len = shared + suffix.len();
        Ok(Some(RawEntry {
            shared,
            suffix,
            value,
        }))
    }
}

/// [`read_varint`] with the one-byte case — nearly every `shared`,
/// `unshared` and `tag` of a data entry — inlined into the block walk.
#[inline]
fn entry_varint(block: &[u8], pos: &mut usize) -> Result<u64> {
    match block.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Ok(b as u64)
        }
        _ => read_varint(block, pos),
    }
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

    #[test]
    fn blocks_end_where_unshared_entries_reach_block_size() {
        // Reference cut: every entry at the size a layout storing whole
        // keys gives it, `1 + varint(klen) + varint(vlen) + klen + vlen`.
        let varint = |v: usize| {
            let mut b = Vec::new();
            write_varint(&mut b, v as u64);
            b.len()
        };
        let entries = sample_entries(2000);
        for block_size in [1, 64, 512, 4096] {
            let mut expect = Vec::new();
            let mut cost = 0;
            for (k, e) in &entries {
                if cost == 0 {
                    expect.push(k.clone());
                }
                let vlen = match e {
                    Entry::Put(v) => v.len(),
                    Entry::Tombstone => 0,
                };
                cost += 1 + varint(k.len()) + varint(vlen) + k.len() + vlen;
                if cost >= block_size {
                    cost = 0;
                }
            }
            let dir = tmpdir();
            let path = dir.create().join("cut.sst");
            let meta = write_sstable(
                1,
                &path,
                entries.clone().into_iter(),
                &cfg(block_size, BlockCodec::Lz),
            )
            .unwrap();
            let r = SstReader::open(meta).unwrap();
            let got: Vec<Key> = r.index.iter().map(|e| e.first_key.clone()).collect();
            assert_eq!(got, expect, "block_size {block_size}");
        }
    }

    /// Writes footer field `(at, width)` of a table image and re-stamps
    /// the footer CRC, so the forgery gets past it.
    fn forge_footer(bytes: &mut [u8], at: usize, width: usize, value: u64) {
        let footer = bytes.len() - FOOTER_LEN;
        put_le(bytes, footer + at, value, width);
        let crc = crc32(&bytes[footer..bytes.len() - 8]);
        put_le(bytes, bytes.len() - 8, crc as u64, 4);
    }

    fn footer_field(bytes: &[u8], at: usize, width: usize) -> u64 {
        let at = bytes.len() - FOOTER_LEN + at;
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(&bytes[at..at + width]);
        u64::from_le_bytes(le)
    }

    fn assert_open_refused(meta: SstMeta, what: &str) {
        match SstReader::open(meta) {
            Err(Error::Corruption(_)) => {}
            Err(e) => panic!("{what}: want Corruption, got {e:?}"),
            Ok(r) => {
                r.locate_range(&Key::from(""), None);
                panic!("{what}: the table opened");
            }
        }
    }

    #[test]
    fn empty_index_is_corruption() {
        // A 3-byte key and a 16 KiB value make the one index entry a
        // whole number of bloom words, so with the index folded into
        // the filter section the filter still parses and the footer
        // names an empty index.
        let dir = tmpdir();
        let path = dir.create().join("noindex.sst");
        let entry = (
            Key::from("abc"),
            Entry::Put(Value::from(vec![b'v'; 16 << 10])),
        );
        let meta = write_sstable(1, &path, std::iter::once(entry), &SstConfig::default()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (index_off, index_len) = (footer_field(&bytes, 13, 8), footer_field(&bytes, 21, 4));
        let filter_len = footer_field(&bytes, 33, 4);
        assert_eq!(index_len % 8, 0, "index must fold into whole bloom words");
        forge_footer(&mut bytes, 33, 4, filter_len + index_len);
        forge_footer(&mut bytes, 13, 8, index_off + index_len);
        forge_footer(&mut bytes, 21, 4, 0);
        std::fs::write(&path, &bytes).unwrap();
        assert_open_refused(meta, "empty index");
    }

    /// Replaces the index block of the table at `path` with `index`,
    /// footer re-stamped, so only the index is wrong.
    fn with_index(path: &Path, index: &[u8]) {
        let bytes = std::fs::read(path).unwrap();
        let index_off = footer_field(&bytes, 13, 8) as usize;
        let mut out = bytes[..index_off].to_vec();
        out.extend_from_slice(index);
        out.extend_from_slice(&bytes[bytes.len() - FOOTER_LEN..]);
        forge_footer(&mut out, 21, 4, index.len() as u64);
        std::fs::write(path, out).unwrap();
    }

    #[test]
    fn index_frame_lengths_beyond_the_data_region_are_corruption() {
        for (what, frame_len) in [
            ("frame past dict_off", None),
            ("frame_len above u32::MAX", Some(u32::MAX as u64 + 1)),
        ] {
            let dir = tmpdir();
            let path = dir.create().join("extent.sst");
            let meta = write_sstable(
                1,
                &path,
                sample_entries(50).into_iter(),
                &SstConfig::default(),
            )
            .unwrap();
            let dict_off = footer_field(&std::fs::read(&path).unwrap(), 0, 8);
            let mut index = vec![0, 1, b'k'];
            write_varint(&mut index, frame_len.unwrap_or(dict_off + 1));
            with_index(&path, &index);
            assert_open_refused(meta, what);
        }
    }

    /// A three-entry `none` table (`apple` → `red`, `apricot` deleted,
    /// `banana` → `yellow`) as the layout before prefix sharing wrote
    /// it: a flag byte and the whole key in every entry, `u64` offset
    /// and `u32` length in every index entry, footer magic `0x7b5d57a2`.
    const PREVIOUS_LAYOUT_TABLE: [u8; 132] = [
        0x00, 0x24, 0x00, 0x00, 0x00, 0x33, 0x2b, 0xea, 0x06, 0x00, 0x05, 0x03, //
        0x61, 0x70, 0x70, 0x6c, 0x65, 0x72, 0x65, 0x64, 0x01, 0x07, 0x00, 0x61, //
        0x70, 0x72, 0x69, 0x63, 0x6f, 0x74, 0x00, 0x06, 0x06, 0x62, 0x61, 0x6e, //
        0x61, 0x6e, 0x61, 0x79, 0x65, 0x6c, 0x6c, 0x6f, 0x77, 0x20, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x8c, 0xf1, 0x8f, //
        0x61, 0x00, 0x00, 0x00, 0x00, 0x05, 0x61, 0x70, 0x70, 0x6c, 0x65, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2d, 0x00, 0x00, 0x00, 0x2d, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x41, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x00, //
        0x2d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, //
        0x03, 0x00, 0x00, 0x00, 0xde, 0x7c, 0x4f, 0xba, 0xa2, 0x57, 0x5d, 0x7b, //
    ];

    #[test]
    fn previous_layout_table_is_corruption() {
        let dir = tmpdir();
        let path = dir.create().join("previous.sst");
        std::fs::write(&path, PREVIOUS_LAYOUT_TABLE).unwrap();
        let meta = SstMeta {
            id: 1,
            path,
            min_key: Key::from("apple"),
            max_key: Key::from("banana"),
            entry_count: 3,
            file_size: PREVIOUS_LAYOUT_TABLE.len() as u64,
        };
        assert_open_refused(meta, "previous layout");
    }

    #[test]
    fn table_of_the_ten_table_lz_layout_is_corruption() {
        // Tables written before the fused `lz` decode carry the same
        // footer under magic `0x7b5d57b3`, and ten entropy tables in
        // their dict payload that the current codec cannot read.
        let dir = tmpdir();
        let path = dir.create().join("ten_tables.sst");
        let config = SstConfig {
            codec: BlockCodec::Lz,
            ..SstConfig::default()
        };
        let meta = write_sstable(1, &path, sample_entries(200).into_iter(), &config).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&0x7b5d_57b3u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert_open_refused(meta, "ten-table lz layout");
    }

    /// Block bytes from `(shared, unshared, tag, rest)` entries: three
    /// varints, then `rest` (key suffix and value) verbatim.
    fn block_of(entries: &[(u64, u64, u64, &[u8])]) -> Vec<u8> {
        let mut block = Vec::new();
        for &(shared, unshared, tag, rest) in entries {
            write_varint(&mut block, shared);
            write_varint(&mut block, unshared);
            write_varint(&mut block, tag);
            block.extend_from_slice(rest);
        }
        block
    }

    fn assert_block_refused(block: &[u8], what: &str) {
        assert!(
            matches!(decode_block(block), Err(Error::Corruption(_))),
            "{what}: decode_block"
        );
        // A key after every entry walks the whole block.
        let last = Key::from(vec![0xff; 8]);
        assert!(
            matches!(find_in_block(block, &last), Err(Error::Corruption(_))),
            "{what}: find_in_block"
        );
    }

    #[test]
    fn malformed_entries_are_corruption() {
        // The well-formed baseline: `ab` → `x`, then `ac` deleted.
        let good = block_of(&[(0, 2, 2, b"abx"), (1, 1, 0, b"c")]);
        assert_eq!(
            decode_block(&good).unwrap(),
            vec![
                (Key::from("ab"), Entry::Put(Value::from("x"))),
                (Key::from("ac"), Entry::Tombstone),
            ]
        );
        assert_block_refused(
            &block_of(&[(0, 2, 2, b"abx"), (3, 1, 0, b"c")]),
            "shared longer than the previous key",
        );
        assert_block_refused(
            &block_of(&[(1, 1, 2, b"ax")]),
            "a block's first entry shares a prefix",
        );
        assert_block_refused(
            &block_of(&[(0, 2, 2, b"abx"), (1, 1, 9, b"cvalue")]),
            "value runs past the block",
        );
        assert_block_refused(&block_of(&[(0, 9, 0, b"ab")]), "key runs past the block");
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
        /// 7 one of the index's varints (an entry's `shared`, `unshared`
        /// or `frame_len`, rewritten in place), 8/9 the bloom filter's
        /// bit count / probe count, 10 a spot in the dict payload.
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
                    forge_footer(bytes, off, width, value);
                }
            }
            Damage::Forge {
                field: 7,
                at,
                value,
            } => {
                let spots = index_varints(bytes);
                if !spots.is_empty() {
                    let mut varint = Vec::new();
                    write_varint(&mut varint, value);
                    let pos = spots[at % spots.len()];
                    let end = (pos + varint.len()).min(len);
                    bytes[pos..end].copy_from_slice(&varint[..end - pos]);
                }
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

    /// Where the index's varints start — each entry's `shared`,
    /// `unshared` and `frame_len` — as far as the index still parses.
    fn index_varints(bytes: &[u8]) -> Vec<usize> {
        if bytes.len() < FOOTER_LEN {
            return Vec::new();
        }
        let off = footer_field(bytes, 13, 8) as usize;
        let end = off
            .saturating_add(footer_field(bytes, 21, 4) as usize)
            .min(bytes.len() - FOOTER_LEN);
        let Some(index) = bytes.get(off..end) else {
            return Vec::new();
        };
        let mut spots = Vec::new();
        let mut pos = 0;
        while pos < index.len() {
            spots.push(off + pos);
            if read_varint(index, &mut pos).is_err() || pos == index.len() {
                break;
            }
            spots.push(off + pos);
            let Ok(unshared) = read_varint(index, &mut pos) else {
                break;
            };
            pos = pos.saturating_add(unshared as usize);
            if pos >= index.len() {
                break;
            }
            spots.push(off + pos);
            if read_varint(index, &mut pos).is_err() {
                break;
            }
        }
        spots
    }

    fn pristine_lz_table() -> &'static (Vec<u8>, SstMeta) {
        static TABLE: std::sync::OnceLock<(Vec<u8>, SstMeta)> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            let dir = tmpdir();
            let path = dir.create().join("pristine.sst");
            // Big enough (~73 KiB) that the codec's fixed 64 KiB of
            // decode tables fit under the file-length bound, small
            // enough to stay fast.
            let meta = write_sstable(
                1,
                &path,
                sample_entries(6400).into_iter(),
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
        /// keys and ranges, reading every block, decoding it and
        /// searching it each return `Ok` or `Err(Corruption | Io)`:
        /// never a panic, and no allocation larger than the file
        /// (ROADMAP 9c).
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
                let probes: Vec<Key> = (0..4100)
                    .step_by(21)
                    .map(|i| Key::from(format!("key-{i:06}")))
                    .collect();
                let located: Vec<Option<usize>> = probes.iter().map(|k| r.locate(k)).collect();
                for (i, key) in (0..4100).step_by(21).zip(&probes) {
                    r.locate_range(key, Some(&Key::from(format!("key-{:06}", i + 40))));
                }
                r.locate_range(&Key::from(""), None);
                // Past every key: a search that walks a whole block.
                let past_all = Key::from("zzz");
                for idx in 0..r.index.len() {
                    match r.read_block(idx) {
                        Ok(block) => {
                            if let Err(e) = decode_block(&block) {
                                assert!(clean_error(&e), "block {idx} decode: {e:?}");
                            }
                            let here = probes.iter().zip(&located).filter(|(_, at)| **at == Some(idx));
                            for key in here.map(|(k, _)| k).chain([&past_all]) {
                                if let Err(e) = find_in_block(&block, key) {
                                    assert!(clean_error(&e), "block {idx} find {key:?}: {e:?}");
                                }
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

    /// A key that stresses prefix sharing: short keys over a 3-letter
    /// alphabet (many are a prefix of the next), a 130–300-byte common
    /// run with a short tail (two-byte `shared` varints), or 120–200
    /// arbitrary bytes (two-byte `unshared` varints).
    fn awkward_key() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        let letters = |n| {
            proptest::collection::vec(0u8..3, n)
                .prop_map(|k: Vec<u8>| k.into_iter().map(|c| b'a' + c).collect::<Vec<u8>>())
        };
        prop_oneof![
            3 => letters(0..5),
            2 => (130usize..300, letters(0..3)).prop_map(|(run, tail)| [vec![b'p'; run], tail].concat()),
            1 => proptest::collection::vec(any::<u8>(), 120..200),
        ]
    }

    /// A tombstone, an empty value, a short value, or one long enough
    /// for a two-byte `tag`.
    fn awkward_value() -> impl proptest::strategy::Strategy<Value = Option<Vec<u8>>> {
        use proptest::prelude::*;
        prop_oneof![
            1 => Just(None),
            1 => Just(Some(Vec::new())),
            3 => proptest::collection::vec(any::<u8>(), 0..40).prop_map(Some),
            1 => proptest::collection::vec(any::<u8>(), 127..300).prop_map(Some),
        ]
    }

    /// Strictly sorted entries over awkward keys and values.
    fn awkward_entries() -> impl proptest::strategy::Strategy<Value = Vec<(Key, Entry)>> {
        use proptest::prelude::*;
        proptest::collection::vec((awkward_key(), awkward_value()), 1..80).prop_map(|pairs| {
            let sorted: std::collections::BTreeMap<_, _> = pairs.into_iter().collect();
            sorted
                .into_iter()
                .map(|(k, v)| {
                    let entry = v.map_or(Entry::Tombstone, |v| Entry::Put(Value::from(v)));
                    (Key::from(k), entry)
                })
                .collect()
        })
    }

    /// `entries` laid out as one data block, the way the writer does.
    fn encode_block(entries: &[(Key, Entry)]) -> Vec<u8> {
        let mut block = Vec::new();
        let mut prev: &[u8] = &[];
        for (k, e) in entries {
            let value = match e {
                Entry::Put(v) => Some(v.as_slice()),
                Entry::Tombstone => None,
            };
            encode_entry(&mut block, prev, k.as_slice(), value);
            prev = k.as_slice();
        }
        block
    }

    /// Block bytes for the decoder proptest: arbitrary bytes, or a
    /// well-formed block with bits flipped, a varint forged in place or
    /// a truncation.
    fn block_bytes() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        let damage = (0u8..3, any::<usize>(), any::<u64>());
        prop_oneof![
            1 => proptest::collection::vec(any::<u8>(), 0..600),
            3 => (awkward_entries(), proptest::collection::vec(damage, 0..3)).prop_map(
                |(entries, damages)| {
                    let mut block = encode_block(&entries);
                    for (kind, at, value) in damages {
                        if block.is_empty() {
                            break;
                        }
                        let at = at % block.len();
                        match kind {
                            0 => block[at] ^= 1 << (value % 8),
                            1 => {
                                let mut varint = Vec::new();
                                write_varint(&mut varint, value >> (value % 64));
                                let end = (at + varint.len()).min(block.len());
                                block[at..end].copy_from_slice(&varint[..end - at]);
                            }
                            _ => block.truncate(at),
                        }
                    }
                    block
                }
            ),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Prefix sharing changes bytes, not answers: under every codec
        /// and block size (1 = below one entry), every key answers
        /// through `locate` + `find_in_block`, keys next to them that
        /// are absent answer `None`, and `scan()` returns the input.
        #[test]
        fn prop_same_blocks_same_answers(
            entries in awkward_entries(),
            block_size in proptest::prop_oneof![
                proptest::prelude::Just(1usize),
                1usize..400,
                proptest::prelude::Just(4096usize),
            ],
        ) {
            let present: std::collections::BTreeSet<&Key> = entries.iter().map(|(k, _)| k).collect();
            let mut absent = vec![Key::from(""), Key::from(vec![0xff; 301])];
            for (k, _) in &entries {
                absent.push(Key::from([k.as_slice(), &[0]].concat()));
                if let Some((_, shorter)) = k.as_slice().split_last() {
                    absent.push(Key::from(shorter));
                }
            }
            absent.retain(|k| !present.contains(k));
            for codec in BlockCodec::ALL {
                let dir = tmpdir();
                let path = dir.create().join("awkward.sst");
                let meta = write_sstable(1, &path, entries.clone().into_iter(), &cfg(block_size, codec))
                    .unwrap();
                let r = SstReader::open(meta).unwrap();
                for (k, e) in &entries {
                    proptest::prop_assert_eq!(get(&r, k).unwrap(), Some(e.clone()), "{}", codec.name());
                }
                for k in &absent {
                    proptest::prop_assert_eq!(get(&r, k).unwrap(), None, "{}: {:?}", codec.name(), k);
                }
                proptest::prop_assert_eq!(r.scan().unwrap(), entries.clone(), "{}", codec.name());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Whatever bytes a block holds, `find_in_block` and
        /// `decode_block` return `Ok` or `Corruption`, and neither
        /// makes an allocation past the block length + 1 KiB — except
        /// `decode_block`'s output vector, one `(Key, Entry)` per entry
        /// it decoded. Where the block decodes, sorted or not,
        /// `find_in_block` answers what a walk over the decoded keys to
        /// the first one at or past the probe answers.
        #[test]
        fn prop_block_decoders_refuse_garbage_within_bounds(block in block_bytes()) {
            let bound = block.len() + 1024;
            let corruption = |e: &Error| matches!(e, Error::Corruption(_));
            let (decoded, largest) = tb_common::testutil::largest_allocation(|| decode_block(&block));
            // Probe with every key up to the first bad entry, and with
            // the keys just before and after each.
            let mut probes = vec![Key::from(""), Key::from(vec![0xff; 8])];
            let mut walk = BlockEntries::new(&block);
            let mut key = Vec::new();
            let mut entries = 0usize;
            while let Ok(Some(raw)) = walk.next_entry() {
                entries += 1;
                rebuild_key(&mut key, raw.shared, raw.suffix);
                probes.push(Key::copy_from(&key));
                probes.push(Key::from([key.as_slice(), &[0]].concat()));
                if let Some((_, shorter)) = key.split_last() {
                    probes.push(Key::from(shorter));
                }
            }
            let out_vec = entries.next_power_of_two().max(4) * std::mem::size_of::<(Key, Entry)>();
            proptest::prop_assert!(
                largest <= bound.max(out_vec),
                "decode: {largest} B for a {}-byte block of {entries} entries",
                block.len()
            );
            if let Err(e) = &decoded {
                proptest::prop_assert!(corruption(e), "decode: {e:?}");
            }
            for probe in &probes {
                let (found, largest) = tb_common::testutil::largest_allocation(|| find_in_block(&block, probe));
                proptest::prop_assert!(largest <= bound, "find: {largest} B for a {}-byte block", block.len());
                match (found, &decoded) {
                    (found, Ok(decoded)) => {
                        let want = decoded
                            .iter()
                            .find(|(k, _)| k >= probe)
                            .filter(|(k, _)| k == probe)
                            .map(|(_, e)| e.clone());
                        proptest::prop_assert_eq!(found.ok(), Some(want), "find {:?}", probe);
                    }
                    (Err(e), Err(_)) => proptest::prop_assert!(corruption(&e), "find {probe:?}: {e:?}"),
                    (Ok(_), Err(_)) => {}
                }
            }
        }
    }
}
