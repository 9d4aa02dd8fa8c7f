//! Per-block compressed frames for the SSTable data path.
//!
//! Every on-disk data block is wrapped in a versioned frame:
//!
//! ```text
//! frame := codec_tag u8 | uncompressed_len u32 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! The codec is chosen per table ([`BlockCodec`]) and its trained state
//! is serialized into a table-level *dictionary payload* stored next to
//! the data blocks, so a table is self-describing: reopening it needs
//! only the footer's codec byte and the dictionary payload, never the
//! training input.
//!
//! `lz` and `dict` frames carry the block's LZ77 token stream, split
//! by kind and entropy-coded under ten static Huffman tables that were
//! trained once on the table's own blocks and live in the dictionary
//! payload — no block carries a model or a table header:
//!
//! ```text
//! lz/dict payload := varint(ctrl_len) | varint(lit_len) | bits
//! bits            := ctrl_len control codes, then lit_len literal
//!                    codes, LSB-first, zero-padded to a byte
//! control bytes   := every varint of the token stream, in order
//!                    (literal-run length, match length, distance, end)
//! literals        := every literal byte of the token stream, in order
//! dict payload    := 6 control tables | 4 literal tables (128 B each)
//!                    | dictionary (0..=4096 bytes)
//! ```
//!
//! Every block is parsed as if the table's dictionary came right
//! before it, so a match may start in the dictionary, and its
//! distances count back through `dictionary ++ block`. A `dict`
//! table's dictionary is trained on its input values; an `lz` table's
//! is 16 slices of 256 bytes cut from its own blocks, one a third of
//! the way into each of 16 evenly spaced blocks. 4 KiB keeps every
//! distance from a 4 KiB block under 16 KiB, two varint bytes; the
//! dictionary is stored raw in every table, so an `lz` table of fewer
//! than 32 blocks stores none (and parses each block alone).
//!
//! Each symbol's table is chosen by its context, which the decoder
//! knows before it decodes the symbol:
//!
//! * a control byte by its token field — literal-run length, match
//!   length (or end marker), distance, cycling in that order — and by
//!   whether it is the first or a continuation byte of its varint
//!   (2 × 3 tables);
//! * a literal by the class of the previous literal in the same run —
//!   digit, lowercase, uppercase, other; a run's first literal counts
//!   as after "other" (4 tables).
//!
//! So decoding is two passes over the one bitstream: the control codes,
//! under the field/byte state machine, whose literal-run-length fields
//! then give the run boundaries for the literal codes.
//!
//! `pbc` frames carry [`Pbc`]'s own record format and the serialized
//! [`PbcModel`] as dictionary payload.
//!
//! Per-block stored fallback: when compression does not shrink a block
//! (or the codec is [`BlockCodec::None`]) the frame carries the raw
//! bytes under [`FRAME_TAG_STORED`] — still CRC-checked, so every block
//! read is checksummed regardless of codec.

use crate::dict::dictionary_bytes;
use crate::huffman::{BitReader, BitWriter, Decoder, HuffTable, TABLE_BYTES};
use crate::lz::{
    lz_decode, lz_parse, lz_parse_after, read_varint, write_varint, Prefix, SplitSource,
    SplitTokens, TzstdLevel,
};
use crate::pbc::{Pbc, PbcConfig, PbcModel};
use crate::Compressor;
use std::sync::Arc;
use tb_common::{crc32, Error, Result};

/// `codec_tag u8 | uncompressed_len u32 | crc32 u32`.
pub const FRAME_HEADER_LEN: usize = 1 + 4 + 4;

/// Frame tag for an uncompressed (stored) payload — shared by every
/// codec as the didn't-shrink fallback, and the only tag
/// [`BlockCodec::None`] emits.
pub const FRAME_TAG_STORED: u8 = 0;

/// Writer-side cap on dictionary training samples collected from a
/// flush/compaction input stream (first N put values, deterministic).
pub const MAX_TRAIN_SAMPLES: usize = 512;

/// Byte budget for the dictionary an `lz`/`dict` table stores.
pub const MAX_DICT_BYTES: usize = 4096;

/// Longest block a compressed frame may hold; longer blocks are stored.
/// A compressed frame's `uncompressed_len` bounds the decode, so the
/// reader refuses anything above this before decoding.
pub const MAX_COMPRESSED_BLOCK_LEN: usize = 64 << 20;

/// Up-front output reservation per decoded LZ token (`tb-benchmark`'s
/// `lz` blocks decode to ~1.5 bytes per token); a block that expands
/// further grows its buffer as it decodes instead of trusting the
/// frame header.
const LZ_RESERVE_PER_TOKEN: usize = 4;

/// The entropy tables are trained on one block in
/// [`TRAIN_BLOCK_STRIDE`] (evenly spaced), at most this many: the
/// tables stop improving measurably after a handful of blocks, and
/// each training block is LZ-parsed a second time.
const MAX_TRAIN_BLOCKS: usize = 16;
const TRAIN_BLOCK_STRIDE: usize = 8;

/// Size of the pseudo-blocks [`BlockCodecState::train`] cuts its value
/// samples into when it has no real blocks to train on.
const SAMPLE_BLOCK_LEN: usize = 4096;

/// An `lz` table's dictionary is [`DICT_SLICES`] slices of
/// [`DICT_SLICE_LEN`] bytes, `MAX_DICT_BYTES` in all.
const DICT_SLICES: usize = 16;
const DICT_SLICE_LEN: usize = MAX_DICT_BYTES / DICT_SLICES;

/// Fewest blocks an `lz` table needs to store a dictionary, which is
/// stored raw, once per table. On Cities records (`user{i:012}` or
/// hashed keys) a 24-block table breaks even with it and a 32-block
/// one is ~3 % smaller; large tables save ~7 %.
const MIN_DICT_BLOCKS: usize = 32;

/// The dictionary of an `lz` table: one slice from the middle block
/// of each of [`DICT_SLICES`] equal runs of blocks, taken a third of
/// the way into the block, past its first entry, whose key shares no
/// prefix. Empty when the table has fewer than [`MIN_DICT_BLOCKS`]
/// blocks.
fn cut_dictionary(blocks: &[Vec<u8>]) -> Vec<u8> {
    if blocks.len() < MIN_DICT_BLOCKS {
        return Vec::new();
    }
    let mut dict = Vec::with_capacity(MAX_DICT_BYTES);
    for slice in 0..DICT_SLICES {
        let block = &blocks[(2 * slice + 1) * blocks.len() / (2 * DICT_SLICES)];
        let start = block.len() / 3;
        dict.extend_from_slice(&block[start..block.len().min(start + DICT_SLICE_LEN)]);
    }
    dict
}

/// LZ effort of the block path.
pub(crate) const BLOCK_LEVEL: TzstdLevel = TzstdLevel(1);

/// Per-table block codec, chosen from `LsmConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockCodec {
    /// Stored frames only (still CRC-checked).
    #[default]
    None,
    /// LZ77 + table-trained Huffman, with a dictionary cut from the
    /// table's own blocks as shared match history.
    Lz,
    /// Pattern-based compression; the trained model is the table's
    /// dictionary payload.
    Pbc,
    /// LZ77 + table-trained Huffman, with a dictionary trained on the
    /// table's input values as shared match history.
    Dict,
}

impl BlockCodec {
    pub const ALL: [BlockCodec; 4] = [
        BlockCodec::None,
        BlockCodec::Lz,
        BlockCodec::Pbc,
        BlockCodec::Dict,
    ];

    /// The frame tag this codec stamps on compressed frames (and the
    /// footer's codec byte). [`FRAME_TAG_STORED`] is deliberately the
    /// same value as `None`'s tag: a `None` table only emits stored
    /// frames.
    pub fn tag(self) -> u8 {
        match self {
            BlockCodec::None => 0,
            BlockCodec::Lz => 1,
            BlockCodec::Pbc => 2,
            BlockCodec::Dict => 3,
        }
    }

    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(BlockCodec::None),
            1 => Some(BlockCodec::Lz),
            2 => Some(BlockCodec::Pbc),
            3 => Some(BlockCodec::Dict),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            BlockCodec::None => "none",
            BlockCodec::Lz => "lz",
            BlockCodec::Pbc => "pbc",
            BlockCodec::Dict => "dict",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(BlockCodec::None),
            "lz" => Some(BlockCodec::Lz),
            "pbc" => Some(BlockCodec::Pbc),
            "dict" => Some(BlockCodec::Dict),
            _ => None,
        }
    }

    /// Whether [`BlockCodecState::train_on_blocks`] reads its value
    /// samples (the `dict` dictionary, the `pbc` model); the other
    /// codecs ignore them, so a writer need not collect any.
    pub fn trains_on_samples(self) -> bool {
        matches!(self, BlockCodec::Dict | BlockCodec::Pbc)
    }
}

/// Control-byte tables, indexed `2 × field + continuation`: fields 0
/// (literal-run length), 1 (match length or end marker), 2 (distance).
const CTRL_TABLES: usize = 6;
/// Literal tables, `CTRL_TABLES + class of the previous literal`.
const LIT_TABLES: usize = 4;
const TABLES: usize = CTRL_TABLES + LIT_TABLES;
/// The table of a literal run's first literal: after "other".
const RUN_START: usize = CTRL_TABLES + OTHER as usize;

/// `NEXT_CTRL[table][b >> 7]`: the table of the control byte after `b`.
/// A set continuation bit keeps the field and moves to its
/// continuation table; a clear one starts the next field.
const NEXT_CTRL: [[u8; 2]; CTRL_TABLES] = [[2, 1], [2, 1], [4, 3], [4, 3], [0, 5], [0, 5]];

/// The class of every byte that is not an ASCII digit or letter.
const OTHER: u8 = 3;

/// `LIT_CLASS[b]`: digit 0, lowercase 1, uppercase 2, anything else 3.
const LIT_CLASS: [u8; 256] = {
    let mut class = [OTHER; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            b'0'..=b'9' => 0,
            b'a'..=b'z' => 1,
            b'A'..=b'Z' => 2,
            _ => OTHER,
        };
        b += 1;
    }
    class
};

/// The table of the symbol after `sym`, which was coded under `table`
/// (within the control stream, or within one literal run).
fn next_table(table: usize, sym: u8) -> usize {
    if table < CTRL_TABLES {
        NEXT_CTRL[table][(sym >> 7) as usize] as usize
    } else {
        CTRL_TABLES + LIT_CLASS[sym as usize] as usize
    }
}

/// Where the literal runs of a control stream end, read off its
/// literal-run-length varints as its bytes decode with their tables —
/// the decoder's view of [`SplitTokens::run_start`]. A damaged stream
/// yields some offsets, never a panic.
#[derive(Default)]
struct LitRuns {
    end: u64,
    run: u64,
    shift: u32,
}

impl LitRuns {
    /// Takes the next control byte `b`, coded under `table`. When `b`
    /// completes a literal-run length, returns the literal offset where
    /// that run ends and the next one starts.
    #[inline(always)]
    fn run_end(&mut self, table: usize, b: u8) -> Option<usize> {
        if table >= 2 {
            return None;
        }
        // Bits past the 64th drop, as in `read_varint`.
        self.run |= u64::from(b & 0x7f).checked_shl(self.shift).unwrap_or(0);
        self.shift = self.shift.saturating_add(7);
        if b & 0x80 != 0 {
            return None;
        }
        self.end = self.end.saturating_add(std::mem::take(&mut self.run));
        self.shift = 0;
        Some(usize::try_from(self.end).unwrap_or(usize::MAX))
    }
}

/// Calls `f(table, symbol)` for every symbol of a parsed block in
/// coding order: the control bytes, then the literals.
fn for_each_coded(tokens: &SplitTokens, mut f: impl FnMut(usize, u8)) {
    let mut table = 0;
    for &b in &tokens.ctrl {
        f(table, b);
        table = next_table(table, b);
    }
    for (&b, &start) in tokens.lit.iter().zip(&tokens.run_start) {
        if start {
            table = RUN_START;
        }
        f(table, b);
        table = next_table(table, b);
    }
}

/// The `lz`/`dict` payload coder: LZ77 parse of the block after the
/// table's dictionary, its control and literal bytes coded under ten
/// context-selected static Huffman tables.
struct LzCoder {
    dict: Option<Prefix>,
    /// [`CTRL_TABLES`] control tables, then [`LIT_TABLES`] literal ones.
    tables: Vec<HuffTable>,
    /// The same tables, chained by [`next_table`].
    decoder: Decoder,
}

/// LZ77-parses `block` into `tokens`, after `dict` when there is one.
fn parse_block(dict: Option<&Prefix>, block: &[u8], tokens: &mut SplitTokens) {
    match dict {
        Some(dict) => lz_parse_after(dict, block, BLOCK_LEVEL, tokens),
        None => lz_parse(block, None, BLOCK_LEVEL, tokens),
    }
}

impl LzCoder {
    fn new(dict: Option<Prefix>, tables: Vec<HuffTable>) -> Self {
        Self {
            dict,
            decoder: Decoder::new(&tables, next_table),
            tables,
        }
    }

    /// Trains every table on the LZ output of `blocks`.
    fn train<'a>(dict: Option<Prefix>, blocks: impl Iterator<Item = &'a [u8]>) -> Self {
        let mut counts = [[0u32; 256]; TABLES];
        let mut tokens = SplitTokens::default();
        for block in blocks {
            tokens.ctrl.clear();
            tokens.lit.clear();
            tokens.run_start.clear();
            parse_block(dict.as_ref(), block, &mut tokens);
            for_each_coded(&tokens, |table, b| counts[table][b as usize] += 1);
        }
        Self::new(dict, counts.iter().map(HuffTable::from_counts).collect())
    }

    fn from_payload(payload: &[u8]) -> Result<Self> {
        let (tables, dict) = payload
            .split_at_checked(TABLES * TABLE_BYTES)
            .ok_or_else(|| Error::Corruption("block codec payload truncated".into()))?;
        if dict.len() > MAX_DICT_BYTES {
            return Err(Error::Corruption(format!(
                "block dictionary of {} bytes exceeds {MAX_DICT_BYTES}",
                dict.len()
            )));
        }
        let tables = tables
            .chunks_exact(TABLE_BYTES)
            .map(HuffTable::from_bytes)
            .collect::<Result<_>>()?;
        let dict = (!dict.is_empty()).then(|| Prefix::new(dict.to_vec()));
        Ok(Self::new(dict, tables))
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for table in &self.tables {
            table.write_bytes(&mut out);
        }
        if let Some(dict) = &self.dict {
            out.extend_from_slice(dict.as_bytes());
        }
        out
    }

    /// Appends the compressed payload of `block` to `out`.
    fn encode(&self, block: &[u8], out: &mut Vec<u8>) {
        let mut tokens = SplitTokens {
            ctrl: Vec::with_capacity(block.len() / 2),
            lit: Vec::with_capacity(block.len()),
            run_start: Vec::with_capacity(block.len()),
        };
        parse_block(self.dict.as_ref(), block, &mut tokens);
        write_varint(out, tokens.ctrl.len() as u64);
        write_varint(out, tokens.lit.len() as u64);
        let mut bits = BitWriter::new(out);
        for_each_coded(&tokens, |table, b| self.tables[table].put(b, &mut bits));
        bits.finish();
    }

    /// Decodes a payload that must yield exactly `ulen` bytes. Every
    /// length in the payload is checked against the bytes present (a
    /// code is at least one bit) and against `ulen` before it sizes
    /// anything; `ulen` itself sits in the frame header, outside the
    /// CRC, so the output is reserved at most [`LZ_RESERVE_PER_TOKEN`]
    /// bytes per decoded token and grows past that only as it decodes.
    /// Literal runs that disagree with `lit_len` decode to a token
    /// stream `lz_decode` refuses.
    fn decode(&self, payload: &[u8], ulen: usize) -> Result<Vec<u8>> {
        let mut pos = 0usize;
        let ctrl_len = read_varint(payload, &mut pos)?;
        let lit_len = read_varint(payload, &mut pos)?;
        let coded = &payload[pos..];
        if ctrl_len.saturating_add(lit_len) > coded.len() as u64 * 8 || lit_len > ulen as u64 {
            return Err(Error::Corruption(format!(
                "block payload claims {ctrl_len} control + {lit_len} literal bytes \
                 in {} coded bytes for a {ulen}-byte block",
                coded.len()
            )));
        }
        let mut tokens = vec![0u8; ctrl_len as usize + lit_len as usize];
        let (ctrl, lit) = tokens.split_at_mut(ctrl_len as usize);
        // While the control bytes decode, the run lengths they spell
        // mark where each literal run starts with a nonzero byte, which
        // the literal decoded there overwrites: the run-start context
        // then costs no branch per literal.
        if let Some(first) = lit.first_mut() {
            *first = 1;
        }
        let mut runs = LitRuns::default();
        let mut bits = BitReader::new(coded);
        let mut table = 0;
        bits.decode_each(ctrl, |bits, d| {
            let (b, next) = self.decoder.get(table, bits);
            if let Some(end) = runs.run_end(table, b) {
                if let Some(mark) = lit.get_mut(end) {
                    *mark = 1;
                }
            }
            (*d, table) = (b, next);
        });
        bits.decode_each(lit, |bits, d| {
            let code = if *d != 0 { RUN_START } else { table };
            (*d, table) = self.decoder.get(code, bits);
        });
        bits.finish()?;
        let (ctrl, lit) = tokens.split_at(ctrl_len as usize);
        let dict = self.dict.as_ref().map_or(&[][..], |d| d.as_bytes());
        let reserve = ulen.min(tokens.len().saturating_mul(LZ_RESERVE_PER_TOKEN));
        lz_decode(SplitSource::new(ctrl, lit), dict, reserve, ulen)
    }
}

enum Coder {
    /// Stored frames only.
    None,
    Lz(Box<LzCoder>),
    Pbc(Pbc),
}

/// A table's codec plus its trained state: built by the writer
/// ([`BlockCodecState::train_on_blocks`], or [`BlockCodecState::train`]
/// from value samples alone) or rebuilt by a reader from the stored
/// dictionary payload ([`BlockCodecState::from_dict_payload`]).
pub struct BlockCodecState {
    codec: BlockCodec,
    coder: Coder,
    dict_payload: Vec<u8>,
}

impl Default for BlockCodecState {
    fn default() -> Self {
        Self {
            codec: BlockCodec::None,
            coder: Coder::None,
            dict_payload: Vec::new(),
        }
    }
}

impl BlockCodecState {
    /// Trains the codec from sampled input values alone: the
    /// dictionary / PBC model as in [`Self::train_on_blocks`], the
    /// entropy tables on the samples packed into block-sized buffers.
    /// Tables give every byte value a code, so the state round-trips
    /// any block, however unlike the samples.
    pub fn train(codec: BlockCodec, samples: &[Vec<u8>]) -> Self {
        let blocks: Vec<Vec<u8>> = samples
            .concat()
            .chunks(SAMPLE_BLOCK_LEN)
            .map(<[u8]>::to_vec)
            .collect();
        Self::train_on_blocks(codec, samples, &blocks)
    }

    /// Trains the codec for one table: the tzstd dictionary (`dict`) or
    /// pattern model (`pbc`) from sampled input values (flush/compaction
    /// collects the first [`MAX_TRAIN_SAMPLES`] put values when the codec
    /// [`trains_on_samples`](BlockCodec::trains_on_samples)), the `lz`
    /// dictionary cut from `blocks`, and the `lz`/`dict` entropy tables
    /// from the LZ output, after the dictionary, of evenly spaced
    /// `blocks` of the table itself (every [`TRAIN_BLOCK_STRIDE`]th, at
    /// most [`MAX_TRAIN_BLOCKS`]). Deterministic for fixed input.
    pub fn train_on_blocks(codec: BlockCodec, samples: &[Vec<u8>], blocks: &[Vec<u8>]) -> Self {
        let dict = match codec {
            BlockCodec::None => return Self::default(),
            BlockCodec::Pbc => {
                let model = PbcModel::train(samples, &PbcConfig::default());
                return Self {
                    codec,
                    dict_payload: model.to_bytes(),
                    coder: Coder::Pbc(Pbc::new(Arc::new(model))),
                };
            }
            BlockCodec::Lz => cut_dictionary(blocks),
            BlockCodec::Dict => dictionary_bytes(samples, MAX_DICT_BYTES),
        };
        let dict = (!dict.is_empty()).then(|| Prefix::new(dict));
        let step = TRAIN_BLOCK_STRIDE.max(blocks.len().div_ceil(MAX_TRAIN_BLOCKS));
        let coder = LzCoder::train(dict, blocks.iter().step_by(step).map(Vec::as_slice));
        Self {
            codec,
            dict_payload: coder.payload(),
            coder: Coder::Lz(Box::new(coder)),
        }
    }

    /// Rebuilds the state from a table's stored dictionary payload.
    /// Arbitrary bytes are [`Error::Corruption`], never a panic.
    pub fn from_dict_payload(codec: BlockCodec, payload: &[u8]) -> Result<Self> {
        let coder = match codec {
            BlockCodec::None => return Ok(Self::default()),
            BlockCodec::Lz | BlockCodec::Dict => {
                Coder::Lz(Box::new(LzCoder::from_payload(payload)?))
            }
            BlockCodec::Pbc => Coder::Pbc(Pbc::new(Arc::new(PbcModel::from_bytes(payload)?))),
        };
        Ok(Self {
            codec,
            coder,
            dict_payload: payload.to_vec(),
        })
    }

    pub fn codec(&self) -> BlockCodec {
        self.codec
    }

    /// The serialized trained state the writer must store per table.
    pub fn dict_payload(&self) -> &[u8] {
        &self.dict_payload
    }

    /// Appends one frame for `block` to `out`. Compresses when the
    /// codec wins; falls back to a stored frame otherwise (so output
    /// frames never exceed `block.len() + FRAME_HEADER_LEN`). Returns
    /// `true` when the frame carries a compressed payload.
    pub fn encode_frame(&self, block: &[u8], out: &mut Vec<u8>) -> bool {
        let frame_start = out.len();
        out.push(self.codec.tag());
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        let payload_start = out.len();
        let encoded = block.len() <= MAX_COMPRESSED_BLOCK_LEN
            && match &self.coder {
                Coder::None => false,
                Coder::Lz(c) => {
                    c.encode(block, out);
                    true
                }
                Coder::Pbc(c) => {
                    out.extend_from_slice(&c.compress(block));
                    true
                }
            };
        let compressed = encoded && out.len() - payload_start < block.len();
        if !compressed {
            out.truncate(payload_start);
            out[frame_start] = FRAME_TAG_STORED;
            out.extend_from_slice(block);
        }
        let crc = crc32(&out[payload_start..]);
        out[payload_start - 4..payload_start].copy_from_slice(&crc.to_le_bytes());
        compressed
    }

    /// Decodes and verifies one frame, returning the uncompressed block
    /// bytes. Every failure — truncated header, CRC mismatch, foreign
    /// codec tag, implausible length, garbage payload, length mismatch
    /// — is [`Error::Corruption`], so a bad block surfaces as a
    /// per-slot corruption error and never a torn batch.
    pub fn decode_frame(&self, frame: &[u8]) -> Result<Vec<u8>> {
        if frame.len() < FRAME_HEADER_LEN {
            return Err(Error::Corruption("sstable block frame truncated".into()));
        }
        let tag = frame[0];
        let ulen = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(frame[5..9].try_into().unwrap());
        let payload = &frame[FRAME_HEADER_LEN..];
        if crc32(payload) != stored_crc {
            return Err(Error::Corruption("sstable block frame crc mismatch".into()));
        }
        if tag == FRAME_TAG_STORED {
            if payload.len() != ulen {
                return Err(Error::Corruption(
                    "stored block frame length mismatch".into(),
                ));
            }
            return Ok(payload.to_vec());
        }
        if ulen > MAX_COMPRESSED_BLOCK_LEN {
            return Err(Error::Corruption(format!(
                "compressed block frame claims {ulen} bytes"
            )));
        }
        let raw = match &self.coder {
            Coder::Lz(c) if tag == self.codec.tag() => c.decode(payload, ulen),
            Coder::Pbc(c) if tag == self.codec.tag() => c.decompress(payload),
            _ => {
                return Err(Error::Corruption(format!(
                    "block frame codec tag {tag} does not match table codec {}",
                    self.codec.name()
                )))
            }
        }
        .map_err(|e| Error::Corruption(format!("block frame payload: {e}")))?;
        if raw.len() != ulen {
            return Err(Error::Corruption(format!(
                "block frame decompressed to {} bytes, header says {ulen}",
                raw.len()
            )));
        }
        Ok(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[global_allocator]
    static PROBE: tb_common::testutil::AllocProbe = tb_common::testutil::AllocProbe;

    fn roundtrip(state: &BlockCodecState, block: &[u8]) {
        let mut out = Vec::new();
        state.encode_frame(block, &mut out);
        assert!(out.len() >= FRAME_HEADER_LEN);
        assert_eq!(state.decode_frame(&out).unwrap(), block);
    }

    /// Samples shaped like flush input: templated values the dict and
    /// PBC codecs can learn from.
    fn value_samples(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "city\t{i:06}\tSpringfield-{}\tpop={}\tcountry=XX\tzone=UTC+8",
                    i % 50,
                    i * 731
                )
                .into_bytes()
            })
            .collect()
    }

    /// A block-shaped corpus: length-prefixed key/value entries with
    /// shared-prefix keys and templated values, like the SSTable data
    /// block encoding produces.
    fn templated_block(entries: usize, seed: u64) -> Vec<u8> {
        let mut block = Vec::new();
        for i in 0..entries {
            let key = format!("user{:012}", seed + i as u64);
            let val = format!("record|{seed}|idx={i}|status=ok|padding=xxxxxxxxxxxxxxxx");
            block.push(0u8);
            block.extend_from_slice(&[key.len() as u8, val.len() as u8]);
            block.extend_from_slice(key.as_bytes());
            block.extend_from_slice(val.as_bytes());
        }
        block
    }

    /// An `lz` state trained on a table large enough to cut a
    /// dictionary from its blocks.
    fn primed_lz_state() -> BlockCodecState {
        let blocks: Vec<Vec<u8>> = (0..MIN_DICT_BLOCKS as u64)
            .map(|i| templated_block(60, i * 100))
            .collect();
        let state = BlockCodecState::train_on_blocks(BlockCodec::Lz, &[], &blocks);
        assert_eq!(
            state.dict_payload().len(),
            TABLES * TABLE_BYTES + MAX_DICT_BYTES
        );
        state
    }

    /// Every codec trained on value samples, plus [`primed_lz_state`].
    fn all_states() -> Vec<BlockCodecState> {
        let samples = value_samples(64);
        BlockCodec::ALL
            .iter()
            .map(|&c| BlockCodecState::train(c, &samples))
            .chain([primed_lz_state()])
            .collect()
    }

    #[test]
    fn tags_and_names_roundtrip() {
        for codec in BlockCodec::ALL {
            assert_eq!(BlockCodec::from_tag(codec.tag()), Some(codec));
            assert_eq!(BlockCodec::parse(codec.name()), Some(codec));
        }
        assert_eq!(BlockCodec::from_tag(9), None);
        assert_eq!(BlockCodec::parse("zstd"), None);
    }

    #[test]
    fn empty_and_one_byte_blocks_roundtrip_every_codec() {
        for state in all_states() {
            roundtrip(&state, b"");
            for byte in [0u8, b'a', 0xff] {
                roundtrip(&state, &[byte]);
            }
        }
    }

    #[test]
    fn entropy_tables_cost_1280_bytes_per_table() {
        let samples = value_samples(512);
        let blocks: Vec<Vec<u8>> = (0..100).map(|i| templated_block(60, i)).collect();
        let small = &blocks[..MIN_DICT_BLOCKS - 1];
        let lz = BlockCodecState::train_on_blocks(BlockCodec::Lz, &samples, small);
        assert_eq!(
            lz.dict_payload().len(),
            10 * TABLE_BYTES,
            "too small for a dictionary"
        );
        let lz = BlockCodecState::train_on_blocks(BlockCodec::Lz, &samples, &blocks);
        assert_eq!(lz.dict_payload().len(), 10 * TABLE_BYTES + MAX_DICT_BYTES);
        let dict = BlockCodecState::train_on_blocks(BlockCodec::Dict, &samples, &blocks);
        assert!(dict.dict_payload().len() > 10 * TABLE_BYTES);
        assert!(dict.dict_payload().len() <= 10 * TABLE_BYTES + MAX_DICT_BYTES);
    }

    #[test]
    fn lz_dictionary_is_cut_from_evenly_spaced_blocks() {
        // Blocks of distinct lengths, so each slice names its block.
        let blocks: Vec<Vec<u8>> = (0..80).map(|i| templated_block(10 + i, i as u64)).collect();
        let state = BlockCodecState::train_on_blocks(BlockCodec::Lz, &[], &blocks);
        let dict = &state.dict_payload()[TABLES * TABLE_BYTES..];
        let mut want = Vec::new();
        for block in [2, 7, 12, 17, 22, 27, 32, 37, 42, 47, 52, 57, 62, 67, 72, 77] {
            let b = &blocks[block];
            want.extend_from_slice(&b[b.len() / 3..b.len().min(b.len() / 3 + DICT_SLICE_LEN)]);
        }
        assert_eq!(dict, want);
        let again = BlockCodecState::train_on_blocks(BlockCodec::Lz, &[], &blocks);
        assert_eq!(again.dict_payload(), state.dict_payload());
        // Every block parses after it and round-trips through a reader
        // rebuilt from the payload.
        let reader =
            BlockCodecState::from_dict_payload(BlockCodec::Lz, state.dict_payload()).unwrap();
        for block in &blocks {
            let mut frame = Vec::new();
            assert!(state.encode_frame(block, &mut frame));
            assert_eq!(reader.decode_frame(&frame).unwrap(), *block);
        }
    }

    #[test]
    fn previous_lz_payload_without_a_dictionary_still_decodes() {
        // Written by the codec before `lz` tables carried a dictionary:
        // ten tables trained on nothing (every code 8 bits), and the
        // frame of `block` under them.
        let payload = [0x88u8; TABLES * TABLE_BYTES];
        let block = b"user000000000017=Springfield;user000000000018=Springfield;user000000000019=Shelbyville;";
        let frame = [
            0x01, 0x57, 0x00, 0x00, 0x00, 0xc8, 0x40, 0xed, 0xe5, 0x0b, 0x23, 0xa0, 0x60, 0x80,
            0xf0, 0x30, 0xb8, 0x80, 0x98, 0xb8, 0x70, 0x00, 0xae, 0xce, 0xa6, 0x4e, 0x0c, 0x8c,
            0xec, 0xbc, 0xca, 0x0e, 0x4e, 0x96, 0x76, 0xe6, 0x66, 0x96, 0xa6, 0x36, 0x26, 0xdc,
            0x1c, 0x9c, 0xbc, 0xca, 0x16, 0xa6, 0x36, 0x46, 0x9e, 0x6e, 0x96, 0x36, 0x36, 0xa6,
            0xdc,
        ];
        let reader = BlockCodecState::from_dict_payload(BlockCodec::Lz, &payload).unwrap();
        assert_eq!(reader.decode_frame(&frame).unwrap(), block);
    }

    #[test]
    fn contexts_follow_the_token_fields_and_literal_classes() {
        // Literal run of 200 (two varint bytes), match length code 1,
        // distance 300 (two bytes), an empty literal run, end marker.
        let mut lit = b"ab1C-".repeat(40);
        lit.truncate(200);
        let mut run_start = vec![false; 200];
        run_start[0] = true;
        let tokens = SplitTokens {
            ctrl: vec![0xc8, 0x01, 0x01, 0xac, 0x02, 0x00, 0x00],
            lit,
            run_start,
        };
        let mut seen = Vec::new();
        for_each_coded(&tokens, |table, b| seen.push((table, b)));
        let ctrl: Vec<usize> = seen[..7].iter().map(|&(t, _)| t).collect();
        assert_eq!(ctrl, [0, 1, 2, 4, 5, 0, 2]);
        let mut runs = LitRuns::default();
        let ends: Vec<usize> = seen[..7]
            .iter()
            .filter_map(|&(t, b)| runs.run_end(t, b))
            .collect();
        assert_eq!(ends, [200, 200], "runs of 200 and 0 literals");
        // 'a' opens the run (after "other"); 'b' and '1' follow a
        // lowercase, 'C' a digit, '-' an uppercase, 'a' an other.
        let lits: Vec<(usize, u8)> = seen[7..13].to_vec();
        assert_eq!(
            lits,
            [
                (RUN_START, b'a'),
                (CTRL_TABLES + 1, b'b'),
                (CTRL_TABLES + 1, b'1'),
                (CTRL_TABLES, b'C'),
                (CTRL_TABLES + 2, b'-'),
                (RUN_START, b'a'),
            ]
        );
        assert_eq!(seen.len(), 7 + 200);
    }

    #[test]
    fn tables_trained_on_the_blocks_beat_tables_trained_on_values() {
        // Real blocks carry entry headers and keys the value samples
        // never show; training on them must pay off on them.
        let samples = value_samples(512);
        let blocks: Vec<Vec<u8>> = (0..40).map(|i| templated_block(60, i * 1000)).collect();
        let frames_len = |state: &BlockCodecState| {
            let mut out = Vec::new();
            for block in &blocks {
                state.encode_frame(block, &mut out);
            }
            out.len()
        };
        for codec in [BlockCodec::Lz, BlockCodec::Dict] {
            let on_blocks = BlockCodecState::train_on_blocks(codec, &samples, &blocks);
            let on_values = BlockCodecState::train(codec, &samples);
            assert!(
                frames_len(&on_blocks) < frames_len(&on_values),
                "{}: {} !< {}",
                codec.name(),
                frames_len(&on_blocks),
                frames_len(&on_values)
            );
            for block in &blocks {
                roundtrip(&on_blocks, block);
                roundtrip(&on_values, block);
            }
        }
    }

    #[test]
    fn compressible_block_shrinks_under_lz() {
        // Trained on nothing at all: every code is 8 bits and the LZ
        // stage alone has to win.
        let state = BlockCodecState::train(BlockCodec::Lz, &[]);
        let block = templated_block(40, 7);
        let mut out = Vec::new();
        let compressed = state.encode_frame(&block, &mut out);
        assert!(compressed, "templated block should compress");
        assert!(out.len() < block.len() + FRAME_HEADER_LEN);
        assert_eq!(state.decode_frame(&out).unwrap(), block);
    }

    #[test]
    fn incompressible_block_stores_raw() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let block: Vec<u8> = (0..2048).map(|_| rng.gen()).collect();
        for state in all_states() {
            let mut out = Vec::new();
            let compressed = state.encode_frame(&block, &mut out);
            if state.codec() != BlockCodec::None {
                assert!(!compressed, "random bytes must not 'compress'");
            }
            assert_eq!(out[0], FRAME_TAG_STORED);
            assert_eq!(out.len(), block.len() + FRAME_HEADER_LEN);
            assert_eq!(state.decode_frame(&out).unwrap(), block);
        }
    }

    #[test]
    fn reader_state_rebuilt_from_dict_payload_decodes_writer_frames() {
        let samples = value_samples(128);
        let block = templated_block(60, 42);
        for codec in BlockCodec::ALL {
            let writer = BlockCodecState::train(codec, &samples);
            let mut frame = Vec::new();
            writer.encode_frame(&block, &mut frame);
            let reader = BlockCodecState::from_dict_payload(codec, writer.dict_payload()).unwrap();
            assert_eq!(
                reader.decode_frame(&frame).unwrap(),
                block,
                "codec {} frames must decode from stored state alone",
                codec.name()
            );
        }
    }

    #[test]
    fn dict_training_is_deterministic_for_fixed_input() {
        let samples = value_samples(256);
        for codec in [BlockCodec::Dict, BlockCodec::Pbc] {
            let a = BlockCodecState::train(codec, &samples);
            let b = BlockCodecState::train(codec, &samples);
            assert_eq!(
                a.dict_payload(),
                b.dict_payload(),
                "{} training must be deterministic",
                codec.name()
            );
            let block = templated_block(30, 9);
            let (mut fa, mut fb) = (Vec::new(), Vec::new());
            a.encode_frame(&block, &mut fa);
            b.encode_frame(&block, &mut fb);
            assert_eq!(fa, fb, "{} frames must be deterministic", codec.name());
        }
    }

    #[test]
    fn corrupted_frames_are_corruption_errors_never_panics() {
        let block = templated_block(40, 11);
        for state in all_states() {
            let mut frame = Vec::new();
            state.encode_frame(&block, &mut frame);
            // Truncations, including below the header.
            for cut in [0, 1, 4, FRAME_HEADER_LEN - 1, frame.len() - 1] {
                assert!(
                    matches!(state.decode_frame(&frame[..cut]), Err(Error::Corruption(_))),
                    "truncation to {cut} must be Corruption ({})",
                    state.codec().name()
                );
            }
            // Any single flipped byte: either caught (Corruption) — a
            // header/CRC flip always is — or it decodes to the original.
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0xff;
                match state.decode_frame(&bad) {
                    Err(Error::Corruption(_)) => {}
                    Err(e) => panic!("non-corruption error {e} ({})", state.codec().name()),
                    Ok(got) => assert_eq!(got, block),
                }
                if (5..9).contains(&i) {
                    assert!(
                        state.decode_frame(&bad).is_err(),
                        "CRC byte flip must always be caught"
                    );
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_corruption_error() {
        // CRC-32 catches any one-bit payload error; a header flip lands
        // on a foreign tag, a wrong length or a wrong checksum.
        let block = templated_block(40, 5);
        for state in all_states() {
            let mut frame = Vec::new();
            state.encode_frame(&block, &mut frame);
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(state.decode_frame(&bad), Err(Error::Corruption(_))),
                    "bit {bit} ({})",
                    state.codec().name()
                );
            }
        }
    }

    /// A frame with `tag`, a header length of `ulen` and a correct CRC
    /// over `payload`: what a writer bug or a collision-lucky bit rot
    /// could leave on disk, and the CRC check alone would wave through.
    fn forged_frame(tag: u8, ulen: u32, payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![tag];
        frame.extend_from_slice(&ulen.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn lengths_from_disk_are_checked_before_they_size_anything() {
        let block = templated_block(40, 3);
        for codec in [BlockCodec::Lz, BlockCodec::Dict, BlockCodec::Pbc] {
            let state = BlockCodecState::train(codec, &value_samples(64));
            let mut frame = Vec::new();
            assert!(state.encode_frame(&block, &mut frame));
            let payload = &frame[FRAME_HEADER_LEN..];
            let corrupt = |frame: Vec<u8>, what: &str| {
                assert!(
                    matches!(state.decode_frame(&frame), Err(Error::Corruption(_))),
                    "{what} ({})",
                    codec.name()
                );
            };
            // Header length over the fixed maximum, and off by one
            // either way from what the payload really holds.
            corrupt(forged_frame(codec.tag(), u32::MAX, payload), "ulen 4 GiB");
            corrupt(
                forged_frame(codec.tag(), MAX_COMPRESSED_BLOCK_LEN as u32 + 1, payload),
                "ulen over max",
            );
            corrupt(
                forged_frame(codec.tag(), block.len() as u32 + 1, payload),
                "ulen one over",
            );
            corrupt(
                forged_frame(codec.tag(), block.len() as u32 - 1, payload),
                "ulen one under",
            );
            corrupt(forged_frame(codec.tag(), 0, payload), "ulen zero");
        }
        // Stream lengths inside an lz payload: more symbols than the
        // coded bytes could hold, and more literals than the block.
        let state = BlockCodecState::train(BlockCodec::Lz, &value_samples(64));
        for (ctrl_len, lit_len, ulen) in [
            (u64::MAX, 0, 4096),
            (1 << 40, 1 << 40, 4096),
            (0, 65, 4096),
            (2, 30, 20),
        ] {
            let mut payload = Vec::new();
            write_varint(&mut payload, ctrl_len);
            write_varint(&mut payload, lit_len);
            payload.extend_from_slice(&[0u8; 8]);
            assert!(matches!(
                state.decode_frame(&forged_frame(BlockCodec::Lz.tag(), ulen, &payload)),
                Err(Error::Corruption(_))
            ));
        }
    }

    #[test]
    fn malformed_dict_payloads_are_corruption() {
        let lz = BlockCodecState::train(BlockCodec::Lz, &value_samples(64));
        let good = lz.dict_payload().to_vec();
        let corrupt = |codec, payload: &[u8]| {
            matches!(
                BlockCodecState::from_dict_payload(codec, payload),
                Err(Error::Corruption(_))
            )
        };
        assert!(corrupt(BlockCodec::Lz, &[]));
        assert!(corrupt(BlockCodec::Lz, &good[..good.len() - 1]));
        // Either codec's dictionary is bounded.
        for codec in [BlockCodec::Lz, BlockCodec::Dict] {
            assert!(!corrupt(codec, &[&good[..], b"extra"].concat()));
            let full = [&good[..], &vec![b'x'; MAX_DICT_BYTES]].concat();
            assert!(!corrupt(codec, &full));
            let oversized = [&good[..], &vec![b'x'; MAX_DICT_BYTES + 1]].concat();
            assert!(corrupt(codec, &oversized));
        }
        // Not a prefix code.
        let mut bad = good.clone();
        bad[0] = 0;
        assert!(corrupt(BlockCodec::Lz, &bad));
        assert!(corrupt(BlockCodec::Pbc, &[0xff; 40]));
    }

    #[test]
    fn two_table_payload_of_the_previous_layout_is_corruption() {
        // One control and one literal table, 256 B: what tables written
        // before the context split carry.
        let previous = [0x88u8; 2 * TABLE_BYTES];
        for codec in [BlockCodec::Lz, BlockCodec::Dict] {
            assert!(matches!(
                BlockCodecState::from_dict_payload(codec, &previous),
                Err(Error::Corruption(_))
            ));
        }
    }

    #[test]
    fn foreign_codec_tag_rejected() {
        let lz = BlockCodecState::train(BlockCodec::Lz, &[]);
        let none = BlockCodecState::default();
        let mut frame = Vec::new();
        lz.encode_frame(&templated_block(40, 2), &mut frame);
        assert_eq!(frame[0], BlockCodec::Lz.tag());
        // A None table handed an Lz frame must refuse, not misparse.
        assert!(matches!(
            none.decode_frame(&frame),
            Err(Error::Corruption(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Shared-prefix keys: `prefix:NNNN` entries, the common SSTable
        /// key shape.
        #[test]
        fn prop_roundtrip_shared_prefix_blocks(
            n in 0usize..120,
            prefix in "[a-z]{1,12}",
        ) {
            let mut block = Vec::new();
            for i in 0..n {
                block.extend_from_slice(format!("{prefix}:{i:08}=v{i};").as_bytes());
            }
            for state in all_states() {
                roundtrip(&state, &block);
            }
        }

        /// Runs of identical values (tombstone runs, constant columns).
        #[test]
        fn prop_roundtrip_identical_value_runs(
            byte in any::<u8>(),
            run in 0usize..4096,
        ) {
            let block = vec![byte; run];
            for state in all_states() {
                roundtrip(&state, &block);
            }
        }

        /// Incompressible random bytes, up to max block size.
        #[test]
        fn prop_roundtrip_random_blocks(
            block in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            for state in all_states() {
                roundtrip(&state, &block);
            }
        }

        /// Blocks drawn from byte values the (ASCII) training samples
        /// never contain.
        #[test]
        fn prop_roundtrip_bytes_absent_from_training(
            block in proptest::collection::vec(128u8..=255, 0..2048),
            run in 1usize..64,
        ) {
            // Repeat each byte so the block compresses and the trained
            // tables, not the stored fallback, carry it.
            let block: Vec<u8> = block.iter().flat_map(|&b| std::iter::repeat_n(b, run)).collect();
            for state in all_states() {
                roundtrip(&state, &block);
            }
        }

        /// `decode_frame` on arbitrary bytes: an error or some bytes,
        /// never a panic — with and without a plausible header.
        #[test]
        fn prop_decode_frame_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            ulen in 0u32..10_000,
        ) {
            for state in all_states() {
                let _ = state.decode_frame(&bytes);
                // Past the CRC gate, into the codec.
                let _ = state.decode_frame(&forged_frame(state.codec().tag(), ulen, &bytes));
            }
        }

        /// Arbitrary bytes, noise behind ten well-formed (all codes 8
        /// bits) tables at lengths around the ten tables' 1 280 B and
        /// past them into a dictionary, and a trained `lz` payload with
        /// its dictionary cut short, flipped or grown past the bound:
        /// `Ok` or `Corruption`. A state that opens encodes and decodes
        /// a block after whatever dictionary it holds.
        #[test]
        fn prop_from_dict_payload_is_ok_or_corruption(
            bytes in proptest::collection::vec(any::<u8>(), 0..700),
            cut in 0usize..700,
            flip in any::<usize>(),
        ) {
            let tables = [0x88u8; TABLES * TABLE_BYTES];
            let near = [&tables[..TABLES * TABLE_BYTES - cut.min(300)], &bytes[..]].concat();
            let behind = [&tables[..], &bytes[..]].concat();
            let primed = primed_lz_state().dict_payload().to_vec();
            let short = &primed[..primed.len() - cut];
            let mut flipped = primed.clone();
            let at = TABLES * TABLE_BYTES + flip % MAX_DICT_BYTES;
            flipped[at] ^= 1 << (flip % 8);
            let long = [&primed[..], &bytes[..]].concat();
            let block = templated_block(50, cut as u64);
            for codec in BlockCodec::ALL {
                for payload in [&bytes, &near, &behind, short, &flipped, &long] {
                    match BlockCodecState::from_dict_payload(codec, payload) {
                        Ok(state) => roundtrip(&state, &block),
                        Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
                    }
                }
            }
            let long_opens = BlockCodecState::from_dict_payload(BlockCodec::Lz, &long).is_ok();
            prop_assert_eq!(long_opens, bytes.is_empty());
        }

        /// A payload with its CRC re-stamped reaches the codec: one bit
        /// flipped anywhere in it, or the two stream lengths forged a
        /// little off, so the control state machine and the literal
        /// runs it yields run on damaged symbols. Each frame is refused
        /// (or, where a flip turns one code into another, decodes to
        /// `ulen` bytes), never panics, and reserves no more than the
        /// lengths allow: 8 symbols per coded byte and at most twice
        /// `ulen` of output.
        #[test]
        fn prop_damaged_lz_payloads_are_refused_within_bounds(
            seed in 0u64..1000,
            bit in any::<usize>(),
            ctrl_delta in -16i64..16,
            lit_delta in -16i64..16,
            forge in any::<bool>(),
        ) {
            let block = templated_block(40, seed);
            let samples = value_samples(64);
            for state in [
                BlockCodecState::train(BlockCodec::Lz, &samples),
                BlockCodecState::train(BlockCodec::Dict, &samples),
                primed_lz_state(),
            ] {
                let codec = state.codec();
                let mut frame = Vec::new();
                prop_assert!(state.encode_frame(&block, &mut frame));
                let mut payload = frame[FRAME_HEADER_LEN..].to_vec();
                if forge {
                    let mut pos = 0;
                    let ctrl_len = read_varint(&payload, &mut pos).unwrap();
                    let lit_len = read_varint(&payload, &mut pos).unwrap();
                    let mut forged = Vec::new();
                    write_varint(&mut forged, ctrl_len.saturating_add_signed(ctrl_delta));
                    write_varint(&mut forged, lit_len.saturating_add_signed(lit_delta));
                    forged.extend_from_slice(&payload[pos..]);
                    payload = forged;
                } else {
                    let bit = bit % (payload.len() * 8);
                    payload[bit / 8] ^= 1 << (bit % 8);
                }
                let ulen = block.len();
                let (outcome, largest) = tb_common::testutil::largest_allocation(|| {
                    state.decode_frame(&forged_frame(codec.tag(), ulen as u32, &payload))
                });
                match outcome {
                    Ok(raw) => prop_assert_eq!(raw.len(), ulen),
                    Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
                }
                let bound = (8 * payload.len()).max(2 * ulen).max(1024);
                prop_assert!(largest <= bound, "{largest} B reserved, bound {bound}");
            }
        }

        /// The parser's run starts (what the encoder codes literals by)
        /// are where the control stream's literal runs end (what the
        /// decoder decodes them by).
        #[test]
        fn prop_parse_run_starts_match_the_control_stream(
            block in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'7'), any::<u8>()], 0..3000),
        ) {
            let prefix = Prefix::new(b"a7a7aaa777".repeat(20));
            for dict in [None, Some(&prefix)] {
                let mut tokens = SplitTokens::default();
                parse_block(dict, &block, &mut tokens);
                let mut decoded = vec![false; tokens.lit.len()];
                if let Some(first) = decoded.first_mut() {
                    *first = true;
                }
                let (mut runs, mut table) = (LitRuns::default(), 0);
                for &b in &tokens.ctrl {
                    if let Some(end) = runs.run_end(table, b) {
                        if let Some(start) = decoded.get_mut(end) {
                            *start = true;
                        }
                    }
                    table = next_table(table, b);
                }
                prop_assert_eq!(decoded, tokens.run_start);
            }
        }

        /// Max-size blocks (a full block_size worth of mixed content).
        #[test]
        fn prop_roundtrip_max_size_blocks(seed in any::<u64>()) {
            let mut block = templated_block(80, seed);
            block.truncate(4096);
            while block.len() < 4096 {
                block.push((seed as u8).wrapping_add(block.len() as u8));
            }
            for state in all_states() {
                roundtrip(&state, &block);
            }
        }
    }
}
