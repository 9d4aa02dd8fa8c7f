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
//! by kind and entropy-coded under sixteen static Huffman tables that
//! were trained once on the table's own blocks and live in the
//! dictionary payload — no block carries a model or a table header:
//!
//! ```text
//! lz/dict payload := varint(ctrl_bytes) | control bits | literal bits
//! control bits    := the codes of the control bytes, LSB-first,
//!                    zero-padded to a byte: ctrl_bytes bytes
//! literal bits    := the codes of the literal bytes, LSB-first,
//!                    zero-padded to a byte
//! control bytes   := every varint of the token stream, in order
//!                    (literal-run length, match length, distance, end)
//! dict payload    := 6 control tables | 10 literal tables (129 B each)
//!                    | 6 split-out bytes | dictionary (0..=8192 bytes)
//! ```
//!
//! A table ([`HuffTable`]) codes only the bytes its training saw, plus
//! an escape: a byte it never saw is the escape's code, then the byte's
//! 8 raw bits. A stored table is 256 four-bit code lengths (0: no code)
//! and the escape's length, 129 bytes; a context training never reached
//! is the escape alone, 0 bits long. A model is 2 070 bytes.
//!
//! Every block is parsed as if the table's dictionary came right
//! before it, so a match may start in the dictionary, and its
//! distances count back through `dictionary ++ block`; a match of only
//! 4 bytes is taken from under 128 bytes back, where its distance is
//! one varint byte, and is coded as literals farther out. A `dict`
//! table's dictionary is trained on its input values; an `lz` table's
//! is 16 slices cut from its own blocks, one a third of the way into
//! each of 16 evenly spaced blocks. How hard the writer works is its
//! [`BlockEffort`], which the LSM picks by the level a table is written
//! to: a flush table (L0), rewritten by the next compaction, takes
//! level 1's greedy parse and 256-byte slices (4 KiB); a compaction
//! table, which keeps most of a store's bytes, takes level 13's lazy
//! parse (it tries the next position before it takes a match) over 64
//! candidates and 512-byte slices (8 KiB). Either keeps every
//! distance from a 4 KiB block under 16 KiB, two varint bytes. The
//! dictionary is stored raw in every table, so an `lz` table cuts at
//! most 128 bytes of it per block: one of fewer than 32 blocks stores
//! none (and parses each block alone), and a compaction table reaches
//! 8 KiB at 64 blocks. Readers decode either alike.
//!
//! Each symbol's table is chosen by its context, which the decoder
//! knows before it decodes the symbol:
//!
//! * a control byte by its token field — literal-run length, match
//!   length (or end marker), distance, cycling in that order — and by
//!   whether it is the first or a continuation byte of its varint
//!   (2 × 3 tables);
//! * a literal by the byte before it in `dictionary ++ block`, which
//!   is the output decoded so far — also for a run's first literal,
//!   which follows a match or the dictionary. Six *split-out* bytes
//!   have a table each; the writer picks them per table, greedily, as
//!   the bytes whose literals save the most entropy on its training
//!   blocks under a table of their own. After any other byte, a
//!   literal takes the table of that byte's class — digit, lowercase,
//!   uppercase, other — and a block's first literal without a
//!   dictionary counts as after "other" (4 + 6 tables).
//!
//! So decoding is one pass: the control codes, under the field/byte
//! state machine, spell each token; its literal run decodes from the
//! literal bits straight into the output and its match copies from
//! `dictionary ++ output`. Sixteen tables fill the [`Decoder`]'s 4-bit
//! next-table field, so a symbol still costs one dependent load, from
//! an 8 KiB root table (a code longer than 8 bits, or an escape, one
//! more on a cold path). Blocks and records decode through it alike.
//!
//! `pbc` frames carry [`Pbc`]'s own record format and the serialized
//! [`PbcModel`] as dictionary payload.
//!
//! Per-block stored fallback: when compression does not shrink a block
//! (or the codec is [`BlockCodec::None`]) the frame carries the raw
//! bytes under [`FRAME_TAG_STORED`] — still CRC-checked, so every block
//! read is checksummed regardless of codec.

use crate::dict::train_dictionary;
use crate::huffman::{BitReader, BitWriter, Decoder, HuffTable, CODES_PER_REFILL, TABLE_BYTES};
use crate::lz::{lz_parse, Prefix, PrefixUse, SplitTokens, TzstdLevel, MIN_MATCH};
use crate::pbc::{Pbc, PbcConfig, PbcModel};
use crate::Compressor;
use std::sync::Arc;
use tb_common::{crc32, read_varint, write_varint, Error, Result};

/// `codec_tag u8 | uncompressed_len u32 | crc32 u32`.
pub const FRAME_HEADER_LEN: usize = 1 + 4 + 4;

/// Frame tag for an uncompressed (stored) payload — shared by every
/// codec as the didn't-shrink fallback, and the only tag
/// [`BlockCodec::None`] emits.
pub const FRAME_TAG_STORED: u8 = 0;

/// Writer-side cap on dictionary training samples collected from a
/// flush/compaction input stream (first N put values, deterministic).
pub const MAX_TRAIN_SAMPLES: usize = 512;

/// Longest dictionary a reader accepts in a table's or a record
/// model's payload: a compaction table's `lz` dictionary.
pub const MAX_DICT_BYTES: usize = 8 << 10;

/// Target size of a dictionary [`train_dictionary`] makes for a `dict`
/// table or a `tzstd-d` model.
pub const TRAINED_DICT_BYTES: usize = 4 << 10;

/// Longest block a compressed frame may hold; longer blocks are stored.
/// A compressed frame's `uncompressed_len` bounds the decode, so the
/// reader refuses anything above this before decoding.
pub const MAX_COMPRESSED_BLOCK_LEN: usize = 64 << 20;

/// Up-front output reservation per payload byte (`tb-benchmark`'s `lz`
/// blocks decode to ~2.5 bytes per payload byte, and a payload byte
/// holds at most 8 codes); a block that expands further grows its
/// buffer as it decodes instead of trusting the frame header.
const LZ_RESERVE_PER_CODED_BYTE: usize = 8;

/// The entropy tables are trained on one block in
/// [`TRAIN_BLOCK_STRIDE`] (evenly spaced), at most this many: the
/// tables stop improving measurably after a handful of blocks.
const MAX_TRAIN_BLOCKS: usize = 16;
const TRAIN_BLOCK_STRIDE: usize = 8;

/// Size of the pseudo-blocks [`BlockCodecState::train`] cuts its value
/// samples into when it has no real blocks to train on.
const SAMPLE_BLOCK_LEN: usize = 4096;

/// An `lz` table's dictionary is [`DICT_SLICES`] slices of
/// [`BlockEffort::dict_slice_len`] bytes.
const DICT_SLICES: usize = 16;

/// An `lz` table stores its dictionary raw, once, so it cuts no more
/// than this many bytes of it per block it has. On Cities records
/// (`user{i:012}` or hashed keys) a 24-block table breaks even with a
/// 4 KiB dictionary and a 32-block one is ~3 % smaller; large tables
/// save ~7 %.
const DICT_BYTES_PER_BLOCK: usize = 128;

/// The dictionary of an `lz` table: one slice from the middle block
/// of each of [`DICT_SLICES`] equal runs of blocks, taken a third of
/// the way into the block, past its first entry, whose key shares no
/// prefix. Slices are `effort`'s length, shortened to what the table
/// pays for ([`DICT_BYTES_PER_BLOCK`]); none when that is shorter than
/// a flush table's, so a table of fewer than 32 blocks has none.
fn cut_dictionary(blocks: &[Vec<u8>], effort: BlockEffort) -> Vec<u8> {
    let slice_len = effort
        .dict_slice_len()
        .min(blocks.len() * DICT_BYTES_PER_BLOCK / DICT_SLICES);
    if slice_len < BlockEffort::Flush.dict_slice_len() {
        return Vec::new();
    }
    let mut dict = Vec::with_capacity(DICT_SLICES * slice_len);
    for slice in 0..DICT_SLICES {
        let block = &blocks[(2 * slice + 1) * blocks.len() / (2 * DICT_SLICES)];
        let start = block.len() / 3;
        dict.extend_from_slice(&block[start..block.len().min(start + slice_len)]);
    }
    dict
}

/// How hard a table's writer works on its `lz` blocks: the parse, and
/// the length of the dictionary cut from them (a `dict` table is
/// written at the flush effort at every level). The LSM picks it by
/// the level a table is written to; a reader decodes either alike, and
/// the table format does not record it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockEffort {
    /// A flush output (L0), which the next compaction rewrites: level
    /// 1's greedy parse over 8 candidates, after a 4 KiB dictionary.
    #[default]
    Flush,
    /// A compaction output, where most of a store's bytes stay: a
    /// lookahead (lazy) parse over 64 candidates, which tries the next
    /// position before it takes a match, after an 8 KiB dictionary.
    Compaction,
}

impl BlockEffort {
    /// The LZ effort: level 1, greedy over 8 candidates, or level
    /// 13, lazy over 64.
    pub(crate) fn level(self) -> TzstdLevel {
        match self {
            BlockEffort::Flush => TzstdLevel(1),
            BlockEffort::Compaction => TzstdLevel(13),
        }
    }

    /// Length of each of an `lz` dictionary's [`DICT_SLICES`] slices:
    /// 4 KiB or 8 KiB in all.
    fn dict_slice_len(self) -> usize {
        match self {
            BlockEffort::Flush => 256,
            BlockEffort::Compaction => 512,
        }
    }
}

/// Per-table block codec, chosen from `LsmConfig`. The discriminant is
/// the codec's tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockCodec {
    /// Stored frames only (still CRC-checked).
    #[default]
    None = 0,
    /// LZ77 + table-trained Huffman, with a dictionary cut from the
    /// table's own blocks as shared match history.
    Lz = 1,
    /// Pattern-based compression; the trained model is the table's
    /// dictionary payload.
    Pbc = 2,
    /// LZ77 + table-trained Huffman, with a dictionary trained on the
    /// table's input values as shared match history.
    Dict = 3,
}

impl BlockCodec {
    /// Every codec, in tag order.
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
        self as u8
    }

    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(usize::from(tag)).copied()
    }

    pub fn name(self) -> &'static str {
        ["none", "lz", "pbc", "dict"][usize::from(self.tag())]
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == s)
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
/// Literal byte classes: digit, lowercase, uppercase, other.
const CLASSES: usize = 4;
/// Bytes with a literal table of their own, picked per table.
const SPLIT_BYTES: usize = 6;
/// Literal tables: `CTRL_TABLES + class` of the byte before, or
/// `CTRL_TABLES + CLASSES + k` after the `k`th split-out byte.
const LIT_TABLES: usize = CLASSES + SPLIT_BYTES;
/// Every table: the 16 codes a [`Decoder`] can chain.
const TABLES: usize = CTRL_TABLES + LIT_TABLES;
/// The entropy model at the head of a dict payload: the tables, then
/// the split-out bytes.
const MODEL_BYTES: usize = TABLES * TABLE_BYTES + SPLIT_BYTES;

/// `NEXT_CTRL[table][b >> 7]`: the table of the control byte after `b`.
/// A set continuation bit keeps the field and moves to its
/// continuation table; a clear one starts the next field.
const NEXT_CTRL: [[u8; 2]; CTRL_TABLES] = [[2, 1], [2, 1], [4, 3], [4, 3], [0, 5], [0, 5]];

/// The class of every byte that is not an ASCII digit or letter, and
/// of the "byte" before a block's first literal without a dictionary.
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

/// Calls `f(table, byte)` for every byte of a control stream, in order.
fn for_each_control(ctrl: &[u8], mut f: impl FnMut(usize, u8)) {
    let mut table = 0;
    for &b in ctrl {
        f(table, b);
        table = NEXT_CTRL[table][(b >> 7) as usize] as usize;
    }
}

/// Calls `f(before, run)` for every literal run of a parse, in order,
/// with the byte before the run in `dictionary ++ block` (`None` at a
/// block's start without a dictionary).
fn for_each_run(tokens: &SplitTokens, mut f: impl FnMut(Option<u8>, &[u8])) {
    let mut lit = &tokens.lit[..];
    for &(len, before) in &tokens.runs {
        let (run, rest) = lit.split_at(len);
        f(before, run);
        lit = rest;
    }
}

/// Row of [`LzCoder::train`]'s literal counts for a block's first
/// literal without a dictionary.
const NO_BYTE: usize = 256;

/// The class of the byte before a literal, [`NO_BYTE`] included.
fn class_after(before: usize) -> usize {
    LIT_CLASS.get(before).map_or(OTHER, |&c| c) as usize
}

/// `n log2 n`: the entropy of a histogram is `N log N − Σ n log n`.
fn n_log_n(n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    n * n.log2()
}

/// Bits saved, by entropy, when `row`'s literals leave `class` (which
/// holds them) for a table of their own: `H(class) − H(class − row) −
/// H(row)`. Only the symbols `row` holds change their terms.
fn bits_saved(class: &[u32; 256], row: &[u32; 256]) -> f64 {
    let m: u64 = row.iter().map(|&r| u64::from(r)).sum();
    if m == 0 {
        return 0.0;
    }
    let n: u64 = class.iter().map(|&c| u64::from(c)).sum();
    let mut saved = n_log_n(n) - n_log_n(n - m) - n_log_n(m);
    for (&c, &r) in class.iter().zip(row) {
        if r != 0 {
            let (c, r) = (u64::from(c), u64::from(r));
            saved -= n_log_n(c) - n_log_n(c - r) - n_log_n(r);
        }
    }
    saved
}

/// The [`SPLIT_BYTES`] bytes to give a literal table of their own,
/// from `after[b][lit]`, the count of literals `lit` after byte `b`
/// (row [`NO_BYTE`] last): greedily, the byte whose literals save the
/// most bits ([`bits_saved`]) from what is left of their class, ties
/// to the lower byte. Deterministic for fixed counts.
fn split_bytes(after: &[[u32; 256]]) -> [u8; SPLIT_BYTES] {
    let mut class = [[0u32; 256]; CLASSES];
    for (before, row) in after.iter().enumerate() {
        for (c, &r) in class[class_after(before)].iter_mut().zip(row) {
            *c += r;
        }
    }
    let mut split = [0u8; SPLIT_BYTES];
    for k in 0..SPLIT_BYTES {
        let mut best = (f64::NEG_INFINITY, 0u8);
        for b in (0..=255u8).filter(|b| !split[..k].contains(b)) {
            let saved = bits_saved(&class[class_after(b.into())], &after[b as usize]);
            if saved > best.0 {
                best = (saved, b);
            }
        }
        split[k] = best.1;
        let row = &after[best.1 as usize];
        for (c, &r) in class[class_after(best.1.into())].iter_mut().zip(row) {
            *c -= r;
        }
    }
    split
}

/// The `lz`/`dict` payload coder: LZ77 parse of the block after the
/// table's dictionary, its control and literal bytes coded under
/// sixteen context-selected static Huffman tables. [`crate::Tzstd`]
/// codes records with it too.
pub(crate) struct LzCoder {
    pub(crate) dict: Option<Prefix>,
    /// The bytes with a literal table of their own, in table order.
    split: [u8; SPLIT_BYTES],
    /// `lit_table[b]`: the table of a literal after byte `b`.
    lit_table: [u8; 256],
    /// [`CTRL_TABLES`] control tables, then [`LIT_TABLES`] literal ones.
    tables: Vec<HuffTable>,
    /// The same tables, chained: a control byte's successor by
    /// [`NEXT_CTRL`], a literal's by `lit_table`.
    decoder: Decoder,
}

/// A training block's index and its parse.
type Parsed = (usize, SplitTokens);

impl LzCoder {
    fn new(dict: Option<Prefix>, split: [u8; SPLIT_BYTES], tables: Vec<HuffTable>) -> Self {
        let mut lit_table = LIT_CLASS.map(|c| CTRL_TABLES as u8 + c);
        for (k, &b) in split.iter().enumerate() {
            lit_table[b as usize] = (CTRL_TABLES + CLASSES + k) as u8;
        }
        let decoder = Decoder::new(&tables, |table, sym| match NEXT_CTRL.get(table) {
            Some(next) => next[(sym >> 7) as usize] as usize,
            None => lit_table[sym as usize] as usize,
        });
        Self {
            dict,
            split,
            lit_table,
            tables,
            decoder,
        }
    }

    /// The table of a literal after `before` (`None`: a block's first
    /// literal, without a dictionary).
    fn table_after(&self, before: Option<u8>) -> usize {
        before.map_or(CTRL_TABLES + OTHER as usize, |b| {
            self.lit_table[b as usize] as usize
        })
    }

    /// Trains every table, and picks the split-out bytes, on `parse`'s
    /// output for `blocks` (each with its index); returns the
    /// parses too.
    pub(crate) fn train<'a>(
        dict: Option<Prefix>,
        blocks: impl Iterator<Item = (usize, &'a [u8])>,
        parse: impl Fn(Option<&Prefix>, &[u8]) -> SplitTokens,
    ) -> (Self, Vec<Parsed>) {
        let mut ctrl_counts = [[0u32; 256]; CTRL_TABLES];
        let mut after = vec![[0u32; 256]; NO_BYTE + 1];
        let parsed: Vec<Parsed> = blocks
            .map(|(i, block)| {
                let tokens = parse(dict.as_ref(), block);
                for_each_control(&tokens.ctrl, |t, b| ctrl_counts[t][b as usize] += 1);
                for_each_run(&tokens, |before, run| {
                    let mut before = before.map_or(NO_BYTE, usize::from);
                    for &b in run {
                        after[before][b as usize] += 1;
                        before = b as usize;
                    }
                });
                (i, tokens)
            })
            .collect();
        let split = split_bytes(&after);
        let mut lit_counts = [[0u32; 256]; LIT_TABLES];
        for (before, row) in after.iter().enumerate() {
            let table = match split.iter().position(|&b| usize::from(b) == before) {
                Some(k) => CLASSES + k,
                None => class_after(before),
            };
            for (c, &r) in lit_counts[table].iter_mut().zip(row) {
                *c += r;
            }
        }
        let tables = ctrl_counts
            .iter()
            .chain(&lit_counts)
            .map(HuffTable::from_counts)
            .collect();
        (Self::new(dict, split, tables), parsed)
    }

    /// Rebuilds a coder from [`Self::payload`], its dictionary a
    /// prefix of `usage`.
    pub(crate) fn from_payload(payload: &[u8], usage: PrefixUse) -> Result<Self> {
        let (model, dict) = payload
            .split_at_checked(MODEL_BYTES)
            .ok_or_else(|| Error::Corruption("block codec payload truncated".into()))?;
        if dict.len() > MAX_DICT_BYTES {
            return Err(Error::Corruption(format!(
                "block dictionary of {} bytes exceeds {MAX_DICT_BYTES}",
                dict.len()
            )));
        }
        let (tables, split) = model.split_at(TABLES * TABLE_BYTES);
        let split: [u8; SPLIT_BYTES] = split.try_into().expect("MODEL_BYTES splits");
        if let Some(k) = (1..SPLIT_BYTES).find(|&k| split[..k].contains(&split[k])) {
            return Err(Error::Corruption(format!(
                "split-out literal byte {:#04x} listed twice",
                split[k]
            )));
        }
        let tables = tables
            .chunks_exact(TABLE_BYTES)
            .map(HuffTable::from_bytes)
            .collect::<Result<_>>()?;
        let dict = (!dict.is_empty()).then(|| Prefix::with_use(dict.to_vec(), usage));
        Ok(Self::new(dict, split, tables))
    }

    /// Heap bytes held: the tables, their decoder and the dictionary.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.tables.capacity() * std::mem::size_of::<HuffTable>()
            + self.decoder.heap_bytes()
            + self.dict.as_ref().map_or(0, Prefix::heap_bytes)
    }

    pub(crate) fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for table in &self.tables {
            table.write_bytes(&mut out);
        }
        out.extend_from_slice(&self.split);
        if let Some(dict) = &self.dict {
            out.extend_from_slice(dict.as_bytes());
        }
        out
    }

    /// Appends the compressed payload of a block to `out`, from its
    /// parse after the dictionary.
    pub(crate) fn encode(&self, tokens: &SplitTokens, out: &mut Vec<u8>) {
        let start = out.len();
        let mut bits = BitWriter::new(out);
        for_each_control(&tokens.ctrl, |t, b| self.tables[t].put(b, &mut bits));
        bits.finish();
        // The control section's length goes in front of it.
        let ctrl_bytes = out.len() - start;
        write_varint(out, ctrl_bytes as u64);
        let varint = out.len() - start - ctrl_bytes;
        out[start..].rotate_right(varint);
        let mut bits = BitWriter::new(out);
        self.for_each_literal(tokens, |t, b| self.tables[t].put(b, &mut bits));
        bits.finish();
    }

    /// Calls `f(table, literal)` for every literal of a parse in order,
    /// with the table it is coded under.
    fn for_each_literal(&self, tokens: &SplitTokens, mut f: impl FnMut(usize, u8)) {
        for_each_run(tokens, |before, run| {
            let mut table = self.table_after(before);
            for &b in run {
                f(table, b);
                table = self.lit_table[b as usize] as usize;
            }
        });
    }

    /// Decodes the varint of one token field from the control stream,
    /// its first byte under `table`. The first byte's bits must be
    /// buffered; each further byte refills first. No `u64` takes more
    /// than 10 bytes.
    #[inline(always)]
    fn ctrl_varint(&self, bits: &mut BitReader<'_>, table: usize) -> Result<u64> {
        let (b, mut table) = self.decoder.get(table, bits);
        let mut v = u64::from(b & 0x7f);
        if b & 0x80 == 0 {
            return Ok(v);
        }
        for shift in (7..64).step_by(7) {
            bits.refill();
            let (b, next) = self.decoder.get(table, bits);
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            table = next;
        }
        Err(Error::Corruption(
            "block control varint runs past 10 bytes".into(),
        ))
    }

    /// [`Self::decode_into`] a new buffer.
    pub(crate) fn decode(&self, payload: &[u8], ulen: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decode_into(payload, ulen, &mut out)?;
        Ok(out)
    }

    /// Decodes a payload that must yield exactly `ulen` bytes into
    /// `out`, which it clears first, in one pass: each token's control
    /// codes, then its literal run straight from the literal stream
    /// into the output, then its match. Every run and match is checked
    /// against the room left under `ulen` before it is written, and the
    /// literal stream's offset against the payload; `ulen` itself sits
    /// in the frame header, outside the CRC, so the output is reserved
    /// at most [`LZ_RESERVE_PER_CODED_BYTE`] bytes per payload byte and
    /// grows past that only as it decodes, never past `ulen`.
    pub(crate) fn decode_into(&self, payload: &[u8], ulen: usize, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        out.resize(ulen.min(payload.len() * LZ_RESERVE_PER_CODED_BYTE), 0);
        let mut pos = 0usize;
        let ctrl_bytes = read_varint(payload, &mut pos)?;
        let coded = &payload[pos..];
        let (ctrl, lits) = usize::try_from(ctrl_bytes)
            .ok()
            .and_then(|n| coded.split_at_checked(n))
            .ok_or_else(|| {
                Error::Corruption(format!(
                    "block payload's literal stream starts {ctrl_bytes} bytes into \
                     its {} coded bytes",
                    coded.len()
                ))
            })?;
        let (mut ctrl, mut lits) = (BitReader::new(ctrl), BitReader::new(lits));
        let dict = self.dict.as_ref().map_or(&[][..], |d| d.as_bytes());
        let overrun = |what: &str, n: u64| {
            Error::Corruption(format!("{what} of {n} overruns the {ulen}-byte block"))
        };
        // `out[..len]` is decoded; the rest is room to decode into.
        let mut len = 0;
        loop {
            // Three first varint bytes follow: each further byte
            // refills, so no code runs past the buffered bits.
            const { assert!(CODES_PER_REFILL >= 3) };
            ctrl.refill();
            let run = self.ctrl_varint(&mut ctrl, 0)?;
            let run = usize::try_from(run)
                .ok()
                .filter(|&n| n <= ulen - len)
                .ok_or_else(|| overrun("literal run", run))?;
            // An empty run costs a refill, not a mispredicted branch.
            let before = match len {
                0 => dict.last().copied(),
                _ => Some(out[len - 1]),
            };
            let mut table = self.table_after(before);
            grow_within(out, len + run, ulen);
            lits.decode_each(&mut out[len..len + run], |bits, d| {
                (*d, table) = self.decoder.get(table, bits);
            });
            len += run;
            let code = self.ctrl_varint(&mut ctrl, 2)?;
            if code == 0 {
                break;
            }
            let n = usize::try_from(code)
                .ok()
                .and_then(|c| c.checked_add(MIN_MATCH - 1))
                .filter(|&n| n <= ulen - len)
                .ok_or_else(|| overrun("match length code", code))?;
            let dist = self.ctrl_varint(&mut ctrl, 4)?;
            grow_within(out, len + n, ulen);
            copy_match(out, len, dict, dist, n)?;
            len += n;
        }
        ctrl.finish()?;
        lits.finish()?;
        out.truncate(len);
        Ok(())
    }
}

/// Grows `out`, zero-filled, to hold at least `need` bytes of a block
/// of at most `ulen` (`need` fits): the length doubles, as a `Vec`'s
/// capacity would, but never past `ulen`.
fn grow_within(out: &mut Vec<u8>, need: usize, ulen: usize) {
    if out.len() < need {
        let target = out.len().saturating_mul(2).clamp(need, ulen);
        out.reserve_exact(target - out.len());
        out.resize(target, 0);
    }
}

/// Writes the `n`-byte match that starts `dist` bytes back in
/// `dict ++ out[..at]` to `out[at..at + n]`, which `out` holds. It may
/// start in the dictionary and cross into the output, and run on into
/// the bytes it writes (a match longer than its distance repeats its
/// own output). A distance of 0 or past the dictionary's start is
/// [`Error::Corruption`].
#[inline(always)]
fn copy_match(out: &mut [u8], mut at: usize, dict: &[u8], dist: u64, mut n: usize) -> Result<()> {
    if dist == 0 || dist > (at + dict.len()) as u64 {
        return Err(Error::Corruption(format!(
            "bad match distance {dist} at output {at}"
        )));
    }
    let dist = dist as usize;
    let room = out.len() - at;
    if dist > at {
        let from = dict.len() - (dist - at);
        if n <= WILD_COPY && WILD_COPY <= (dict.len() - from).min(room) {
            out[at..at + WILD_COPY].copy_from_slice(&dict[from..from + WILD_COPY]);
            return Ok(());
        }
        let k = (dict.len() - from).min(n);
        out[at..at + k].copy_from_slice(&dict[from..from + k]);
        (at, n) = (at + k, n - k);
        if n == 0 {
            return Ok(());
        }
    }
    let src = at - dist;
    if dist >= WILD_COPY && n <= WILD_COPY && WILD_COPY <= out.len() - at {
        out.copy_within(src..src + WILD_COPY, at);
        return Ok(());
    }
    // Each pass copies everything between `src` and `at`, so the copied
    // region stays a whole number of periods until the last pass.
    while n > 0 {
        let k = n.min(at - src);
        out.copy_within(src..src + k, at);
        (at, n) = (at + k, n - k);
    }
    Ok(())
}

/// Matches up to this long, and at least this far back, are copied
/// with one fixed-size move when the output has room for it (and the
/// dictionary has the bytes): the bytes past the match are garbage the
/// next token overwrites, or the final truncation drops.
const WILD_COPY: usize = 16;

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
    /// How a writer parses the blocks it frames.
    effort: BlockEffort,
    coder: Coder,
    dict_payload: Vec<u8>,
}

impl Default for BlockCodecState {
    fn default() -> Self {
        Self {
            codec: BlockCodec::None,
            effort: BlockEffort::Flush,
            coder: Coder::None,
            dict_payload: Vec::new(),
        }
    }
}

impl BlockCodecState {
    /// Trains the codec from sampled input values alone: the
    /// dictionary / PBC model as in [`Self::train_on_blocks`], the
    /// entropy tables on the samples packed into block-sized buffers.
    /// A byte the samples lack is escaped, so the state round-trips any
    /// block, however unlike the samples.
    pub fn train(codec: BlockCodec, samples: &[Vec<u8>]) -> Self {
        let blocks: Vec<Vec<u8>> = samples
            .concat()
            .chunks(SAMPLE_BLOCK_LEN)
            .map(<[u8]>::to_vec)
            .collect();
        Self::train_on_blocks(codec, BlockEffort::Flush, samples, &blocks)
    }

    /// Trains the codec for one table: the tzstd dictionary (`dict`) or
    /// pattern model (`pbc`) from sampled input values (flush/compaction
    /// collects the first [`MAX_TRAIN_SAMPLES`] put values when the codec
    /// [`trains_on_samples`](BlockCodec::trains_on_samples)), the `lz`
    /// dictionary cut from `blocks`, and the `lz`/`dict` entropy tables
    /// and split-out bytes from the LZ output, after the dictionary, of
    /// evenly spaced `blocks` of the table itself (every
    /// [`TRAIN_BLOCK_STRIDE`]th, at most [`MAX_TRAIN_BLOCKS`]), which
    /// the `pbc` fallback's tables learn too. An `lz` table is parsed,
    /// and its dictionary cut, at `effort`; a `dict` table, the
    /// trained-dictionary baseline, is written at the flush effort
    /// whatever `effort` says. Deterministic for fixed input.
    pub fn train_on_blocks(
        codec: BlockCodec,
        effort: BlockEffort,
        samples: &[Vec<u8>],
        blocks: &[Vec<u8>],
    ) -> Self {
        Self::train_parsed(codec, effort, samples, blocks).0
    }

    /// [`Self::train_on_blocks`], also returning the parse of every
    /// block the entropy tables were trained on.
    fn train_parsed(
        codec: BlockCodec,
        effort: BlockEffort,
        samples: &[Vec<u8>],
        blocks: &[Vec<u8>],
    ) -> (Self, Vec<Parsed>) {
        let step = TRAIN_BLOCK_STRIDE.max(blocks.len().div_ceil(MAX_TRAIN_BLOCKS));
        let training = blocks.iter().map(Vec::as_slice).enumerate().step_by(step);
        let dict = match codec {
            BlockCodec::None => return (Self::default(), Vec::new()),
            BlockCodec::Pbc => {
                let whole: Vec<&[u8]> = training.map(|(_, block)| block).collect();
                let model = PbcModel::train_for(samples, &whole, &PbcConfig::default());
                let state = Self {
                    codec,
                    effort: BlockEffort::Flush,
                    dict_payload: model.to_bytes(),
                    coder: Coder::Pbc(Pbc::new(Arc::new(model))),
                };
                return (state, Vec::new());
            }
            BlockCodec::Lz => cut_dictionary(blocks, effort),
            BlockCodec::Dict => train_dictionary(samples, TRAINED_DICT_BYTES),
        };
        let effort = match codec {
            BlockCodec::Lz => effort,
            _ => BlockEffort::Flush,
        };
        let dict = (!dict.is_empty()).then(|| Prefix::new(dict));
        let level = effort.level();
        let parse = |dict: Option<&Prefix>, block: &[u8]| lz_parse(dict, block, level);
        let (coder, parsed) = LzCoder::train(dict, training, parse);
        let state = Self {
            codec,
            effort,
            dict_payload: coder.payload(),
            coder: Coder::Lz(Box::new(coder)),
        };
        (state, parsed)
    }

    /// Trains the codec on `blocks` as [`Self::train_on_blocks`] does,
    /// then appends the frame of every block to `out`, in order, as
    /// [`Self::encode_frame`] would. Returns the state and, per block,
    /// its frame's length and whether the frame is compressed. A block
    /// the entropy tables were trained on is coded from training's
    /// parse of it, so no block is LZ-parsed twice.
    pub fn train_and_encode(
        codec: BlockCodec,
        effort: BlockEffort,
        samples: &[Vec<u8>],
        blocks: &[Vec<u8>],
        out: &mut Vec<u8>,
    ) -> (Self, Vec<(usize, bool)>) {
        let (state, parsed) = Self::train_parsed(codec, effort, samples, blocks);
        let mut parsed = parsed.into_iter().peekable();
        let frames = blocks
            .iter()
            .enumerate()
            .map(|(i, block)| {
                let tokens = parsed.next_if(|(at, _)| *at == i).map(|(_, tokens)| tokens);
                let start = out.len();
                let compressed = state.frame(block, tokens.as_ref(), out);
                (out.len() - start, compressed)
            })
            .collect();
        (state, frames)
    }

    /// Rebuilds the state from a table's stored dictionary payload.
    /// Arbitrary bytes are [`Error::Corruption`], never a panic.
    pub fn from_dict_payload(codec: BlockCodec, payload: &[u8]) -> Result<Self> {
        let coder = match codec {
            BlockCodec::None => return Ok(Self::default()),
            BlockCodec::Lz | BlockCodec::Dict => {
                Coder::Lz(Box::new(LzCoder::from_payload(payload, PrefixUse::Blocks)?))
            }
            BlockCodec::Pbc => Coder::Pbc(Pbc::new(Arc::new(PbcModel::from_bytes(payload)?))),
        };
        Ok(Self {
            codec,
            effort: BlockEffort::Flush,
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
        self.frame(block, None, out)
    }

    /// [`Self::encode_frame`], coding an `lz`/`dict` block from its
    /// parse when the caller has it.
    fn frame(&self, block: &[u8], tokens: Option<&SplitTokens>, out: &mut Vec<u8>) -> bool {
        let frame_start = out.len();
        out.push(self.codec.tag());
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        let payload_start = out.len();
        let encoded = block.len() <= MAX_COMPRESSED_BLOCK_LEN
            && match &self.coder {
                Coder::None => false,
                Coder::Lz(c) => {
                    match tokens {
                        Some(tokens) => c.encode(tokens, out),
                        None => {
                            let tokens = lz_parse(c.dict.as_ref(), block, self.effort.level());
                            c.encode(&tokens, out)
                        }
                    }
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

    /// The length of `effort`'s full `lz` dictionary.
    fn dict_len(effort: BlockEffort) -> usize {
        DICT_SLICES * effort.dict_slice_len()
    }

    /// An `lz` state at `effort`, trained on the fewest blocks that cut
    /// its full dictionary.
    fn primed_lz_state_at(effort: BlockEffort) -> BlockCodecState {
        let blocks: Vec<Vec<u8>> = (0..(dict_len(effort) / DICT_BYTES_PER_BLOCK) as u64)
            .map(|i| templated_block(60, i * 100))
            .collect();
        let state = BlockCodecState::train_on_blocks(BlockCodec::Lz, effort, &[], &blocks);
        assert_eq!(state.dict_payload().len(), MODEL_BYTES + dict_len(effort));
        state
    }

    /// A flush table's `lz` state, with its 4 KiB dictionary.
    fn primed_lz_state() -> BlockCodecState {
        primed_lz_state_at(BlockEffort::Flush)
    }

    /// Every codec trained on value samples, plus an `lz` state primed
    /// at either effort.
    fn all_states() -> Vec<BlockCodecState> {
        let samples = value_samples(64);
        BlockCodec::ALL
            .iter()
            .map(|&c| BlockCodecState::train(c, &samples))
            .chain([
                primed_lz_state(),
                primed_lz_state_at(BlockEffort::Compaction),
            ])
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
    fn entropy_model_costs_2070_bytes_per_table() {
        // Sixteen tables of 129 B (256 code-length nibbles and the
        // escape's length) and six split-out bytes.
        assert_eq!(MODEL_BYTES, 2070);
        let samples = value_samples(512);
        let blocks: Vec<Vec<u8>> = (0..100).map(|i| templated_block(60, i)).collect();
        let lz_dict = |effort, n| {
            let lz =
                BlockCodecState::train_on_blocks(BlockCodec::Lz, effort, &samples, &blocks[..n]);
            lz.dict_payload().len() - MODEL_BYTES
        };
        // Under 32 blocks, too small for a dictionary at either effort;
        // 4 KiB from 32 blocks on at the flush effort; a compaction
        // table's slices grow from 256 to 512 bytes as it pays for them,
        // reaching 8 KiB at 64 blocks.
        for (n, flush, compaction) in [
            (31, 0, 0),
            (32, 4096, 4096),
            (40, 4096, 5120),
            (64, 4096, 8192),
            (100, 4096, 8192),
        ] {
            assert_eq!(lz_dict(BlockEffort::Flush, n), flush, "{n} blocks");
            assert_eq!(
                lz_dict(BlockEffort::Compaction, n),
                compaction,
                "{n} blocks"
            );
        }
        // A `dict` table's trained dictionary is 4 KiB at either effort.
        for effort in [BlockEffort::Flush, BlockEffort::Compaction] {
            let dict =
                BlockCodecState::train_on_blocks(BlockCodec::Dict, effort, &samples, &blocks);
            assert!(dict.dict_payload().len() > MODEL_BYTES);
            assert!(dict.dict_payload().len() <= MODEL_BYTES + TRAINED_DICT_BYTES);
        }
    }

    #[test]
    fn train_and_encode_frames_every_block_as_encode_frame_does() {
        // Training blocks are coded from training's parse, the others
        // parsed afresh: the frames must not tell them apart.
        let samples = value_samples(256);
        for (n, effort) in [0, 1, 9, 40, 300]
            .into_iter()
            .flat_map(|n| [(n, BlockEffort::Flush), (n, BlockEffort::Compaction)])
        {
            let blocks: Vec<Vec<u8>> = (0..n).map(|i| templated_block(30, i * 7)).collect();
            for codec in BlockCodec::ALL {
                let mut frames = Vec::new();
                let (state, lens) = BlockCodecState::train_and_encode(
                    codec,
                    effort,
                    &samples,
                    &blocks,
                    &mut frames,
                );
                let alone = BlockCodecState::train_on_blocks(codec, effort, &samples, &blocks);
                assert_eq!(state.dict_payload(), alone.dict_payload());
                let mut want = Vec::new();
                let mut want_lens = Vec::new();
                for block in &blocks {
                    let start = want.len();
                    let compressed = alone.encode_frame(block, &mut want);
                    want_lens.push((want.len() - start, compressed));
                }
                assert_eq!(frames, want, "{} over {n} blocks, {effort:?}", codec.name());
                assert_eq!(lens, want_lens);
            }
        }
    }

    #[test]
    fn lz_dictionary_is_cut_from_evenly_spaced_blocks() {
        // Blocks of distinct lengths, so each slice names its block.
        let blocks: Vec<Vec<u8>> = (0..80).map(|i| templated_block(10 + i, i as u64)).collect();
        for (effort, slice_len) in [(BlockEffort::Flush, 256), (BlockEffort::Compaction, 512)] {
            let state = BlockCodecState::train_on_blocks(BlockCodec::Lz, effort, &[], &blocks);
            let dict = &state.dict_payload()[MODEL_BYTES..];
            let mut want = Vec::new();
            for block in [2, 7, 12, 17, 22, 27, 32, 37, 42, 47, 52, 57, 62, 67, 72, 77] {
                let b = &blocks[block];
                want.extend_from_slice(&b[b.len() / 3..b.len().min(b.len() / 3 + slice_len)]);
            }
            assert_eq!(dict, want, "{effort:?}");
            let again = BlockCodecState::train_on_blocks(BlockCodec::Lz, effort, &[], &blocks);
            assert_eq!(again.dict_payload(), state.dict_payload());
            // Every block parses after it and round-trips through a
            // reader rebuilt from the payload.
            let reader =
                BlockCodecState::from_dict_payload(BlockCodec::Lz, state.dict_payload()).unwrap();
            for block in &blocks {
                let mut frame = Vec::new();
                assert!(state.encode_frame(block, &mut frame));
                assert_eq!(reader.decode_frame(&frame).unwrap(), *block);
            }
        }
    }

    #[test]
    fn a_compaction_table_is_smaller_and_a_dict_table_is_unchanged() {
        // On a large table of templated blocks, the lazy parse and the
        // longer dictionary pay for themselves. A `dict` table is the
        // same at either effort.
        let samples = value_samples(512);
        let blocks: Vec<Vec<u8>> = (0..200).map(|i| templated_block(60, i * 61)).collect();
        let table = |codec, effort| {
            let mut out = Vec::new();
            let (state, _) =
                BlockCodecState::train_and_encode(codec, effort, &samples, &blocks, &mut out);
            out.extend_from_slice(state.dict_payload());
            out
        };
        let flush = table(BlockCodec::Lz, BlockEffort::Flush);
        let compaction = table(BlockCodec::Lz, BlockEffort::Compaction);
        assert!(
            compaction.len() < flush.len(),
            "{} !< {}",
            compaction.len(),
            flush.len()
        );
        assert_eq!(
            table(BlockCodec::Dict, BlockEffort::Compaction),
            table(BlockCodec::Dict, BlockEffort::Flush)
        );
    }

    #[test]
    fn ten_table_lz_payloads_and_frames_are_corruption() {
        // Written by the two-pass codec: ten 128-byte tables trained on
        // nothing (every code 8 bits), alone or before a dictionary, and
        // the frame of an 87-byte block under the first.
        let ten = [0x88u8; 10 * 128];
        let primed = primed_lz_state();
        let with_dict = [&ten[..], &primed.dict_payload()[MODEL_BYTES..]].concat();
        for codec in [BlockCodec::Lz, BlockCodec::Dict] {
            for payload in [&ten[..], &with_dict] {
                assert!(matches!(
                    BlockCodecState::from_dict_payload(codec, payload),
                    Err(Error::Corruption(_))
                ));
            }
        }
        let frame = [
            0x01, 0x57, 0x00, 0x00, 0x00, 0xc8, 0x40, 0xed, 0xe5, 0x0b, 0x23, 0xa0, 0x60, 0x80,
            0xf0, 0x30, 0xb8, 0x80, 0x98, 0xb8, 0x70, 0x00, 0xae, 0xce, 0xa6, 0x4e, 0x0c, 0x8c,
            0xec, 0xbc, 0xca, 0x0e, 0x4e, 0x96, 0x76, 0xe6, 0x66, 0x96, 0xa6, 0x36, 0x26, 0xdc,
            0x1c, 0x9c, 0xbc, 0xca, 0x16, 0xa6, 0x36, 0x46, 0x9e, 0x6e, 0x96, 0x36, 0x36, 0xa6,
            0xdc,
        ];
        for state in all_states() {
            assert!(
                matches!(state.decode_frame(&frame), Err(Error::Corruption(_))),
                "{}",
                state.codec().name()
            );
        }
    }

    /// 16 tables that all differ: table `t` gives symbol `t` (and `t +
    /// 16`, ...) a short code, so a symbol decoded under the wrong
    /// context comes out as another symbol.
    fn distinct_tables() -> Vec<HuffTable> {
        (0..TABLES)
            .map(|t| {
                let mut counts = [1u32; 256];
                for sym in (t..256).step_by(TABLES) {
                    counts[sym] = 5000;
                }
                HuffTable::from_counts(&counts)
            })
            .collect()
    }

    #[test]
    fn contexts_follow_the_token_fields_and_the_byte_before() {
        // Control bytes: a literal run of 200 (two varint bytes), match
        // length code 1, distance 300 (two bytes), an empty literal
        // run, end marker.
        let mut tables = Vec::new();
        for_each_control(&[0xc8, 0x01, 0x01, 0xac, 0x02, 0x00, 0x00], |t, _| {
            tables.push(t)
        });
        assert_eq!(tables, [0, 1, 2, 4, 5, 0, 2]);
        // `Ab1 ` as literals, the 4-byte match of distance 4 that
        // repeats it, then `zZ` as literals: 'z' follows the match's
        // last byte, ' '.
        let block = b"Ab1 Ab1 zZ";
        let split = [b' ', b'\t', b'.', b'-', 0x0f, b'L'];
        for (dict, first) in [
            // After the dictionary's last byte, '-', a split-out byte.
            (Some(b"xy-".to_vec()), CTRL_TABLES + CLASSES + 3),
            // No dictionary: after "other".
            (None, CTRL_TABLES + OTHER as usize),
        ] {
            let coder = LzCoder::new(dict.map(Prefix::new), split, distinct_tables());
            let tokens = lz_parse(coder.dict.as_ref(), block, BlockEffort::Flush.level());
            assert_eq!(tokens.ctrl, [4, 1, 4, 2, 0]);
            let mut seen = Vec::new();
            coder.for_each_literal(&tokens, |t, b| seen.push((t, b)));
            assert_eq!(
                seen,
                [
                    (first, b'A'),
                    (CTRL_TABLES + 2, b'b'),
                    (CTRL_TABLES + 1, b'1'),
                    (CTRL_TABLES, b' '),
                    (CTRL_TABLES + CLASSES, b'z'),
                    (CTRL_TABLES + 1, b'Z'),
                ]
            );
            // The decoder picks each literal's table from its output,
            // the same way: under tables that all differ, any other
            // choice decodes other bytes.
            let mut payload = Vec::new();
            coder.encode(&tokens, &mut payload);
            assert_eq!(coder.decode(&payload, block.len()).unwrap(), block);
        }
    }

    #[test]
    fn split_out_bytes_are_picked_greedily_and_deterministically() {
        // All "other": ' ' before 1000 'a', '.' before 500 'b', '-'
        // before 200 'c', and 50 'd' first in a block without a
        // dictionary; one digit row, alone in its class.
        let mut after = vec![[0u32; 256]; NO_BYTE + 1];
        after[b' ' as usize][b'a' as usize] = 1000;
        after[b'.' as usize][b'b' as usize] = 500;
        after[b'-' as usize][b'c' as usize] = 200;
        after[NO_BYTE][b'd' as usize] = 50;
        after[b'7' as usize][b'q' as usize] = 300;
        // Entropy of what each leaves behind, in bits: without ' ' 869,
        // without '.' 1 083, without '-' 1 696, so ' ' goes first; then
        // '.' leaves 180 where '-' leaves 242. The bytes that save
        // nothing tie, and the lower byte wins: every empty row, and
        // '7', alone in its class.
        let split = split_bytes(&after);
        assert_eq!(split, [b' ', b'.', b'-', 0, 1, 2]);
        assert_eq!(split_bytes(&after.clone()), split);
        // A trained table stores its pick, the same every time.
        let blocks: Vec<Vec<u8>> = (0..40).map(|i| templated_block(60, i * 13)).collect();
        let a = BlockCodecState::train_on_blocks(BlockCodec::Lz, BlockEffort::Flush, &[], &blocks);
        let b = BlockCodecState::train_on_blocks(BlockCodec::Lz, BlockEffort::Flush, &[], &blocks);
        assert_eq!(a.dict_payload(), b.dict_payload());
        let Coder::Lz(coder) = &a.coder else {
            unreachable!("an lz state")
        };
        assert_eq!(
            &a.dict_payload()[TABLES * TABLE_BYTES..MODEL_BYTES],
            coder.split
        );
    }

    #[test]
    fn tables_trained_on_the_blocks_beat_tables_trained_on_values() {
        // Real blocks carry entry headers and keys the value samples
        // never show; training on them must pay off on them, for a
        // `pbc` table's fallback coder too.
        let samples = value_samples(512);
        let blocks: Vec<Vec<u8>> = (0..40).map(|i| templated_block(60, i * 1000)).collect();
        let frames_len = |state: &BlockCodecState| {
            let mut out = Vec::new();
            for block in &blocks {
                state.encode_frame(block, &mut out);
            }
            out.len()
        };
        for codec in [BlockCodec::Lz, BlockCodec::Dict, BlockCodec::Pbc] {
            let on_blocks =
                BlockCodecState::train_on_blocks(codec, BlockEffort::Flush, &samples, &blocks);
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
        // Trained on nothing at all: every table is the escape alone, so
        // every byte costs its 8 raw bits and the LZ stage alone has to
        // win.
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
        // on a foreign tag, a wrong length or a wrong checksum. The
        // second block is one long literal run, then long matches.
        let runs = [&value_samples(3).concat()[..], &[b'z'; 300]].concat();
        for (state, block) in all_states()
            .iter()
            .flat_map(|s| [(s, templated_block(40, 5)), (s, runs.clone())])
        {
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

    #[test]
    fn copy_match_agrees_with_a_byte_by_byte_copy() {
        // Every match that fits a 48-byte output after a 40-byte
        // dictionary: from the dictionary, across into the output, from
        // the output, overlapping its own bytes; near the end, where no
        // wild copy fits.
        let dict: Vec<u8> = (0..40).collect();
        let len = 48;
        for at in 0..len {
            for dist in 1..=at + dict.len() {
                for n in 1..=len - at {
                    let mut out: Vec<u8> = (100..100 + len as u8).collect();
                    let mut want = out.clone();
                    for p in at..at + n {
                        want[p] = match p.checked_sub(dist) {
                            Some(q) => want[q],
                            None => dict[dict.len() + p - dist],
                        };
                    }
                    copy_match(&mut out, at, &dict, dist as u64, n).unwrap();
                    assert_eq!(out[..at + n], want[..at + n], "at {at} dist {dist} n {n}");
                }
            }
            for dist in [0, at + dict.len() + 1] {
                let mut out = vec![0; len];
                assert!(matches!(
                    copy_match(&mut out, at, &dict, dist as u64, 1),
                    Err(Error::Corruption(_))
                ));
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
        // The literal stream's offset inside an lz payload, past its
        // coded bytes by far and by one.
        let state = BlockCodecState::train(BlockCodec::Lz, &value_samples(64));
        for (offset, coded) in [(u64::MAX, 8), (1 << 40, 8), (9, 8), (1, 0)] {
            let mut payload = Vec::new();
            write_varint(&mut payload, offset);
            payload.extend_from_slice(&vec![0u8; coded]);
            assert!(matches!(
                state.decode_frame(&forged_frame(BlockCodec::Lz.tag(), 4096, &payload)),
                Err(Error::Corruption(_))
            ));
        }
    }

    /// The largest allocation a refused decode may make besides its
    /// output: the error message.
    const MESSAGE_BYTES: usize = 256;

    fn lz_coder(state: &BlockCodecState) -> &LzCoder {
        match &state.coder {
            Coder::Lz(coder) => coder,
            _ => unreachable!("an lz or dict state"),
        }
    }

    #[test]
    fn literal_runs_and_matches_past_ulen_are_refused_unwritten() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let random: Vec<u8> = (0..3000).map(|_| rng.gen()).collect();
        let state = primed_lz_state();
        let coder = lz_coder(&state);
        // One literal run of 3 000 bytes; one literal and a 2 999-byte
        // match.
        for block in [random, vec![b'z'; 3000]] {
            let mut payload = Vec::new();
            coder.encode(
                &lz_parse(coder.dict.as_ref(), &block, BlockEffort::Flush.level()),
                &mut payload,
            );
            assert_eq!(coder.decode(&payload, block.len()).unwrap(), block);
            for ulen in [0, 1, 1000, block.len() - 1] {
                let (outcome, largest) =
                    tb_common::testutil::largest_allocation(|| coder.decode(&payload, ulen));
                assert!(matches!(outcome, Err(Error::Corruption(_))), "ulen {ulen}");
                let bound = ulen.max(MESSAGE_BYTES);
                assert!(largest <= bound, "{largest} B allocated, ulen {ulen}");
            }
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
        // Either codec's dictionary is bounded, at a compaction
        // table's 8 KiB.
        for codec in [BlockCodec::Lz, BlockCodec::Dict] {
            assert!(!corrupt(codec, &[&good[..], b"extra"].concat()));
            let full = [&good[..], &vec![b'x'; 8192]].concat();
            assert!(!corrupt(codec, &full));
            let oversized = [&good[..], &vec![b'x'; 8193]].concat();
            assert!(corrupt(codec, &oversized));
        }
        // Not a prefix code.
        let mut bad = good.clone();
        bad[0] = 0;
        assert!(corrupt(BlockCodec::Lz, &bad));
        // The split-out byte list cut short, or naming a byte twice.
        for cut in 1..=SPLIT_BYTES {
            assert!(corrupt(BlockCodec::Lz, &good[..MODEL_BYTES - cut]));
        }
        for (a, b) in [(0, 1), (0, 5), (3, 4)] {
            let mut twice = good.clone();
            let split = TABLES * TABLE_BYTES;
            twice[split + b] = twice[split + a];
            assert!(corrupt(BlockCodec::Lz, &twice), "split bytes {a} and {b}");
        }
        assert!(corrupt(BlockCodec::Pbc, &[0xff; 40]));
    }

    #[test]
    fn payloads_of_the_previous_table_layouts_are_corruption() {
        // One control and one literal table, 256 B: what tables written
        // before the context split carry. Sixteen 128-byte tables and
        // the split-out bytes, 2 054 B, alone or before a dictionary:
        // what tables written before the escape code carry. Read as this
        // layout, the first table's escape length is the first byte of
        // the second old table: two nibbles >= 1, so >= 0x11 > 11.
        let sixteen = [&[0x88u8; TABLES * 128][..], &[0, 1, 2, 3, 4, 5]].concat();
        let primed = primed_lz_state();
        let dict = &primed.dict_payload()[MODEL_BYTES..];
        for previous in [
            vec![0x88u8; 2 * 128],
            sixteen.clone(),
            [&sixteen[..], &dict[..16]].concat(),
            [&sixteen[..], dict].concat(),
        ] {
            for codec in [BlockCodec::Lz, BlockCodec::Dict] {
                assert!(matches!(
                    BlockCodecState::from_dict_payload(codec, &previous),
                    Err(Error::Corruption(_))
                ));
            }
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
        /// never a panic — with and without a plausible header, and
        /// with a literal-stream offset inside the payload or past it.
        /// The fused decoder allocates nothing above `ulen` but an
        /// error message.
        #[test]
        fn prop_decode_frame_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            ulen in 0u32..10_000,
            offset in 0u64..700,
        ) {
            let mut offset_first = Vec::new();
            write_varint(&mut offset_first, offset);
            offset_first.extend_from_slice(&bytes);
            for state in all_states() {
                let _ = state.decode_frame(&bytes);
                // Past the CRC gate, into the codec.
                for payload in [&bytes, &offset_first] {
                    let frame = forged_frame(state.codec().tag(), ulen, payload);
                    let (_, largest) =
                        tb_common::testutil::largest_allocation(|| state.decode_frame(&frame));
                    if matches!(state.coder, Coder::Lz(_)) {
                        let bound = (ulen as usize).max(MESSAGE_BYTES);
                        prop_assert!(largest <= bound, "{largest} B allocated, ulen {ulen}");
                    }
                }
            }
        }

        /// Arbitrary bytes, noise behind a well-formed model (sixteen
        /// escape-only tables, six distinct split-out bytes) at lengths
        /// around its 2 070 B and past it into a dictionary,
        /// and a trained `lz` payload with its dictionary cut short,
        /// flipped or grown past the bound, or a bit of its tables (a
        /// code length or an escape's length) or of its split-out byte
        /// list flipped: `Ok` or `Corruption`. A state that opens
        /// encodes and decodes a block after whatever tables,
        /// dictionary and split-out bytes it holds.
        #[test]
        fn prop_from_dict_payload_is_ok_or_corruption(
            bytes in proptest::collection::vec(any::<u8>(), 0..700),
            cut in 0usize..700,
            flip in any::<usize>(),
        ) {
            let model = [&[0u8; TABLES * TABLE_BYTES][..], &[0, 1, 2, 3, 4, 5]].concat();
            let near = [&model[..MODEL_BYTES - cut.min(300)], &bytes[..]].concat();
            let behind = [&model[..], &bytes[..]].concat();
            // A full 8 KiB dictionary, so `long` is past the bound.
            let primed = primed_lz_state_at(BlockEffort::Compaction).dict_payload().to_vec();
            let short = &primed[..primed.len() - cut];
            let mut flipped = primed.clone();
            let at = MODEL_BYTES + flip % MAX_DICT_BYTES;
            flipped[at] ^= 1 << (flip % 8);
            let mut split_flipped = primed.clone();
            split_flipped[TABLES * TABLE_BYTES + flip % SPLIT_BYTES] ^= 1 << (flip % 8);
            let mut table_flipped = primed.clone();
            table_flipped[flip / 8 % (TABLES * TABLE_BYTES)] ^= 1 << (flip % 8);
            let long = [&primed[..], &bytes[..]].concat();
            let block = templated_block(50, cut as u64);
            for codec in BlockCodec::ALL {
                let payloads = [&bytes, &near, &behind, short, &flipped, &split_flipped, &table_flipped, &long];
                for payload in payloads {
                    match BlockCodecState::from_dict_payload(codec, payload) {
                        Ok(state) => roundtrip(&state, &block),
                        Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
                    }
                }
            }
            let long_opens = BlockCodecState::from_dict_payload(BlockCodec::Lz, &long).is_ok();
            prop_assert_eq!(long_opens, bytes.is_empty());
            prop_assert!(BlockCodecState::from_dict_payload(BlockCodec::Lz, &behind).is_ok());
        }

        /// Trained on an empty sample, every table is the escape alone,
        /// so every literal and control byte is its 8 raw bits: any
        /// bytes still round-trip, and so does a rebuilt reader.
        #[test]
        fn prop_escape_only_tables_roundtrip_any_bytes(
            block in proptest::collection::vec(any::<u8>(), 0..3000),
            run in 1usize..8,
        ) {
            let block: Vec<u8> = block.iter().flat_map(|&b| std::iter::repeat_n(b, run)).collect();
            for codec in [BlockCodec::Lz, BlockCodec::Dict] {
                let state = BlockCodecState::train(codec, &[]);
                let model = &state.dict_payload()[..TABLES * TABLE_BYTES];
                prop_assert!(model.iter().all(|&b| b == 0), "escape-only tables");
                roundtrip(&state, &block);
                let reader = BlockCodecState::from_dict_payload(codec, state.dict_payload()).unwrap();
                let mut frame = Vec::new();
                state.encode_frame(&block, &mut frame);
                prop_assert_eq!(reader.decode_frame(&frame).unwrap(), block.clone());
            }
        }

        /// A payload with its CRC re-stamped reaches the codec: one bit
        /// flipped anywhere in it, or the literal stream's offset
        /// forged a little off (past the payload, too), so the two
        /// streams decode from the wrong bits; or the header's `ulen`
        /// forged a little off, so a literal run or a match overruns
        /// it. Each frame is refused (or, where a flip turns one code
        /// into another, decodes to `ulen` bytes), never panics, and
        /// allocates nothing above `ulen` but an error message.
        #[test]
        fn prop_damaged_lz_payloads_are_refused_within_bounds(
            seed in 0u64..1000,
            bit in any::<usize>(),
            offset_delta in -16i64..16,
            ulen_delta in -64isize..4,
            forge in 0u8..3,
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
                let mut ulen = block.len();
                match forge {
                    0 => {
                        let bit = bit % (payload.len() * 8);
                        payload[bit / 8] ^= 1 << (bit % 8);
                    }
                    1 => {
                        let mut pos = 0;
                        let offset = read_varint(&payload, &mut pos).unwrap();
                        let mut forged = Vec::new();
                        write_varint(&mut forged, offset.saturating_add_signed(offset_delta));
                        forged.extend_from_slice(&payload[pos..]);
                        payload = forged;
                    }
                    _ => ulen = ulen.saturating_add_signed(ulen_delta),
                }
                let frame = forged_frame(codec.tag(), ulen as u32, &payload);
                let (outcome, largest) =
                    tb_common::testutil::largest_allocation(|| state.decode_frame(&frame));
                match outcome {
                    Ok(raw) => prop_assert_eq!(raw.len(), ulen),
                    Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
                }
                let bound = ulen.max(MESSAGE_BYTES);
                prop_assert!(largest <= bound, "{largest} B allocated, ulen {ulen}");
            }
        }

        /// The parser's literal runs, with the byte before each (what
        /// the encoder picks a run's first table by), are where its
        /// control stream puts them in `dictionary ++ block` (where the
        /// decoder finds them).
        #[test]
        fn prop_parse_runs_match_the_control_stream(
            block in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'7'), any::<u8>()], 0..3000),
        ) {
            let prefix = Prefix::new(b"a7a7aaa777".repeat(20));
            for dict in [None, Some(&prefix)] {
                let tokens = lz_parse(dict, &block, BlockEffort::Flush.level());
                let history = [dict.map_or(&[][..], |d| d.as_bytes()), &block].concat();
                let (mut at, mut pos) = (0, history.len() - block.len());
                let (mut runs, mut lit) = (Vec::new(), Vec::new());
                let mut next = || read_varint(&tokens.ctrl, &mut at).unwrap() as usize;
                loop {
                    let run = next();
                    if run > 0 {
                        runs.push((run, pos.checked_sub(1).map(|j| history[j])));
                        lit.extend_from_slice(&history[pos..pos + run]);
                    }
                    pos += run;
                    match next() {
                        0 => break,
                        code => {
                            next();
                            pos += code + MIN_MATCH - 1;
                        }
                    }
                }
                prop_assert_eq!(pos, history.len());
                prop_assert_eq!(runs, tokens.runs);
                prop_assert_eq!(lit, tokens.lit);
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
