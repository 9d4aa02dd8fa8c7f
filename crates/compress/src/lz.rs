//! `tzstd`: an LZ77 hash-chain compressor with levels and dictionaries.
//!
//! Stand-in for Zstandard (see the crate docs for the substitution
//! rationale). The wire format is a token stream:
//!
//! ```text
//! record := ( literal_run match )* literal_run end
//! literal_run := varint(len) byte*
//! match := varint(len - MIN_MATCH + 1)  varint(distance)   // len >= MIN_MATCH
//! end := varint(0)
//! ```
//!
//! A trained dictionary acts as virtual history preceding the input:
//! match distances may reach past the start of the record into the
//! dictionary, which is what makes small templated records compress well.
//! The dictionary is indexed once at construction, so per-record
//! compression does no dictionary-sized work.
//!
//! SSTable blocks use a [`Prefix`] instead: the block is parsed as if
//! the prefix came right before it in one input, tokens being emitted
//! for the block only. The prefix's hash chains are built once, and a
//! block position's chain walk runs on from the block's own earlier
//! positions into them, under the level's one `chain_len` budget. The
//! decoder is the same: distances count back through `prefix ++ output`.

use crate::Compressor;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use tb_common::{Error, Result};

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps varints short; matches may be split).
const MAX_MATCH: usize = 1 << 16;
/// Max candidate positions stored per 4-gram in the dictionary index.
const DICT_POSTINGS_CAP: usize = 16;

/// Compression level, mirroring zstd's level semantics: negative levels
/// trade ratio for speed, higher positive levels search harder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TzstdLevel(pub i32);

impl Default for TzstdLevel {
    fn default() -> Self {
        TzstdLevel(1)
    }
}

#[derive(Debug, Clone, Copy)]
struct LevelParams {
    /// Max hash-chain candidates examined per position.
    chain_len: usize,
    /// Max dictionary candidates examined per position.
    dict_probe: usize,
    /// Greedy-vs-lazy parsing: lazy re-checks the next position before
    /// committing to a match.
    lazy: bool,
    /// Acceleration: after this many consecutive literal misses, start
    /// skipping positions (fast negative levels).
    skip_trigger: u32,
}

impl TzstdLevel {
    fn params(self) -> LevelParams {
        match self.0 {
            i32::MIN..=-21 => LevelParams {
                chain_len: 1,
                dict_probe: 1,
                lazy: false,
                skip_trigger: 4,
            },
            -20..=-1 => LevelParams {
                chain_len: 2,
                dict_probe: 2,
                lazy: false,
                skip_trigger: 6,
            },
            0..=3 => LevelParams {
                chain_len: 8,
                dict_probe: 4,
                lazy: false,
                skip_trigger: u32::MAX,
            },
            4..=12 => LevelParams {
                chain_len: 32,
                dict_probe: 8,
                lazy: true,
                skip_trigger: u32::MAX,
            },
            13..=18 => LevelParams {
                chain_len: 64,
                dict_probe: 12,
                lazy: true,
                skip_trigger: u32::MAX,
            },
            _ => LevelParams {
                chain_len: 256,
                dict_probe: 16,
                lazy: true,
                skip_trigger: u32::MAX,
            },
        }
    }
}

/// Pre-indexed dictionary shared across compressor instances.
pub struct TrainedDict {
    bytes: Vec<u8>,
    /// Open-addressed map (linear probing, load <= 1/2) from a 4-gram's
    /// hash to its run in `postings`. `gram_hash` is a bijection on the
    /// four bytes, so equal hashes mean equal 4-grams.
    slots: Vec<DictSlot>,
    /// `hash >> shift` is a 4-gram's home slot.
    shift: u32,
    /// Positions in `bytes`, ascending within each 4-gram's run and
    /// capped at [`DICT_POSTINGS_CAP`] per 4-gram.
    postings: Vec<u32>,
}

/// `len == 0` marks an empty slot.
#[derive(Clone, Copy, Default)]
struct DictSlot {
    hash: u32,
    start: u32,
    len: u32,
}

impl TrainedDict {
    pub fn new(bytes: Vec<u8>) -> Self {
        let grams = bytes.len().saturating_sub(MIN_MATCH - 1);
        let mut pairs: Vec<(u32, u32)> = (0..grams)
            .map(|i| (gram_hash(&bytes[i..]), i as u32))
            .collect();
        pairs.sort_unstable();
        let bits = (2 * grams).next_power_of_two().trailing_zeros().max(4);
        let mut slots = vec![DictSlot::default(); 1 << bits];
        let shift = 32 - bits;
        let mut postings = Vec::with_capacity(grams);
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let start = postings.len() as u32;
            postings.extend(run.iter().take(DICT_POSTINGS_CAP).map(|&(_, pos)| pos));
            let mut idx = (run[0].0 >> shift) as usize;
            while slots[idx].len != 0 {
                idx = (idx + 1) & (slots.len() - 1);
            }
            slots[idx] = DictSlot {
                hash: run[0].0,
                start,
                len: postings.len() as u32 - start,
            };
        }
        Self {
            bytes,
            slots,
            shift,
            postings,
        }
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Dictionary positions of the 4-gram hashing to `hash`, oldest first.
    fn candidates(&self, hash: u32) -> &[u32] {
        let mut idx = (hash >> self.shift) as usize;
        loop {
            let slot = self.slots[idx];
            if slot.len == 0 {
                return &[];
            }
            if slot.hash == hash {
                return &self.postings[slot.start as usize..(slot.start + slot.len) as usize];
            }
            idx = (idx + 1) & (self.slots.len() - 1);
        }
    }

    /// Longest match for `input[i..]` among the first `probe`
    /// dictionary candidates. Returns `(length, distance)` in
    /// combined-history coordinates (history is `dict ++ input`).
    fn best_match(&self, input: &[u8], i: usize, probe: usize) -> Option<(usize, usize)> {
        let max = (input.len() - i).min(MAX_MATCH);
        if max < MIN_MATCH {
            return None;
        }
        let dlen = self.bytes.len();
        let mut best: Option<(usize, usize)> = None;
        for &dj in self.candidates(gram_hash(&input[i..])).iter().take(probe) {
            let dj = dj as usize;
            let in_dict = (dlen - dj).min(max);
            let mut l = common_prefix(&self.bytes[dj..dj + in_dict], &input[i..i + in_dict]);
            if l == in_dict {
                // Ran off the end of the dictionary: the match continues
                // at the start of the input, up to (not into) position i.
                let more = (max - l).min(i);
                l += common_prefix(&input[..more], &input[i + l..i + l + more]);
            }
            if l >= MIN_MATCH && best.is_none_or(|(bl, _)| l > bl) {
                best = Some((l, i + dlen - dj));
            }
        }
        best
    }
}

/// Bucket bits of a parse after a [`Prefix`]. Fixed, because the
/// prefix's chains are built once for every input; the most a plain
/// parse uses. A 4 KiB prefix and a 4 KiB block are ~8 K positions,
/// and with fewer buckets more of a chain's steps go to positions of
/// other 4-grams: on Cities blocks 2^14 buckets encoded ~10 % slower,
/// and 2^12 over 30 % slower and ~1 % larger.
const PREFIX_TABLE_BITS: u32 = 16;

/// Match history that precedes every input of [`lz_parse_after`] (a
/// table's block dictionary).
pub(crate) struct Prefix {
    bytes: Vec<u8>,
    /// Built on the first parse: a reader only decodes.
    chains: OnceLock<PrefixChains>,
}

/// Hash chains over a prefix's own 4-grams (none that would reach
/// into the input), in [`PREFIX_TABLE_BITS`] buckets. Entries hold
/// `1 + position`, 0 ends a chain.
struct PrefixChains {
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl Prefix {
    pub fn new(bytes: Vec<u8>) -> Self {
        Self {
            bytes,
            chains: OnceLock::new(),
        }
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn chains(&self) -> &PrefixChains {
        self.chains.get_or_init(|| {
            let mut head = vec![0u32; 1 << PREFIX_TABLE_BITS];
            let mut prev = vec![0u32; self.bytes.len()];
            let grams = self.bytes.windows(MIN_MATCH);
            for (pos, (link, gram)) in prev.iter_mut().zip(grams).enumerate() {
                let h = (gram_hash(gram) >> (32 - PREFIX_TABLE_BITS)) as usize;
                *link = head[h];
                head[h] = pos as u32 + 1;
            }
            PrefixChains { head, prev }
        })
    }
}

/// Hash of the 4-gram at the start of `b`.
#[inline]
fn gram_hash(b: &[u8]) -> u32 {
    let w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    w.wrapping_mul(0x9e37_79b1)
}

/// Length of the common prefix of two equal-length slices, compared a
/// word at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut l = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < a.len() && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Where the parser writes its token stream: interleaved into one
/// buffer (the record format), or split into control bytes and literal
/// bytes (the block format, one entropy table per stream).
pub(crate) trait TokenSink {
    fn varint(&mut self, v: u64);
    fn literals(&mut self, bytes: &[u8]);
}

impl TokenSink for Vec<u8> {
    fn varint(&mut self, v: u64) {
        write_varint(self, v);
    }

    fn literals(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The token stream split by kind: every varint in `ctrl`, every
/// literal byte in `lit`, each in stream order; `run_start[i]` is
/// whether `lit[i]` is the first literal of its run.
#[derive(Default)]
pub(crate) struct SplitTokens {
    pub ctrl: Vec<u8>,
    pub lit: Vec<u8>,
    pub run_start: Vec<bool>,
}

impl TokenSink for SplitTokens {
    fn varint(&mut self, v: u64) {
        write_varint(&mut self.ctrl, v);
    }

    fn literals(&mut self, bytes: &[u8]) {
        let start = self.lit.len();
        self.lit.extend_from_slice(bytes);
        self.run_start.resize(self.lit.len(), false);
        if let Some(first) = self.run_start.get_mut(start) {
            *first = true;
        }
    }
}

/// Hash-chain working memory, kept per thread so a 4 KiB block does
/// not pay for allocating and clearing a fresh table.
///
/// `head`/`prev` hold `base + position`; anything below the current
/// call's `base` (zero, or left over from an earlier input) reads as
/// "no candidate", so nothing is cleared between inputs.
struct Scratch {
    head: Vec<u32>,
    prev: Vec<u32>,
    next_base: u32,
    /// `prefix ++ input` for [`lz_parse_after`].
    history: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch { head: Vec::new(), prev: Vec::new(), next_base: 1, history: Vec::new() })
    };
}

/// Inputs this long are emitted as one literal run: positions are kept
/// in `u32`s offset by the scratch base.
const MAX_LZ_INPUT: usize = 1 << 30;

/// Longest per-position chain array (in entries) a thread keeps between
/// calls; the bucket array is at most 2^16 entries by construction.
const MAX_KEPT_SCRATCH: usize = 1 << 20;

/// LZ77-parses `input` into `sink` (no framing, no entropy stage).
pub(crate) fn lz_parse(
    input: &[u8],
    dict: Option<&TrainedDict>,
    level: TzstdLevel,
    sink: &mut impl TokenSink,
) {
    with_scratch(input, sink, |scratch, sink| {
        parse(scratch, input, 0, dict, None, level.params(), sink);
    });
}

/// [`lz_parse`] of `prefix ++ input` that emits tokens for `input`
/// only: matches may start anywhere in the prefix and run on into the
/// input.
pub(crate) fn lz_parse_after(
    prefix: &Prefix,
    input: &[u8],
    level: TzstdLevel,
    sink: &mut impl TokenSink,
) {
    with_scratch(input, sink, |scratch, sink| {
        let mut history = std::mem::take(&mut scratch.history);
        history.clear();
        history.extend_from_slice(&prefix.bytes);
        history.extend_from_slice(input);
        let chains = prefix.chains();
        parse(
            scratch,
            &history,
            prefix.bytes.len(),
            None,
            Some(chains),
            level.params(),
            sink,
        );
        scratch.history = history;
    });
}

/// Runs `parse` on this thread's scratch, or emits an over-long
/// `input` as one literal run.
fn with_scratch<S: TokenSink>(
    input: &[u8],
    sink: &mut S,
    parse: impl FnOnce(&mut Scratch, &mut S),
) {
    if input.len() > MAX_LZ_INPUT {
        sink.varint(input.len() as u64);
        sink.literals(input);
        sink.varint(0);
        return;
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        parse(scratch, sink);
        // One huge input must not pin its working memory to the thread.
        if scratch.prev.len() > MAX_KEPT_SCRATCH {
            scratch.prev = Vec::new();
        }
        if scratch.history.capacity() > MAX_KEPT_SCRATCH {
            scratch.history = Vec::new();
        }
    });
}

/// Makes candidate `j < i` the `best` match for position `i` (at most
/// `max` bytes) if it is longer. Only a candidate that matches through
/// one byte past the best so far can replace it, so the four bytes
/// ending there are tested first (the first four when there is no best
/// yet, which any match needs) and the rest is compared only if they
/// agree.
#[inline(always)]
fn consider(input: &[u8], i: usize, j: usize, max: usize, best: &mut Option<(usize, usize)>) {
    debug_assert!(j < i);
    let bl = best.map_or(MIN_MATCH - 1, |(bl, _)| bl);
    if bl < max && input[j + bl - 3..j + bl + 1] == input[i + bl - 3..i + bl + 1] {
        let l = common_prefix(&input[j..j + max], &input[i..i + max]);
        if l > bl {
            *best = Some((l, i - j));
        }
    }
}

/// Bucket bits of a plain parse of an `n`-byte input.
fn length_table_bits(n: usize) -> u32 {
    (usize::BITS - n.next_power_of_two().leading_zeros()).clamp(8, 16)
}

/// Parses `input[start..]`. `input[..start]` is a prefix whose hash
/// chains are `primed`; a plain parse has `start` 0 and no chains.
fn parse(
    scratch: &mut Scratch,
    input: &[u8],
    start: usize,
    dict: Option<&TrainedDict>,
    primed: Option<&PrefixChains>,
    p: LevelParams,
    sink: &mut impl TokenSink,
) {
    let n = input.len();

    // Local hash chains over the input itself. The bucket is the *top*
    // bits of the multiplicative hash: its low bits depend only on the
    // low bits of the 4-gram, i.e. on its first byte or two.
    let table_bits = match primed {
        Some(_) => PREFIX_TABLE_BITS,
        None => length_table_bits(n),
    };
    let table_size = 1usize << table_bits;
    let bucket = |pos: usize| (gram_hash(&input[pos..]) >> (32 - table_bits)) as usize;
    if scratch.head.len() < table_size {
        scratch.head.resize(table_size, 0);
    }
    if scratch.prev.len() < n {
        scratch.prev.resize(n, 0);
    }
    if scratch.next_base as u64 + n as u64 > u32::MAX as u64 {
        scratch.head.fill(0);
        scratch.next_base = 1;
    }
    let base = scratch.next_base;
    scratch.next_base += n as u32;
    let head = &mut scratch.head[..table_size];
    let prev = &mut scratch.prev[..n];

    // Positions from here on have fewer than MIN_MATCH bytes left: they
    // can neither start a match nor be indexed.
    let hash_end = n.saturating_sub(MIN_MATCH - 1);

    let mut lit_start = start;
    let mut i = start;
    let mut misses = 0u32;

    // Best match for position `i < hash_end`, whose bucket is `h`.
    let find_best = |head: &[u32], prev: &[u32], i: usize, h: usize| -> Option<(usize, usize)> {
        let max = (n - i).min(MAX_MATCH);
        let mut best: Option<(usize, usize)> = None;
        let mut steps = 0usize;
        let mut cand = head[h];
        while cand >= base && steps < p.chain_len {
            let j = (cand - base) as usize;
            consider(input, i, j, max, &mut best);
            cand = prev[j];
            steps += 1;
        }
        // The chain runs on into the prefix's, older than any position
        // of the input.
        if let Some(primed) = primed {
            let mut cand = primed.head[h];
            while cand != 0 && steps < p.chain_len {
                let j = cand as usize - 1;
                consider(input, i, j, max, &mut best);
                cand = primed.prev[j];
                steps += 1;
            }
        }
        // Dictionary candidates compete with in-record candidates.
        if let Some((dl, dd)) = dict.and_then(|d| d.best_match(input, i, p.dict_probe)) {
            if best.is_none_or(|(bl, _)| dl > bl) {
                best = Some((dl, dd));
            }
        }
        best
    };

    let insert = |head: &mut [u32], prev: &mut [u32], pos: usize, h: usize| {
        prev[pos] = head[h];
        head[h] = base + pos as u32;
    };

    while i < hash_end {
        let h = bucket(i);
        let found = find_best(head, prev, i, h);
        insert(head, prev, i, h);
        let Some((mut len, mut dist)) = found else {
            misses += 1;
            // Acceleration for fast levels: skip ahead on repeated misses.
            i += 1 + (misses.saturating_sub(p.skip_trigger) / 4) as usize;
            continue;
        };
        if p.lazy && i + 1 < hash_end {
            // Peek one position ahead; prefer a strictly longer match
            // (one literal byte is the price).
            let h1 = bucket(i + 1);
            if let Some((l1, d1)) = find_best(head, prev, i + 1, h1) {
                if l1 > len + 1 {
                    i += 1;
                    insert(head, prev, i, h1);
                    (len, dist) = (l1, d1);
                }
            }
        }
        // Flush pending literals, then the match.
        sink.varint((i - lit_start) as u64);
        sink.literals(&input[lit_start..i]);
        sink.varint((len - MIN_MATCH + 1) as u64);
        sink.varint(dist as u64);
        // Index the covered positions (sparsely for speed).
        let stride = if len > 64 { 8 } else { 1 };
        for pos in (i + stride..(i + len).min(hash_end)).step_by(stride) {
            insert(head, prev, pos, bucket(pos));
        }
        i += len;
        lit_start = i;
        misses = 0;
    }
    // Trailing literals + end marker.
    sink.varint((n - lit_start) as u64);
    sink.literals(&input[lit_start..n]);
    sink.varint(0);
}

/// Where the decoder reads its token stream from; the mirror of
/// [`TokenSink`].
pub(crate) trait TokenSource<'a> {
    fn varint(&mut self) -> Result<u64>;
    fn literals(&mut self, n: usize) -> Result<&'a [u8]>;
    /// Every byte of the stream has been read.
    fn is_drained(&self) -> bool;
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let run = pos
        .checked_add(n)
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| Error::Corruption("literal run overflows buffer".into()))?;
    *pos += n;
    Ok(run)
}

/// One interleaved buffer (the record format).
pub(crate) struct InterleavedTokens<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> TokenSource<'a> for InterleavedTokens<'a> {
    fn varint(&mut self) -> Result<u64> {
        read_varint(self.buf, &mut self.pos)
    }

    fn literals(&mut self, n: usize) -> Result<&'a [u8]> {
        take(self.buf, &mut self.pos, n)
    }

    fn is_drained(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Control bytes and literal bytes in separate buffers (the block
/// format).
pub(crate) struct SplitSource<'a> {
    ctrl: &'a [u8],
    ctrl_pos: usize,
    lit: &'a [u8],
    lit_pos: usize,
}

impl<'a> SplitSource<'a> {
    pub fn new(ctrl: &'a [u8], lit: &'a [u8]) -> Self {
        Self {
            ctrl,
            ctrl_pos: 0,
            lit,
            lit_pos: 0,
        }
    }
}

impl<'a> TokenSource<'a> for SplitSource<'a> {
    fn varint(&mut self) -> Result<u64> {
        read_varint(self.ctrl, &mut self.ctrl_pos)
    }

    fn literals(&mut self, n: usize) -> Result<&'a [u8]> {
        take(self.lit, &mut self.lit_pos, n)
    }

    fn is_drained(&self) -> bool {
        self.ctrl_pos == self.ctrl.len() && self.lit_pos == self.lit.len()
    }
}

/// Decodes a token stream (match distances count back through
/// `dict ++ output`). Reserves `reserve` bytes up front and fails with
/// [`Error::Corruption`] rather than produce more than `max_out`, so
/// the caller's already-validated lengths bound the memory and the
/// work, whatever the stream says.
pub(crate) fn lz_decode<'a>(
    mut src: impl TokenSource<'a>,
    dict: &[u8],
    reserve: usize,
    max_out: usize,
) -> Result<Vec<u8>> {
    let too_long = || Error::Corruption(format!("LZ stream decodes past {max_out} bytes"));
    let mut out = Vec::with_capacity(reserve.min(max_out));
    loop {
        let lit_len = usize::try_from(src.varint()?).map_err(|_| too_long())?;
        let lits = src.literals(lit_len)?;
        if lit_len > max_out - out.len() {
            return Err(too_long());
        }
        out.extend_from_slice(lits);
        let len_code = src.varint()?;
        if len_code == 0 {
            if !src.is_drained() {
                return Err(Error::Corruption(
                    "trailing garbage after end marker".into(),
                ));
            }
            return Ok(out);
        }
        let mlen = usize::try_from(len_code)
            .ok()
            .and_then(|c| c.checked_add(MIN_MATCH - 1))
            .filter(|&mlen| mlen <= max_out - out.len())
            .ok_or_else(too_long)?;
        let dist = src.varint()?;
        if dist == 0 || dist > (out.len() + dict.len()) as u64 {
            return Err(Error::Corruption(format!(
                "bad match distance {dist} at output {}",
                out.len()
            )));
        }
        let dist = dist as usize;
        if dist <= out.len() {
            let start = out.len() - dist;
            copy_match(&mut out, start, mlen);
        } else {
            // Starts in the dictionary; may cross into produced output,
            // which the match then reads from its first byte on.
            let from = dict.len() - (dist - out.len());
            let in_dict = (dict.len() - from).min(mlen);
            out.extend_from_slice(&dict[from..from + in_dict]);
            if in_dict < mlen {
                copy_match(&mut out, 0, mlen - in_dict);
            }
        }
    }
}

/// Appends `len` bytes read from `out[start..]`, where the source may
/// run into the bytes being appended (an LZ match longer than its
/// distance repeats its own output).
fn copy_match(out: &mut Vec<u8>, start: usize, mut len: usize) {
    // Each pass copies everything between `start` and the end, so the
    // copied region stays a whole number of periods until the last pass.
    while len > 0 {
        let n = len.min(out.len() - start);
        out.extend_from_within(start..start + n);
        len -= n;
    }
}

/// The tzstd compressor: a level plus an optional trained dictionary.
pub struct Tzstd {
    level: TzstdLevel,
    dict: Option<Arc<TrainedDict>>,
}

impl Tzstd {
    /// Dictionary-less compressor (the paper's "Zstd-b").
    pub fn new(level: TzstdLevel) -> Self {
        Self { level, dict: None }
    }

    /// Dictionary-trained compressor (the paper's "Zstd-d").
    pub fn with_dict(level: TzstdLevel, dict: Arc<TrainedDict>) -> Self {
        Self {
            level,
            dict: Some(dict),
        }
    }

    pub fn level(&self) -> TzstdLevel {
        self.level
    }

    pub fn dictionary(&self) -> Option<&Arc<TrainedDict>> {
        self.dict.as_ref()
    }

    /// Raw interleaved LZ token stream (no framing, no entropy stage).
    fn lz_compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        lz_parse(input, self.dict.as_deref(), self.level, &mut out);
        out
    }

    /// Decodes a raw interleaved LZ token stream.
    fn lz_decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let dict = self.dict.as_ref().map_or(&[][..], |d| d.as_bytes());
        let src = InterleavedTokens { buf: input, pos: 0 };
        lz_decode(src, dict, input.len().saturating_mul(3), MAX_RECORD_LEN)
    }
}

/// Records carry no decoded length, so decoding one is capped here.
const MAX_RECORD_LEN: usize = 1 << 30;

/// Frame modes: how the payload after the mode byte is encoded.
const MODE_STORED: u8 = 0;
const MODE_LZ: u8 = 1;
const MODE_LZ_RC: u8 = 2;

/// The per-record pipeline. Records have no table to keep a trained
/// model in, so their entropy stage is the adaptive range coder; block
/// frames use the table-trained coder in [`crate::block`] instead.
impl Compressor for Tzstd {
    /// Framed pipeline: LZ parse, then the adaptive range coder when it
    /// pays, with a stored fallback so output never exceeds input + 1.
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let lz = self.lz_compress(input);
        let rc = crate::rangecoder::rc_encode(&lz);
        let mut rc_framed_len = 1 + rc.len();
        let mut lz_len_varint = Vec::new();
        write_varint(&mut lz_len_varint, lz.len() as u64);
        rc_framed_len += lz_len_varint.len();

        if rc_framed_len < lz.len() + 1 && rc_framed_len < input.len() + 1 {
            let mut out = Vec::with_capacity(rc_framed_len);
            out.push(MODE_LZ_RC);
            out.extend_from_slice(&lz_len_varint);
            out.extend_from_slice(&rc);
            out
        } else if lz.len() < input.len() {
            let mut out = Vec::with_capacity(lz.len() + 1);
            out.push(MODE_LZ);
            out.extend_from_slice(&lz);
            out
        } else {
            let mut out = Vec::with_capacity(input.len() + 1);
            out.push(MODE_STORED);
            out.extend_from_slice(input);
            out
        }
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let (&mode, rest) = input
            .split_first()
            .ok_or_else(|| Error::Corruption("empty tzstd frame".into()))?;
        match mode {
            MODE_STORED => Ok(rest.to_vec()),
            MODE_LZ => self.lz_decompress(rest),
            MODE_LZ_RC => {
                let mut pos = 0usize;
                let lz_len = read_varint(rest, &mut pos)? as usize;
                if lz_len > rest.len().saturating_mul(512) + (1 << 20) {
                    return Err(Error::Corruption("implausible LZ length".into()));
                }
                let lz = crate::rangecoder::rc_decode(&rest[pos..], lz_len)?;
                self.lz_decompress(&lz)
            }
            other => Err(Error::Corruption(format!("bad tzstd frame mode {other}"))),
        }
    }

    fn name(&self) -> &'static str {
        if self.dict.is_some() {
            "tzstd-d"
        } else {
            "tzstd"
        }
    }
}

/// LEB128 varint encode.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// LEB128 varint decode.
pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| Error::Corruption("varint truncated".into()))?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Corruption("varint too long".into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(c: &Tzstd, data: &[u8]) {
        let z = c.compress(data);
        let back = c.decompress(&z).expect("decompress");
        assert_eq!(back, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = vec![];
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn empty_input() {
        roundtrip(&Tzstd::new(TzstdLevel(1)), b"");
    }

    #[test]
    fn short_input() {
        roundtrip(&Tzstd::new(TzstdLevel(1)), b"abc");
    }

    #[test]
    fn repetitive_input_compresses() {
        let c = Tzstd::new(TzstdLevel(1));
        let data = b"abcabcabcabcabcabcabcabcabcabcabcabc".to_vec();
        let z = c.compress(&data);
        assert!(z.len() < data.len(), "{} !< {}", z.len(), data.len());
        roundtrip(&c, &data);
    }

    #[test]
    fn overlapping_match_roundtrips() {
        // "aaaa..." forces dist=1, len>dist overlapping copies.
        let c = Tzstd::new(TzstdLevel(1));
        roundtrip(&c, &vec![b'a'; 1000]);
    }

    #[test]
    fn incompressible_input_roundtrips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let data: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        for lvl in [-50, -10, 1, 15, 22] {
            roundtrip(&Tzstd::new(TzstdLevel(lvl)), &data);
        }
    }

    #[test]
    fn higher_level_not_worse_on_text() {
        let text: Vec<u8> = std::iter::repeat_n(
            &b"the quick brown fox jumps over the lazy dog and then the dog chases the fox "[..],
            50,
        )
        .flatten()
        .copied()
        .collect();
        let fast = Tzstd::new(TzstdLevel(-10)).compress(&text).len();
        let slow = Tzstd::new(TzstdLevel(22)).compress(&text).len();
        // The adaptive entropy stage adds a little noise; allow it,
        // but a higher level must never be much worse.
        assert!(
            slow <= fast + fast / 10 + 4,
            "level 22 ({slow}) much worse than -10 ({fast})"
        );
    }

    #[test]
    fn dictionary_improves_small_records() {
        let dict = Arc::new(TrainedDict::new(
            b"{\"uid\":\"0000000000000000\",\"sess\":\"\",\"dev\":\"android\",\"ts\":1700000000}"
                .to_vec(),
        ));
        let record =
            b"{\"uid\":\"ab34cd9821fe4411\",\"sess\":\"x\",\"dev\":\"android\",\"ts\":1712345678}";
        let plain = Tzstd::new(TzstdLevel(1)).compress(record).len();
        let with_dict = Tzstd::with_dict(TzstdLevel(1), dict.clone())
            .compress(record)
            .len();
        assert!(
            with_dict < plain,
            "dict ({with_dict}) should beat plain ({plain})"
        );
        roundtrip(&Tzstd::with_dict(TzstdLevel(1), dict), record);
    }

    #[test]
    fn dict_boundary_crossing_match() {
        // Dictionary ends with a prefix of the record so a match can start
        // in the dictionary and continue into produced output.
        let dict = Arc::new(TrainedDict::new(b"prefix-common-".to_vec()));
        let c = Tzstd::with_dict(TzstdLevel(22), dict);
        roundtrip(&c, b"prefix-common-prefix-common-prefix-common-tail");
    }

    #[test]
    fn wrong_dict_fails_or_differs() {
        let d1 = Arc::new(TrainedDict::new(b"AAAABBBBCCCCDDDD".to_vec()));
        let c1 = Tzstd::with_dict(TzstdLevel(1), d1);
        let data = b"AAAABBBBCCCCDDDDxyz";
        let z = c1.compress(data);
        let c2 = Tzstd::new(TzstdLevel(1));
        // Decompressing without the dictionary must not silently succeed
        // with the right data.
        if let Ok(got) = c2.decompress(&z) {
            assert_ne!(got, data)
        }
    }

    #[test]
    fn corrupted_stream_is_an_error_not_a_panic() {
        let c = Tzstd::new(TzstdLevel(1));
        let z = c.compress(b"hello hello hello hello");
        for i in 0..z.len() {
            let mut bad = z.clone();
            bad[i] ^= 0xff;
            let _ = c.decompress(&bad); // must not panic
        }
        assert!(c.decompress(&[]).is_err());
        assert!(c.decompress(&[0x80]).is_err());
    }

    /// Deterministic corpus for [`kernels_leave_the_parse_unchanged`]: a block-shaped
    /// buffer, incompressible bytes, long runs (self-overlap, sparse
    /// indexing, the `MAX_MATCH` split), a dictionary-crossing match and
    /// degenerate sizes.
    fn parse_pin_corpus() -> Vec<Vec<u8>> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut block = Vec::new();
        for i in 0..60u64 {
            let key = format!("user{:012}", 1000 + i * 7);
            let val = format!(
                "city\t{:06}\tSpringfield-{}\tpop={}\tcountry=XX\tzone=UTC+{}",
                next() % 1_000_000,
                next() % 50,
                next() % 9_000_000,
                next() % 12
            );
            block.push(0u8);
            block.push(key.len() as u8);
            block.push(val.len() as u8);
            block.extend_from_slice(key.as_bytes());
            block.extend_from_slice(val.as_bytes());
        }
        let mut periodic = b"abcdefgh12345678".repeat(40);
        periodic.extend_from_slice(b"tail");
        vec![
            block,
            (0..3000).map(|_| next() as u8).collect(),
            vec![b'a'; 5000],
            periodic,
            vec![7u8; 70_000],
            // Continues the test dictionary's tail: matches that start
            // in the dictionary and cross into the input.
            b"city\t".repeat(20),
            b"abc".to_vec(),
            Vec::new(),
        ]
    }

    /// The parser as first written: fresh tables per call, a `HashMap`
    /// dictionary index, byte-at-a-time match extension, every
    /// candidate compared in full. Slow and obviously right; the
    /// kernels in this module must make exactly its decisions.
    fn reference_parse(input: &[u8], dict: &[u8], level: TzstdLevel) -> Vec<u8> {
        reference_parse_from(input, 0, dict, level, length_table_bits(input.len()))
    }

    /// [`reference_parse`] of `input[start..]`, every 4-gram of
    /// `input[..start]` indexed first, hashed into `table_bits`.
    fn reference_parse_from(
        input: &[u8],
        start: usize,
        dict: &[u8],
        level: TzstdLevel,
        table_bits: u32,
    ) -> Vec<u8> {
        use std::collections::HashMap;
        let p = level.params();
        let n = input.len();
        let mut dict_index: HashMap<&[u8], Vec<usize>> = HashMap::new();
        for (pos, gram) in dict.windows(MIN_MATCH).enumerate() {
            let posts = dict_index.entry(gram).or_default();
            if posts.len() < DICT_POSTINGS_CAP {
                posts.push(pos);
            }
        }
        let history = |k: usize| {
            if k < dict.len() {
                dict[k]
            } else {
                input[k - dict.len()]
            }
        };
        let bucket = |pos: usize| (gram_hash(&input[pos..]) >> (32 - table_bits)) as usize;
        let mut head = vec![usize::MAX; 1 << table_bits];
        let mut prev = vec![usize::MAX; n];

        let find_best = |head: &[usize], prev: &[usize], i: usize| -> Option<(usize, usize)> {
            if n - i < MIN_MATCH {
                return None;
            }
            // Candidates as start offsets into `dict ++ input`.
            let mut starts = Vec::new();
            let mut cand = head[bucket(i)];
            while cand != usize::MAX && starts.len() < p.chain_len {
                starts.push(dict.len() + cand);
                cand = prev[cand];
            }
            if let Some(posts) = dict_index.get(&input[i..i + MIN_MATCH]) {
                starts.extend(posts.iter().take(p.dict_probe));
            }
            let mut best: Option<(usize, usize)> = None;
            for start in starts {
                let mut l = 0;
                // A match that starts in the dictionary may run on into
                // the input, but only through bytes before position i.
                while i + l < n
                    && l < MAX_MATCH
                    && (start >= dict.len() || start + l < dict.len() + i)
                    && history(start + l) == input[i + l]
                {
                    l += 1;
                }
                if l >= MIN_MATCH && best.is_none_or(|(bl, _)| l > bl) {
                    best = Some((l, dict.len() + i - start));
                }
            }
            best
        };
        let insert = |head: &mut [usize], prev: &mut [usize], pos: usize| {
            if n - pos >= MIN_MATCH {
                prev[pos] = head[bucket(pos)];
                head[bucket(pos)] = pos;
            }
        };

        for pos in 0..start.saturating_sub(MIN_MATCH - 1) {
            insert(&mut head, &mut prev, pos);
        }
        let mut out = Vec::new();
        let (mut i, mut lit_start, mut misses) = (start, start, 0u32);
        while i < n {
            let Some((mut len, mut dist)) = find_best(&head, &prev, i) else {
                insert(&mut head, &mut prev, i);
                misses += 1;
                i += 1 + (misses.saturating_sub(p.skip_trigger) / 4) as usize;
                continue;
            };
            insert(&mut head, &mut prev, i);
            if p.lazy && i + 1 < n {
                if let Some((l1, d1)) = find_best(&head, &prev, i + 1) {
                    if l1 > len + 1 {
                        i += 1;
                        insert(&mut head, &mut prev, i);
                        (len, dist) = (l1, d1);
                    }
                }
            }
            write_varint(&mut out, (i - lit_start) as u64);
            out.extend_from_slice(&input[lit_start..i]);
            write_varint(&mut out, (len - MIN_MATCH + 1) as u64);
            write_varint(&mut out, dist as u64);
            let stride = if len > 64 { 8 } else { 1 };
            for pos in i + 1..i + len {
                if (pos - i) % stride == 0 {
                    insert(&mut head, &mut prev, pos);
                }
            }
            i += len;
            lit_start = i;
            misses = 0;
        }
        write_varint(&mut out, (n - lit_start) as u64);
        out.extend_from_slice(&input[lit_start..]);
        write_varint(&mut out, 0);
        out
    }

    /// The parse itself — which literals, which matches — is part of
    /// the measured compression ratio, so the scratch-reusing,
    /// word-comparing, candidate-skipping kernels and the flat
    /// dictionary index must leave it byte-identical to
    /// [`reference_parse`], in both output forms.
    #[test]
    fn kernels_leave_the_parse_unchanged() {
        let dict = Arc::new(TrainedDict::new(
            b"country=XX\tzone=UTC+\tSpringfield-\tpop=user0000000city\t".to_vec(),
        ));
        for (level, with_dict) in [(1, false), (1, true), (-10, false), (15, true)] {
            let c = if with_dict {
                Tzstd::with_dict(TzstdLevel(level), dict.clone())
            } else {
                Tzstd::new(TzstdLevel(level))
            };
            let dict_bytes = c.dict.as_ref().map_or(&[][..], |d| d.as_bytes());
            // Twice over, so every input also meets a used scratch.
            for input in parse_pin_corpus().iter().chain(&parse_pin_corpus()) {
                let tokens = c.lz_compress(input);
                assert_eq!(
                    tokens,
                    reference_parse(input, dict_bytes, c.level),
                    "level {level}, dict {with_dict}, {} bytes",
                    input.len()
                );
                assert_eq!(&c.lz_decompress(&tokens).unwrap(), input);
                // The split form is the same tokens, sorted by kind.
                let mut split = SplitTokens::default();
                lz_parse(input, c.dict.as_deref(), c.level, &mut split);
                assert_eq!(split.ctrl.len() + split.lit.len(), tokens.len());
                let src = SplitSource::new(&split.ctrl, &split.lit);
                assert_eq!(
                    &lz_decode(src, dict_bytes, input.len(), input.len()).unwrap(),
                    input
                );
            }
        }
    }

    /// `(input position, length, distance)` of every match in an
    /// interleaved token stream.
    fn matches_of(tokens: &[u8]) -> Vec<(usize, usize, usize)> {
        let (mut pos, mut at, mut out) = (0, 0, Vec::new());
        loop {
            let lits = read_varint(tokens, &mut pos).unwrap() as usize;
            pos += lits;
            at += lits;
            let code = read_varint(tokens, &mut pos).unwrap() as usize;
            if code == 0 {
                return out;
            }
            let dist = read_varint(tokens, &mut pos).unwrap() as usize;
            out.push((at, code + MIN_MATCH - 1, dist));
            at += code + MIN_MATCH - 1;
        }
    }

    /// [`kernels_leave_the_parse_unchanged`] for the block path: a
    /// parse after a [`Prefix`] at `BLOCK_LEVEL` makes exactly the
    /// decisions of [`reference_parse_from`] over `prefix ++ input`
    /// emitting from the prefix's end, including matches that start
    /// in the prefix and run on into the input.
    #[test]
    fn primed_parse_matches_the_reference_over_prefix_then_input() {
        let level = crate::block::BLOCK_LEVEL;
        let mut bytes = parse_pin_corpus()[0][..2000].to_vec();
        bytes.extend_from_slice(b"country=XX\tzone=UTC+\tSpringfield-\tpop=user0000000city\t");
        let prefix = Prefix::new(bytes);
        let mut crossed = 0;
        for input in parse_pin_corpus().iter().chain(&parse_pin_corpus()) {
            let mut tokens = Vec::new();
            lz_parse_after(&prefix, input, level, &mut tokens);
            let history = [prefix.as_bytes(), input].concat();
            let start = prefix.as_bytes().len();
            assert_eq!(
                tokens,
                reference_parse_from(&history, start, &[], level, PREFIX_TABLE_BITS),
                "{} bytes",
                input.len()
            );
            let src = InterleavedTokens {
                buf: &tokens,
                pos: 0,
            };
            let decoded = lz_decode(src, prefix.as_bytes(), 0, input.len()).unwrap();
            assert_eq!(&decoded, input);
            crossed += matches_of(&tokens)
                .iter()
                .filter(|&&(at, len, dist)| dist > at && dist < at + len)
                .count();
        }
        assert!(crossed > 0, "no match ran from the prefix into the input");
    }

    #[test]
    fn decode_refuses_to_outgrow_its_bound() {
        // A 3-byte stream claiming a 60 000-byte run of one literal.
        let c = Tzstd::new(TzstdLevel(1));
        let tokens = c.lz_compress(&vec![9u8; 60_000]);
        let src = InterleavedTokens {
            buf: &tokens,
            pos: 0,
        };
        assert!(matches!(
            lz_decode(src, &[], 0, 59_999),
            Err(Error::Corruption(_))
        ));
        // A match length near u64::MAX must not wrap or allocate.
        let mut huge = vec![1, b'x'];
        write_varint(&mut huge, u64::MAX - 1);
        huge.extend_from_slice(&[1, 0, 0]);
        assert!(matches!(c.lz_decompress(&huge), Err(Error::Corruption(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_roundtrip_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            roundtrip(&Tzstd::new(TzstdLevel(1)), &data);
        }

        #[test]
        fn prop_roundtrip_fast_level(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            roundtrip(&Tzstd::new(TzstdLevel(-50)), &data);
        }

        #[test]
        fn prop_roundtrip_with_dict(
            data in proptest::collection::vec(any::<u8>(), 0..800),
            dict in proptest::collection::vec(any::<u8>(), 0..800),
        ) {
            let d = Arc::new(TrainedDict::new(dict));
            roundtrip(&Tzstd::with_dict(TzstdLevel(15), d), &data);
        }

        /// Few distinct byte values, so matches, overlaps and hash
        /// collisions are everywhere; any dictionary; any level class.
        #[test]
        fn prop_kernels_match_reference_parse(
            data in proptest::collection::vec(0u8..4, 0..600),
            dict in proptest::collection::vec(0u8..4, 0..200),
            level in prop_oneof![Just(-50), Just(-10), Just(1), Just(15)],
        ) {
            let c = Tzstd::with_dict(TzstdLevel(level), Arc::new(TrainedDict::new(dict.clone())));
            prop_assert_eq!(c.lz_compress(&data), reference_parse(&data, &dict, c.level));
            // The same bytes as a prefix.
            let mut primed = Vec::new();
            lz_parse_after(&Prefix::new(dict.clone()), &data, c.level, &mut primed);
            let history = [&dict[..], &data[..]].concat();
            let reference = reference_parse_from(&history, dict.len(), &[], c.level, PREFIX_TABLE_BITS);
            prop_assert_eq!(primed, reference);
        }

        #[test]
        fn prop_compressible_data_shrinks(seed in 0u8..=255) {
            let unit = [seed, seed.wrapping_add(1), seed.wrapping_add(2), b'-'];
            let data: Vec<u8> = unit.iter().cycle().take(400).copied().collect();
            let c = Tzstd::new(TzstdLevel(1));
            prop_assert!(c.compress(&data).len() < data.len());
        }
    }
}
