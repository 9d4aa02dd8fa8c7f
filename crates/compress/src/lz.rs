//! `tzstd`: an LZ77 hash-chain compressor with levels and dictionaries.
//!
//! Stand-in for Zstandard (see the crate docs for the substitution
//! rationale). The parser turns an input into a token stream, split by
//! kind ([`SplitTokens`]) into control varints and literal bytes, which
//! [`crate::block`]'s coder entropy-codes under tables trained once:
//!
//! ```text
//! tokens := ( literal_run match )* literal_run end
//! literal_run := varint(len) byte*
//! match := varint(len - MIN_MATCH + 1)  varint(distance)   // len >= MIN_MATCH
//! end := varint(0)
//! ```
//!
//! A match of exactly `MIN_MATCH` bytes is taken only from under
//! [`NEAR_DIST`] bytes back, where its distance fits one varint byte
//! (deflate encoders' `TOO_FAR` rule): farther, its three control bytes
//! cost more than its four literals, which are coded instead.
//!
//! A dictionary is a [`Prefix`]: the input is parsed as if the prefix
//! came right before it, tokens being emitted for the input only, so
//! distances may reach back into it. The prefix's hash chains are built
//! once, and a position's chain walk runs on from the input's own
//! earlier positions into them, under the level's one `chain_len`
//! budget. SSTable blocks parse after their table's dictionary, records
//! after their [`Tzstd`] model's.
//!
//! [`Tzstd`] codes records: `0 | record` (stored) or `1 | varint(ulen)
//! | block payload`, so a frame never exceeds its record + 1 byte. A
//! record at level 3 or below is parsed by [`record_parse_into`], which
//! probes two candidates per position instead of walking chains, after
//! a dictionary indexed once per model ([`PrefixUse::Records`]).

use crate::block::{LzCoder, MAX_COMPRESSED_BLOCK_LEN, TRAINED_DICT_BYTES};
use crate::dict::train_dictionary;
use crate::Compressor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tb_common::{read_varint, write_varint, Error, Result};

/// Minimum match length worth encoding.
pub(crate) const MIN_MATCH: usize = 4;
/// A match of only [`MIN_MATCH`] bytes must start closer than this: a
/// distance that needs a second varint byte costs more than the
/// match's literals (on Cities blocks ~19.4 bits against ~17.4).
const NEAR_DIST: usize = 128;
/// Maximum match length (keeps varints short; matches may be split).
const MAX_MATCH: usize = 1 << 16;

/// Compression level, after zstd's: higher levels search harder. Every
/// level up to 3 (zstd's negative ones too) is one parse: a record's is
/// [`record_parse_into`], two probes a position, and [`lz_parse`]'s a
/// greedy walk over 8 candidates, a flush table's. Above it, a lazy
/// walk over 32 (levels 4–12), 64 (13–18) or 256 candidates (19 and
/// up).
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
    /// Greedy-vs-lazy parsing: lazy re-checks the next position before
    /// committing to a match.
    lazy: bool,
}

impl TzstdLevel {
    fn params(self) -> LevelParams {
        let (chain_len, lazy) = match self.0 {
            i32::MIN..=3 => (8, false),
            4..=12 => (32, true),
            13..=18 => (64, true),
            _ => (256, true),
        };
        LevelParams { chain_len, lazy }
    }
}

/// Bucket bits of a block's parse after a [`Prefix`]. Fixed, because the
/// prefix's chains are built once for every input; the most a plain
/// parse uses. A 4 KiB prefix (a flush table's dictionary) and a 4 KiB
/// block are ~8 K positions, and with fewer buckets more of a chain's
/// steps go to positions of other 4-grams: on Cities blocks 2^14
/// buckets encoded ~10 % slower, and 2^12 over 30 % slower and ~1 %
/// larger. A compaction table's 8 KiB prefix makes ~12 K positions,
/// still under one in five buckets.
const PREFIX_TABLE_BITS: u32 = 16;

/// Bucket bits of a record model's dictionary index ([`Prefix::nearest`]):
/// 8 KiB for a 4 KiB dictionary, one slot per dictionary position.
const RECORD_DICT_BITS: u32 = 12;

/// What a [`Prefix`] comes before, which says how a parse after it
/// finds its matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrefixUse {
    /// SSTable blocks, parsed by [`lz_parse`]: the prefix's hash
    /// chains and the block's positions share one table of
    /// [`PREFIX_TABLE_BITS`].
    Blocks,
    /// Records, parsed by [`record_parse_into`]: one candidate per
    /// position in the prefix, the nearest of its 4-gram's bucket.
    Records,
}

/// Match history that precedes every input of [`lz_parse`] (a table's
/// dictionary) or [`record_parse_into`] (a record model's).
pub(crate) struct Prefix {
    bytes: Vec<u8>,
    /// Process-unique: a thread's parse scratch keeps the bytes of the
    /// last prefix it parsed after, and this says whose they are.
    id: u64,
    /// The prefix's chains, built on the first [`lz_parse`] after it: a
    /// reader only decodes, a record model at a probe level never.
    chains: OnceLock<PrefixChains>,
    /// A record prefix's index, built with it: per bucket of
    /// [`RECORD_DICT_BITS`], its last 4-gram's position + 1 (0: none).
    nearest: Vec<u16>,
}

/// Hash chains over a prefix's own 4-grams (none that would reach
/// into the input), in [`PREFIX_TABLE_BITS`] buckets, each stored
/// whole: bucket `h`'s positions, newest first, are
/// `positions[start[h]..start[h + 1]]`. A walk reads them in a row
/// instead of chasing one link per candidate.
struct PrefixChains {
    start: Vec<u32>,
    positions: Vec<u32>,
}

impl PrefixChains {
    fn chain(&self, h: usize) -> &[u32] {
        &self.positions[self.start[h] as usize..self.start[h + 1] as usize]
    }
}

impl Prefix {
    /// A prefix of SSTable blocks.
    pub fn new(bytes: Vec<u8>) -> Self {
        Self::with_use(bytes, PrefixUse::Blocks)
    }

    /// A prefix for `usage`; a record prefix is at most
    /// [`crate::block::MAX_DICT_BYTES`] long, as a stored model's is.
    pub fn with_use(bytes: Vec<u8>, usage: PrefixUse) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let nearest = match usage {
            PrefixUse::Blocks => Vec::new(),
            PrefixUse::Records => {
                assert!(
                    bytes.len() < usize::from(u16::MAX),
                    "record prefix too long"
                );
                let mut nearest = vec![0u16; 1 << RECORD_DICT_BITS];
                for (pos, gram) in bytes.windows(MIN_MATCH).enumerate() {
                    nearest[record_dict_bucket(gram_hash(gram))] = pos as u16 + 1;
                }
                nearest
            }
        };
        Self {
            bytes,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            chains: OnceLock::new(),
            nearest,
        }
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Heap bytes held: the bytes, the record index, and the chains
    /// once built.
    pub fn heap_bytes(&self) -> usize {
        let chains = self.chains.get().map_or(0, |c| {
            (c.start.capacity() + c.positions.capacity()) * std::mem::size_of::<u32>()
        });
        self.bytes.capacity() + self.nearest.capacity() * std::mem::size_of::<u16>() + chains
    }

    fn chains(&self) -> &PrefixChains {
        self.chains.get_or_init(|| {
            let buckets: Vec<usize> = self
                .bytes
                .windows(MIN_MATCH)
                .map(|gram| (gram_hash(gram) >> (32 - PREFIX_TABLE_BITS)) as usize)
                .collect();
            // Counting sort by bucket: `start[h + 1]` first counts
            // bucket `h`, then the running sum makes it the end of `h`.
            let mut start = vec![0u32; (1 << PREFIX_TABLE_BITS) + 1];
            for &h in &buckets {
                start[h + 1] += 1;
            }
            for h in 1..start.len() {
                start[h] += start[h - 1];
            }
            let mut next = start.clone();
            let mut positions = vec![0u32; buckets.len()];
            for (pos, &h) in buckets.iter().enumerate().rev() {
                positions[next[h] as usize] = pos as u32;
                next[h] += 1;
            }
            PrefixChains { start, positions }
        })
    }
}

/// The [`Prefix::nearest`] bucket of a 4-gram's hash.
#[inline(always)]
fn record_dict_bucket(hash: u32) -> usize {
    (hash >> (32 - RECORD_DICT_BITS)) as usize
}

/// Hash of the 4-gram at the start of `b`.
#[inline]
fn gram_hash(b: &[u8]) -> u32 {
    let w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    w.wrapping_mul(GRAM_MULTIPLIER)
}

const GRAM_MULTIPLIER: u32 = 0x9e37_79b1;

/// [`record_parse_into`] steps `1 + misses >> SKIP_LOG` positions after
/// `misses` positions in a row that found no match (LZ4's acceleration):
/// a record's random stretches (coordinates, counts, names) take fewer
/// probes. On Cities records the parse took ~25 % less time, for frames
/// ~1.5 % larger.
const SKIP_LOG: u32 = 3;

const PROBE_STEP: usize = 2;

/// The `N` bytes of `b` from `at`.
#[inline(always)]
fn bytes_at<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    b[at..at + N].try_into().expect("N bytes")
}

/// Length of the common prefix of `input[j..]` and `input[i..]`, at
/// most `max` bytes (`j < i`, `i + max <= input.len()`), compared a
/// word at a time.
#[inline(always)]
fn match_len(input: &[u8], j: usize, i: usize, max: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max {
        let diff =
            u64::from_le_bytes(bytes_at(input, j + l)) ^ u64::from_le_bytes(bytes_at(input, i + l));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && input[j + l] == input[i + l] {
        l += 1;
    }
    l
}

/// A parse's token stream split by kind: every varint in `ctrl`, every
/// literal byte in `lit`, each in stream order; `runs` holds each
/// non-empty literal run's length and the byte before it in `prefix ++
/// input` (`None` at the start of an input without a prefix).
#[derive(Default, Debug, PartialEq)]
pub(crate) struct SplitTokens {
    pub ctrl: Vec<u8>,
    pub lit: Vec<u8>,
    pub runs: Vec<(usize, Option<u8>)>,
}

impl SplitTokens {
    fn clear(&mut self) {
        self.ctrl.clear();
        self.lit.clear();
        self.runs.clear();
    }

    fn varint(&mut self, v: u64) {
        write_varint(&mut self.ctrl, v);
    }

    fn literals(&mut self, bytes: &[u8], before: Option<u8>) {
        if !bytes.is_empty() {
            self.lit.extend_from_slice(bytes);
            self.runs.push((bytes.len(), before));
        }
    }
}

/// Hash-chain working memory, kept per thread so an input does not pay
/// for allocating and clearing fresh tables.
///
/// `head`/`prev` hold `base + i`, `i` being an input position's offset
/// from where its parse starts; anything below the current call's
/// `base` (zero, or left over from an earlier input) reads as "no
/// candidate", so nothing is cleared between inputs.
struct Scratch {
    head: Vec<u32>,
    prev: Vec<u32>,
    next_base: u32,
    /// `prefix ++ input` for [`lz_parse`] after a prefix: the bytes of
    /// the prefix whose id is `history_of`, then the last input. The
    /// next input after the same prefix copies only itself.
    history: Vec<u8>,
    history_of: u64,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            head: Vec::new(),
            prev: Vec::new(),
            next_base: 1,
            history: Vec::new(),
            history_of: 0,
        })
    };
}

/// Inputs this long are emitted as one literal run: positions are kept
/// in `u32`s offset by the scratch base.
const MAX_LZ_INPUT: usize = 1 << 30;

/// Longest per-position chain array (in entries) a thread keeps between
/// calls; the bucket array is at most 2^16 entries by construction.
const MAX_KEPT_SCRATCH: usize = 1 << 20;

/// LZ77-parses `input` at `level` (no framing, no entropy stage),
/// after `prefix` when there is one: [`parse`] of `prefix ++ input`
/// emitting tokens for `input` only, so a match may start anywhere in
/// the prefix and run on into the input.
pub(crate) fn lz_parse(prefix: Option<&Prefix>, input: &[u8], level: TzstdLevel) -> SplitTokens {
    let mut tokens = SplitTokens {
        ctrl: Vec::with_capacity(input.len() / 2),
        lit: Vec::with_capacity(input.len()),
        runs: Vec::with_capacity(input.len() / 8),
    };
    lz_parse_into(prefix, input, level, &mut tokens);
    tokens
}

/// [`lz_parse`] into `tokens`, which it clears first, so a caller that
/// keeps one allocates nothing per input.
pub(crate) fn lz_parse_into(
    prefix: Option<&Prefix>,
    input: &[u8],
    level: TzstdLevel,
    tokens: &mut SplitTokens,
) {
    tokens.clear();
    if input.len() > MAX_LZ_INPUT {
        tokens.varint(input.len() as u64);
        tokens.literals(input, prefix.and_then(|p| p.bytes.last().copied()));
        tokens.varint(0);
        return;
    }
    let p = level.params();
    match prefix {
        None => SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let bits = length_table_bits(input.len());
            parse(scratch, input, 0, None, bits, p, tokens);
            scratch.trim();
        }),
        Some(prefix) => with_history(prefix, input, |scratch, history| {
            let chains = Some(prefix.chains());
            let start = prefix.bytes.len();
            parse(
                scratch,
                history,
                start,
                chains,
                PREFIX_TABLE_BITS,
                p,
                tokens,
            );
        }),
    }
}

/// Runs `parse(scratch, prefix ++ input)` on this thread's scratch,
/// whose history already holds `prefix` when the last input parsed
/// after it: then only `input` is copied.
fn with_history(prefix: &Prefix, input: &[u8], parse: impl FnOnce(&mut Scratch, &[u8])) {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let mut history = std::mem::take(&mut scratch.history);
        if scratch.history_of == prefix.id && history.len() >= prefix.bytes.len() {
            history.truncate(prefix.bytes.len());
        } else {
            history.clear();
            history.extend_from_slice(&prefix.bytes);
            scratch.history_of = prefix.id;
        }
        // Exactly: a thread keeps this buffer.
        history.reserve_exact(input.len());
        history.extend_from_slice(input);
        parse(scratch, &history);
        scratch.history = history;
        scratch.trim();
    })
}

impl Scratch {
    /// One huge input must not pin its working memory to the thread.
    fn trim(&mut self) {
        if self.prev.len() > MAX_KEPT_SCRATCH {
            self.prev = Vec::new();
        }
        if self.history.capacity() > MAX_KEPT_SCRATCH {
            self.history = Vec::new();
            self.history_of = 0;
        }
    }
}

/// The record parse: `input`, after `prefix` (a record model's
/// dictionary) when there is one, LZ77-parsed into `tokens` (cleared
/// first) as [`lz_parse`]'s token stream, for the same coder, but
/// looking at two candidates per position instead of walking chains:
/// the input's last earlier position in its 4-gram's bucket of a
/// table sized to the input, and the prefix's last position in its
/// bucket of [`Prefix::nearest`]. The longer match wins (the input's
/// on a tie), under [`lz_parse`]'s rules: at least [`MIN_MATCH`]
/// bytes, a 4-byte one from under [`NEAR_DIST`] back. A match indexes
/// the positions it covers; a position without one is skipped past
/// faster the more there were in a row ([`SKIP_LOG`]). Greedy: a
/// ~100-byte record is about as many positions, and each costs two
/// probes and a compare.
pub(crate) fn record_parse_into(prefix: Option<&Prefix>, input: &[u8], tokens: &mut SplitTokens) {
    tokens.clear();
    if input.len() > MAX_LZ_INPUT {
        tokens.varint(input.len() as u64);
        tokens.literals(input, prefix.and_then(|p| p.bytes.last().copied()));
        tokens.varint(0);
        return;
    }
    let bits = length_table_bits(input.len());
    match prefix {
        None => SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            probe_parse(scratch, input, 0, &[], bits, tokens);
            scratch.trim();
        }),
        Some(prefix) => with_history(prefix, input, |scratch, history| {
            let start = prefix.bytes.len();
            probe_parse(scratch, history, start, &prefix.nearest, bits, tokens);
        }),
    }
}

/// [`record_parse_into`]'s parse of `input[start..]`, `input[..start]`
/// being the prefix `nearest` indexes (empty without one), the input's
/// own positions in `2^local_bits` buckets.
fn probe_parse(
    scratch: &mut Scratch,
    input: &[u8],
    start: usize,
    nearest: &[u16],
    local_bits: u32,
    sink: &mut SplitTokens,
) {
    let n = input.len();
    let m = n - start;
    let table_size = 1usize << local_bits;
    if scratch.head.len() < table_size {
        scratch.head.resize(table_size, 0);
    }
    if scratch.next_base as u64 + m as u64 > u32::MAX as u64 {
        scratch.head.fill(0);
        scratch.next_base = 1;
    }
    // `head` holds `base + (pos - start)`; below `base` is "none".
    let base = scratch.next_base;
    scratch.next_base += m as u32;
    let head = &mut scratch.head[..table_size];
    let local = |hash: u32| (hash >> (32 - local_bits)) as usize;
    let hash_end = n.saturating_sub(MIN_MATCH - 1);

    let word_at = |j: usize| u32::from_le_bytes(bytes_at(input, j));
    let has_dict = !nearest.is_empty();

    let mut lit_start = start;
    let mut i = start;
    let mut misses = 0u32;
    while i < hash_end {
        let word = word_at(i);
        let g = word.wrapping_mul(GRAM_MULTIPLIER);
        let slot = &mut head[local(g)];
        let cand = *slot;
        *slot = base + (i - start) as u32;
        // Both candidates' first four bytes, tested without a branch
        // each (a position with neither is the common case, and which
        // one a literal run has is a coin toss): a missing candidate
        // reads position 0 and is masked off.
        let local_ok = cand >= base;
        let j1 = if local_ok {
            start + (cand - base) as usize
        } else {
            0
        };
        let at = if has_dict {
            nearest[record_dict_bucket(g)]
        } else {
            0
        };
        let j2 = usize::from(at.saturating_sub(1));
        let hit1 = local_ok & (word_at(j1) == word);
        let hit2 = (at != 0) & (word_at(j2) == word);
        if !(hit1 | hit2) {
            misses += 1;
            i += PROBE_STEP + (misses >> SKIP_LOG) as usize;
            continue;
        }
        // A match found one step late starts where it extends back to,
        // within the pending literals.
        let max = (n - i).min(MAX_MATCH);
        let len_back = |j: usize| {
            let forward =
                MIN_MATCH + match_len(input, j + MIN_MATCH, i + MIN_MATCH, max - MIN_MATCH);
            let room = (i - lit_start).min(j).min(MAX_MATCH - forward);
            let mut back = 0;
            while back < room && input[i - back - 1] == input[j - back - 1] {
                back += 1;
            }
            (forward + back, back)
        };
        let mut best = (0, 0, 0);
        if hit1 {
            let (len, back) = len_back(j1);
            best = (len, i - j1, back);
        }
        if hit2 {
            let (len, back) = len_back(j2);
            if len > best.0 {
                best = (len, i - j2, back);
            }
        }
        let (len, dist, back) = best;
        if len < MIN_MATCH || (len == MIN_MATCH && dist >= NEAR_DIST) {
            misses += 1;
            i += PROBE_STEP + (misses >> SKIP_LOG) as usize;
            continue;
        }
        let at = i - back;
        sink.varint((at - lit_start) as u64);
        sink.literals(&input[lit_start..at], byte_before(input, lit_start));
        sink.varint((len - MIN_MATCH + 1) as u64);
        sink.varint(dist as u64);
        for pos in i + 1..(at + len).min(hash_end) {
            head[local(gram_hash(&input[pos..]))] = base + (pos - start) as u32;
        }
        i = at + len;
        lit_start = i;
        misses = 0;
    }
    sink.varint((n - lit_start) as u64);
    sink.literals(&input[lit_start..n], byte_before(input, lit_start));
    sink.varint(0);
}

/// Makes candidate `j < i` the `best` `(length, distance)` for
/// position `i` (at most `max` bytes) if it is longer. Only a candidate
/// that matches through one byte past the best so far can replace it,
/// so the four bytes ending there are tested first, as one word, and
/// the rest is compared only if they agree.
#[inline(always)]
fn consider(input: &[u8], i: usize, j: usize, max: usize, best: &mut (usize, usize)) {
    debug_assert!(j < i);
    let bl = best.0;
    if bl >= max || bytes_at::<4>(input, j + bl - 3) != bytes_at::<4>(input, i + bl - 3) {
        return;
    }
    let l = match_len(input, j, i, max);
    if l > bl {
        *best = (l, i - j);
    }
}

/// Bucket bits of a plain parse of an `n`-byte input.
fn length_table_bits(n: usize) -> u32 {
    (usize::BITS - n.next_power_of_two().leading_zeros()).clamp(8, 16)
}

/// Parses `input[start..]`, its own positions hashed into `local_bits`
/// buckets. `input[..start]` is a prefix whose hash chains are
/// `primed`; a plain parse has `start` 0 and no chains. A position's
/// walk takes its own bucket's chain, then the prefix's bucket of the
/// same hash.
fn parse(
    scratch: &mut Scratch,
    input: &[u8],
    start: usize,
    primed: Option<&PrefixChains>,
    local_bits: u32,
    p: LevelParams,
    sink: &mut SplitTokens,
) {
    let n = input.len();
    let m = n - start;

    // Local hash chains over the input itself. The bucket is the *top*
    // bits of the multiplicative hash: its low bits depend only on the
    // low bits of the 4-gram, i.e. on its first byte or two.
    let table_size = 1usize << local_bits;
    let local = |hash: u32| (hash >> (32 - local_bits)) as usize;
    let hash = |pos: usize| gram_hash(&input[pos..]);
    if scratch.head.len() < table_size {
        scratch.head.resize(table_size, 0);
    }
    if scratch.prev.len() < m {
        scratch.prev.resize(m, 0);
    }
    if scratch.next_base as u64 + m as u64 > u32::MAX as u64 {
        scratch.head.fill(0);
        scratch.next_base = 1;
    }
    let base = scratch.next_base;
    scratch.next_base += m as u32;
    let head = &mut scratch.head[..table_size];
    let prev = &mut scratch.prev[..m];

    // Positions from here on have fewer than MIN_MATCH bytes left: they
    // can neither start a match nor be indexed.
    let hash_end = n.saturating_sub(MIN_MATCH - 1);

    let mut lit_start = start;
    let mut i = start;

    // Best match for position `i < hash_end`, whose 4-gram hashes to
    // `g`, if it is longer than `floor` (at least `MIN_MATCH - 1`) and
    // worth taking. The first of the longest candidates wins, so a
    // floor below the longest leaves the answer as it is; the lazy
    // peek, which needs a match longer than the one in hand by more
    // than one, passes the shorter candidates after one word compare
    // each.
    let find_best = |head: &[u32], prev: &[u32], i: usize, g: u32, floor: usize| {
        let max = (n - i).min(MAX_MATCH);
        let mut best = (floor, 0);
        let mut steps = 0usize;
        let mut cand = head[local(g)];
        while cand >= base && steps < p.chain_len {
            let at = (cand - base) as usize;
            consider(input, i, start + at, max, &mut best);
            cand = prev[at];
            steps += 1;
        }
        // The chain runs on into the prefix's, older than any position
        // of the input.
        if let Some(primed) = primed {
            let h = (g >> (32 - PREFIX_TABLE_BITS)) as usize;
            for &j in primed.chain(h).iter().take(p.chain_len - steps) {
                consider(input, i, j as usize, max, &mut best);
            }
        }
        let (len, dist) = best;
        (len > floor && (len > MIN_MATCH || dist < NEAR_DIST)).then_some(best)
    };

    let insert = |head: &mut [u32], prev: &mut [u32], pos: usize, g: u32| {
        let h = local(g);
        prev[pos - start] = head[h];
        head[h] = base + (pos - start) as u32;
    };

    while i < hash_end {
        let g = hash(i);
        let found = find_best(head, prev, i, g, MIN_MATCH - 1);
        insert(head, prev, i, g);
        let Some((mut len, mut dist)) = found else {
            i += 1;
            continue;
        };
        if p.lazy && i + 1 < hash_end {
            // Peek one position ahead; prefer a match longer by more
            // than one (one literal byte is the price).
            let g1 = hash(i + 1);
            if let Some((l1, d1)) = find_best(head, prev, i + 1, g1, len + 1) {
                i += 1;
                insert(head, prev, i, g1);
                (len, dist) = (l1, d1);
            }
        }
        // Flush pending literals, then the match.
        sink.varint((i - lit_start) as u64);
        sink.literals(&input[lit_start..i], byte_before(input, lit_start));
        sink.varint((len - MIN_MATCH + 1) as u64);
        sink.varint(dist as u64);
        // Index the covered positions (sparsely for speed).
        let stride = if len > 64 { 8 } else { 1 };
        for pos in (i + stride..(i + len).min(hash_end)).step_by(stride) {
            insert(head, prev, pos, hash(pos));
        }
        i += len;
        lit_start = i;
    }
    // Trailing literals + end marker.
    sink.varint((n - lit_start) as u64);
    sink.literals(&input[lit_start..n], byte_before(input, lit_start));
    sink.varint(0);
}

/// The byte before `input[pos]`, if any.
fn byte_before(input: &[u8], pos: usize) -> Option<u8> {
    pos.checked_sub(1).map(|j| input[j])
}

/// The tzstd record coder: a level plus a [`LzCoder`] trained on
/// sample records, with or without a dictionary.
pub struct Tzstd {
    level: TzstdLevel,
    coder: LzCoder,
}

/// The highest level whose records take [`record_parse_into`]: the
/// default level 1 and the faster ones. A record's parse after a 4 KiB
/// dictionary walking level 1's chains cost ~5× as much, for ~3 % of
/// the frame.
const RECORD_PROBE_LEVEL: i32 = 3;

/// Record frame modes: the record stored, or coded.
const MODE_STORED: u8 = 0;
const MODE_CODED: u8 = 1;

thread_local! {
    /// A record's parse, reused: coding a record allocates nothing.
    static TOKENS: RefCell<SplitTokens> = RefCell::new(SplitTokens::default());
}

/// A thread keeps at most this many bytes of record parse between
/// records.
const MAX_KEPT_TOKENS: usize = 64 << 10;

impl Tzstd {
    /// Dictionary-less compressor (the paper's "Zstd-b"): entropy
    /// tables trained on the parses of `samples`.
    pub fn train(level: TzstdLevel, samples: &[Vec<u8>]) -> Self {
        Self::train_after(level, None, samples.iter().map(Vec::as_slice))
    }

    /// Dictionary-trained compressor (the paper's "Zstd-d"): a
    /// dictionary of at most [`TRAINED_DICT_BYTES`] trained on `samples`,
    /// and entropy tables trained on their parses after it.
    pub fn train_with_dict(level: TzstdLevel, samples: &[Vec<u8>]) -> Self {
        Self::train_with_dict_also_on(level, samples, &[])
    }

    /// [`Self::train_with_dict`], its entropy tables also trained on
    /// the parses of `more`: inputs the coder will meet that `samples`
    /// do not show, such as [`crate::Pbc`]'s residuals.
    pub(crate) fn train_with_dict_also_on(
        level: TzstdLevel,
        samples: &[Vec<u8>],
        more: &[&[u8]],
    ) -> Self {
        let dict = train_dictionary(samples, TRAINED_DICT_BYTES);
        let dict = (!dict.is_empty()).then(|| Prefix::with_use(dict, PrefixUse::Records));
        let inputs = samples
            .iter()
            .map(Vec::as_slice)
            .chain(more.iter().copied());
        Self::train_after(level, dict, inputs)
    }

    fn train_after<'a>(
        level: TzstdLevel,
        dict: Option<Prefix>,
        inputs: impl Iterator<Item = &'a [u8]>,
    ) -> Self {
        let parse = |dict: Option<&Prefix>, record: &[u8]| {
            let mut tokens = SplitTokens::default();
            Self::parse_into(level, dict, record, &mut tokens);
            tokens
        };
        let (coder, _) = LzCoder::train(dict, inputs.enumerate(), parse);
        Self { level, coder }
    }

    /// A record's parse at `level`: up to [`RECORD_PROBE_LEVEL`], the
    /// two-probe [`record_parse_into`]; above it, [`lz_parse`]'s chain
    /// walk, which finds more and costs more.
    fn parse_into(
        level: TzstdLevel,
        dict: Option<&Prefix>,
        record: &[u8],
        tokens: &mut SplitTokens,
    ) {
        if level.0 <= RECORD_PROBE_LEVEL {
            record_parse_into(dict, record, tokens)
        } else {
            lz_parse_into(dict, record, level, tokens)
        }
    }

    /// The trained model, self-describing: `level i32 LE`, then the
    /// block coder's payload (tables, split-out bytes, dictionary).
    pub fn payload(&self) -> Vec<u8> {
        [&self.level.0.to_le_bytes()[..], &self.coder.payload()].concat()
    }

    /// Rebuilds a coder from [`Self::payload`]. Arbitrary bytes are
    /// [`Error::Corruption`], never a panic.
    pub fn from_payload(payload: &[u8]) -> Result<Self> {
        let (level, coder) = payload
            .split_first_chunk()
            .ok_or_else(|| Error::Corruption("tzstd model truncated".into()))?;
        Ok(Self {
            level: TzstdLevel(i32::from_le_bytes(*level)),
            coder: LzCoder::from_payload(coder, PrefixUse::Records)?,
        })
    }

    /// Heap bytes the model holds: its tables, their decoder and the
    /// dictionary, with the dictionary's index.
    pub fn heap_bytes(&self) -> usize {
        self.coder.heap_bytes()
    }

    /// Appends the frame of `input` to `out`: its parse coded under
    /// the trained tables, or the record stored when that does not
    /// shrink it. What [`Compressor::compress`] returns, with no
    /// allocation but `out`'s growth.
    pub fn compress_into(&self, input: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        if input.len() <= MAX_COMPRESSED_BLOCK_LEN {
            out.push(MODE_CODED);
            write_varint(out, input.len() as u64);
            TOKENS.with(|tokens| {
                let tokens = &mut *tokens.borrow_mut();
                Self::parse_into(self.level, self.coder.dict.as_ref(), input, tokens);
                self.coder.encode(tokens, out);
                if tokens.lit.capacity() > MAX_KEPT_TOKENS {
                    *tokens = SplitTokens::default();
                }
            });
            if out.len() - start <= input.len() {
                return;
            }
            out.truncate(start);
        }
        out.push(MODE_STORED);
        out.extend_from_slice(input);
    }

    /// Decodes a frame into `out`, which it clears first, through the
    /// decoder an SSTable block takes: the bytes are what
    /// [`Compressor::decompress`] returns, and a refused frame
    /// allocates no more.
    pub fn decompress_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let (&mode, rest) = input
            .split_first()
            .ok_or_else(|| Error::Corruption("empty tzstd frame".into()))?;
        match mode {
            MODE_STORED => {
                out.clear();
                out.extend_from_slice(rest);
                Ok(())
            }
            MODE_CODED => {
                let mut pos = 0;
                let ulen = read_varint(rest, &mut pos)?;
                let ulen = usize::try_from(ulen)
                    .ok()
                    .filter(|&n| n <= MAX_COMPRESSED_BLOCK_LEN)
                    .ok_or_else(|| Error::Corruption(format!("tzstd frame claims {ulen} bytes")))?;
                self.coder.decode_into(&rest[pos..], ulen, out)?;
                if out.len() != ulen {
                    return Err(Error::Corruption(format!(
                        "tzstd frame decoded to {} bytes, header says {ulen}",
                        out.len()
                    )));
                }
                Ok(())
            }
            other => Err(Error::Corruption(format!("bad tzstd frame mode {other}"))),
        }
    }
}

impl Compressor for Tzstd {
    /// Codes the record's parse under the trained tables, or stores it
    /// when that does not shrink it.
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(input, &mut out);
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decompress_into(input, &mut out)?;
        Ok(out)
    }

    fn name(&self) -> &'static str {
        if self.coder.dict.is_some() {
            "tzstd-d"
        } else {
            "tzstd"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockEffort;
    use proptest::prelude::*;

    /// Templated records, as a cache tier stores them.
    fn records(n: usize, salt: u64) -> Vec<Vec<u8>> {
        (0..n as u64)
            .map(|i| {
                format!(
                    "{{\"uid\":\"{:016x}\",\"dev\":\"android\",\"geo\":\"CN-ZJ\",\"ts\":{}}}",
                    i.wrapping_mul(salt | 1),
                    1_700_000_000 + i
                )
                .into_bytes()
            })
            .collect()
    }

    fn roundtrip(c: &Tzstd, data: &[u8]) {
        let z = c.compress(data);
        assert!(z.len() <= data.len() + 1, "frame outgrew its record");
        let back = c.decompress(&z).expect("decompress");
        assert_eq!(back, data, "roundtrip failed for {} bytes", data.len());
    }

    /// A coder trained on nothing (escape-only tables: every byte costs
    /// its 8 raw bits), after `dict`.
    fn untrained(level: i32, dict: Option<&[u8]>) -> Tzstd {
        Tzstd::train_after(
            TzstdLevel(level),
            dict.map(|d| Prefix::with_use(d.to_vec(), PrefixUse::Records)),
            std::iter::empty(),
        )
    }

    #[test]
    fn empty_input() {
        roundtrip(&untrained(1, None), b"");
    }

    #[test]
    fn short_input() {
        roundtrip(&untrained(1, None), b"abc");
    }

    #[test]
    fn repetitive_input_compresses() {
        let c = untrained(1, None);
        let data = b"abcabcabcabcabcabcabcabcabcabcabcabc".to_vec();
        let z = c.compress(&data);
        assert!(z.len() < data.len(), "{} !< {}", z.len(), data.len());
        roundtrip(&c, &data);
    }

    #[test]
    fn overlapping_match_roundtrips() {
        // "aaaa..." forces dist=1, len>dist overlapping copies.
        roundtrip(&untrained(1, None), &vec![b'a'; 1000]);
    }

    #[test]
    fn incompressible_input_is_stored_one_byte_over() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let data: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        for lvl in [-50, -10, 1, 15, 22] {
            let c = Tzstd::train(TzstdLevel(lvl), &records(64, 3));
            let z = c.compress(&data);
            assert_eq!((z[0], z.len()), (MODE_STORED, data.len() + 1));
            roundtrip(&c, &data);
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
        let fast = untrained(-10, None).compress(&text).len();
        let slow = untrained(22, None).compress(&text).len();
        assert!(slow <= fast, "level 22 ({slow}) worse than -10 ({fast})");
    }

    #[test]
    fn trained_tables_and_dictionary_shrink_small_records() {
        let train = records(256, 0x9e37_79b9);
        let test = &records(300, 0x9e37_79b9)[256..];
        let total = |c: &Tzstd| test.iter().map(|r| c.compress(r).len()).sum::<usize>();
        let raw: usize = test.iter().map(Vec::len).sum();
        let untrained = total(&untrained(1, None));
        let plain = total(&Tzstd::train(TzstdLevel(1), &train));
        let dict = total(&Tzstd::train_with_dict(TzstdLevel(1), &train));
        assert!(
            dict < plain && plain < untrained && untrained <= raw + test.len(),
            "dict {dict}, plain {plain}, untrained {untrained}, raw {raw}"
        );
        assert_eq!(Tzstd::train(TzstdLevel(1), &train).name(), "tzstd");
        assert_eq!(
            Tzstd::train_with_dict(TzstdLevel(1), &train).name(),
            "tzstd-d"
        );
    }

    #[test]
    fn dict_boundary_crossing_match() {
        // Dictionary ends with a prefix of the record so a match can start
        // in the dictionary and continue into produced output.
        let c = untrained(22, Some(b"prefix-common-"));
        roundtrip(&c, b"prefix-common-prefix-common-prefix-common-tail");
    }

    #[test]
    fn wrong_model_fails_or_differs() {
        let train = records(64, 7);
        let c1 = Tzstd::train_with_dict(TzstdLevel(1), &train);
        let data = &records(80, 7)[70];
        let z = c1.compress(data);
        // Decoding under another model must not silently succeed with
        // the right data.
        for c2 in [untrained(1, None), Tzstd::train(TzstdLevel(1), &train)] {
            if let Ok(got) = c2.decompress(&z) {
                assert_ne!(&got, data)
            }
        }
    }

    #[test]
    fn payload_roundtrips_and_decodes_the_writers_frames() {
        let train = records(128, 5);
        for c in [
            Tzstd::train(TzstdLevel(-10), &train),
            Tzstd::train_with_dict(TzstdLevel(15), &train),
        ] {
            let back = Tzstd::from_payload(&c.payload()).unwrap();
            assert_eq!(back.payload(), c.payload());
            assert_eq!((back.level, back.name()), (c.level, c.name()));
            for r in &records(160, 5)[128..] {
                let z = c.compress(r);
                assert_eq!(z, back.compress(r));
                assert_eq!(&back.decompress(&z).unwrap(), r);
            }
        }
    }

    #[test]
    fn corrupted_stream_is_an_error_not_a_panic() {
        let c = Tzstd::train(TzstdLevel(1), &records(64, 1));
        let z = c.compress(b"hello hello hello hello");
        for i in 0..z.len() {
            let mut bad = z.clone();
            bad[i] ^= 0xff;
            let _ = c.decompress(&bad); // must not panic
        }
        assert!(c.decompress(&[]).is_err());
        assert!(c.decompress(&[MODE_CODED, 0x80]).is_err());
        assert!(c.decompress(&[2]).is_err());
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

    /// The dictionary the parse pins prime with.
    const PIN_DICT: &[u8] = b"country=XX\tzone=UTC+\tSpringfield-\tpop=user0000000city\t";

    /// The parser as first written: fresh tables per call,
    /// byte-at-a-time match extension, every candidate compared in
    /// full. Slow and obviously right; the kernels in this module must
    /// make exactly its decisions.
    fn reference_parse(input: &[u8], level: TzstdLevel) -> SplitTokens {
        reference_parse_from(input, 0, level, length_table_bits(input.len()))
    }

    /// [`reference_parse`] of `input[start..]`, every 4-gram of
    /// `input[..start]` indexed first, hashed into `table_bits`.
    fn reference_parse_from(
        input: &[u8],
        start: usize,
        level: TzstdLevel,
        table_bits: u32,
    ) -> SplitTokens {
        let p = level.params();
        let n = input.len();
        let bucket = |pos: usize| (gram_hash(&input[pos..]) >> (32 - table_bits)) as usize;
        let mut head = vec![usize::MAX; 1 << table_bits];
        let mut prev = vec![usize::MAX; n];

        let find_best = |head: &[usize], prev: &[usize], i: usize| -> Option<(usize, usize)> {
            if n - i < MIN_MATCH {
                return None;
            }
            let mut best: Option<(usize, usize)> = None;
            let (mut cand, mut steps) = (head[bucket(i)], 0);
            while cand != usize::MAX && steps < p.chain_len {
                let mut l = 0;
                while i + l < n && l < MAX_MATCH && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH && best.is_none_or(|(bl, _)| l > bl) {
                    best = Some((l, i - cand));
                }
                cand = prev[cand];
                steps += 1;
            }
            best.filter(|&(l, d)| l > MIN_MATCH || d < NEAR_DIST)
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
        let mut out = SplitTokens::default();
        let (mut i, mut lit_start) = (start, start);
        while i < n {
            let Some((mut len, mut dist)) = find_best(&head, &prev, i) else {
                insert(&mut head, &mut prev, i);
                i += 1;
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
            out.varint((i - lit_start) as u64);
            out.literals(&input[lit_start..i], byte_before(input, lit_start));
            out.varint((len - MIN_MATCH + 1) as u64);
            out.varint(dist as u64);
            let stride = if len > 64 { 8 } else { 1 };
            for pos in i + 1..i + len {
                if (pos - i) % stride == 0 {
                    insert(&mut head, &mut prev, pos);
                }
            }
            i += len;
            lit_start = i;
        }
        out.varint((n - lit_start) as u64);
        out.literals(&input[lit_start..], byte_before(input, lit_start));
        out.varint(0);
        out
    }

    /// `input`'s parse at `level`, after `dict` when there is one, and
    /// what [`reference_parse_from`] makes of `dict ++ input`.
    fn kernel_and_reference(
        input: &[u8],
        dict: Option<&[u8]>,
        level: TzstdLevel,
    ) -> (SplitTokens, SplitTokens) {
        match dict {
            None => (lz_parse(None, input, level), reference_parse(input, level)),
            Some(dict) => {
                let tokens = lz_parse(Some(&Prefix::new(dict.to_vec())), input, level);
                let history = [dict, input].concat();
                let reference =
                    reference_parse_from(&history, dict.len(), level, PREFIX_TABLE_BITS);
                (tokens, reference)
            }
        }
    }

    /// [`record_parse_into`] as first written: fresh tables, the
    /// dictionary's last position per bucket found by a scan, matches
    /// extended a byte at a time. Its decisions are the ones the record
    /// parse must make.
    fn reference_record_parse(dict: &[u8], input: &[u8]) -> SplitTokens {
        let history = [dict, input].concat();
        let (start, n) = (dict.len(), history.len());
        let bits = length_table_bits(input.len());
        let bucket = |pos: usize| (gram_hash(&history[pos..]) >> (32 - bits)) as usize;
        let dict_bucket = |pos: usize| record_dict_bucket(gram_hash(&history[pos..]));
        let mut head = vec![usize::MAX; 1 << bits];
        let len_at = |j: usize, i: usize| {
            let mut l = 0;
            while i + l < n && l < MAX_MATCH && history[j + l] == history[i + l] {
                l += 1;
            }
            l
        };
        let mut out = SplitTokens::default();
        let (mut i, mut lit_start, mut misses) = (start, start, 0u32);
        while i + MIN_MATCH <= n {
            // (length, distance, bytes of it before `i`)
            let mut best = (0, 0, 0);
            let local = head[bucket(i)];
            let nearest = (0..start.saturating_sub(MIN_MATCH - 1))
                .rev()
                .find(|&j| dict_bucket(j) == dict_bucket(i));
            for j in [(local != usize::MAX).then_some(local), nearest]
                .into_iter()
                .flatten()
            {
                let forward = len_at(j, i);
                if forward < MIN_MATCH {
                    continue;
                }
                let mut back = 0;
                while back < i - lit_start
                    && back < j
                    && forward + back < MAX_MATCH
                    && history[i - back - 1] == history[j - back - 1]
                {
                    back += 1;
                }
                if forward + back > best.0 {
                    best = (forward + back, i - j, back);
                }
            }
            head[bucket(i)] = i;
            let (len, dist, back) = best;
            if len < MIN_MATCH || (len == MIN_MATCH && dist >= NEAR_DIST) {
                misses += 1;
                i += PROBE_STEP + (misses >> SKIP_LOG) as usize;
                continue;
            }
            let at = i - back;
            out.varint((at - lit_start) as u64);
            out.literals(&history[lit_start..at], byte_before(&history, lit_start));
            out.varint((len - MIN_MATCH + 1) as u64);
            out.varint(dist as u64);
            for pos in i + 1..at + len {
                if pos + MIN_MATCH <= n {
                    head[bucket(pos)] = pos;
                }
            }
            i = at + len;
            lit_start = i;
            misses = 0;
        }
        out.varint((n - lit_start) as u64);
        out.literals(&history[lit_start..], byte_before(&history, lit_start));
        out.varint(0);
        out
    }

    /// `input`'s record parse after `dict` (none when empty), and
    /// [`reference_record_parse`]'s.
    fn record_kernel_and_reference(dict: &[u8], input: &[u8]) -> (SplitTokens, SplitTokens) {
        let prefix =
            (!dict.is_empty()).then(|| Prefix::with_use(dict.to_vec(), PrefixUse::Records));
        let mut tokens = SplitTokens::default();
        record_parse_into(prefix.as_ref(), input, &mut tokens);
        (tokens, reference_record_parse(dict, input))
    }

    /// The parse itself — which literals, which matches — is part of
    /// the measured compression ratio, so the scratch-reusing,
    /// word-comparing, candidate-skipping kernels must leave it
    /// identical to [`reference_parse`], plain and after a dictionary,
    /// at a compaction table's effort too, and the one decoder must
    /// read it back.
    #[test]
    fn kernels_leave_the_parse_unchanged() {
        let compaction = BlockEffort::Compaction.level().0;
        for (level, with_dict) in [
            (1, false),
            (1, true),
            (15, true),
            (compaction, false),
            (compaction, true),
        ] {
            let dict = with_dict.then_some(PIN_DICT);
            let coder = untrained(level, dict);
            // Twice over, so every input also meets a used scratch.
            for input in parse_pin_corpus().iter().chain(&parse_pin_corpus()) {
                let (tokens, reference) = kernel_and_reference(input, dict, TzstdLevel(level));
                assert_eq!(
                    tokens,
                    reference,
                    "level {level}, dict {with_dict}, {} bytes",
                    input.len()
                );
                let mut payload = Vec::new();
                coder.coder.encode(&tokens, &mut payload);
                assert_eq!(&coder.coder.decode(&payload, input.len()).unwrap(), input);
            }
        }
    }

    /// `(input position, length, distance)` of every match in a
    /// control stream.
    fn matches_of(tokens: &SplitTokens) -> Vec<(usize, usize, usize)> {
        let (mut pos, mut at, mut out) = (0, 0, Vec::new());
        let mut next = || read_varint(&tokens.ctrl, &mut pos).unwrap() as usize;
        loop {
            at += next();
            let code = next();
            if code == 0 {
                return out;
            }
            let dist = next();
            out.push((at, code + MIN_MATCH - 1, dist));
            at += code + MIN_MATCH - 1;
        }
    }

    /// [`kernels_leave_the_parse_unchanged`] for the block path: a
    /// parse after a [`Prefix`] at either [`BlockEffort`] makes exactly
    /// the decisions of [`reference_parse_from`] over `prefix ++ input`
    /// emitting from the prefix's end, including matches that start
    /// in the prefix and run on into the input.
    #[test]
    fn primed_parse_matches_the_reference_over_prefix_then_input() {
        let mut bytes = parse_pin_corpus()[0][..2000].to_vec();
        bytes.extend_from_slice(PIN_DICT);
        let coder = untrained(1, Some(&bytes));
        let mut crossed = 0;
        let efforts = [BlockEffort::Flush, BlockEffort::Compaction];
        for (input, effort) in parse_pin_corpus()
            .iter()
            .chain(&parse_pin_corpus())
            .flat_map(|input| efforts.map(|effort| (input, effort)))
        {
            let (tokens, reference) = kernel_and_reference(input, Some(&bytes), effort.level());
            assert_eq!(tokens, reference, "{effort:?}, {} bytes", input.len());
            let mut payload = Vec::new();
            coder.coder.encode(&tokens, &mut payload);
            assert_eq!(&coder.coder.decode(&payload, input.len()).unwrap(), input);
            crossed += matches_of(&tokens)
                .iter()
                .filter(|&&(at, len, dist)| dist > at && dist < at + len)
                .count();
        }
        assert!(crossed > 0, "no match ran from the prefix into the input");
    }

    #[test]
    fn four_byte_matches_are_taken_only_near() {
        // `abcde`, filler (runs of 120 distinct bytes >= 0x80, each
        // run xored with its number, so no 4-gram repeats), then `abcd`
        // `dist` bytes after the first and `!`, which ends the match at
        // 4 bytes; and the same with `abcde` repeated, a 5-byte match.
        for (dist, repeat, taken) in [
            (127, &b"abcd"[..], true),
            (128, b"abcd", false),
            (600, b"abcd", false),
            (128, b"abcde", true),
            (600, b"abcde", true),
        ] {
            let mut input = b"abcde".to_vec();
            input.extend((0..dist - 5).map(|i| (0x80 + (i % 120) as u8) ^ (i / 120) as u8));
            input.extend_from_slice(repeat);
            input.push(b'!');
            for prefix in [None, Some(Prefix::new(b"xyz".to_vec()))] {
                let tokens = lz_parse(prefix.as_ref(), &input, BlockEffort::Flush.level());
                let want = [(dist, repeat.len(), dist)];
                let matches = matches_of(&tokens);
                assert_eq!(matches == want, taken, "dist {dist}: {matches:?}");
                if !taken {
                    assert!(matches.is_empty(), "dist {dist}: {matches:?}");
                }
            }
        }
    }

    /// The record parse makes exactly [`reference_record_parse`]'s
    /// decisions, after a trained dictionary and without one, twice
    /// over so every input also meets a used scratch; and a frame
    /// written from it decodes.
    #[test]
    fn record_parse_matches_the_reference() {
        let train = records(256, 0x9e37_79b9);
        let coder = Tzstd::train_with_dict(TzstdLevel(1), &train);
        let dict = coder.coder.dict.as_ref().expect("a trained dictionary");
        let dict = dict.as_bytes().to_vec();
        let inputs = records(300, 0x9e37_79b9)[256..]
            .iter()
            .cloned()
            .chain(parse_pin_corpus())
            .collect::<Vec<_>>();
        let mut matched = 0;
        for input in inputs.iter().chain(&inputs) {
            for dict in [&dict[..], &[][..], PIN_DICT] {
                let (tokens, reference) = record_kernel_and_reference(dict, input);
                assert_eq!(tokens, reference, "{} bytes", input.len());
                matched += usize::from(tokens.ctrl.len() > 3);
            }
            let frame = coder.compress(input);
            assert_eq!(&coder.decompress(&frame).unwrap(), input);
        }
        assert!(matched > 0, "no record parse found a match");
    }

    /// The record coder's buffers are reused: decoding into a buffer
    /// that held a longer record leaves exactly this one, and coding
    /// appends the frame `compress` returns.
    #[test]
    fn into_variants_match_the_allocating_calls() {
        let train = records(256, 3);
        for c in [
            Tzstd::train(TzstdLevel(1), &train),
            Tzstd::train_with_dict(TzstdLevel(1), &train),
        ] {
            let mut frame = b"head".to_vec();
            let mut out = vec![b'x'; 5000];
            for r in records(280, 3)[256..].iter().chain([&vec![0xa5u8; 300]]) {
                frame.truncate(4);
                c.compress_into(r, &mut frame);
                assert_eq!(&frame[..4], b"head");
                assert_eq!(frame[4..], c.compress(r));
                c.decompress_into(&frame[4..], &mut out).unwrap();
                assert_eq!(&out, r);
            }
        }
    }

    /// Samples of geometric bytes, byte `k` at odds 2^-(k+1): tables
    /// trained on them code the rarer bytes and the escape in more than
    /// 8 bits, as tables trained on the templated records never do.
    fn geometric_samples() -> Vec<Vec<u8>> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut byte = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.trailing_zeros() as u8
        };
        (0..16)
            .map(|_| (0..512).map(|_| byte()).collect())
            .collect()
    }

    /// LSB-first bits of a stream, zeros past its end, counting the bits
    /// read.
    struct Bits<'a> {
        buf: &'a [u8],
        read: usize,
    }

    impl Bits<'_> {
        fn bit(&mut self) -> u32 {
            let byte = self.buf.get(self.read / 8).copied().unwrap_or(0);
            self.read += 1;
            u32::from(byte >> ((self.read - 1) % 8) & 1)
        }

        /// Whether the stream was read to its last byte and no further.
        fn exact(&self) -> bool {
            self.read.div_ceil(8) == self.buf.len()
        }
    }

    /// One byte decoded under a canonical code of `lens` (256 bytes, the
    /// escape last: codes ascend by length, then symbol), a bit at a
    /// time, the code's first bit first; an escape is followed by the
    /// byte's 8 raw bits. An escape of length 0 is the code's only
    /// symbol.
    fn reference_symbol(lens: &[u8; 257], bits: &mut Bits<'_>) -> u8 {
        let raw = |bits: &mut Bits<'_>| (0..8).fold(0u8, |b, i| b | (bits.bit() as u8) << i);
        if lens[256] == 0 {
            return raw(bits);
        }
        let (mut code, mut first) = (0u32, 0u32);
        for len in 1..=11 {
            code = code << 1 | bits.bit();
            let of_len: Vec<usize> = (0..257).filter(|&s| lens[s] == len).collect();
            if let Some(&sym) = of_len.get((code - first) as usize) {
                return match sym {
                    256 => raw(bits),
                    _ => sym as u8,
                };
            }
            first = (first + of_len.len() as u32) << 1;
        }
        unreachable!("a stored code is complete")
    }

    /// A block payload decoded under a coder's stored model (sixteen
    /// 129-byte tables of 4-bit code lengths and the escape's — what
    /// `HuffTable::lens` holds — then six split-out bytes and the
    /// dictionary), each symbol by [`reference_symbol`], each byte
    /// written on its own: independent of `huffman`'s tables and of
    /// `LzCoder`'s decode. `None` where the payload is not the coding of
    /// at most `ulen` bytes, or leaves bits over.
    fn reference_decode(model: &[u8], payload: &[u8], ulen: usize) -> Option<Vec<u8>> {
        let (tables, rest) = model.split_at(16 * 129);
        let (split, dict) = rest.split_at(6);
        let lens: Vec<[u8; 257]> = tables
            .chunks(129)
            .map(|t| {
                std::array::from_fn(|s| {
                    if s == 256 {
                        t[128]
                    } else {
                        t[s / 2] >> (4 * (s % 2)) & 15
                    }
                })
            })
            .collect();
        // Literals after a split-out byte, a digit, a lowercase or an
        // uppercase letter, or anything else (nothing, too).
        let literal_table = |before: Option<&u8>| match before {
            Some(b) if split.contains(b) => 10 + split.iter().position(|s| s == b).unwrap(),
            Some(b'0'..=b'9') => 6,
            Some(b'a'..=b'z') => 7,
            Some(b'A'..=b'Z') => 8,
            _ => 9,
        };
        let mut pos = 0;
        let ctrl_bytes = usize::try_from(read_varint(payload, &mut pos).ok()?).ok()?;
        let (ctrl, lits) = payload[pos..].split_at_checked(ctrl_bytes)?;
        let mut ctrl = Bits { buf: ctrl, read: 0 };
        let mut lits = Bits { buf: lits, read: 0 };
        // A token field's varint: its first byte under table `2 ×
        // field`, the rest under `2 × field + 1`.
        let mut varint = |field: usize| -> Option<u64> {
            let mut v = 0u64;
            for (i, shift) in (0..64).step_by(7).enumerate() {
                let b = reference_symbol(&lens[2 * field + usize::from(i > 0)], &mut ctrl);
                v |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    return Some(v);
                }
            }
            None
        };
        let mut out = Vec::new();
        loop {
            let run = varint(0)?;
            if run > (ulen - out.len()) as u64 {
                return None;
            }
            for _ in 0..run {
                let table = literal_table(out.last().or(dict.last()));
                out.push(reference_symbol(&lens[table], &mut lits));
            }
            let code = varint(1)?;
            if code == 0 {
                break;
            }
            let n = code.checked_add(MIN_MATCH as u64 - 1)?;
            let dist = varint(2)?;
            if n > (ulen - out.len()) as u64 || dist == 0 || dist > (dict.len() + out.len()) as u64
            {
                return None;
            }
            for _ in 0..n {
                let from = dict.len() + out.len() - dist as usize;
                out.push(if from < dict.len() {
                    dict[from]
                } else {
                    out[from - dict.len()]
                });
            }
        }
        (ctrl.exact() && lits.exact()).then_some(out)
    }

    /// The largest allocation a refused decode may make besides its
    /// output: the error message.
    const MESSAGE_BYTES: usize = 256;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_roundtrip_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            roundtrip(&Tzstd::train(TzstdLevel(1), &records(32, 9)), &data);
        }

        #[test]
        fn prop_roundtrip_fast_level(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            roundtrip(&untrained(-50, None), &data);
        }

        #[test]
        fn prop_roundtrip_with_dict(
            data in proptest::collection::vec(any::<u8>(), 0..800),
            dict in proptest::collection::vec(any::<u8>(), 0..800),
        ) {
            roundtrip(&untrained(15, Some(&dict)), &data);
        }

        /// Few distinct byte values, so matches, overlaps and hash
        /// collisions are everywhere; any dictionary; any level class.
        #[test]
        fn prop_kernels_match_reference_parse(
            data in proptest::collection::vec(0u8..4, 0..600),
            dict in proptest::collection::vec(0u8..4, 0..200),
            level in prop_oneof![
                Just(1),
                Just(15),
                Just(BlockEffort::Compaction.level().0),
            ],
        ) {
            for dict in [None, Some(&dict[..])] {
                let (tokens, reference) = kernel_and_reference(&data, dict, TzstdLevel(level));
                prop_assert_eq!(tokens, reference);
            }
            let (tokens, reference) = record_kernel_and_reference(&dict, &data);
            prop_assert_eq!(tokens, reference);
        }

        #[test]
        fn prop_compressible_data_shrinks(seed in 0u8..=255) {
            let unit = [seed, seed.wrapping_add(1), seed.wrapping_add(2), b'-'];
            let data: Vec<u8> = unit.iter().cycle().take(400).copied().collect();
            prop_assert!(untrained(1, None).compress(&data).len() < data.len());
        }

        /// A record frame damaged every way a cache value's bytes can
        /// be: arbitrary bytes, a forged `ulen` (up to far past the
        /// record), truncation, one bit flipped. The decode is `Ok` or
        /// `Corruption`, never panics, and allocates nothing above
        /// `ulen` but an error message.
        #[test]
        fn prop_damaged_record_frames_are_refused_within_bounds(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            seed in 0usize..1000,
            forged_ulen in 0u64..(1 << 40),
            cut in any::<usize>(),
            bit in any::<usize>(),
        ) {
            let train = records(64, 11);
            let record = &records(seed + 1, 11)[seed];
            let coders = [
                Tzstd::train(TzstdLevel(1), &train),
                Tzstd::train_with_dict(TzstdLevel(1), &train),
            ];
            for c in &coders {
                let frame = c.compress(record);
                prop_assert_eq!(frame[0], MODE_CODED);
                let mut pos = 1;
                read_varint(&frame, &mut pos).unwrap();
                let mut forged = vec![MODE_CODED];
                write_varint(&mut forged, forged_ulen);
                forged.extend_from_slice(&frame[pos..]);
                let mut flipped = frame.clone();
                flipped[bit / 8 % frame.len()] ^= 1 << (bit % 8);
                let garbage = [&[MODE_CODED][..], &bytes].concat();
                for damaged in [&garbage[..], &forged, &frame[..cut % frame.len()], &flipped] {
                    let (outcome, largest) =
                        tb_common::testutil::largest_allocation(|| c.decompress(damaged));
                    if let Err(e) = outcome {
                        prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}");
                    }
                    // A coded frame's own `ulen`, whatever it says; a
                    // stored frame's length.
                    let mut pos = 1;
                    let bound = match damaged.first() {
                        Some(&MODE_CODED) => read_varint(damaged, &mut pos).map_or(0, |n| n as usize),
                        _ => damaged.len(),
                    };
                    prop_assert!(largest <= bound.max(MESSAGE_BYTES), "{largest} B allocated, bound {bound}");
                }
            }
        }

        /// The one decoder, as blocks ([`LzCoder::decode`]) and records
        /// ([`LzCoder::decode_into`], into a buffer an earlier record
        /// used) call it, against [`reference_decode`]: on the payload of
        /// a record, or of arbitrary bytes (rare and unseen bytes: long
        /// codes and escapes), under any `ulen`, on the payload damaged
        /// (one bit flipped, cut short) or on arbitrary bytes, all refuse
        /// or all give the same bytes. A refusal is `Corruption`.
        #[test]
        fn prop_decode_agrees_with_a_bit_at_a_time_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..400),
            seed in 0usize..1000,
            ulen_delta in -8isize..8,
            cut in any::<usize>(),
            bit in any::<usize>(),
        ) {
            let train = records(64, 17);
            let record = &records(seed + 1, 17)[seed];
            let coders = [
                Tzstd::train(TzstdLevel(1), &train),
                Tzstd::train_with_dict(TzstdLevel(1), &train),
                untrained(1, None),
                Tzstd::train(TzstdLevel(1), &geometric_samples()),
            ];
            for (c, input) in coders.iter().flat_map(|c| [(c, record), (c, &bytes)]) {
                let model = c.coder.payload();
                let mut tokens = SplitTokens::default();
                Tzstd::parse_into(c.level, c.coder.dict.as_ref(), input, &mut tokens);
                let mut payload = Vec::new();
                c.coder.encode(&tokens, &mut payload);
                prop_assert_eq!(reference_decode(&model, &payload, input.len()), Some(input.clone()));
                let mut flipped = payload.clone();
                flipped[bit / 8 % payload.len()] ^= 1 << (bit % 8);
                let ulen = input.len().saturating_add_signed(ulen_delta);
                let mut out = records(3, 1).concat();
                for damaged in [&payload[..], &flipped, &payload[..cut % payload.len()], &bytes] {
                    for ulen in [input.len(), ulen] {
                        let reference = reference_decode(&model, damaged, ulen);
                        let block = c.coder.decode(damaged, ulen);
                        let into = c.coder.decode_into(damaged, ulen, &mut out);
                        match (reference, block, into) {
                            (Some(want), Ok(got), Ok(())) => {
                                prop_assert_eq!(&got, &want);
                                prop_assert_eq!(&out, &want);
                            }
                            (None, Err(e), Err(f)) => {
                                prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}");
                                prop_assert!(matches!(f, Error::Corruption(_)), "{f:?}");
                            }
                            (want, got, into) => prop_assert!(
                                false,
                                "reference {want:?}, block {got:?}, into {into:?}"
                            ),
                        }
                    }
                }
            }
        }

        /// A persisted model's bytes damaged: arbitrary, cut short, one
        /// bit flipped, grown. `Ok` or `Corruption`; a model that opens
        /// round-trips a record.
        #[test]
        fn prop_from_payload_is_ok_or_corruption(
            bytes in proptest::collection::vec(any::<u8>(), 0..700),
            cut in any::<usize>(),
            bit in any::<usize>(),
        ) {
            let good = Tzstd::train_with_dict(TzstdLevel(1), &records(64, 13)).payload();
            let mut flipped = good.clone();
            flipped[bit / 8 % good.len()] ^= 1 << (bit % 8);
            let grown = [&good[..], &bytes].concat();
            let record = &records(70, 13)[66];
            for payload in [&bytes[..], &good[..cut % good.len()], &flipped, &grown] {
                match Tzstd::from_payload(payload) {
                    Ok(c) => roundtrip(&c, record),
                    Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
                }
            }
        }
    }
}
