//! Static canonical Huffman coding with a single-lookup decode table —
//! the pre-trained entropy stage of the `lz`/`dict` block codecs.
//!
//! A table ([`HuffTable`]) is trained once, from the symbol counts of
//! one coding context over an SSTable's own LZ output (the block codec
//! keeps sixteen contexts), and shared by every block of the SSTable,
//! so no block carries a model. Only the bytes training saw get a code;
//! one *escape* code (weighted as one occurrence) joins them, and a byte
//! training never saw is coded as the escape followed by the byte's 8
//! raw bits, so a table trained on one sample still encodes any input.
//! A table trained on nothing is the escape alone, 0 bits long: every
//! byte costs its 8 raw bits. Codes are at most [`MAX_CODE_LEN`] bits
//! and written LSB-first.
//!
//! ```text
//! table := 256 code lengths, 4 bits each, low nibble first (0: no code)
//!          | escape code length u8                          (129 bytes)
//! ```
//!
//! A [`Decoder`] holds the decode tables of a whole family of codes in
//! one root array, zlib's `inflate` split (`inftrees.c`): indexed by a
//! code and the next 8 stream bits, one load returns the symbol, its
//! length, and the code of the *next* symbol, which the caller fixed
//! per (code, symbol) when building it — so a stream whose context
//! follows from the symbols already decoded costs one dependent load
//! per symbol, as a single code would. The root of sixteen codes is
//! 8 KiB, small enough to stay in a core's first-level cache between
//! short records. The rare longer code and the escape (0.4–2.2 % of
//! the symbols of Cities blocks and records) share one predictable
//! branch to a cold path: a longer code's root entry links to a
//! sub-table of its last 3 bits, and an escape reads its raw byte.

use tb_common::{Error, Result};

/// Longest code.
const MAX_CODE_LEN: u32 = 11;
/// Serialized size of one table: 256 code lengths, 4 bits each, and
/// the escape's length.
pub(crate) const TABLE_BYTES: usize = 129;

/// The 256 byte values and the escape, its symbol index.
const SYMBOLS: usize = 257;
const ESCAPE: usize = 256;

/// Symbols decoded per [`BitReader::refill`]: a refill leaves >= 56
/// bits, enough for 5 codes of <= 11 bits. An escaped byte refills
/// after its code and reads 8 raw bits, which leaves >= 48: enough for
/// the <= 4 codes left in its group.
pub(crate) const CODES_PER_REFILL: usize = 5;
const _: () = assert!(CODES_PER_REFILL * MAX_CODE_LEN as usize <= 56);
const _: () = assert!((CODES_PER_REFILL - 1) * MAX_CODE_LEN as usize <= 56 - 8);

pub(crate) struct HuffTable {
    /// Per symbol, the escape last; 0 for a byte without a code.
    lens: [u8; SYMBOLS],
    /// Per byte: `bit_reversed_code << 5 | len`; for a byte without a
    /// code, the escape's code and then the byte, `len` <= 19 bits.
    enc: [u32; 256],
    /// The escape's bit-reversed code.
    escape: u16,
}

impl HuffTable {
    /// Builds the table for a symbol histogram: the optimal code over
    /// the bytes it counts and the escape, weighted 1, whose lengths
    /// stay within [`MAX_CODE_LEN`]. Deterministic for fixed counts
    /// (ties break on symbol value, the escape last).
    pub fn from_counts(counts: &[u32; 256]) -> Self {
        let weights = std::array::from_fn(|s| match s {
            ESCAPE => 1,
            _ => u64::from(counts[s]),
        });
        Self::from_lens(limited_lens(&weights)).expect("package-merge lengths form a complete code")
    }

    /// Rebuilds a table from its stored form, rejecting anything that
    /// is not a complete prefix code over the coded bytes and the
    /// escape (so every [`Decoder`] slot is filled and decoding needs
    /// no validity check per symbol).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != TABLE_BYTES {
            return Err(Error::Corruption("entropy table truncated".into()));
        }
        let lens = std::array::from_fn(|s| match s {
            ESCAPE => bytes[TABLE_BYTES - 1],
            _ => (bytes[s / 2] >> (4 * (s % 2))) & 0x0f,
        });
        Self::from_lens(lens)
    }

    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend(
            self.lens[..ESCAPE]
                .chunks_exact(2)
                .map(|p| p[0] | p[1] << 4),
        );
        out.push(self.lens[ESCAPE]);
    }

    /// The table for `lens`: a byte of length 0 has no code, and the
    /// escape always has one — of length 0 only when it is the code's
    /// one symbol.
    fn from_lens(lens: [u8; SYMBOLS]) -> Result<Self> {
        let mut per_len = [0u32; MAX_CODE_LEN as usize + 1];
        for (sym, &l) in lens.iter().enumerate() {
            if l as u32 > MAX_CODE_LEN {
                return Err(Error::Corruption(format!("bad entropy code length {l}")));
            }
            if l > 0 || sym == ESCAPE {
                per_len[l as usize] += 1;
            }
        }
        let kraft: u32 = (0..=MAX_CODE_LEN)
            .map(|l| per_len[l as usize] << (MAX_CODE_LEN - l))
            .sum();
        if kraft != 1 << MAX_CODE_LEN {
            return Err(Error::Corruption(
                "entropy table is not a complete prefix code".into(),
            ));
        }
        // Canonical assignment: codes ascend by (length, symbol).
        let mut next = [0u32; MAX_CODE_LEN as usize + 2];
        for l in 1..=MAX_CODE_LEN as usize {
            next[l + 1] = (next[l] + per_len[l]) << 1;
        }
        let mut reversed = [0u16; SYMBOLS];
        for (sym, &l) in lens.iter().enumerate().filter(|&(_, &l)| l > 0) {
            let code = next[l as usize] as u16;
            next[l as usize] += 1;
            reversed[sym] = code.reverse_bits() >> (16 - l as u32);
        }
        let escape = reversed[ESCAPE];
        let enc = std::array::from_fn(|b| match lens[b] {
            0 => {
                (u32::from(escape) | (b as u32) << lens[ESCAPE]) << 5
                    | (u32::from(lens[ESCAPE]) + 8)
            }
            l => u32::from(reversed[b]) << 5 | u32::from(l),
        });
        Ok(Self { lens, enc, escape })
    }

    /// Every symbol with a code, the escape last: `(symbol, bit-reversed
    /// code, length)`.
    fn codes(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        let bytes = (0..ESCAPE).filter(|&s| self.lens[s] > 0);
        let code = |s: usize| (self.enc[s] >> 5) as usize;
        bytes
            .map(move |s| (s, code(s), u32::from(self.lens[s])))
            .chain([(ESCAPE, self.escape.into(), self.lens[ESCAPE].into())])
    }

    /// Appends the code of `sym` to the bit stream.
    #[inline(always)]
    pub fn put(&self, sym: u8, w: &mut BitWriter<'_>) {
        let e = self.enc[sym as usize];
        w.acc |= u64::from(e >> 5) << w.nbits;
        w.nbits += e & 0x1f;
        if w.nbits >= 32 {
            w.out.extend_from_slice(&(w.acc as u32).to_le_bytes());
            w.acc >>= 32;
            w.nbits -= 32;
        }
    }
}

/// Bits a [`Decoder`]'s root table resolves; a longer code's root slot
/// links to a sub-table indexed by its last [`SUB_BITS`].
const ROOT_BITS: u32 = 8;
const ROOT_MASK: u64 = (1 << ROOT_BITS) - 1;
const SUB_BITS: u32 = MAX_CODE_LEN - ROOT_BITS;
const SUB_MASK: u64 = (1 << SUB_BITS) - 1;

/// Codes a [`Decoder`] chains: its next-code field is 4 bits.
const MAX_CODES: usize = 16;

/// A root slot that begins a longer code covers at least two of the
/// [`SYMBOLS`] (the code is complete), so a code links at most 128
/// sub-tables and a [`Decoder`] 2 048 (32 KiB): a link's index fits the
/// 11 bits under [`LINK`].
const MAX_SUB_TABLES: usize = MAX_CODES * (SYMBOLS / 2);
const _: () = assert!(MAX_SUB_TABLES <= 1 << 11);

/// The flag of a root entry that links to a sub-table: `LINK | index <<
/// 4`, its `len` 0 as an escape's, whose entries leave the flag clear.
const LINK: u16 = 1 << 15;

/// The decode tables of up to [`MAX_CODES`] codes. Entry: `next_code <<
/// 12 | symbol << 4 | len`; an escape's entry has `len` 0 and its
/// code's length in the symbol field. A code's [`ROOT_BITS`]-bit root
/// table (512 B, 8 KiB for sixteen) holds every code that fits it; a
/// slot that begins a longer code holds a [`LINK`] to the sub-table of
/// the code's remaining bits, whose entries carry the code's full
/// length.
pub(crate) struct Decoder {
    root: Box<[u16; MAX_CODES << ROOT_BITS]>,
    /// `2^SUB_BITS` entries per sub-table: exactly the ones linked.
    sub: Box<[u16]>,
    /// `next[code][byte]`: the code after an escaped `byte`.
    next: Box<[[u8; 256]; MAX_CODES]>,
}

impl Decoder {
    /// Decode tables for `codes`; `next(code, symbol)` is the code the
    /// symbol after `symbol` (decoded under `code`) is decoded under,
    /// and must be below `codes.len()`.
    pub fn new(codes: &[HuffTable], next: impl Fn(usize, u8) -> usize) -> Self {
        assert!(codes.len() <= MAX_CODES, "the next code is a 4-bit field");
        let mut root: Box<[u16; MAX_CODES << ROOT_BITS]> = vec![0; MAX_CODES << ROOT_BITS]
            .into_boxed_slice()
            .try_into()
            .expect("MAX_CODES tables");
        // Link each root slot that begins a longer code first, so the
        // sub-tables are allocated once, to size.
        let mut linked = 0;
        for (c, code) in codes.iter().enumerate() {
            for (_, reversed, _) in code.codes().filter(|&(_, _, len)| len > ROOT_BITS) {
                let slot = &mut root[c << ROOT_BITS | reversed & ROOT_MASK as usize];
                if *slot & LINK == 0 {
                    *slot = LINK | (linked << 4) as u16;
                    linked += 1;
                }
            }
        }
        debug_assert!(linked <= MAX_SUB_TABLES);
        let mut sub = vec![0; linked << SUB_BITS].into_boxed_slice();
        let mut next_of = Box::new([[0u8; 256]; MAX_CODES]);
        for (c, code) in codes.iter().enumerate() {
            next_of[c] = std::array::from_fn(|b| {
                let then = next(c, b as u8);
                debug_assert!(then < codes.len());
                then as u8
            });
            let root = &mut root[c << ROOT_BITS..][..1 << ROOT_BITS];
            for (sym, reversed, len) in code.codes() {
                let entry = match sym {
                    ESCAPE => (len as u16) << 4,
                    _ => u16::from(next_of[c][sym]) << 12 | (sym as u16) << 4 | len as u16,
                };
                let (table, first, step) = if len <= ROOT_BITS {
                    (&mut root[..], reversed, 1 << len)
                } else {
                    let at = link_index(root[reversed & ROOT_MASK as usize]) << SUB_BITS;
                    let rest = reversed >> ROOT_BITS;
                    (
                        &mut sub[at..at + (1 << SUB_BITS)],
                        rest,
                        1 << (len - ROOT_BITS),
                    )
                };
                for slot in (first..table.len()).step_by(step) {
                    table[slot] = entry;
                }
            }
        }
        Self {
            root,
            sub,
            next: next_of,
        }
    }

    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.root)
            + std::mem::size_of_val(&*self.sub)
            + std::mem::size_of_val(&*self.next)
    }

    /// Decodes the next symbol under `code`, returning it and the code
    /// of the symbol after it. Only valid with enough bits buffered:
    /// inside [`BitReader::decode_each`], or within [`CODES_PER_REFILL`]
    /// codes of a [`BitReader::refill`].
    #[inline(always)]
    pub fn get(&self, code: usize, r: &mut BitReader<'_>) -> (u8, usize) {
        // In range by construction: the modulus only spares the check.
        let mut e = self.root[(code << ROOT_BITS | (r.acc & ROOT_MASK) as usize) % self.root.len()];
        if e & 0x0f == 0 {
            // A longer code's link, or an escape. Only the escape hands
            // the reader to a call: a call that took it for a link too
            // kept the reader's bits out of registers on the hot path
            // (cold `tzstd` records decoded ~4 % slower, 2-core x86-64
            // VM).
            if e & LINK != 0 {
                e = self.sub[link_index(e) << SUB_BITS | (r.acc >> ROOT_BITS & SUB_MASK) as usize];
            }
            if e & 0x0f == 0 {
                return self.escaped(code, u32::from(e >> 4), r);
            }
        }
        let len = u32::from(e & 0x0f);
        r.acc >>= len;
        r.nbits -= len;
        ((e >> 4) as u8, usize::from(e >> 12))
    }

    /// The byte after an escape code of `len` bits: the code is
    /// consumed, the buffer refilled, and the byte's 8 raw bits read.
    #[cold]
    fn escaped(&self, code: usize, len: u32, r: &mut BitReader<'_>) -> (u8, usize) {
        r.acc >>= len;
        r.nbits -= len;
        r.refill();
        let byte = r.acc as u8;
        r.acc >>= 8;
        r.nbits -= 8;
        (byte, self.next[code % MAX_CODES][byte as usize] as usize)
    }
}

/// The sub-table a [`LINK`] entry names.
fn link_index(e: u16) -> usize {
    usize::from((e & !LINK) >> 4)
}

/// Optimal prefix-code lengths of at most [`MAX_CODE_LEN`] bits for the
/// symbols of positive weight (a symbol of weight 0 gets length 0, as
/// does a lone symbol), by package-merge: level by level from the
/// deepest, the symbols (lightest first, ties to the lower symbol)
/// merge with the pairwise packages of the level below. The `2n − 2`
/// lightest items of the top level are the code; a symbol's length is
/// the number of levels whose chosen items include it, and the chosen
/// items of a level are its lightest, so they include the lightest
/// symbols and choose twice its packages' count on the level below.
fn limited_lens(weights: &[u64; SYMBOLS]) -> [u8; SYMBOLS] {
    let mut order: Vec<usize> = (0..SYMBOLS).filter(|&s| weights[s] > 0).collect();
    order.sort_by_key(|&s| (weights[s], s));
    let leaves: Vec<u64> = order.iter().map(|&s| weights[s]).collect();
    // Per level, deepest first: each item's weight, and whether it is
    // a symbol (else a package of two items of the level below).
    let mut levels: Vec<Vec<(u64, bool)>> = Vec::with_capacity(MAX_CODE_LEN as usize);
    for _ in 0..MAX_CODE_LEN {
        let below = levels.last().map_or(&[][..], Vec::as_slice);
        let packages: Vec<u64> = below.chunks_exact(2).map(|p| p[0].0 + p[1].0).collect();
        let mut level = Vec::with_capacity(leaves.len() + packages.len());
        let (mut l, mut p) = (0, 0);
        while l < leaves.len() || p < packages.len() {
            if p == packages.len() || (l < leaves.len() && leaves[l] <= packages[p]) {
                level.push((leaves[l], true));
                l += 1;
            } else {
                level.push((packages[p], false));
                p += 1;
            }
        }
        levels.push(level);
    }
    let mut lens = [0u8; SYMBOLS];
    let mut take = (2 * leaves.len()).saturating_sub(2);
    for level in levels.iter().rev() {
        let symbols = level[..take].iter().filter(|item| item.1).count();
        for &s in &order[..symbols] {
            lens[s] += 1;
        }
        take = 2 * (take - symbols);
    }
    lens
}

/// LSB-first bit sink over a byte vector.
pub(crate) struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Flushes the last partial word, zero-padded to a byte boundary.
    pub fn finish(self) {
        let bytes = self.nbits.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
    }
}

/// LSB-first bit source. Bits past the end of the buffer read as zero
/// and are accounted for, so an over-read is reported by [`Self::finish`]
/// instead of being checked per symbol.
pub(crate) struct BitReader<'a> {
    buf: &'a [u8],
    /// Next byte to load; counts virtual zero bytes past the end too.
    pos: usize,
    /// Valid in the low `nbits`; bits above them are either zero or a
    /// copy of the stream bytes at `pos..`, so re-loading is idempotent.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Calls `step` once per byte of `out` to decode it, topping the
    /// buffer up before every [`CODES_PER_REFILL`] steps — each step may
    /// [`Decoder::get`] one symbol. Reading past the end of the stream
    /// yields zero bits; [`Self::finish`] reports it.
    #[inline(always)]
    pub fn decode_each(&mut self, out: &mut [u8], mut step: impl FnMut(&mut Self, &mut u8)) {
        let mut chunks = out.chunks_exact_mut(CODES_PER_REFILL);
        for chunk in &mut chunks {
            self.refill();
            for d in chunk {
                step(self, d);
            }
        }
        self.refill();
        for d in chunks.into_remainder() {
            step(self, d);
        }
    }

    /// Tops the accumulator up to at least 56 valid bits, enough for
    /// [`CODES_PER_REFILL`] codes.
    #[inline(always)]
    pub fn refill(&mut self) {
        let word = match self.buf.get(self.pos..self.pos + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("8-byte slice")),
            // The stream's last bytes, then zeros: one load still
            // tops up a short stream (a record's) or its tail.
            None => {
                let mut word = [0; 8];
                let tail = self.buf.get(self.pos..).unwrap_or_default();
                word[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(word)
            }
        };
        self.acc |= word << self.nbits;
        self.pos += ((63 - self.nbits) >> 3) as usize;
        self.nbits |= 56;
    }

    /// Succeeds iff exactly the buffer was consumed: no symbol was read
    /// from past its end and only padding (< 8 bits) is left over.
    pub fn finish(self) -> Result<()> {
        let consumed_bits = self.pos * 8 - self.nbits as usize;
        if consumed_bits.div_ceil(8) == self.buf.len() {
            Ok(())
        } else {
            Err(Error::Corruption(
                "entropy-coded stream length mismatch".into(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn counts_of(data: &[u8]) -> [u32; 256] {
        let mut counts = [0u32; 256];
        for &b in data {
            counts[b as usize] += 1;
        }
        counts
    }

    fn encode(table: &HuffTable, data: &[u8]) -> Vec<u8> {
        let mut coded = Vec::new();
        let mut w = BitWriter::new(&mut coded);
        for &s in data {
            table.put(s, &mut w);
        }
        w.finish();
        coded
    }

    fn decode(table: &HuffTable, r: &mut BitReader<'_>, n: usize) -> Vec<u8> {
        let decoder = Decoder::new(std::slice::from_ref(table), |_, _| 0);
        let mut out = vec![0; n];
        r.decode_each(&mut out, |r, d| *d = decoder.get(0, r).0);
        out
    }

    fn roundtrip(table: &HuffTable, data: &[u8]) -> usize {
        let coded = encode(table, data);
        let mut r = BitReader::new(&coded);
        let back = decode(table, &mut r, data.len());
        r.finish().expect("exact stream length");
        assert_eq!(back, data);
        coded.len()
    }

    /// Counts whose optimal code runs into the length limit: a
    /// Fibonacci-like run drives an unbounded Huffman tree far past 11
    /// levels.
    fn skewed_counts() -> [u32; 256] {
        let mut counts = [0u32; 256];
        let (mut a, mut b) = (1u32, 1u32);
        for c in counts.iter_mut().take(40) {
            *c = a;
            (a, b) = (b, a.saturating_add(b));
        }
        counts
    }

    #[test]
    fn skewed_counts_stay_within_the_length_limit() {
        // The limit must hold and the code stay complete; only the 40
        // bytes counted get a code, and the other 216 escape.
        let table = HuffTable::from_counts(&skewed_counts());
        let (seen, unseen) = table.lens[..ESCAPE].split_at(40);
        assert!(seen.iter().all(|&l| (1..=11).contains(&l)));
        assert!(unseen.iter().all(|&l| l == 0));
        assert!((1..=11).contains(&table.lens[ESCAPE]));
        let data: Vec<u8> = (0..=255u8).chain(std::iter::repeat_n(39, 500)).collect();
        roundtrip(&table, &data);
    }

    #[test]
    fn trained_table_compresses_its_distribution() {
        let data: Vec<u8> = b"aaaaaaaabbbbccd ".repeat(200);
        let table = HuffTable::from_counts(&counts_of(&data));
        let coded = roundtrip(&table, &data);
        assert!(coded * 3 < data.len(), "{coded} vs {}", data.len());
    }

    #[test]
    fn unseen_bytes_cost_the_escape_and_eight_raw_bits() {
        // Two bytes seen, weighted far above the escape: one of them
        // codes in 1 bit, the other and the escape in 2.
        let mut counts = [0u32; 256];
        counts[b'a' as usize] = 100;
        counts[b'b' as usize] = 50;
        let table = HuffTable::from_counts(&counts);
        assert_eq!(
            (table.lens[b'a' as usize], table.lens[b'b' as usize]),
            (1, 2)
        );
        assert_eq!(table.lens[ESCAPE], 2);
        assert_eq!(table.enc[b'z' as usize] & 0x1f, 10);
        // 8 × 1 bit, then 8 × 10 bits: 11 bytes.
        assert_eq!(roundtrip(&table, b"aaaaaaaazzzzzzzz"), 11);
        // Trained on nothing: the escape alone, 0 bits, then the byte.
        let empty = HuffTable::from_counts(&[0; 256]);
        assert_eq!(empty.lens, [0; SYMBOLS]);
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(roundtrip(&empty, &all), 256);
    }

    #[test]
    fn an_escape_leaves_the_bits_for_the_rest_of_its_group() {
        // The escape and the seen bytes' longest codes are all 11 bits
        // (an escaped byte 19): groups of `CODES_PER_REFILL` symbols
        // with escapes anywhere in them, or everywhere, still find
        // every code buffered before they read it.
        let table = HuffTable::from_counts(&skewed_counts());
        assert_eq!(table.lens[ESCAPE], 11);
        let long = (0..40u8).find(|&b| table.lens[b as usize] == 11).unwrap();
        let mut data = Vec::new();
        for at in 0..CODES_PER_REFILL {
            for k in 0..CODES_PER_REFILL {
                data.push(if k == at { 200 + k as u8 } else { long });
            }
        }
        data.extend((100..=255u8).take(4 * CODES_PER_REFILL));
        let coded = encode(&table, &data);
        let decoder = Decoder::new(std::slice::from_ref(&table), |_, _| 0);
        let mut back = vec![0; data.len()];
        let mut r = BitReader::new(&coded);
        r.decode_each(&mut back, |r, d| {
            assert!(r.nbits >= MAX_CODE_LEN, "{} bits buffered", r.nbits);
            *d = decoder.get(0, r).0;
        });
        r.finish().unwrap();
        assert_eq!(back, data);
    }

    /// The most sub-tables a code links: one symbol of 1 bit and 256 of
    /// 9 bits, two under each of the 128 root slots the 1-bit code
    /// leaves (byte `c`'s in code `c`, the escape's in the last). Sixteen
    /// such codes, chained, round-trip, and their sub-tables take the
    /// 32 KiB bound.
    #[test]
    fn sixteen_codes_of_128_linked_root_slots_stay_within_the_bound() {
        let tables: Vec<HuffTable> = (0..MAX_CODES)
            .map(|c| {
                let short = if c + 1 == MAX_CODES { ESCAPE } else { c };
                let lens = std::array::from_fn(|s| if s == short { 1 } else { 9 });
                HuffTable::from_lens(lens).unwrap()
            })
            .collect();
        let next = |c: usize, sym: u8| (c + usize::from(sym)) % MAX_CODES;
        let decoder = Decoder::new(&tables, next);
        assert_eq!(decoder.sub.len(), MAX_SUB_TABLES << SUB_BITS);
        assert!(std::mem::size_of_val(&*decoder.sub) <= 32 << 10);
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i * 97 % 251 + i / 251) as u8)
            .collect();
        let mut coded = Vec::new();
        let mut w = BitWriter::new(&mut coded);
        let mut code = 0;
        for &b in &data {
            tables[code].put(b, &mut w);
            code = next(code, b);
        }
        w.finish();
        let (mut back, mut code) = (vec![0; data.len()], 0);
        let mut r = BitReader::new(&coded);
        r.decode_each(&mut back, |r, d| (*d, code) = decoder.get(code, r));
        r.finish().unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn stored_form_roundtrips_and_rejects_garbage() {
        let table = HuffTable::from_counts(&counts_of(b"hello huffman"));
        let mut bytes = Vec::new();
        table.write_bytes(&mut bytes);
        assert_eq!(bytes.len(), TABLE_BYTES);
        let back = HuffTable::from_bytes(&bytes).unwrap();
        assert_eq!(back.lens, table.lens);
        assert_eq!(back.enc, table.enc);
        // Every byte coded: 255 in 8 bits, the last byte and the escape
        // in 9; the escape alone, in 0 bits.
        let mut full = [0x88u8; TABLE_BYTES];
        full[127] = 0x98;
        full[TABLE_BYTES - 1] = 9;
        assert!(HuffTable::from_bytes(&full).is_ok());
        assert!(HuffTable::from_bytes(&[0u8; TABLE_BYTES]).is_ok());
        // Wrong size, an over-long length, an over-full or incomplete
        // code, an escape of 0 bits beside other codes: all Corruption.
        assert!(HuffTable::from_bytes(&bytes[..100]).is_err());
        assert!(HuffTable::from_bytes(&[0u8; TABLE_BYTES - 1]).is_err());
        assert!(HuffTable::from_bytes(&[0xffu8; TABLE_BYTES]).is_err());
        for escape in [0, 8, 10, 12] {
            full[TABLE_BYTES - 1] = escape;
            assert!(HuffTable::from_bytes(&full).is_err(), "escape {escape}");
        }
        let mut escape_only = [0u8; TABLE_BYTES];
        escape_only[TABLE_BYTES - 1] = 1;
        assert!(HuffTable::from_bytes(&escape_only).is_err());
    }

    #[test]
    fn over_read_and_trailing_bytes_are_reported() {
        for table in [
            HuffTable::from_counts(&[0; 256]),
            HuffTable::from_counts(&counts_of(b"1357")),
        ] {
            let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10];
            let coded = encode(&table, &data);
            for bad in [
                &coded[..coded.len() - 1],
                &[&coded[..], &[0u8]].concat()[..],
            ] {
                let mut r = BitReader::new(bad);
                decode(&table, &mut r, data.len());
                assert!(r.finish().is_err());
            }
        }
    }

    /// Bits an optimal prefix code with no length limit spends on
    /// `weights`: Huffman's repeated merge of the two lightest.
    fn huffman_cost(weights: &[u64]) -> u64 {
        use std::cmp::Reverse;
        let mut heap: std::collections::BinaryHeap<Reverse<u64>> =
            weights.iter().map(|&w| Reverse(w)).collect();
        let mut cost = 0;
        while let (Some(Reverse(a)), Some(Reverse(b))) = (heap.pop(), heap.pop()) {
            cost += a + b;
            heap.push(Reverse(a + b));
        }
        cost
    }

    proptest! {
        /// Where the limit does not bind (the seen bytes' weights within
        /// a factor of 5, the escape's 1, stay well under 11 levels),
        /// package-merge's code over the seen bytes and the escape costs
        /// what Huffman's does: it is optimal. Unseen bytes get no code.
        #[test]
        fn prop_package_merge_is_optimal_when_the_limit_does_not_bind(
            weights in proptest::collection::vec(prop_oneof![Just(0u64), 20u64..=100], 256),
        ) {
            let weights: [u64; SYMBOLS] =
                std::array::from_fn(|s| weights.get(s).copied().unwrap_or(1));
            let lens = limited_lens(&weights);
            let cost: u64 = weights.iter().zip(lens).map(|(&w, l)| w * u64::from(l)).sum();
            let seen: Vec<u64> = weights.iter().copied().filter(|&w| w > 0).collect();
            prop_assert_eq!(cost, huffman_cost(&seen));
            for (&w, l) in weights.iter().zip(lens) {
                prop_assert_eq!(w == 0, l == 0);
            }
        }

        /// Symbols absent from the training sample still round-trip.
        #[test]
        fn prop_roundtrip_any_bytes_under_any_table(
            train in proptest::collection::vec(any::<u8>(), 0..400),
            data in proptest::collection::vec(any::<u8>(), 0..1200),
        ) {
            roundtrip(&HuffTable::from_counts(&counts_of(&train)), &data);
        }

        /// Arbitrary bytes; a table's 128 nibble bytes with any escape
        /// length; a trained table with one bit flipped. Each is a
        /// table or `Corruption`, never a panic, and a table that opens
        /// round-trips any bytes.
        #[test]
        fn prop_from_bytes_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            nibbles in proptest::collection::vec(prop_oneof![Just(0u8), Just(0x88), any::<u8>()], 128),
            escape in 0u8..16,
            train in proptest::collection::vec(any::<u8>(), 0..300),
            bit in 0usize..TABLE_BYTES * 8,
        ) {
            let mut flipped = Vec::new();
            HuffTable::from_counts(&counts_of(&train)).write_bytes(&mut flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
            let formed = [&nibbles[..], &[escape]].concat();
            for stored in [&bytes, &formed, &flipped] {
                match HuffTable::from_bytes(stored) {
                    Ok(table) => {
                        roundtrip(&table, &bytes);
                        let mut again = Vec::new();
                        table.write_bytes(&mut again);
                        prop_assert_eq!(&again, stored);
                    }
                    Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
                }
            }
        }
    }
}
