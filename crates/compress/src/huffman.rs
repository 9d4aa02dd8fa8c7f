//! Static canonical Huffman coding with a single-lookup decode table —
//! the pre-trained entropy stage of the `lz`/`dict` block codecs.
//!
//! A table ([`HuffTable`]) is trained once, from the symbol counts of
//! one coding context over an SSTable's own LZ output (the block codec
//! keeps sixteen contexts), stored as 256 four-bit code lengths, and shared
//! by every block of the SSTable, so no block carries a model. Every
//! byte value gets a code (absent symbols are counted once), so a table
//! trained on one sample still encodes any input. Codes are at most
//! [`MAX_CODE_LEN`] bits and written LSB-first.
//!
//! A [`Decoder`] holds the decode tables of a whole family of codes in
//! one array: indexed by a code and the next `MAX_CODE_LEN` stream bits,
//! one load returns the symbol, its length, and the code of the *next*
//! symbol, which the caller fixed per (code, symbol) when building it —
//! so a stream whose context follows from the symbols already decoded
//! costs one dependent load per symbol, as a single code would.

use tb_common::{Error, Result};

/// Longest code, and the index width of the decode table.
const MAX_CODE_LEN: u32 = 11;
const LUT_SIZE: usize = 1 << MAX_CODE_LEN;
const LUT_MASK: u64 = LUT_SIZE as u64 - 1;
/// Serialized size of one table: 256 code lengths, 4 bits each.
pub(crate) const TABLE_BYTES: usize = 128;

/// Symbols decoded per [`BitReader::refill`]: a refill leaves >= 56
/// bits, enough for 5 codes of <= 11 bits.
pub(crate) const CODES_PER_REFILL: usize = 5;

pub(crate) struct HuffTable {
    lens: [u8; 256],
    /// Per symbol: `bit_reversed_code << 4 | len`.
    enc: [u16; 256],
}

impl HuffTable {
    /// Builds the table for a symbol histogram: the optimal code whose
    /// lengths stay within [`MAX_CODE_LEN`]. Deterministic for fixed
    /// counts (ties break on symbol value).
    pub fn from_counts(counts: &[u32; 256]) -> Self {
        let weights = counts.map(|c| u64::from(c) + 1);
        Self::from_lens(limited_lens(&weights)).expect("package-merge lengths form a complete code")
    }

    /// Rebuilds a table from its stored form, rejecting anything that
    /// is not a complete prefix code over all 256 symbols (so every
    /// [`Decoder`] slot is filled and decoding needs no validity check
    /// per symbol).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != TABLE_BYTES {
            return Err(Error::Corruption("entropy table truncated".into()));
        }
        let lens = std::array::from_fn(|s| (bytes[s / 2] >> (4 * (s % 2))) & 0x0f);
        Self::from_lens(lens)
    }

    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend(self.lens.chunks_exact(2).map(|p| p[0] | p[1] << 4));
    }

    fn from_lens(lens: [u8; 256]) -> Result<Self> {
        let mut per_len = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in &lens {
            if l == 0 || l as u32 > MAX_CODE_LEN {
                return Err(Error::Corruption(format!("bad entropy code length {l}")));
            }
            per_len[l as usize] += 1;
        }
        let kraft: u32 = (1..=MAX_CODE_LEN)
            .map(|l| per_len[l as usize] << (MAX_CODE_LEN - l))
            .sum();
        if kraft != LUT_SIZE as u32 {
            return Err(Error::Corruption(
                "entropy table is not a complete prefix code".into(),
            ));
        }
        // Canonical assignment: codes ascend by (length, symbol).
        let mut next = [0u32; MAX_CODE_LEN as usize + 2];
        for l in 1..=MAX_CODE_LEN as usize {
            next[l + 1] = (next[l] + per_len[l]) << 1;
        }
        let mut enc = [0u16; 256];
        for (sym, &l) in lens.iter().enumerate() {
            let code = next[l as usize] as u16;
            next[l as usize] += 1;
            let reversed = code.reverse_bits() >> (16 - l as u32);
            enc[sym] = reversed << 4 | l as u16;
        }
        Ok(Self { lens, enc })
    }

    /// Appends the code of `sym` to the bit stream.
    #[inline(always)]
    pub fn put(&self, sym: u8, w: &mut BitWriter<'_>) {
        let e = self.enc[sym as usize];
        w.acc |= ((e >> 4) as u64) << w.nbits;
        w.nbits += (e & 0x0f) as u32;
        if w.nbits >= 32 {
            w.out.extend_from_slice(&(w.acc as u32).to_le_bytes());
            w.acc >>= 32;
            w.nbits -= 32;
        }
    }
}

/// The decode tables of up to [`MAX_CODES`] codes, `2^MAX_CODE_LEN`
/// entries each, in one array. Entry: `next_code << 12 | symbol << 4 |
/// len`.
pub(crate) struct Decoder {
    lut: Box<[u16; MAX_CODES * LUT_SIZE]>,
}

/// Codes a [`Decoder`] chains: its next-code field is 4 bits.
const MAX_CODES: usize = 16;

impl Decoder {
    /// Decode tables for `codes`; `next(code, symbol)` is the code the
    /// symbol after `symbol` (decoded under `code`) is decoded under,
    /// and must be below `codes.len()`.
    pub fn new(codes: &[HuffTable], next: impl Fn(usize, u8) -> usize) -> Self {
        assert!(codes.len() <= MAX_CODES, "the next code is a 4-bit field");
        let mut lut: Box<[u16; MAX_CODES * LUT_SIZE]> = vec![0; MAX_CODES * LUT_SIZE]
            .into_boxed_slice()
            .try_into()
            .expect("MAX_CODES tables");
        for (c, (code, block)) in codes.iter().zip(lut.chunks_exact_mut(LUT_SIZE)).enumerate() {
            for (sym, &e) in code.enc.iter().enumerate() {
                let (reversed, len) = ((e >> 4) as usize, e & 0x0f);
                let then = next(c, sym as u8);
                debug_assert!(then < codes.len());
                let entry = (then as u16) << 12 | (sym as u16) << 4 | len;
                for slot in (reversed..LUT_SIZE).step_by(1 << len) {
                    block[slot] = entry;
                }
            }
        }
        Self { lut }
    }

    /// Decodes the next symbol under `code`, returning it and the code
    /// of the symbol after it. Only valid with enough bits buffered:
    /// inside [`BitReader::decode_each`], or within [`CODES_PER_REFILL`]
    /// codes of a [`BitReader::refill`].
    #[inline(always)]
    pub fn get(&self, code: usize, r: &mut BitReader<'_>) -> (u8, usize) {
        // In range by construction: the modulus only spares the check.
        let e = self.lut[(code << MAX_CODE_LEN | (r.acc & LUT_MASK) as usize) % self.lut.len()];
        let len = (e & 0x0f) as u32;
        r.acc >>= len;
        r.nbits -= len;
        ((e >> 4) as u8, (e >> 12) as usize)
    }
}

/// Optimal prefix-code lengths of at most [`MAX_CODE_LEN`] bits for
/// positive weights, by package-merge: level by level from the
/// deepest, the symbols (lightest first, ties to the lower symbol)
/// merge with the pairwise packages of the level below. The `2n − 2`
/// lightest items of the top level are the code; a symbol's length is
/// the number of levels whose chosen items include it, and the chosen
/// items of a level are its lightest, so they include the lightest
/// symbols and choose twice its packages' count on the level below.
fn limited_lens(weights: &[u64; 256]) -> [u8; 256] {
    let mut order: [u8; 256] = std::array::from_fn(|s| s as u8);
    order.sort_by_key(|&s| (weights[s as usize], s));
    let leaves = order.map(|s| weights[s as usize]);
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
    let mut lens = [0u8; 256];
    let mut take = 2 * leaves.len() - 2;
    for level in levels.iter().rev() {
        let symbols = level[..take].iter().filter(|item| item.1).count();
        for &s in &order[..symbols] {
            lens[s as usize] += 1;
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

    #[test]
    fn skewed_counts_stay_within_the_length_limit() {
        // Fibonacci-like counts drive an unbounded Huffman tree far
        // past 11 levels; the limit must hold and the code stay complete.
        let mut counts = [0u32; 256];
        let (mut a, mut b) = (1u32, 1u32);
        for c in counts.iter_mut().take(40) {
            *c = a;
            (a, b) = (b, a.saturating_add(b));
        }
        let table = HuffTable::from_counts(&counts);
        assert!(table.lens.iter().all(|&l| (1..=11).contains(&l)));
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
    fn stored_form_roundtrips_and_rejects_garbage() {
        let table = HuffTable::from_counts(&counts_of(b"hello huffman"));
        let mut bytes = Vec::new();
        table.write_bytes(&mut bytes);
        assert_eq!(bytes.len(), TABLE_BYTES);
        let back = HuffTable::from_bytes(&bytes).unwrap();
        assert_eq!(back.lens, table.lens);
        assert_eq!(back.enc, table.enc);
        // Wrong size, a zero length, an over-long length, an
        // incomplete code: all Corruption.
        assert!(HuffTable::from_bytes(&bytes[..100]).is_err());
        assert!(HuffTable::from_bytes(&[0u8; TABLE_BYTES]).is_err());
        assert!(HuffTable::from_bytes(&[0xffu8; TABLE_BYTES]).is_err());
        assert!(HuffTable::from_bytes(&[0x99u8; TABLE_BYTES]).is_err());
        assert!(HuffTable::from_bytes(&[0x88u8; TABLE_BYTES]).is_ok());
    }

    #[test]
    fn over_read_and_trailing_bytes_are_reported() {
        let table = HuffTable::from_counts(&[0; 256]);
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
        /// Where the limit does not bind (weights within a factor of 5
        /// stay well under 11 levels), package-merge's code costs what
        /// Huffman's does: it is optimal.
        #[test]
        fn prop_package_merge_is_optimal_when_the_limit_does_not_bind(
            weights in proptest::collection::vec(20u64..=100, 256),
        ) {
            let weights: [u64; 256] = weights.try_into().unwrap();
            let lens = limited_lens(&weights);
            let cost: u64 = weights.iter().zip(lens).map(|(&w, l)| w * u64::from(l)).sum();
            prop_assert_eq!(cost, huffman_cost(&weights));
        }

        /// Symbols absent from the training sample still round-trip.
        #[test]
        fn prop_roundtrip_any_bytes_under_any_table(
            train in proptest::collection::vec(any::<u8>(), 0..400),
            data in proptest::collection::vec(any::<u8>(), 0..1200),
        ) {
            roundtrip(&HuffTable::from_counts(&counts_of(&train)), &data);
        }

        #[test]
        fn prop_from_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = HuffTable::from_bytes(&bytes);
        }
    }
}
