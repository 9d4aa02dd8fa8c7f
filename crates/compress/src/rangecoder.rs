//! Adaptive order-0 range coder — the entropy stage of tzstd's
//! *per-record* path (SSTable blocks use the table-trained coder in
//! [`crate::huffman`], which has a table to keep its model in).
//!
//! Real Zstandard entropy-codes its LZ token streams with FSE/Huffman.
//! A table-based header is too expensive for 100-byte records, so tzstd
//! uses an *adaptive* byte-wise range coder instead (the classic
//! Subbotin carryless design): encoder and decoder grow identical
//! frequency tables as they go, so no table is transmitted at all.
//! Compression on short machine-generated records (hex ids, digits,
//! repeated field names) is where this earns its keep.

use tb_common::{Error, Result};

const TOP: u32 = 1 << 24;
const BOT: u32 = 1 << 16;
/// Halve all frequencies when the total reaches this; must stay well
/// below BOT so `range / total` never hits zero.
const MAX_TOTAL: u32 = 1 << 14;
/// Adaptation increment per observed symbol.
const INC: u16 = 24;

struct Model {
    freq: [u16; 256],
    total: u32,
}

impl Model {
    fn new() -> Self {
        Self {
            freq: [1; 256],
            total: 256,
        }
    }

    /// Cumulative frequency below `sym`.
    fn cum(&self, sym: usize) -> u32 {
        self.freq[..sym].iter().map(|&f| f as u32).sum()
    }

    fn update(&mut self, sym: usize) {
        self.freq[sym] += INC;
        self.total += INC as u32;
        if self.total >= MAX_TOTAL {
            self.total = 0;
            for f in &mut self.freq {
                *f = (*f / 2).max(1);
                self.total += *f as u32;
            }
        }
    }

    /// Finds the symbol whose cumulative interval contains `target`,
    /// returning `(sym, cum_below, freq)`.
    fn find(&self, target: u32) -> (usize, u32, u32) {
        let mut cum = 0u32;
        for (sym, &f) in self.freq.iter().enumerate() {
            let f = f as u32;
            if target < cum + f {
                return (sym, cum, f);
            }
            cum += f;
        }
        // target beyond total can only happen on corrupt input; pin to
        // the last symbol.
        let f = self.freq[255] as u32;
        (255, cum - f, f)
    }
}

/// Range-encodes `input` (Subbotin carryless, 32-bit).
pub fn rc_encode(input: &[u8]) -> Vec<u8> {
    let mut model = Model::new();
    let mut low: u32 = 0;
    let mut range: u32 = u32::MAX;
    let mut out = Vec::with_capacity(input.len() / 2 + 8);

    for &b in input {
        let sym = b as usize;
        let cum = model.cum(sym);
        let freq = model.freq[sym] as u32;
        let total = model.total;

        range /= total;
        low = low.wrapping_add(cum.wrapping_mul(range));
        range = range.wrapping_mul(freq);

        loop {
            if (low ^ low.wrapping_add(range)) < TOP {
                // Top byte settled; emit it.
            } else if range < BOT {
                // Interval straddles a boundary but is tiny: truncate it
                // so no future addition can carry into emitted bytes.
                range = low.wrapping_neg() & (BOT - 1);
            } else {
                break;
            }
            out.push((low >> 24) as u8);
            low <<= 8;
            range <<= 8;
        }
        model.update(sym);
    }
    for _ in 0..4 {
        out.push((low >> 24) as u8);
        low <<= 8;
    }
    out
}

/// Decodes `count` bytes from a [`rc_encode`] stream.
pub fn rc_decode(input: &[u8], count: usize) -> Result<Vec<u8>> {
    let mut model = Model::new();
    let mut low: u32 = 0;
    let mut range: u32 = u32::MAX;
    let mut pos = 0usize;
    let mut code: u32 = 0;
    let pull = |pos: &mut usize| -> u8 {
        let b = input.get(*pos).copied().unwrap_or(0);
        *pos += 1;
        b
    };
    for _ in 0..4 {
        code = (code << 8) | pull(&mut pos) as u32;
    }

    // `count` comes from the stream: let it size the first allocation
    // only up to a record-sized cap, and grow from there.
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let total = model.total;
        range /= total;
        let target = code.wrapping_sub(low) / range;
        if target >= total {
            return Err(Error::Corruption("range coder target out of bounds".into()));
        }
        let (sym, cum, freq) = model.find(target);

        low = low.wrapping_add(cum.wrapping_mul(range));
        range = range.wrapping_mul(freq);

        loop {
            if (low ^ low.wrapping_add(range)) < TOP {
            } else if range < BOT {
                range = low.wrapping_neg() & (BOT - 1);
            } else {
                break;
            }
            code = (code << 8) | pull(&mut pos) as u32;
            low <<= 8;
            range <<= 8;
        }
        model.update(sym);
        out.push(sym as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) {
        let enc = rc_encode(data);
        let dec = rc_decode(&enc, data.len()).expect("decode");
        assert_eq!(dec, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(&[0u8]);
        roundtrip(&[255u8; 3]);
    }

    #[test]
    fn skewed_alphabet_compresses() {
        // Hex-ish content: a 16-symbol alphabet should approach 4 bits
        // per byte once the model adapts.
        let data: Vec<u8> = (0..2000u32)
            .map(|i| b"0123456789abcdef"[(i.wrapping_mul(2654435761) >> 13) as usize % 16])
            .collect();
        let enc = rc_encode(&data);
        assert!(
            (enc.len() as f64) < data.len() as f64 * 0.75,
            "hex data should compress: {} -> {}",
            data.len(),
            enc.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn uniform_random_does_not_explode() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let data: Vec<u8> = (0..4000).map(|_| rng.gen()).collect();
        let enc = rc_encode(&data);
        // Adaptive order-0 pays a few percent on truly uniform input;
        // the tzstd frame's stored mode shields users from it.
        assert!(
            enc.len() <= data.len() + data.len() / 12,
            "{} vs {}",
            enc.len(),
            data.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn repeated_bytes_compress_hard() {
        let data = vec![b'z'; 4000];
        let enc = rc_encode(&data);
        assert!(
            enc.len() < 400,
            "constant input should crush: {}",
            enc.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn corrupt_stream_is_error_or_garbage_not_panic() {
        let data = b"some reasonably long input with structure 1234567890";
        let enc = rc_encode(data);
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x55;
            let _ = rc_decode(&bad, data.len()); // must not panic
        }
        let _ = rc_decode(&[], 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
            roundtrip(&data);
        }

        #[test]
        fn prop_roundtrip_texty(s in "[a-z0-9|:=/ ]{0,1500}") {
            roundtrip(s.as_bytes());
        }
    }
}
