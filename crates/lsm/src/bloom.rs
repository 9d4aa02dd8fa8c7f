//! Bloom filter for SSTable point-lookup short-circuiting.
//!
//! Double hashing (Kirsch–Mitzenmacher): two base hashes generate the k
//! probe positions, which preserves the asymptotic false-positive rate
//! of k independent hashes at a fraction of the cost.

use std::hash::Hasher;
use tb_common::hash::FxHasher;

/// Most probes per key a filter may use (`new` clamps to this; a
/// decoded filter claiming more is corrupt).
const MAX_PROBES: u32 = 12;

/// A fixed-size bloom filter.
#[derive(Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    k: u32,
}

fn hash_pair(data: &[u8]) -> (u64, u64) {
    let mut h1 = FxHasher::default();
    h1.write(data);
    let a = h1.finish();
    let mut h2 = FxHasher::default();
    h2.write_u64(a ^ 0x9e37_79b9_7f4a_7c15);
    h2.write(data);
    (a, h2.finish() | 1) // odd second hash avoids degenerate cycles
}

impl BloomFilter {
    /// Sizes the filter for `expected_items` at `bits_per_key` (10 bits
    /// ≈ 1% false positives), rounded up to a whole `u64` word: probes
    /// reduce `% n_bits`, so any size works. `bits_per_key == 0` builds
    /// the 20-byte pass-through filter: what a bottom-level table
    /// carries, and every table of the `ablation_bloom` baseline.
    pub fn new(expected_items: usize, bits_per_key: usize) -> Self {
        if bits_per_key == 0 {
            // One word, k=0 probes: `may_contain` is vacuously true.
            return Self {
                bits: vec![u64::MAX],
                n_bits: 64,
                k: 0,
            };
        }
        let n_bits = (expected_items.max(1) * bits_per_key).next_multiple_of(64) as u64;
        // Optimal k = ln2 * bits/key, clamped to a sane range.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, MAX_PROBES);
        Self {
            bits: vec![0u64; (n_bits / 64) as usize],
            n_bits,
            k,
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = hash_pair(key);
        for i in 0..self.k {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.n_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// True when the key *may* be present; false means definitely absent.
    /// A pass-through filter admits every key without hashing it.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        if self.k == 0 {
            return true;
        }
        let (h1, h2) = hash_pair(key);
        for i in 0..self.k {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.n_bits;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Probes per key: 0 for the pass-through filter.
    pub fn probes(&self) -> u32 {
        self.k
    }

    /// Serializes to bytes (for the SSTable filter block).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.bits.len() * 8);
        out.extend_from_slice(&self.n_bits.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes from [`Self::to_bytes`] output.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() < 12 {
            return None;
        }
        let n_bits = u64::from_le_bytes(data[0..8].try_into().ok()?);
        let k = u32::from_le_bytes(data[8..12].try_into().ok()?);
        let words = &data[12..];
        // k == 0 is the valid pass-through (bloom-disabled) encoding;
        // probing needs at least one bit to reduce into.
        if !words.len().is_multiple_of(8)
            || (words.len() as u64 * 8) < n_bits
            || k > MAX_PROBES
            || (k > 0 && n_bits == 0)
        {
            return None;
        }
        let bits = words
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some(Self { bits, n_bits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1000, 10);
        for i in 0..1000 {
            f.insert(format!("key-{i}").as_bytes());
        }
        for i in 0..1000 {
            assert!(f.may_contain(format!("key-{i}").as_bytes()));
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut f = BloomFilter::new(1000, 10);
        for i in 0..1000 {
            f.insert(format!("present-{i}").as_bytes());
        }
        let fp = (0..10_000)
            .filter(|i| f.may_contain(format!("absent-{i}").as_bytes()))
            .count();
        // 10 bits/key targets ~1%; allow generous slack.
        assert!(fp < 500, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn filter_takes_its_configured_bits_per_key() {
        for items in [1, 10, 1000, 90_000] {
            let f = BloomFilter::new(items, 10);
            let want = (items * 10) as u64;
            assert!(
                (want..want + 64).contains(&f.n_bits),
                "{items}: {}",
                f.n_bits
            );
            assert_eq!(f.to_bytes().len() as u64, 12 + f.n_bits / 8);
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = BloomFilter::new(100, 10);
        for i in 0..100 {
            f.insert(format!("k{i}").as_bytes());
        }
        let bytes = f.to_bytes();
        let g = BloomFilter::from_bytes(&bytes).unwrap();
        for i in 0..100 {
            assert!(g.may_contain(format!("k{i}").as_bytes()));
        }
        assert_eq!(f.n_bits, g.n_bits);
        assert_eq!(f.k, g.k);
    }

    #[test]
    fn bad_bytes_rejected() {
        assert!(BloomFilter::from_bytes(&[]).is_none());
        assert!(BloomFilter::from_bytes(&[0u8; 11]).is_none());
        // Claimed bits exceed payload.
        let mut bytes = 1_000_000u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(BloomFilter::from_bytes(&bytes).is_none());
        // Probing zero bits would divide by zero; too many probes spin.
        let forged = |n_bits: u64, k: u32| {
            let mut bytes = n_bits.to_le_bytes().to_vec();
            bytes.extend_from_slice(&k.to_le_bytes());
            bytes.extend_from_slice(&[0xffu8; 8]);
            BloomFilter::from_bytes(&bytes)
        };
        assert!(forged(0, 1).is_none());
        assert!(forged(64, MAX_PROBES + 1).is_none());
        assert!(forged(0, 0).is_some_and(|f| f.may_contain(b"k")));
    }

    #[test]
    fn empty_filter_rejects_everything_probabilistically() {
        let f = BloomFilter::new(10, 10);
        let hits = (0..1000)
            .filter(|i| f.may_contain(format!("x{i}").as_bytes()))
            .count();
        assert_eq!(hits, 0);
    }
}
