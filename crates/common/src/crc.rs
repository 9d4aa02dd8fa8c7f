//! CRC-32 (IEEE 802.3) for persistent-record integrity checks.
//!
//! Slice-by-8: eight const-built tables let the hot loop fold eight
//! input bytes per step instead of one (it runs over every WAL frame,
//! block frame and manifest). Results are bit-identical to the
//! byte-at-a-time definition, which the tests keep as the reference.

/// `TABLES[0]` is the classic byte-wise table for the reflected IEEE
/// polynomial 0xEDB88320; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Folds `data` into the running (pre-inverted) CRC state.
fn update(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Incremental CRC-32 builder for multi-part records.
#[derive(Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: 0xffff_ffff }
    }

    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.state = update(self.state, data);
        self
    }

    pub fn finalize(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time definition the sliced kernel must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut c = Crc32::new();
        c.update(b"hello ").update(b"world");
        assert_eq!(c.finalize(), crc32(b"hello world"));
    }

    #[test]
    fn detects_corruption() {
        let a = crc32(b"payload-data-here");
        let b = crc32(b"payload-dAta-here");
        assert_ne!(a, b);
    }

    proptest! {
        #[test]
        fn prop_sliced_matches_bytewise(data in proptest::collection::vec(any::<u8>(), 0..600)) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }

        /// Feeding the same bytes in arbitrary pieces (so the 8-byte
        /// fold restarts at every offset) equals the one-shot value.
        #[test]
        fn prop_update_over_any_split_matches_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                c.update(&data[from..cut]);
                from = cut;
            }
            c.update(&data[from..]);
            prop_assert_eq!(c.finalize(), crc32(&data));
        }
    }
}
