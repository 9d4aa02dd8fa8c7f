//! Pre-trained compression for TierBase (§4.2).
//!
//! Two compressors are provided behind one [`Compressor`] trait:
//!
//! * **tzstd** ([`lz`], [`dict`]) — an LZ77 hash-chain compressor with
//!   compression levels and offline-trained dictionaries. It stands in for
//!   Zstandard: same role (general string compression, dictionary mode for
//!   small records), same knobs (level trades ratio against speed), same
//!   training flow (`train_dictionary` ≈ `zstd --train`). Its entropy
//!   stage is simpler than zstd's — an adaptive order-0 range coder for
//!   single records ([`rangecoder`]), table-trained static Huffman under
//!   sixteen token-field and previous-byte contexts for SSTable blocks
//!   ([`block`]) — so ratios are a little worse than real zstd, but the
//!   *orderings* the paper measures (dict > no-dict on small records,
//!   higher level → better ratio/slower SET) are preserved.
//! * **PBC** ([`pbc`]) — Pattern-Based Compression per the paper and ref
//!   [59]: offline hierarchical clustering of sampled records extracts
//!   *patterns* (templates of literal anchors with wildcard gaps); a record
//!   compresses to a pattern id plus its gap residuals. Decompression is a
//!   sequence of memcpys, which is why PBC GET throughput approaches raw.
//!
//! [`framework`] supplies the production wrapper: sampling, training,
//! a compression-efficiency monitor with retrain triggers, and the
//! compressor recommender surfaced by TierBase's Insight service.

pub mod block;
pub mod dict;
pub mod framework;
mod huffman;
pub mod lz;
pub mod pbc;
pub mod rangecoder;

pub use block::{BlockCodec, BlockCodecState, FRAME_HEADER_LEN, FRAME_TAG_STORED};
pub use dict::train_dictionary;
pub use framework::{
    CompressionMonitor, CompressionStats, CompressorChoice, CompressorRecommender, MonitorConfig,
    PretrainedCompression,
};
pub use lz::{Tzstd, TzstdLevel};
pub use pbc::{Pbc, PbcConfig, PbcModel};

use tb_common::Result;

/// A byte-string compressor.
pub trait Compressor: Send + Sync {
    /// Compresses `input`. The output must round-trip via [`Self::decompress`].
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Decompresses a buffer produced by [`Self::compress`].
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>>;

    /// Short identifier ("raw", "tzstd", "tzstd-d", "pbc").
    fn name(&self) -> &'static str;
}

/// Identity compressor (the paper's "Raw" baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct RawCompressor;

impl Compressor for RawCompressor {
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        input.to_vec()
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        Ok(input.to_vec())
    }

    fn name(&self) -> &'static str {
        "raw"
    }
}

/// Measures the compression ratio (compressed/original, lower is better)
/// of `c` over a sample set.
pub fn measure_ratio(c: &dyn Compressor, samples: &[Vec<u8>]) -> f64 {
    let orig: usize = samples.iter().map(|s| s.len()).sum();
    if orig == 0 {
        return 1.0;
    }
    let comp: usize = samples.iter().map(|s| c.compress(s).len()).sum();
    comp as f64 / orig as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip_is_identity() {
        let c = RawCompressor;
        let data = b"hello world".to_vec();
        let z = c.compress(&data);
        assert_eq!(z, data);
        assert_eq!(c.decompress(&z).unwrap(), data);
    }

    #[test]
    fn measure_ratio_of_raw_is_one() {
        let samples = vec![b"aaaa".to_vec(), b"bbbb".to_vec()];
        assert_eq!(measure_ratio(&RawCompressor, &samples), 1.0);
    }

    #[test]
    fn measure_ratio_empty_sample() {
        assert_eq!(measure_ratio(&RawCompressor, &[]), 1.0);
    }
}
