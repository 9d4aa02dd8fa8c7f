//! The pre-trained-compression production framework (§4.2, Figure 5).
//!
//! * [`PretrainedCompression`] — a compressor trained once on sampled
//!   values; its bytes rebuild it. TierBase keeps one per model
//!   generation, and a caller retrains by training the next.
//! * [`CompressorRecommender`] — evaluates candidate compressors on a
//!   sample and recommends one.

use crate::lz::{Tzstd, TzstdLevel};
use crate::pbc::{Pbc, PbcConfig, PbcModel};
use crate::{measure_ratio, Compressor, RawCompressor};
use std::sync::Arc;
use std::time::Instant;
use tb_common::{Error, Result};

/// A value compressor kind: what the recommender selects and what a
/// TierBase store pre-trains (§4.2). `Raw` is no compression. The
/// discriminant is a stored model's tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressorChoice {
    Raw,
    /// Dictionary-less LZ ("Zstd-b" analog).
    Tzstd,
    /// Dictionary-trained LZ ("Zstd-d" analog).
    TzstdDict,
    /// Pattern-based compression.
    Pbc,
}

impl CompressorChoice {
    /// Every choice, in tag order.
    const ALL: [CompressorChoice; 4] = [
        CompressorChoice::Raw,
        CompressorChoice::Tzstd,
        CompressorChoice::TzstdDict,
        CompressorChoice::Pbc,
    ];
}

/// The compressor recommender: benchmarks candidates on a sample and
/// picks by ratio subject to a SET-throughput floor.
pub struct CompressorRecommender {
    /// Reject candidates whose compression throughput falls below this
    /// fraction of raw memcpy throughput (performance-requirement knob).
    pub min_speed_fraction: f64,
}

impl Default for CompressorRecommender {
    fn default() -> Self {
        Self {
            min_speed_fraction: 0.0, // by default pick purely on ratio
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    pub choice: CompressorChoice,
    pub ratio: f64,
    /// Compression throughput relative to raw copy (1.0 = memcpy speed).
    pub speed_fraction: f64,
}

impl CompressorRecommender {
    /// Evaluates Raw, Tzstd, Tzstd+dict and PBC on the samples and
    /// returns per-candidate reports plus the recommendation.
    pub fn recommend(&self, samples: &[Vec<u8>]) -> (CompressorChoice, Vec<CandidateReport>) {
        let half = samples.len() / 2;
        let (train, test) = samples.split_at(half.max(1).min(samples.len()));
        let test = if test.is_empty() { train } else { test };

        let raw = RawCompressor;
        let tz = Tzstd::train(TzstdLevel(1), train);
        let tzd = Tzstd::train_with_dict(TzstdLevel(1), train);
        let pbc = Pbc::train(train, &PbcConfig::default());

        let raw_speed = throughput(&raw, test);
        let report = |choice, c: &dyn Compressor| CandidateReport {
            choice,
            ratio: measure_ratio(c, test),
            speed_fraction: throughput(c, test) / raw_speed.max(1e-9),
        };
        let reports = vec![
            report(CompressorChoice::Raw, &raw),
            report(CompressorChoice::Tzstd, &tz),
            report(CompressorChoice::TzstdDict, &tzd),
            report(CompressorChoice::Pbc, &pbc),
        ];

        let best = reports
            .iter()
            .filter(|r| {
                r.choice == CompressorChoice::Raw || r.speed_fraction >= self.min_speed_fraction
            })
            .min_by(|a, b| a.ratio.partial_cmp(&b.ratio).expect("ratio is finite"))
            .map(|r| r.choice)
            .unwrap_or(CompressorChoice::Raw);
        (best, reports)
    }
}

fn throughput(c: &dyn Compressor, samples: &[Vec<u8>]) -> f64 {
    let bytes: usize = samples.iter().map(|s| s.len()).sum();
    if bytes == 0 {
        return 1.0;
    }
    let start = Instant::now();
    for s in samples {
        std::hint::black_box(c.compress(s));
    }
    bytes as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// A trained compression unit: choice + compressor. It is never
/// retrained in place: values coded under it must keep decoding, so a
/// retrain builds a new unit.
pub struct PretrainedCompression {
    choice: CompressorChoice,
    compressor: Built,
}

/// A built compressor, kept concretely so its model serializes.
enum Built {
    Raw,
    Tzstd(Box<Tzstd>),
    Pbc(Pbc),
}

impl Built {
    fn as_compressor(&self) -> &dyn Compressor {
        match self {
            Built::Raw => &RawCompressor,
            Built::Tzstd(c) => c.as_ref(),
            Built::Pbc(p) => p,
        }
    }
}

impl PretrainedCompression {
    /// Trains the chosen compressor kind on `samples`.
    pub fn train(choice: CompressorChoice, samples: &[Vec<u8>], level: TzstdLevel) -> Self {
        let compressor = match choice {
            CompressorChoice::Raw => Built::Raw,
            CompressorChoice::Tzstd => Built::Tzstd(Box::new(Tzstd::train(level, samples))),
            CompressorChoice::TzstdDict => {
                Built::Tzstd(Box::new(Tzstd::train_with_dict(level, samples)))
            }
            CompressorChoice::Pbc => {
                let config = PbcConfig {
                    fallback_level: level,
                    ..PbcConfig::default()
                };
                Built::Pbc(Pbc::train(samples, &config))
            }
        };
        Self { choice, compressor }
    }

    /// The unit, self-describing: `choice u8 | f64 LE | model`, the
    /// model being the coder's payload ([`Tzstd::payload`] or
    /// [`PbcModel::to_bytes`]; none for `Raw`). The `f64` is written 0
    /// and read past: an earlier build kept a baseline ratio there.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![self.choice as u8];
        out.extend_from_slice(&0f64.to_le_bytes());
        match &self.compressor {
            Built::Raw => {}
            Built::Tzstd(c) => out.extend_from_slice(&c.payload()),
            Built::Pbc(p) => out.extend_from_slice(&p.model().to_bytes()),
        }
        out
    }

    /// Rebuilds a unit from [`Self::to_bytes`]. Arbitrary bytes are
    /// [`Error::Corruption`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let corrupt = || Error::Corruption("compression model truncated or unknown".into());
        let (&tag, rest) = bytes.split_first().ok_or_else(corrupt)?;
        let choice = CompressorChoice::ALL.get(usize::from(tag));
        let choice = *choice.ok_or_else(corrupt)?;
        let (_, model) = rest.split_first_chunk::<8>().ok_or_else(corrupt)?;
        let compressor = match choice {
            CompressorChoice::Raw if model.is_empty() => Built::Raw,
            CompressorChoice::Raw => return Err(corrupt()),
            CompressorChoice::Tzstd | CompressorChoice::TzstdDict => {
                Built::Tzstd(Box::new(Tzstd::from_payload(model)?))
            }
            CompressorChoice::Pbc => Built::Pbc(Pbc::new(Arc::new(PbcModel::from_bytes(model)?))),
        };
        Ok(Self { choice, compressor })
    }

    pub fn choice(&self) -> CompressorChoice {
        self.choice
    }

    pub fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(input, &mut out);
        out
    }

    /// [`Self::compress`], appending the compressed bytes to `out`: a
    /// tzstd model allocates nothing else.
    pub fn compress_into(&self, input: &[u8], out: &mut Vec<u8>) {
        match &self.compressor {
            Built::Tzstd(c) => c.compress_into(input, out),
            other => out.extend_from_slice(&other.as_compressor().compress(input)),
        }
    }

    pub fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.compressor.as_compressor().decompress(input)
    }

    /// [`Self::decompress`] into `out`, which it clears first: a tzstd
    /// model allocates nothing but `out`'s growth.
    pub fn decompress_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
        match &self.compressor {
            Built::Tzstd(c) => c.decompress_into(input, out),
            other => {
                let value = other.as_compressor().decompress(input)?;
                out.clear();
                out.extend_from_slice(&value);
                Ok(())
            }
        }
    }

    /// Heap bytes the unit holds: its model's tables, decoders and
    /// dictionary, or its patterns (none for `Raw`), and the unit.
    pub fn heap_bytes(&self) -> usize {
        let model = match &self.compressor {
            Built::Raw => 0,
            Built::Tzstd(c) => std::mem::size_of::<Tzstd>() + c.heap_bytes(),
            Built::Pbc(p) => std::mem::size_of::<PbcModel>() + p.model().heap_bytes(),
        };
        std::mem::size_of::<Self>() + model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn templated(n: usize, salt: u64) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "EVT|user={:016x}|act=click|page=/home|ts={}|END",
                    (i as u64).wrapping_mul(salt | 1),
                    1_700_000_000 + i
                )
                .into_bytes()
            })
            .collect()
    }

    #[test]
    fn recommender_prefers_trained_compressors_on_templated_data() {
        let samples = templated(120, 0x9e3779b9);
        let (choice, reports) = CompressorRecommender::default().recommend(&samples);
        assert!(
            matches!(choice, CompressorChoice::Pbc | CompressorChoice::TzstdDict),
            "expected a pre-trained choice, got {choice:?}: {reports:?}"
        );
        // Raw must report ratio 1.0.
        let raw = reports
            .iter()
            .find(|r| r.choice == CompressorChoice::Raw)
            .unwrap();
        assert_eq!(raw.ratio, 1.0);
    }

    #[test]
    fn pretrained_unit_roundtrips() {
        let samples = templated(80, 0x1234_5678);
        let unit =
            PretrainedCompression::train(CompressorChoice::TzstdDict, &samples, TzstdLevel(1));
        let rec = &samples[40];
        let z = unit.compress(rec);
        assert_eq!(&unit.decompress(&z).unwrap(), rec);
        assert!(z.len() < rec.len());
    }

    #[test]
    fn unit_bytes_rebuild_a_unit_that_decodes_its_values() {
        let samples = templated(80, 0x1111);
        for choice in CompressorChoice::ALL {
            let unit = PretrainedCompression::train(choice, &samples, TzstdLevel(1));
            let bytes = unit.to_bytes();
            let back = PretrainedCompression::from_bytes(&bytes).unwrap();
            assert_eq!(back.choice(), choice);
            assert_eq!(back.to_bytes(), bytes);
            for rec in &samples[60..] {
                assert_eq!(&back.decompress(&unit.compress(rec)).unwrap(), rec);
            }
            // An earlier build's file, a baseline ratio in the `f64`:
            // read past, and written back as 0.
            let mut earlier = bytes.clone();
            earlier[1..9].copy_from_slice(&0.42f64.to_le_bytes());
            let back = PretrainedCompression::from_bytes(&earlier).unwrap();
            assert_eq!(back.to_bytes(), bytes);
            // No model, or the `f64` cut short.
            for cut in [0, 1, 8] {
                assert!(matches!(
                    PretrainedCompression::from_bytes(&bytes[..cut]),
                    Err(Error::Corruption(_))
                ));
            }
        }
        let unknown = [&[4u8][..], &[0; 8]].concat();
        assert!(PretrainedCompression::from_bytes(&unknown).is_err());
    }

    #[test]
    fn pretrained_raw_choice_is_identity() {
        let unit = PretrainedCompression::train(CompressorChoice::Raw, &[], TzstdLevel(1));
        let z = unit.compress(b"abc");
        assert_eq!(z, b"abc");
        assert_eq!(unit.choice(), CompressorChoice::Raw);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A stored unit's bytes damaged every way a model file's body
        /// can be: arbitrary, cut short, one bit flipped, grown. `Ok`
        /// or `Corruption`, never a panic; a unit that opens round-trips
        /// a record.
        #[test]
        fn prop_from_bytes_is_ok_or_corruption(
            bytes in proptest::collection::vec(any::<u8>(), 0..700),
            choice in 0usize..4,
            cut in any::<usize>(),
            bit in any::<usize>(),
        ) {
            let samples = templated(48, 0x2222);
            let choice = CompressorChoice::ALL[choice];
            let good = PretrainedCompression::train(choice, &samples, TzstdLevel(1)).to_bytes();
            let mut flipped = good.clone();
            flipped[bit / 8 % good.len()] ^= 1 << (bit % 8);
            let grown = [&good[..], &bytes].concat();
            let tagged = [&[choice as u8][..], &bytes].concat();
            for stored in [&bytes[..], &tagged, &good[..cut % good.len()], &flipped, &grown] {
                match PretrainedCompression::from_bytes(stored) {
                    Ok(unit) => {
                        let rec = &samples[47];
                        prop_assert_eq!(&unit.decompress(&unit.compress(rec)).unwrap(), rec);
                    }
                    Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
                }
            }
        }
    }
}
