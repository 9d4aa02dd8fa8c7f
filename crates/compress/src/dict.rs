//! Dictionary training for `tzstd` (the `zstd --train` analog).
//!
//! The trainer scores fixed-length fragments of the sample set by
//! (frequency − 1) × length — the bytes an LZ match into the dictionary
//! would save — and greedily packs the best non-redundant fragments into
//! the dictionary budget. High-value fragments go at the *end* of the
//! dictionary so they sit at short match distances (cheap varints).

use crate::lz::TrainedDict;
use std::collections::HashMap;
use std::sync::Arc;

/// Fragment lengths considered during training.
const FRAGMENT_LENS: [usize; 3] = [8, 16, 32];
/// Cap on samples examined (training is offline; keep it bounded anyway).
const MAX_TRAIN_SAMPLES: usize = 4096;

/// Trains a dictionary of at most `max_size` bytes from sample records.
///
/// Returns an indexed [`TrainedDict`] ready to hand to
/// [`crate::Tzstd::with_dict`].
pub fn train_dictionary(samples: &[Vec<u8>], max_size: usize) -> Arc<TrainedDict> {
    Arc::new(TrainedDict::new(dictionary_bytes(samples, max_size)))
}

/// The bytes of [`train_dictionary`]'s dictionary, unindexed.
pub(crate) fn dictionary_bytes(samples: &[Vec<u8>], max_size: usize) -> Vec<u8> {
    let mut freq: HashMap<&[u8], u32> = HashMap::new();
    for s in samples.iter().take(MAX_TRAIN_SAMPLES) {
        for &flen in &FRAGMENT_LENS {
            if s.len() < flen {
                continue;
            }
            // Stride by half the fragment length: dense enough to catch
            // shared template pieces, sparse enough to stay fast.
            let stride = (flen / 2).max(1);
            let mut i = 0;
            while i + flen <= s.len() {
                *freq.entry(&s[i..i + flen]).or_insert(0) += 1;
                i += stride;
            }
        }
    }

    // Score: bytes saved if this fragment becomes a dictionary match.
    let mut scored: Vec<(&[u8], u64)> = freq
        .into_iter()
        .filter(|&(_, c)| c >= 2)
        .map(|(frag, c)| (frag, (c as u64 - 1) * frag.len() as u64))
        .collect();
    scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

    // Greedy pack, skipping fragments already covered by chosen content.
    let mut chosen: Vec<&[u8]> = Vec::new();
    let mut used = 0usize;
    for (frag, _) in scored {
        if used + frag.len() > max_size {
            continue;
        }
        if chosen.iter().any(|c| contains(c, frag)) {
            continue;
        }
        used += frag.len();
        chosen.push(frag);
        if used >= max_size {
            break;
        }
    }

    // Lowest-value fragments first → highest value nearest the end.
    let mut bytes = Vec::with_capacity(used);
    for frag in chosen.iter().rev() {
        bytes.extend_from_slice(frag);
    }
    bytes
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz::{Tzstd, TzstdLevel};
    use crate::{measure_ratio, Compressor};

    #[test]
    fn empty_samples_give_empty_dict() {
        let d = train_dictionary(&[], 1024);
        assert!(d.is_empty());
    }

    #[test]
    fn dict_respects_budget() {
        let samples: Vec<Vec<u8>> = (0..100)
            .map(|i| format!("record-{i}-common-suffix-shared-by-all-records").into_bytes())
            .collect();
        let d = train_dictionary(&samples, 256);
        assert!(d.len() <= 256, "dict size {}", d.len());
        assert!(!d.is_empty());
    }

    #[test]
    fn trained_dict_contains_shared_template() {
        let samples: Vec<Vec<u8>> = (0..50)
            .map(|i| {
                format!("{{\"type\":\"order\",\"status\":\"completed\",\"id\":{i}}}").into_bytes()
            })
            .collect();
        let d = train_dictionary(&samples, 1024);
        let dict_str = String::from_utf8_lossy(d.as_bytes()).into_owned();
        assert!(
            dict_str.contains("status") || dict_str.contains("completed"),
            "dictionary missed the shared template: {dict_str:?}"
        );
    }

    #[test]
    fn dict_training_improves_ratio_on_templated_records() {
        let samples: Vec<Vec<u8>> = (0..200)
            .map(|i| {
                format!(
                    "{{\"uid\":\"{:016x}\",\"device\":\"android\",\"region\":\"CN-ZJ\",\"ts\":{}}}",
                    i * 0x1234_5678_9abc_u64,
                    1_700_000_000 + i
                )
                .into_bytes()
            })
            .collect();
        let train = &samples[..100];
        let test: Vec<Vec<u8>> = samples[100..].to_vec();

        let plain = Tzstd::new(TzstdLevel(1));
        let d = train_dictionary(train, 4096);
        let trained = Tzstd::with_dict(TzstdLevel(1), d);

        let r_plain = measure_ratio(&plain, &test);
        let r_dict = measure_ratio(&trained, &test);
        assert!(
            r_dict < r_plain,
            "dict ratio {r_dict:.3} should beat plain {r_plain:.3}"
        );
    }

    #[test]
    fn roundtrip_with_trained_dict() {
        let samples: Vec<Vec<u8>> = (0..100)
            .map(|i| format!("TXN|v3|{:032x}|AMT:{}|CUR:CNY|END", i, i * 37).into_bytes())
            .collect();
        let d = train_dictionary(&samples, 2048);
        let c = Tzstd::with_dict(TzstdLevel(15), d);
        for s in &samples {
            let z = c.compress(s);
            assert_eq!(&c.decompress(&z).unwrap(), s);
        }
    }
}
