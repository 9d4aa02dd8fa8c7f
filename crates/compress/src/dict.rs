//! Dictionary training for `tzstd` (the `zstd --train` analog).
//!
//! The trainer scores fixed-length fragments of the sample set by
//! (frequency − 1) × length — the bytes an LZ match into the dictionary
//! would save — and greedily packs the best non-redundant fragments into
//! the dictionary budget. High-value fragments go at the *end* of the
//! dictionary so they sit at short match distances (cheap varints).

use std::collections::HashMap;

/// Fragment lengths considered during training.
const FRAGMENT_LENS: [usize; 3] = [8, 16, 32];
/// Cap on samples examined (training is offline; keep it bounded anyway).
const MAX_TRAIN_SAMPLES: usize = 4096;

/// Trains a dictionary of at most `max_size` bytes from sample records:
/// the match history a `dict` table's blocks and a
/// [`crate::Tzstd::train_with_dict`] model's records parse after.
pub fn train_dictionary(samples: &[Vec<u8>], max_size: usize) -> Vec<u8> {
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

    #[test]
    fn empty_samples_give_empty_dict() {
        assert!(train_dictionary(&[], 1024).is_empty());
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
        let dict_str = String::from_utf8_lossy(&d).into_owned();
        assert!(
            dict_str.contains("status") || dict_str.contains("completed"),
            "dictionary missed the shared template: {dict_str:?}"
        );
    }
}
