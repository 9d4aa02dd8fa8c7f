//! Dictionary training for `tzstd` (the `zstd --train` analog): COVER,
//! after Liao, Petri, Moffat and Wirth, "Effective Construction of
//! Relative Lempel-Ziv Dictionaries" (WWW 2016), the algorithm behind
//! `zstd --train`.
//!
//! A dictionary is match history that records parse after, so it is
//! worth the strings of future records it holds. The trainer counts, for
//! every d-mer (a [`D`]-byte string) at every position of the samples,
//! how many samples hold it. It then picks [`K`]-byte segments: from each
//! of `max_size / K` epochs (runs of consecutive sample bytes), the
//! window inside one sample whose distinct d-mers, not yet covered by a
//! chosen segment, are held by the most samples. A chosen segment's
//! d-mers then score nothing, so later segments bring new strings, not
//! shifted copies of one. Passes over the epochs repeat until the budget
//! is full or no window scores. The segments are laid out lowest score
//! first: the best sit nearest the input, at the shortest (cheapest)
//! match distances.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::ops::Range;

/// Length of the strings a window is scored by. Shorter than the LZ
/// coder's useful matches, long enough that a shared d-mer is rarely
/// chance.
const D: usize = 6;
/// Length of a chosen segment: about one field of a templated record.
const K: usize = 32;
/// d-mer positions in a [`K`]-byte window.
const W: usize = K - D + 1;
/// Cap on samples examined.
const MAX_TRAIN_SAMPLES: usize = 4096;
/// Cap on sample bytes examined: 64 times a 4 KiB dictionary, which
/// bounds the counting tables at ~10 MiB (256 sample records of ~100 B
/// take ~1 MiB).
const MAX_TRAIN_BYTES: usize = 256 << 10;
/// Fewest samples that must hold a d-mer for it to score: rarer
/// strings recur too seldom to pay for their place in the dictionary.
const MIN_SAMPLES: u32 = 4;
/// A position whose sample ends before a whole d-mer.
const NONE: u32 = u32::MAX;

/// Trains a dictionary of at most `max_size` bytes from sample records:
/// the match history a `dict` table's blocks and a
/// [`crate::Tzstd::train_with_dict`] model's records parse after. The
/// same samples always give the same bytes.
pub fn train_dictionary(samples: &[Vec<u8>], max_size: usize) -> Vec<u8> {
    let samples = &samples[..samples.len().min(MAX_TRAIN_SAMPLES)];
    let mut cover = Cover::count(samples);
    let positions = cover.ids.len();
    if positions == 0 || max_size < D {
        return Vec::new();
    }
    let n = (max_size / K).clamp(1, positions);
    let size = positions.div_ceil(n);
    let mut epochs: Vec<Range<usize>> = (0..n)
        .map(|e| e * size..((e + 1) * size).min(positions))
        .collect();
    // (score, first byte, length): a segment's sample bytes, by
    // position over the samples laid end to end.
    let mut segments: Vec<(u64, usize, usize)> =
        Vec::with_capacity(max_size.min(positions) / D + 1);
    let mut used = 0;
    // An epoch whose best window scores nothing never scores again:
    // scores only fall. Each pass keeps the epochs that still score.
    while !epochs.is_empty() && used + D <= max_size {
        let mut kept = 0;
        for e in 0..epochs.len() {
            if used + D > max_size {
                break;
            }
            let Some((score, at, len)) = cover.take_best(epochs[e].clone()) else {
                continue;
            };
            let len = len.min(max_size - used);
            segments.push((score, at, len));
            used += len;
            epochs[kept] = epochs[e].clone();
            kept += 1;
        }
        epochs.truncate(kept);
    }
    segments.sort_by_key(|&(score, _, _)| score);
    let mut dict = Vec::with_capacity(used);
    for (_, at, len) in segments {
        let s = cover.starts.partition_point(|&start| start <= at) - 1;
        let from = at - cover.starts[s];
        dict.extend_from_slice(&samples[s][from..from + len]);
    }
    dict
}

/// The d-mer counts COVER scores windows by.
struct Cover {
    /// `starts[s]`: the position of sample `s`'s first byte; the last
    /// entry is the end of the samples examined.
    starts: Vec<usize>,
    /// `ids[p]`: the slot of the d-mer at position `p`, or [`NONE`].
    ids: Vec<u32>,
    /// Open-addressed table of d-mers: the key, the samples holding it
    /// (zeroed once a chosen segment covers it) and the last of them.
    /// Its hash is keyed afresh per training (`RandomState`): samples
    /// are stored values, which a fixed hash would let a client craft
    /// to collide. A slot only names a d-mer, so the output does not
    /// depend on the key.
    slots: Vec<Slot>,
    /// Per slot: how often its d-mer occurs in the window being slid.
    active: Vec<u8>,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    /// The d-mer's bytes, little-endian, with bit 63 set; 0 is empty.
    key: u64,
    freq: u32,
    last: u32,
}

impl Cover {
    /// Counts every d-mer of `samples`, each once per sample that holds
    /// it, up to [`MAX_TRAIN_BYTES`] of them. A d-mer fewer than
    /// [`MIN_SAMPLES`] hold scores nothing.
    fn count(samples: &[Vec<u8>]) -> Self {
        let mut starts = Vec::with_capacity(samples.len() + 1);
        let mut end = 0;
        for s in samples {
            starts.push(end);
            end = (end + s.len()).min(MAX_TRAIN_BYTES);
        }
        starts.push(end);
        let table = (2 * end).next_power_of_two().max(16);
        let mask = table - 1;
        let mut ids = vec![NONE; end];
        let mut slots = vec![Slot::default(); table];
        let keys = RandomState::new();
        for (s, sample) in samples.iter().enumerate() {
            let (from, to) = (starts[s], starts[s + 1]);
            let sample = &sample[..to - from];
            for (i, dmer) in sample.windows(D).enumerate() {
                let mut bytes = [0u8; 8];
                bytes[..D].copy_from_slice(dmer);
                let key = u64::from_le_bytes(bytes) | 1 << 63;
                let mut slot = keys.hash_one(key) as usize & mask;
                while slots[slot].key != 0 && slots[slot].key != key {
                    slot = (slot + 1) & mask;
                }
                let entry = &mut slots[slot];
                if entry.key == 0 {
                    *entry = Slot {
                        key,
                        freq: 1,
                        last: s as u32,
                    };
                } else if entry.last != s as u32 {
                    entry.freq += 1;
                    entry.last = s as u32;
                }
                ids[from + i] = slot as u32;
            }
        }
        for entry in &mut slots {
            if entry.freq < MIN_SAMPLES {
                entry.freq = 0;
            }
        }
        Self {
            starts,
            ids,
            slots,
            active: vec![0; table],
        }
    }

    fn freq(&self, p: usize) -> u64 {
        self.slot(p).map_or(0, |id| u64::from(self.slots[id].freq))
    }

    /// The best window of `epoch` that lies inside one sample, trimmed to
    /// its first and last scoring d-mer, as (score, first byte, length);
    /// its d-mers are then covered. `None` when no window scores.
    fn take_best(&mut self, epoch: Range<usize>) -> Option<(u64, usize, usize)> {
        let (mut best, mut begin, mut end) = (0, 0, 0);
        let first = self.starts.partition_point(|&start| start <= epoch.start) - 1;
        for s in first..self.starts.len() - 1 {
            let from = self.starts[s].max(epoch.start);
            if from >= epoch.end {
                break;
            }
            let to = self.starts[s + 1].min(epoch.end);
            let mut score = 0;
            let mut a = from;
            for p in from..to {
                if p - a == W {
                    score -= self.leave(a);
                    a += 1;
                }
                score += self.enter(p);
                if score > best {
                    (best, begin, end) = (score, a, p + 1);
                }
            }
            for q in a..to {
                self.leave(q);
            }
        }
        if best == 0 {
            return None;
        }
        let begin = (begin..end).find(|&p| self.freq(p) > 0)?;
        let last = (begin..end).rev().find(|&p| self.freq(p) > 0)?;
        for p in begin..=last {
            if let Some(id) = self.slot(p) {
                self.slots[id].freq = 0;
            }
        }
        Some((best, begin, last + D - begin))
    }

    fn slot(&self, p: usize) -> Option<usize> {
        (self.ids[p] != NONE).then_some(self.ids[p] as usize)
    }

    /// Adds position `p`'s d-mer to the window: its count if it is new
    /// there.
    fn enter(&mut self, p: usize) -> u64 {
        let Some(id) = self.slot(p) else { return 0 };
        self.active[id] += 1;
        if self.active[id] == 1 {
            u64::from(self.slots[id].freq)
        } else {
            0
        }
    }

    /// Takes position `p`'s d-mer out of the window: its count if the
    /// window then holds it no more.
    fn leave(&mut self, p: usize) -> u64 {
        let Some(id) = self.slot(p) else { return 0 };
        self.active[id] -= 1;
        if self.active[id] == 0 {
            u64::from(self.slots[id].freq)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// A reproducible pseudo-random byte stream.
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Records of words drawn from a vocabulary larger than `budget`.
    fn worded(records: usize, budget: usize) -> Vec<Vec<u8>> {
        let words: Vec<Vec<u8>> = (0..budget / 4).map(|w| bytes(w as u64 + 7, 12)).collect();
        let pick = bytes(99, records * 16);
        (0..records)
            .map(|r| {
                pick[r * 16..r * 16 + 16]
                    .chunks(2)
                    .flat_map(|b| {
                        let w = usize::from(u16::from_le_bytes([b[0], b[1]]));
                        words[w % words.len()].iter().copied()
                    })
                    .collect()
            })
            .collect()
    }

    /// Every byte of `dict` lies inside a [`D`]-byte window some sample
    /// holds: the dictionary is cut from the samples, nothing added.
    fn assert_cut_from(dict: &[u8], samples: &[Vec<u8>]) {
        let held = |w: &[u8]| samples.iter().any(|s| s.windows(D).any(|x| x == w));
        let mut covered = 0;
        for (i, w) in dict.windows(D).enumerate() {
            if held(w) {
                covered = i + D;
            } else {
                assert!(covered > i, "byte {i} of the dictionary is in no sample");
            }
        }
        assert!(
            covered >= dict.len(),
            "the dictionary's tail is in no sample"
        );
    }

    #[test]
    fn the_same_samples_give_the_same_bytes() {
        let samples = worded(300, 2048);
        let d = train_dictionary(&samples, 2048);
        assert!(!d.is_empty());
        // Each call keys its table's hash afresh.
        assert_eq!(d, train_dictionary(&samples, 2048));
        assert_eq!(d, train_dictionary(&samples.clone(), 2048));
    }

    #[test]
    fn short_samples_give_an_empty_dict() {
        let samples: Vec<Vec<u8>> = (0..100).map(|_| b"abcde".to_vec()).collect();
        assert!(train_dictionary(&samples, 1024).is_empty());
        assert!(train_dictionary(&[Vec::new(), Vec::new()], 1024).is_empty());
        assert!(train_dictionary(&worded(50, 512), D - 1).is_empty());
    }

    #[test]
    fn the_dictionary_is_cut_from_the_samples() {
        let samples = worded(200, 1024);
        let d = train_dictionary(&samples, 1024);
        assert!(d.len() <= 1024);
        assert_cut_from(&d, &samples);
    }

    #[test]
    fn a_repeated_template_is_taken_once() {
        let template = bytes(5, 100);
        let samples = vec![template.clone(); 64];
        let d = train_dictionary(&samples, 4096);
        for dmer in template.windows(D) {
            let copies = d.windows(D).filter(|w| w == &dmer).count();
            assert_eq!(copies, 1, "the dictionary holds {dmer:?} {copies} times");
        }
        // Segments meet at most D - 1 bytes apart in the template.
        let segments = (template.len() - D + 1).div_ceil(W);
        assert!(
            d.len() <= template.len() + segments * (D - 1),
            "{}",
            d.len()
        );
    }

    #[test]
    fn the_most_shared_segment_sits_nearest_the_input() {
        let (every, half) = (bytes(1, K), bytes(2, K));
        let samples: Vec<Vec<u8>> = (0..64)
            .map(|i| {
                let tail = if i % 2 == 0 {
                    half.clone()
                } else {
                    bytes(i + 100, K)
                };
                [every.clone(), tail].concat()
            })
            .collect();
        let d = train_dictionary(&samples, 4096);
        assert!(d.ends_with(&every), "{d:?}");
        assert!(d.windows(K).any(|w| w == half), "{d:?}");
    }

    #[test]
    fn the_budget_fills_when_the_samples_repeat_enough() {
        for budget in [256, 1024, 4096] {
            let d = train_dictionary(&worded(2000, budget), budget);
            assert!(
                d.len() > budget - D && d.len() <= budget,
                "{} of {budget} bytes",
                d.len()
            );
        }
    }

    proptest! {
        #[test]
        fn prop_dictionaries_are_bounded_deterministic_and_cut_from_the_samples(
            samples in proptest::collection::vec(
                proptest::collection::vec(b'a'..b'g', 0..80),
                0..40,
            ),
            max_size in 0usize..600,
        ) {
            let d = train_dictionary(&samples, max_size);
            prop_assert!(d.len() <= max_size);
            prop_assert_eq!(&d, &train_dictionary(&samples, max_size));
            assert_cut_from(&d, &samples);
        }
    }
}
