//! PBC — Pattern-Based Compression (§4.2, ref [59]).
//!
//! Machine-generated records usually instantiate a small number of rigid
//! *templates*: fixed field names, separators and enum values with
//! high-entropy identifiers in between. PBC discovers those templates
//! offline and stores each record as a pattern id plus the bytes in the
//! template's gaps.
//!
//! **Training** (`PbcModel::train`):
//! 1. tokenize sampled records into character-class runs,
//! 2. agglomeratively cluster samples under a gap-weighted similarity
//!    metric (token-level LCS length normalized by record length),
//! 3. fold the token-LCS across each cluster to get the common token
//!    subsequence, joining tokens that are adjacent in every member into
//!    longer literal anchors.
//!
//! **Compression**: greedily locate each pattern literal in order; emit
//! `pattern id + gap residuals`. Records matching no pattern fall back to
//! a `tzstd` coder trained on the same samples, with their dictionary.
//! **Decompression** is a sequence of memcpys — literals from the pattern,
//! gaps from the payload — which is why PBC GET throughput approaches raw
//! (Table 2).

use crate::lz::{Tzstd, TzstdLevel};
use crate::Compressor;
use std::sync::Arc;
use tb_common::{read_varint, write_varint, Error, Result};

/// First byte of [`PbcModel::to_bytes`]: the layout whose fallback is
/// a trained `tzstd` coder's payload with escape-coded entropy tables.
/// `0xb1` named the same layout with the earlier 128-byte tables; the
/// layout before that began with the pattern count, and no count under
/// 128 (`max_patterns` is 64) is written as this byte.
const MODEL_FORMAT: u8 = 0xb2;

/// Record tag: tzstd fallback (no pattern matched).
const TAG_FALLBACK: u8 = 0;
/// Record tag: pattern match with plain residuals.
const TAG_PATTERN: u8 = 1;
/// Record tag: pattern match with tzstd-compressed residual blob
/// (the paper's "residual strings are then compressed further").
const TAG_PATTERN_LZ: u8 = 2;

/// Training knobs.
#[derive(Debug, Clone)]
pub struct PbcConfig {
    /// Upper bound on retained patterns.
    pub max_patterns: usize,
    /// Records participating in clustering (quadratic phase).
    pub max_cluster_samples: usize,
    /// Minimum similarity for two records to share a cluster.
    pub similarity_threshold: f64,
    /// A pattern must cover at least this many literal bytes to be kept.
    pub min_pattern_bytes: usize,
    /// Minimum cluster size generating a pattern.
    pub min_cluster_size: usize,
    /// Level of the tzstd fallback used for unmatched records.
    pub fallback_level: TzstdLevel,
}

impl Default for PbcConfig {
    fn default() -> Self {
        Self {
            max_patterns: 64,
            max_cluster_samples: 128,
            similarity_threshold: 0.35,
            min_pattern_bytes: 12,
            min_cluster_size: 2,
            fallback_level: TzstdLevel(1),
        }
    }
}

/// A discovered template: literal anchors with wildcard gaps between,
/// before, and after them (`gap lit gap lit ... lit gap`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    literals: Vec<Vec<u8>>,
}

impl Pattern {
    /// Total bytes covered when the pattern matches.
    fn literal_bytes(&self) -> usize {
        self.literals.iter().map(|l| l.len()).sum()
    }

    /// Greedy in-order match. Returns the gap residuals
    /// (`literals.len() + 1` pieces) when every literal is found.
    fn match_record<'a>(&self, record: &'a [u8]) -> Option<Vec<&'a [u8]>> {
        let mut gaps = Vec::with_capacity(self.literals.len() + 1);
        let mut pos = 0usize;
        for lit in &self.literals {
            let found = find(&record[pos..], lit)?;
            gaps.push(&record[pos..pos + found]);
            pos += found + lit.len();
        }
        gaps.push(&record[pos..]);
        Some(gaps)
    }

    /// Reassembles a record from its gap lengths and the gaps' bytes,
    /// one after another in `blob`.
    fn reconstruct(&self, lens: &[u64], mut blob: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.literal_bytes() + blob.len());
        let literals = self.literals.iter().map(Vec::as_slice).chain([&[][..]]);
        for (&len, lit) in lens.iter().zip(literals) {
            let (gap, rest) = usize::try_from(len)
                .ok()
                .and_then(|n| blob.split_at_checked(n))
                .ok_or_else(|| Error::Corruption("PBC gaps overrun their residuals".into()))?;
            out.extend_from_slice(gap);
            out.extend_from_slice(lit);
            blob = rest;
        }
        if !blob.is_empty() {
            return Err(Error::Corruption("PBC residuals outlast their gaps".into()));
        }
        Ok(out)
    }
}

/// Byte-level substring search (memmem).
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    if needle.len() > haystack.len() {
        return None;
    }
    let first = needle[0];
    let mut i = 0;
    while i + needle.len() <= haystack.len() {
        if haystack[i] == first && &haystack[i..i + needle.len()] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------
// Tokenization
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CharClass {
    Alpha,
    Digit,
    Other,
}

fn class_of(b: u8) -> CharClass {
    match b {
        b'a'..=b'z' | b'A'..=b'Z' => CharClass::Alpha,
        b'0'..=b'9' => CharClass::Digit,
        _ => CharClass::Other,
    }
}

/// Splits a record into maximal same-class runs.
fn tokenize(record: &[u8]) -> Vec<&[u8]> {
    let mut tokens = Vec::new();
    let mut start = 0usize;
    for i in 1..=record.len() {
        if i == record.len() || class_of(record[i]) != class_of(record[start]) {
            tokens.push(&record[start..i]);
            start = i;
        }
    }
    tokens
}

/// Token-level LCS; returns the common subsequence of token values.
fn token_lcs<'a>(a: &[&'a [u8]], b: &[&[u8]]) -> Vec<&'a [u8]> {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return vec![];
    }
    // Weighted by token byte length so long anchors win ties.
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[idx(i, j)] = if a[i] == b[j] {
                dp[idx(i + 1, j + 1)] + a[i].len() as u32
            } else {
                dp[idx(i + 1, j)].max(dp[idx(i, j + 1)])
            };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        if a[i] == b[j] && dp[idx(i, j)] == dp[idx(i + 1, j + 1)] + a[i].len() as u32 {
            out.push(a[i]);
            i += 1;
            j += 1;
        } else if dp[idx(i + 1, j)] >= dp[idx(i, j + 1)] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Gap-weighted similarity: shared anchor bytes over mean record length.
fn similarity(a: &[u8], b: &[u8]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let ta = tokenize(a);
    let tb = tokenize(b);
    let common: usize = token_lcs(&ta, &tb).iter().map(|t| t.len()).sum();
    2.0 * common as f64 / (a.len() + b.len()) as f64
}

// ---------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------

/// A trained PBC model: the pattern table plus the tzstd fallback.
pub struct PbcModel {
    patterns: Vec<Pattern>,
    fallback: Tzstd,
}

impl PbcModel {
    /// Heap bytes held: the patterns' literals and the fallback coder.
    pub fn heap_bytes(&self) -> usize {
        let literals: usize = self
            .patterns
            .iter()
            .map(|p| {
                p.literals.capacity() * std::mem::size_of::<Vec<u8>>()
                    + p.literals.iter().map(Vec::capacity).sum::<usize>()
            })
            .sum();
        self.patterns.capacity() * std::mem::size_of::<Pattern>()
            + literals
            + self.fallback.heap_bytes()
    }

    /// Trains a model from sample records (offline pre-training phase).
    pub fn train(samples: &[Vec<u8>], config: &PbcConfig) -> Self {
        Self::train_for(samples, &[], config)
    }

    /// [`Self::train`], the fallback's entropy tables also trained on
    /// `whole`, inputs it will code whole though `samples` do not show
    /// them (an SSTable's blocks).
    pub(crate) fn train_for(samples: &[Vec<u8>], whole: &[&[u8]], config: &PbcConfig) -> Self {
        let sample_refs: Vec<&[u8]> = samples
            .iter()
            .take(config.max_cluster_samples)
            .map(|s| s.as_slice())
            .collect();
        let clusters = cluster(&sample_refs, config.similarity_threshold);
        let mut patterns = Vec::new();
        for members in clusters {
            if members.len() < config.min_cluster_size {
                continue;
            }
            if let Some(p) = extract_pattern(&sample_refs, &members) {
                if p.literal_bytes() >= config.min_pattern_bytes {
                    patterns.push(p);
                }
            }
            if patterns.len() >= config.max_patterns {
                break;
            }
        }
        // Prefer high-coverage patterns when compressing.
        patterns.sort_by_key(|p| std::cmp::Reverse(p.literal_bytes()));

        // Residuals and fallback records still benefit from a small
        // dictionary and entropy tables trained on the samples. The
        // tables also learn each sample's residuals under the first
        // pattern that matches it (as `compress` tries them): without
        // them, residual bytes, which follow other bytes there than in
        // a record, would escape.
        let residuals: Vec<Vec<u8>> = samples
            .iter()
            .filter_map(|s| {
                let mut fitting = patterns.iter().filter(|p| p.literal_bytes() < s.len());
                fitting
                    .find_map(|p| p.match_record(s))
                    .map(|gaps| gaps.concat())
            })
            .collect();
        let more: Vec<&[u8]> = residuals
            .iter()
            .map(Vec::as_slice)
            .chain(whole.iter().copied())
            .collect();
        let fallback = Tzstd::train_with_dict_also_on(config.fallback_level, samples, &more);
        Self { patterns, fallback }
    }

    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Serializes the trained model — [`MODEL_FORMAT`], the pattern
    /// table in order (records reference patterns by index), then the
    /// fallback coder's payload — so it can be stored as a table-level
    /// dictionary payload and rebuilt by [`PbcModel::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![MODEL_FORMAT];
        write_varint(&mut out, self.patterns.len() as u64);
        for p in &self.patterns {
            write_varint(&mut out, p.literals.len() as u64);
            for lit in &p.literals {
                write_varint(&mut out, lit.len() as u64);
                out.extend_from_slice(lit);
            }
        }
        out.extend_from_slice(&self.fallback.payload());
        out
    }

    /// Rebuilds a model serialized by [`PbcModel::to_bytes`]. Every
    /// malformed input is an [`Error::Corruption`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let truncated = || Error::Corruption("PBC model truncated".into());
        if bytes.first() != Some(&MODEL_FORMAT) {
            return Err(Error::Corruption("not a PBC model of this format".into()));
        }
        let mut pos = 1;
        // A count or length past the model's size is refused before it
        // sizes anything.
        let len = |pos: &mut usize| {
            read_varint(bytes, pos)
                .ok()
                .and_then(|n| usize::try_from(n).ok())
                .filter(|&n| n <= bytes.len())
                .ok_or_else(truncated)
        };
        let mut patterns = Vec::new();
        for _ in 0..len(&mut pos)? {
            let mut literals = Vec::new();
            for _ in 0..len(&mut pos)? {
                let n = len(&mut pos)?;
                literals.push(bytes.get(pos..pos + n).ok_or_else(truncated)?.to_vec());
                pos += n;
            }
            patterns.push(Pattern { literals });
        }
        let fallback = Tzstd::from_payload(&bytes[pos..])?;
        Ok(Self { patterns, fallback })
    }
}

/// Agglomerative (complete-linkage) clustering over the sample indices.
fn cluster(samples: &[&[u8]], threshold: f64) -> Vec<Vec<usize>> {
    let n = samples.len();
    if n == 0 {
        return vec![];
    }
    // Pairwise similarity matrix.
    let mut sim = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let s = similarity(samples[i], samples[j]);
            sim[i * n + j] = s;
            sim[j * n + i] = s;
        }
    }
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    loop {
        // Find the closest pair of clusters under complete linkage.
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..clusters.len() {
            for b in (a + 1)..clusters.len() {
                let mut link = f64::INFINITY;
                for &i in &clusters[a] {
                    for &j in &clusters[b] {
                        link = link.min(sim[i * n + j]);
                    }
                }
                if best.map(|(_, _, s)| link > s).unwrap_or(true) {
                    best = Some((a, b, link));
                }
            }
        }
        match best {
            Some((a, b, s)) if s >= threshold => {
                // a < b, so removing b leaves index a valid.
                let merged = clusters.swap_remove(b);
                clusters[a].extend(merged);
            }
            _ => break,
        }
    }
    clusters
}

/// Folds the token-LCS across cluster members and joins always-adjacent
/// tokens into maximal literal anchors.
fn extract_pattern(samples: &[&[u8]], members: &[usize]) -> Option<Pattern> {
    let token_seqs: Vec<Vec<&[u8]>> = members.iter().map(|&i| tokenize(samples[i])).collect();
    let mut common: Vec<&[u8]> = token_seqs[0].clone();
    for seq in token_seqs.iter().skip(1) {
        common = token_lcs(&common, seq);
    }
    if common.is_empty() {
        return None;
    }

    // adjacency[k] == true ⇔ common[k] and common[k+1] are contiguous in
    // every member record.
    let mut adjacency = vec![true; common.len().saturating_sub(1)];
    for &i in members {
        let rec = samples[i];
        // Greedy in-order byte search mirrors compress-time matching.
        let mut pos = 0usize;
        let mut ends = Vec::with_capacity(common.len());
        for tok in &common {
            match find(&rec[pos..], tok) {
                Some(off) => {
                    let start = pos + off;
                    adjacency_mark(&mut adjacency, &ends, start);
                    ends.push(start + tok.len());
                    pos = start + tok.len();
                }
                None => return None, // LCS token must occur; bail defensively
            }
        }
    }

    let mut literals = Vec::new();
    let mut cur: Vec<u8> = common[0].to_vec();
    for k in 1..common.len() {
        if adjacency[k - 1] {
            cur.extend_from_slice(common[k]);
        } else {
            literals.push(std::mem::take(&mut cur));
            cur = common[k].to_vec();
        }
    }
    literals.push(cur);
    Some(Pattern { literals })
}

fn adjacency_mark(adjacency: &mut [bool], ends: &[usize], start: usize) {
    if let Some(&prev_end) = ends.last() {
        let k = ends.len() - 1;
        if prev_end != start {
            adjacency[k] = false;
        }
    }
}

// ---------------------------------------------------------------------
// Compressor
// ---------------------------------------------------------------------

/// The PBC compressor: a trained model.
pub struct Pbc {
    model: Arc<PbcModel>,
}

impl Pbc {
    pub fn new(model: Arc<PbcModel>) -> Self {
        Self { model }
    }

    /// Convenience: train + build in one call.
    pub fn train(samples: &[Vec<u8>], config: &PbcConfig) -> Self {
        Self::new(Arc::new(PbcModel::train(samples, config)))
    }

    pub fn model(&self) -> &Arc<PbcModel> {
        &self.model
    }
}

impl Compressor for Pbc {
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        // Best pattern = most literal bytes covered (patterns are sorted
        // by coverage, so first full match wins).
        for (id, p) in self.model.patterns.iter().enumerate() {
            if p.literal_bytes() >= input.len() {
                continue; // cannot possibly help
            }
            if let Some(gaps) = p.match_record(input) {
                let mut out = vec![TAG_PATTERN];
                write_varint(&mut out, id as u64);
                for g in &gaps {
                    write_varint(&mut out, g.len() as u64);
                }
                // Residuals are compressed further when that actually
                // saves bytes; otherwise kept plain (fast GET path).
                let blob = gaps.concat();
                let lz_blob = self.model.fallback.compress(&blob);
                if lz_blob.len() + 4 < blob.len() {
                    out[0] = TAG_PATTERN_LZ;
                    out.extend_from_slice(&lz_blob);
                } else {
                    out.extend_from_slice(&blob);
                }
                if out.len() < input.len() {
                    return out;
                }
            }
        }
        [&[TAG_FALLBACK][..], &self.model.fallback.compress(input)].concat()
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let (&tag, rest) = input
            .split_first()
            .ok_or_else(|| Error::Corruption("empty PBC record".into()))?;
        match tag {
            TAG_FALLBACK => self.model.fallback.decompress(rest),
            TAG_PATTERN | TAG_PATTERN_LZ => {
                let mut pos = 0;
                let id = read_varint(rest, &mut pos)?;
                let pattern = usize::try_from(id)
                    .ok()
                    .and_then(|id| self.model.patterns.get(id))
                    .ok_or_else(|| Error::Corruption(format!("unknown pattern id {id}")))?;
                let lens = (0..=pattern.literals.len())
                    .map(|_| read_varint(rest, &mut pos))
                    .collect::<Result<Vec<_>>>()?;
                match tag {
                    TAG_PATTERN_LZ => {
                        pattern.reconstruct(&lens, &self.model.fallback.decompress(&rest[pos..])?)
                    }
                    _ => pattern.reconstruct(&lens, &rest[pos..]),
                }
            }
            other => Err(Error::Corruption(format!("bad PBC tag {other}"))),
        }
    }

    fn name(&self) -> &'static str {
        "pbc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_ratio;
    use proptest::prelude::*;

    fn kv_samples(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "TXN|v3|{:032x}|AMT:{}|CUR:CNY|CH:alipay|ST:OK|SIG:{:040x}|END",
                    (i as u64) * 0x1357_9bdf,
                    i * 31 % 10_000_000,
                    (i as u64) * 0x0246_8ace,
                )
                .into_bytes()
            })
            .collect()
    }

    /// How many of `records` `pbc` codes under the fallback tag: the
    /// records no pattern matched.
    fn fallbacks(pbc: &Pbc, records: &[Vec<u8>]) -> usize {
        records
            .iter()
            .filter(|r| pbc.compress(r)[0] == TAG_FALLBACK)
            .count()
    }

    #[test]
    fn tokenize_splits_class_runs() {
        let t = tokenize(b"abc123!!x");
        let vals: Vec<&[u8]> = vec![b"abc", b"123", b"!!", b"x"];
        assert_eq!(t, vals);
        assert!(tokenize(b"").is_empty());
    }

    #[test]
    fn token_lcs_finds_shared_template() {
        let a = tokenize(b"user=123;dev=ios");
        let b = tokenize(b"user=987;dev=android");
        let lcs = token_lcs(&a, &b);
        let joined: Vec<u8> = lcs.concat();
        let s = String::from_utf8(joined).unwrap();
        assert!(s.contains("user"));
        assert!(s.contains("dev"));
    }

    #[test]
    fn similarity_reflects_structure() {
        let a = b"TXN|v3|aaaa|AMT:100|END";
        let b = b"TXN|v3|bbbb|AMT:999|END";
        let c = b"completely unrelated text here";
        assert!(similarity(a, b) > 0.5);
        assert!(similarity(a, c) < 0.3);
        assert_eq!(similarity(b"", b""), 1.0);
    }

    #[test]
    fn training_discovers_patterns() {
        let samples = kv_samples(64);
        let model = PbcModel::train(&samples, &PbcConfig::default());
        assert!(model.pattern_count() >= 1, "no patterns learned");
        let p = &model.patterns[0];
        assert!(
            p.literal_bytes() >= 20,
            "template too small: {} bytes",
            p.literal_bytes()
        );
    }

    #[test]
    fn pbc_roundtrips_matching_records() {
        let samples = kv_samples(64);
        let pbc = Pbc::train(&samples, &PbcConfig::default());
        // Fresh records from the same generator (not in the train set).
        for i in 100..140 {
            let rec = &kv_samples(i + 1)[i];
            let z = pbc.compress(rec);
            assert_eq!(&pbc.decompress(&z).unwrap(), rec);
        }
    }

    #[test]
    fn pbc_beats_plain_lz_on_templated_records() {
        let samples = kv_samples(64);
        let test = kv_samples(200)[100..].to_vec();
        let pbc = Pbc::train(&samples, &PbcConfig::default());
        let lz = Tzstd::train(TzstdLevel(1), &samples);
        let r_pbc = measure_ratio(&pbc, &test);
        let r_lz = measure_ratio(&lz, &test);
        assert!(
            r_pbc < r_lz,
            "PBC {r_pbc:.3} should beat plain LZ {r_lz:.3} on templated data"
        );
        let unmatched = fallbacks(&pbc, &test);
        assert!(
            unmatched * 5 < test.len(),
            "{unmatched} of {} unmatched",
            test.len()
        );
    }

    #[test]
    fn unmatched_records_fall_back() {
        let samples = kv_samples(32);
        let pbc = Pbc::train(&samples, &PbcConfig::default());
        let alien = b"<<<completely different record shape 0x00>>>".to_vec();
        let z = pbc.compress(&alien);
        assert_eq!(pbc.decompress(&z).unwrap(), alien);
        assert_eq!(fallbacks(&pbc, &[alien]), 1);
    }

    #[test]
    fn empty_and_tiny_records() {
        let pbc = Pbc::train(&kv_samples(16), &PbcConfig::default());
        for rec in [&b""[..], b"x", b"ab"] {
            let z = pbc.compress(rec);
            assert_eq!(pbc.decompress(&z).unwrap(), rec);
        }
    }

    #[test]
    fn corrupted_pbc_is_error_not_panic() {
        let pbc = Pbc::train(&kv_samples(32), &PbcConfig::default());
        let z = pbc.compress(&kv_samples(40)[35]);
        for i in 0..z.len().min(32) {
            let mut bad = z.clone();
            bad[i] = bad[i].wrapping_add(17);
            let _ = pbc.decompress(&bad); // must not panic
        }
        assert!(pbc.decompress(&[]).is_err());
        assert!(pbc.decompress(&[9, 9, 9]).is_err());
    }

    #[test]
    fn pattern_reconstruct_inverts_match() {
        let p = Pattern {
            literals: vec![b"AB".to_vec(), b"CD".to_vec()],
        };
        let rec = b"xxAByyCDzz";
        let gaps = p.match_record(rec).unwrap();
        let lens: Vec<u64> = gaps.iter().map(|g| g.len() as u64).collect();
        assert_eq!(p.reconstruct(&lens, &gaps.concat()).unwrap(), rec);
        assert!(p.reconstruct(&lens, b"xxyyz").is_err());
        assert!(p.reconstruct(&lens, b"xxyyzzz").is_err());
    }

    #[test]
    fn model_serialization_roundtrips() {
        let samples = kv_samples(64);
        let model = PbcModel::train(&samples, &PbcConfig::default());
        let bytes = model.to_bytes();
        let back = PbcModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.patterns, model.patterns, "pattern order must survive");
        assert_eq!(back.to_bytes(), bytes);
        // Records compressed by the original decode under the revived
        // model (pattern ids reference positions).
        let pbc = Pbc::new(Arc::new(model));
        let revived = Pbc::new(Arc::new(back));
        for rec in kv_samples(120).iter().skip(100) {
            let z = pbc.compress(rec);
            assert_eq!(&revived.decompress(&z).unwrap(), rec);
        }
    }

    #[test]
    fn malformed_model_bytes_are_errors_not_panics() {
        let model = PbcModel::train(&kv_samples(32), &PbcConfig::default());
        let bytes = model.to_bytes();
        assert!(PbcModel::from_bytes(&[]).is_err());
        assert!(PbcModel::from_bytes(&[0xff; 3]).is_err());
        for cut in 0..bytes.len().min(64) {
            let _ = PbcModel::from_bytes(&bytes[..cut]); // must not panic
        }
        // The fallback coder's dictionary runs to the end: grown past
        // its bound, it is refused.
        let grown = [&bytes[..], &[0; crate::block::MAX_DICT_BYTES + 1]].concat();
        assert!(PbcModel::from_bytes(&grown).is_err());
    }

    #[test]
    fn model_of_the_previous_layout_is_corruption() {
        // One pattern of one literal, "abc"; fallback level 1 and an
        // empty dictionary: what a pbc table written before the format
        // byte carries.
        let previous = [1, 1, 3, b'a', b'b', b'c', 1, 0, 0, 0, 0];
        assert!(matches!(
            PbcModel::from_bytes(&previous),
            Err(Error::Corruption(_))
        ));
        let trained = PbcModel::train(&kv_samples(32), &PbcConfig::default()).to_bytes();
        assert!(matches!(
            PbcModel::from_bytes(&trained[1..]),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn fallback_tables_learn_the_residuals_they_code() {
        // The same patterns, the fallback trained on the samples alone:
        // residual bytes follow other bytes than in a whole record, so
        // more of them escape and the matched records grow.
        let samples = kv_samples(48);
        let model = PbcModel::train(&samples, &PbcConfig::default());
        assert!(model.pattern_count() > 0);
        let samples_only = PbcModel {
            patterns: model.patterns.clone(),
            fallback: Tzstd::train_with_dict(TzstdLevel(1), &samples),
        };
        let total = |model: PbcModel| {
            let pbc = Pbc::new(Arc::new(model));
            let records = &kv_samples(300)[100..];
            assert_eq!(fallbacks(&pbc, records), 0);
            records.iter().map(|r| pbc.compress(r).len()).sum::<usize>()
        };
        let (with, without) = (total(model), total(samples_only));
        assert!(with < without, "{with} !< {without}");
    }

    #[test]
    fn model_with_the_previous_fallback_tables_is_corruption() {
        // Format byte 0xb1 and one pattern of one literal, "abc", then a
        // level-1 tzstd payload of sixteen 128-byte tables (every code 8
        // bits) and six split-out bytes: what a model written before the
        // escape code carries. Under this format byte too, its tables
        // are refused.
        let fallback = [
            &1i32.to_le_bytes()[..],
            &[0x88; 16 * 128],
            &[0, 1, 2, 3, 4, 5],
        ]
        .concat();
        let previous = [&[0xb1, 1, 1, 3, b'a', b'b', b'c'][..], &fallback].concat();
        let reformatted = [&[MODEL_FORMAT][..], &previous[1..]].concat();
        for bytes in [previous, reformatted] {
            assert!(matches!(
                PbcModel::from_bytes(&bytes),
                Err(Error::Corruption(_))
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_pbc_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..600)) {
            let pbc = Pbc::train(&kv_samples(24), &PbcConfig::default());
            let z = pbc.compress(&data);
            prop_assert_eq!(pbc.decompress(&z).unwrap(), data);
        }

        #[test]
        fn prop_pbc_roundtrip_templated(ids in proptest::collection::vec(0u64..1_000_000, 1..20)) {
            let pbc = Pbc::train(&kv_samples(48), &PbcConfig::default());
            for id in ids {
                let rec = format!(
                    "TXN|v3|{id:032x}|AMT:{}|CUR:CNY|CH:alipay|ST:OK|SIG:{:040x}|END",
                    id % 7_777_777, id
                ).into_bytes();
                let z = pbc.compress(&rec);
                prop_assert_eq!(pbc.decompress(&z).unwrap(), rec);
            }
        }

        /// A stored model's bytes damaged — arbitrary, cut short, one
        /// bit flipped (patterns or fallback coder), grown — are `Ok`
        /// or `Corruption`, never a panic; a model that opens
        /// round-trips matching and fallback records.
        #[test]
        fn prop_from_bytes_is_ok_or_corruption(
            bytes in proptest::collection::vec(any::<u8>(), 0..700),
            cut in any::<usize>(),
            bit in any::<usize>(),
        ) {
            let good = PbcModel::train(&kv_samples(24), &PbcConfig::default()).to_bytes();
            let mut flipped = good.clone();
            flipped[bit / 8 % good.len()] ^= 1 << (bit % 8);
            let grown = [&good[..], &bytes].concat();
            let formatted = [&[MODEL_FORMAT][..], &bytes].concat();
            for payload in [&bytes[..], &formatted, &good[..cut % good.len()], &flipped, &grown] {
                match PbcModel::from_bytes(payload) {
                    Ok(model) => {
                        let pbc = Pbc::new(Arc::new(model));
                        for rec in [&kv_samples(30)[29][..], b"<<no pattern here>>"] {
                            prop_assert_eq!(pbc.decompress(&pbc.compress(rec)).unwrap(), rec);
                        }
                    }
                    Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
                }
            }
        }
    }
}
