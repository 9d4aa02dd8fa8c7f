//! Space gate for the SSTable format and its block codecs, in tier-1.
//!
//! `tb-benchmark` reports `space_amp` @ `lsm-*` as the engine's
//! `disk_bytes()` per live user byte; this test pins that quotient
//! where `cargo test -q` fails, not the next benchmark run. It writes
//! the benchmark's data shape — Cities records under `user{i:012}`
//! keys — through an `LsmDb` with a 1 MiB memtable, so flushes and a
//! compaction build real multi-block tables, and checks that
//! `disk_bytes()` ÷ Σ(key + value) after `flush()` stays at or under a
//! ceiling per codec. A second key shape shares almost no prefix (16
//! hex digits of a multiplicative hash), so the table format is held to
//! never cost space on keys it cannot share. Then every record must
//! read back after a reopen, from the stored tables alone.

use tierbase::common::{test_dir, Key, KvEngine, Value};
use tierbase::compress::BlockCodec;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::workload::{CitiesDataset, Dataset};

const RECORDS: u64 = 24_000;

#[derive(Debug, Clone, Copy)]
enum Keys {
    /// `user{i:012}`: consecutive keys share ~13 of 16 bytes.
    Sequential,
    /// `{i × 0x9E3779B97F4A7C15:016x}`: sorted neighbours share ~1–2.
    Hashed,
}

impl Keys {
    fn key(self, i: u64) -> Key {
        match self {
            Keys::Sequential => Key::from(format!("user{i:012}")),
            Keys::Hashed => Key::from(format!("{:016x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
        }
    }
}

/// Ceilings on disk bytes per user byte, ~1.5 % above the readings.
/// Sequential keys read `none` 0.9155, `lz` 0.3725, `dict` 0.3871, and
/// hashed keys `lz` 0.4573. Before literals were coded under the byte
/// before them (with six split-out bytes) and code lengths were
/// limited by package-merge, `lz` read 0.3849 and 0.4728 and `dict`
/// 0.4044; without the dictionary an `lz` table cuts from its own
/// blocks, `lz` read 0.4102 and 0.4973.
const CEILINGS: [(BlockCodec, Keys, f64); 4] = [
    (BlockCodec::None, Keys::Sequential, 0.929),
    (BlockCodec::Lz, Keys::Sequential, 0.378),
    (BlockCodec::Dict, Keys::Sequential, 0.393),
    (BlockCodec::Lz, Keys::Hashed, 0.464),
];

#[test]
fn block_codecs_keep_their_compression_ratio_and_read_back() {
    let dataset = CitiesDataset::new(1);
    for (codec, keys, ceiling) in CEILINGS {
        let label = format!("{} on {keys:?} keys", codec.name());
        let dir = test_dir("tb-block-compression");
        let mut config = LsmConfig::new(dir.path());
        config.memtable_bytes = 1 << 20;
        config.sst.codec = codec;

        let db = LsmDb::open(config.clone()).unwrap();
        let mut expected: Vec<(Key, Value)> = (0..RECORDS)
            .map(|i| (keys.key(i), Value::from(dataset.record(i))))
            .collect();
        let mut user_bytes = 0u64;
        for (k, v) in &expected {
            user_bytes += (k.len() + v.len()) as u64;
            db.put(k.clone(), v.clone()).unwrap();
        }
        db.flush().unwrap();
        let stored = db.disk_bytes();
        let per_user_byte = stored as f64 / user_bytes as f64;
        assert!(
            per_user_byte <= ceiling,
            "{label}: {user_bytes} B of records took {stored} B on disk, \
             {per_user_byte:.4} per user byte > {ceiling}"
        );
        drop(db);

        // One scan reads every block once; the tables are all that
        // holds the records now (the memtable was flushed).
        let db = LsmDb::open(config).unwrap();
        let rows = db.scan(&Key::from(""), None, usize::MAX).unwrap();
        expected.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(rows.len(), expected.len(), "{label}");
        for (got, want) in rows.iter().zip(&expected) {
            assert_eq!(got, want, "{label}");
        }
    }
}
