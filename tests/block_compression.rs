//! Space gate for the `lz`/`dict` block codecs, in tier-1.
//!
//! `tb-benchmark` reports `space_amp` and `lsm.compress_ratio` from the
//! same `LsmStats` counters; this test pins the ratio where `cargo test
//! -q` fails, not the next benchmark run. It writes the benchmark's data
//! shape — Cities records under `user{i:012}` keys — through an
//! `LsmDb` with a 1 MiB memtable, so flushes and a compaction build
//! real multi-block tables, and checks that uncompressed bytes per
//! on-disk data-region byte stay at or above a floor per codec. Then
//! every record must read back after a reopen, from the stored tables
//! alone.

use std::sync::atomic::Ordering;
use tierbase::common::{test_dir, Key, Value};
use tierbase::compress::BlockCodec;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::workload::{CitiesDataset, Dataset};

const RECORDS: u64 = 24_000;

/// Floors sit ~4 % under what the context-split entropy stage reaches
/// on this data (lz 2.505, dict 2.532); one control and one literal
/// table read 2.178 and 2.202.
const FLOORS: [(BlockCodec, f64); 2] = [(BlockCodec::Lz, 2.40), (BlockCodec::Dict, 2.42)];

fn key(i: u64) -> Key {
    Key::from(format!("user{i:012}"))
}

#[test]
fn block_codecs_keep_their_compression_ratio_and_read_back() {
    let dataset = CitiesDataset::new(1);
    for (codec, floor) in FLOORS {
        let dir = test_dir("tb-block-compression");
        let mut config = LsmConfig::new(dir.path());
        config.memtable_bytes = 1 << 20;
        config.sst.codec = codec;

        let db = LsmDb::open(config.clone()).unwrap();
        for i in 0..RECORDS {
            db.put(key(i), Value::from(dataset.record(i))).unwrap();
        }
        db.flush().unwrap();
        let raw = db.stats.uncompressed_bytes_written.load(Ordering::Relaxed);
        let stored = db.stats.compressed_bytes_written.load(Ordering::Relaxed);
        let ratio = raw as f64 / stored as f64;
        assert!(
            ratio >= floor,
            "{}: {raw} B of blocks took {stored} B on disk, ratio {ratio:.3} < {floor}",
            codec.name()
        );
        drop(db);

        // One scan reads every block once; the data region is all that
        // holds the records now (the memtable was flushed).
        let db = LsmDb::open(config).unwrap();
        let rows = db.scan(&key(0), None, usize::MAX).unwrap();
        assert_eq!(rows.len() as u64, RECORDS, "{}", codec.name());
        for (i, (k, v)) in (0..RECORDS).zip(rows) {
            assert_eq!(k, key(i), "{}", codec.name());
            assert_eq!(
                v,
                Value::from(dataset.record(i)),
                "{}: record {i}",
                codec.name()
            );
        }
    }
}
