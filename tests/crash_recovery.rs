//! Crash-recovery integration tests: WAL and WAL-PMem persistence,
//! torn-tail handling, and the durability contract of each policy.

use tierbase::prelude::*;

fn tmpdir(name: &str) -> tierbase::common::TestDir {
    tierbase::common::test_dir(&format!("tb-it-crash-{name}"))
}

fn k(i: usize) -> Key {
    Key::from(format!("key-{i:05}"))
}

fn v(i: usize) -> Value {
    Value::from(format!("value-{i}-{}", "r".repeat(i % 60)))
}

#[test]
fn wal_mode_recovers_every_acknowledged_write() {
    let dir = tmpdir("wal-ack");
    {
        let store = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(64 << 20)
                .persistence(PersistenceMode::Wal)
                .build(),
        )
        .unwrap();
        for i in 0..500 {
            store.put(k(i), v(i)).unwrap();
        }
        for i in (0..500).step_by(3) {
            store.delete(&k(i)).unwrap();
        }
        store.sync().unwrap();
        // Simulated crash: drop without any further flushing.
    }
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(64 << 20)
            .persistence(PersistenceMode::Wal)
            .build(),
    )
    .unwrap();
    for i in 0..500 {
        let expect = if i % 3 == 0 { None } else { Some(v(i)) };
        assert_eq!(store.get(&k(i)).unwrap(), expect, "key {i}");
    }
}

#[test]
fn wal_torn_tail_loses_only_the_torn_suffix() {
    use std::io::Write;
    let dir = tmpdir("wal-torn");
    {
        let store = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(64 << 20)
                .persistence(PersistenceMode::Wal)
                .build(),
        )
        .unwrap();
        for i in 0..100 {
            store.put(k(i), v(i)).unwrap();
        }
        store.sync().unwrap();
    }
    // Append garbage: a torn half-record at the tail.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("cache.wal"))
            .unwrap();
        f.write_all(&200u32.to_le_bytes()).unwrap();
        f.write_all(b"torn-frag").unwrap();
    }
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(64 << 20)
            .persistence(PersistenceMode::Wal)
            .build(),
    )
    .unwrap();
    for i in 0..100 {
        assert_eq!(
            store.get(&k(i)).unwrap(),
            Some(v(i)),
            "intact prefix lost at {i}"
        );
    }
    // And the store keeps working after recovery.
    store.put(k(1000), v(1000)).unwrap();
    assert_eq!(store.get(&k(1000)).unwrap(), Some(v(1000)));
}

#[test]
fn wal_mid_log_corruption_is_surfaced_not_swallowed() {
    use std::io::{Seek, SeekFrom, Write};
    let dir = tmpdir("wal-midcorrupt");
    {
        let store = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(64 << 20)
                .persistence(PersistenceMode::Wal)
                .build(),
        )
        .unwrap();
        for i in 0..100 {
            store.put(k(i), v(i)).unwrap();
        }
        store.sync().unwrap();
    }
    // Flip one byte in the middle of the log: valid records follow, so
    // this is bit rot, not a torn tail — recovery must refuse to
    // silently drop the acknowledged suffix.
    {
        let len = std::fs::metadata(dir.join("cache.wal")).unwrap().len();
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("cache.wal"))
            .unwrap();
        f.seek(SeekFrom::Start(len / 2)).unwrap();
        f.write_all(b"\xde\xad").unwrap();
    }
    match TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(64 << 20)
            .persistence(PersistenceMode::Wal)
            .build(),
    ) {
        Err(Error::Corruption(_)) => {}
        Err(other) => panic!("expected Corruption, got {other:?}"),
        Ok(_) => panic!("mid-log corruption must fail open"),
    }
}

#[test]
fn wal_pmem_mode_recovers_from_ring() {
    let dir = tmpdir("pmem");
    {
        let store = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(64 << 20)
                .persistence(PersistenceMode::WalPmem)
                .pmem_ring_bytes(4 << 20)
                .build(),
        )
        .unwrap();
        for i in 0..300 {
            store.put(k(i), v(i)).unwrap();
        }
        // No explicit sync: WAL-PMem persists per transaction.
    }
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(64 << 20)
            .persistence(PersistenceMode::WalPmem)
            .pmem_ring_bytes(4 << 20)
            .build(),
    )
    .unwrap();
    for i in 0..300 {
        assert_eq!(store.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
    }
}

#[test]
fn wal_pmem_mode_recovers_every_write_once_the_ring_fills() {
    // 3 000 values of ~220 B through a 64 KiB ring: the ring fills and
    // drains to the cold log about ten times over.
    let dir = tmpdir("pmem-full");
    let open = || {
        TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(64 << 20)
                .persistence(PersistenceMode::WalPmem)
                .pmem_ring_bytes(64 << 10)
                .build(),
        )
        .unwrap()
    };
    let value = |i: usize| Value::from(format!("{i:06}-{}", "p".repeat(214)));
    {
        let store = open();
        for i in 0..3000 {
            store.put(k(i), value(i)).unwrap();
        }
        store.sync().unwrap();
    }
    let store = open();
    let missing: Vec<usize> = (0..3000)
        .filter(|&i| store.get(&k(i)).unwrap() != Some(value(i)))
        .collect();
    assert!(
        missing.is_empty(),
        "{} of 3000 acknowledged values missing after reopen, first {:?}",
        missing.len(),
        &missing[..missing.len().min(5)]
    );
}

#[test]
fn wal_pmem_ring_with_a_damaged_header_fails_open_unchanged() {
    // A clean close, then one header byte flipped: the ring's checksum
    // fails. Reformatting it would drop every write it holds, so `open`
    // must refuse with Corruption and leave the device byte-unchanged.
    let dir = tmpdir("pmem-header");
    let open = || {
        TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(64 << 20)
                .persistence(PersistenceMode::WalPmem)
                .pmem_ring_bytes(1 << 20)
                .build(),
        )
    };
    {
        let store = open().unwrap();
        for i in 0..100 {
            store.put(k(i), v(i)).unwrap();
        }
        store.sync().unwrap();
    }
    let ring = dir.join("cache.pmem");
    let mut bytes = std::fs::read(&ring).unwrap();
    bytes[9] ^= 0x01;
    std::fs::write(&ring, &bytes).unwrap();
    for _ in 0..2 {
        match open() {
            Err(Error::Corruption(_)) => {}
            Err(other) => panic!("expected Corruption, got {other:?}"),
            Ok(_) => panic!("a ring whose header fails its checksum must fail open"),
        }
        assert!(std::fs::read(&ring).unwrap() == bytes, "cache.pmem changed");
    }
    // Restored, every write is there.
    bytes[9] ^= 0x01;
    std::fs::write(&ring, &bytes).unwrap();
    let store = open().unwrap();
    for i in 0..100 {
        assert_eq!(store.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
    }
    drop(store);
    // A device that was never formatted (zeros: a crash cut its
    // creation short) is formatted afresh.
    std::fs::write(&ring, vec![0u8; 4096]).unwrap();
    drop(open().unwrap());
}

#[test]
fn wal_pmem_ring_with_a_bad_frame_before_a_good_one_fails_open_unchanged() {
    // Two records in the ring, the first one's payload flipped: the
    // second, acknowledged, follows it, so this is Corruption — not a
    // torn tail to drop.
    let dir = tmpdir("pmem-mid");
    let open = || {
        TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(64 << 20)
                .persistence(PersistenceMode::WalPmem)
                .pmem_ring_bytes(1 << 20)
                .build(),
        )
    };
    {
        let store = open().unwrap();
        store.put(k(1), v(1)).unwrap();
        store.put(k(2), v(2)).unwrap();
    }
    let ring = dir.join("cache.pmem");
    let mut bytes = std::fs::read(&ring).unwrap();
    // The 24-byte ring header, then the first frame's 16-byte header.
    bytes[24 + 16 + 2] ^= 0x01;
    std::fs::write(&ring, &bytes).unwrap();
    match open() {
        Err(Error::Corruption(_)) => {}
        Err(other) => panic!("expected Corruption, got {other:?}"),
        Ok(_) => panic!("a bad ring frame before a good one must fail open"),
    }
    assert!(std::fs::read(&ring).unwrap() == bytes, "cache.pmem changed");
}

#[test]
fn write_through_survives_crash_without_any_cache_persistence() {
    let dir = tmpdir("wt");
    {
        let store = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(1 << 20)
                .policy(SyncPolicy::WriteThrough)
                .build(),
        )
        .unwrap();
        for i in 0..400 {
            store.put(k(i), v(i)).unwrap();
        }
        store.sync().unwrap();
    }
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(1 << 20)
            .policy(SyncPolicy::WriteThrough)
            .build(),
    )
    .unwrap();
    for i in 0..400 {
        assert_eq!(store.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
    }
}

#[test]
fn write_back_synced_data_survives_unsynced_may_not() {
    let dir = tmpdir("wb");
    {
        let store = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(64 << 20)
                .policy(SyncPolicy::WriteBack)
                .write_back(tierbase::store::WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: 128,
                })
                .build(),
        )
        .unwrap();
        for i in 0..200 {
            store.put(k(i), v(i)).unwrap();
        }
        store.flush_dirty().unwrap(); // first 200 are durable
        for i in 200..300 {
            store.put(k(i), v(i)).unwrap();
        }
        // Crash with 100 dirty entries unflushed (single-node: in the
        // real deployment replicas hold them; across a full restart the
        // paper's cache-only dirty data is lost too).
    }
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(64 << 20)
            .policy(SyncPolicy::WriteBack)
            .build(),
    )
    .unwrap();
    for i in 0..200 {
        assert_eq!(store.get(&k(i)).unwrap(), Some(v(i)), "synced key {i} lost");
    }
    // The unsynced suffix is allowed to be absent — but the store must
    // not serve corrupted values for it.
    for i in 200..300 {
        if let Some(val) = store.get(&k(i)).unwrap() {
            assert_eq!(val, v(i));
        }
    }
}

#[test]
fn lsm_storage_tier_recovers_through_compactions() {
    use tierbase::lsm::{LsmConfig, LsmDb};
    let dir = tmpdir("lsm-deep");
    {
        let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
        for round in 0..3 {
            for i in 0..800 {
                db.put(k(i), Value::from(format!("gen{round}-{i}")))
                    .unwrap();
            }
            db.flush().unwrap();
        }
    }
    let db = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
    for i in 0..800 {
        assert_eq!(
            db.get(&k(i)).unwrap(),
            Some(Value::from(format!("gen2-{i}"))),
            "latest generation lost for key {i}"
        );
    }
}

/// Templated values of two shapes, each compressible by a model
/// trained on it.
fn shaped(shape: usize, i: usize) -> Value {
    Value::from(match shape {
        0 => format!(
            "{{\"uid\":\"{:016x}\",\"dev\":\"android\",\"geo\":\"CN-ZJ\",\"score\":{i}}}",
            i * 7919
        ),
        _ => format!(
            "LOG|{i:08}|level=WARN|svc=payments|trace={:024x}|END",
            i * 104_729
        ),
    })
}

fn shape_samples(shape: usize) -> Vec<Vec<u8>> {
    (0..300)
        .map(|i| shaped(shape, i).as_slice().to_vec())
        .collect()
}

/// The choices with a trained model: first the two whose dictionary
/// or patterns a retrain replaces.
const TRAINED_CHOICES: [CompressorChoice; 3] = [
    CompressorChoice::TzstdDict,
    CompressorChoice::Pbc,
    CompressorChoice::Tzstd,
];

fn open_compressed(dir: &std::path::Path, choice: CompressorChoice) -> TierBase {
    TierBase::open(
        TierBaseConfig::builder(dir)
            .policy(SyncPolicy::WriteThrough)
            .compression(choice)
            .build(),
    )
    .unwrap()
}

#[test]
fn compressed_values_read_back_after_reopen() {
    // The storage tier keeps the compressed envelopes; only the trained
    // model, published in the store's directory, can decode them.
    for choice in TRAINED_CHOICES {
        let dir = tmpdir("model-reopen");
        {
            let store = open_compressed(dir.path(), choice);
            store.train_compression(&shape_samples(0)).unwrap();
            for i in 0..300 {
                store.put(k(i), shaped(0, i)).unwrap();
            }
            store.sync().unwrap();
        }
        let store = open_compressed(dir.path(), choice);
        for i in 0..300 {
            let got = store.get(&k(i)).unwrap();
            assert_eq!(got, Some(shaped(0, i)), "{choice:?} key {i}");
        }
        drop(store);
        // Without its model a value is corrupt, not garbage.
        std::fs::remove_file(dir.path().join("cache.model.1")).unwrap();
        let store = open_compressed(dir.path(), choice);
        assert!(
            matches!(store.get(&k(7)), Err(Error::Corruption(_))),
            "{choice:?}"
        );
    }
}

#[test]
fn values_written_before_a_retrain_read_back_after_it() {
    // Each training after the first (a retrain) is a new model
    // generation; an envelope names the one that coded it, before and
    // after a reopen.
    for choice in TRAINED_CHOICES {
        let dir = tmpdir("model-retrain");
        {
            let store = open_compressed(dir.path(), choice);
            store.train_compression(&shape_samples(0)).unwrap();
            for i in 0..300 {
                store.put(k(i), shaped(0, i)).unwrap();
            }
            store.train_compression(&shape_samples(1)).unwrap();
            for i in 300..600 {
                store.put(k(i), shaped(1, i)).unwrap();
            }
            for i in 0..600 {
                let got = store.get(&k(i)).unwrap();
                assert_eq!(got, Some(shaped(i / 300, i)), "{choice:?} key {i}");
            }
            store.sync().unwrap();
        }
        let store = open_compressed(dir.path(), choice);
        for i in 0..600 {
            let got = store.get(&k(i)).unwrap();
            assert_eq!(
                got,
                Some(shaped(i / 300, i)),
                "{choice:?} key {i} after reopen"
            );
        }
    }
}

#[test]
fn models_written_before_the_escape_code_fail_open() {
    // `cache.model.1` files as the layout before escape-coded tables
    // wrote them, in today's frame (sealed under the model magic): a
    // `tzstd` unit (tag 1, a baseline
    // ratio, level 1, sixteen 128-byte tables of 8-bit codes, six
    // split-out bytes) and a `pbc` unit (tag 3, the same baseline, model
    // format 0xb1, no patterns, that coder as fallback). Reading either
    // with this layout's tables would decode values wrongly, so `open`
    // refuses them.
    let tzstd = [
        &1i32.to_le_bytes()[..],
        &[0x88; 16 * 128],
        &[0, 1, 2, 3, 4, 5],
    ]
    .concat();
    let baseline = 2.5f64.to_le_bytes();
    let units = [
        (
            CompressorChoice::Tzstd,
            [&[1u8][..], &baseline, &tzstd].concat(),
        ),
        (
            CompressorChoice::Pbc,
            [&[3u8][..], &baseline, &[0xb1, 0], &tzstd].concat(),
        ),
    ];
    for (choice, unit) in units {
        let dir = tmpdir("model-previous");
        std::fs::create_dir_all(dir.path()).unwrap();
        let file = tierbase::common::durable::seal(MODEL_MAGIC, &unit);
        std::fs::write(dir.path().join("cache.model.1"), file).unwrap();
        let config = TierBaseConfig::builder(dir.path())
            .policy(SyncPolicy::WriteThrough)
            .compression(choice)
            .build();
        match TierBase::open(config) {
            Err(Error::Corruption(_)) => {}
            Err(other) => panic!("{choice:?}: expected Corruption, got {other:?}"),
            Ok(_) => panic!("{choice:?}: a model of the previous layout must fail open"),
        }
    }
}

/// The magic a `cache.model.<generation>` file is sealed under.
const MODEL_MAGIC: u32 = 0x7b4d_444c;

#[test]
fn a_model_in_the_frame_before_seal_fails_open() {
    // Before models were sealed, a file was the unit's bytes then their
    // crc32. A current unit in that frame is refused, not misread.
    let dir = tmpdir("model-old-frame");
    open_compressed(dir.path(), CompressorChoice::Tzstd)
        .train_compression(&shape_samples(0))
        .unwrap();
    let path = dir.path().join("cache.model.1");
    let sealed = std::fs::read(&path).unwrap();
    let unit = &sealed[8..];
    let old = [unit, &tierbase::common::crc32(unit).to_le_bytes()].concat();
    std::fs::write(&path, old).unwrap();
    let config = TierBaseConfig::builder(dir.path())
        .policy(SyncPolicy::WriteThrough)
        .compression(CompressorChoice::Tzstd)
        .build();
    assert!(matches!(TierBase::open(config), Err(Error::Corruption(_))));
}

#[test]
fn open_sweeps_files_a_crash_left_half_published() {
    // A crash between writing a tmp file and renaming it leaves
    // `<name>.tmp`. These two are a complete snapshot and a complete
    // model: only their names say they were never published, so
    // `open` must neither load nor keep them.
    let dir = tmpdir("sweep-tmp");
    let open = || {
        TierBase::open(
            TierBaseConfig::builder(dir.path())
                .compression(CompressorChoice::Tzstd)
                .build(),
        )
        .unwrap()
    };
    {
        let store = open();
        store.train_compression(&shape_samples(0)).unwrap();
        store.put(k(1), shaped(0, 1)).unwrap();
        assert_eq!(store.save_cache_snapshot().unwrap(), 1);
    }
    let rdb_tmp = dir.path().join("cache.rdb.tmp");
    let model_tmp = dir.path().join("cache.model.7.tmp");
    std::fs::rename(dir.path().join("cache.rdb"), &rdb_tmp).unwrap();
    std::fs::rename(dir.path().join("cache.model.1"), &model_tmp).unwrap();

    let store = open();
    assert!(!rdb_tmp.exists(), "cache.rdb.tmp survived open");
    assert!(!model_tmp.exists(), "cache.model.7.tmp survived open");
    assert_eq!(store.get(&k(1)).unwrap(), None, "a tmp snapshot loaded");
    // No model loaded either: the next training is generation 1.
    store.train_compression(&shape_samples(0)).unwrap();
    assert!(dir.path().join("cache.model.1").exists());
    assert!(
        !dir.path().join("cache.model.8").exists(),
        "a tmp model loaded"
    );
}

/// A put larger than a cache shard's budget is refused. It was never
/// acknowledged, so it must not reach the persistence log, where every
/// later `open` would meet the same refusal and fail.
#[test]
fn a_put_the_cache_refuses_does_not_block_reopen() {
    for (name, mode) in [
        ("refused-wal", PersistenceMode::Wal),
        ("refused-pmem", PersistenceMode::WalPmem),
    ] {
        let dir = tmpdir(name);
        // 64 KiB over 16 shards: each shard holds 4 KiB.
        let open = || {
            TierBase::open(
                TierBaseConfig::builder(dir.path())
                    .cache_capacity(64 << 10)
                    .persistence(mode)
                    .pmem_ring_bytes(1 << 20)
                    .build(),
            )
        };
        {
            let store = open().unwrap();
            store.put(k(1), v(1)).unwrap();
            let err = store
                .put(k(2), Value::from(vec![b'x'; 20 << 10]))
                .unwrap_err();
            assert!(matches!(err, Error::InvalidArgument(_)), "{mode:?}: {err}");
            store.sync().unwrap();
        }
        let store = open().unwrap_or_else(|e| panic!("{mode:?}: reopen failed: {e}"));
        assert_eq!(store.get(&k(2)).unwrap(), None, "{mode:?}");
        assert_eq!(store.get(&k(1)).unwrap(), Some(v(1)), "{mode:?}");
    }
}
