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
