//! Failure-injection integration tests: storage-write failures under
//! write-through (§4.1.1's invalidation contract) and dirty-data
//! backpressure under write-back (§4.1.2). Storage refuses writes
//! through a `Flaky` wrapper around the storage tier.

use std::sync::Arc;
use tierbase::common::testutil::Flaky;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::prelude::*;

fn tmpdir(name: &str) -> tierbase::common::TestDir {
    tierbase::common::test_dir(&format!("tb-it-fault-{name}"))
}

/// Opens a tiered store over the storage tier `TierBase::open` would
/// make (an `LsmDb` at `<dir>/storage`), wrapped in a [`Flaky`].
fn open_flaky(config: TierBaseConfig) -> (TierBase, Arc<Flaky<LsmDb>>) {
    let db = LsmDb::open(LsmConfig::new(config.dir.join("storage"))).unwrap();
    let storage = Arc::new(Flaky::new(db));
    let config = TierBaseConfig {
        storage: Some(storage.clone()),
        ..config
    };
    (TierBase::open(config).unwrap(), storage)
}

fn k(i: usize) -> Key {
    Key::from(format!("key-{i:05}"))
}

fn v(tag: &str, i: usize) -> Value {
    Value::from(format!("{tag}-{i}"))
}

#[test]
fn write_through_never_serves_unacknowledged_values() {
    let dir = tmpdir("wt-stale");
    let (store, storage) = open_flaky(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(16 << 20)
            .policy(SyncPolicy::WriteThrough)
            .build(),
    );
    // Establish authoritative values.
    for i in 0..100 {
        store.put(k(i), v("good", i)).unwrap();
    }
    // Fail the next 50 storage writes; each failed put must error AND
    // subsequent reads must return the old (storage-authoritative)
    // value, never the rejected one.
    storage.refuse_writes(50);
    for i in 0..50 {
        let err = store.put(k(i), v("rejected", i)).unwrap_err();
        assert!(matches!(err, Error::StorageWriteFailed(_)), "{err:?}");
    }
    for i in 0..50 {
        assert_eq!(
            store.get(&k(i)).unwrap(),
            Some(v("good", i)),
            "stale/rejected value visible for key {i}"
        );
    }
    // Once storage heals, writes flow again.
    store.put(k(0), v("healed", 0)).unwrap();
    assert_eq!(store.get(&k(0)).unwrap(), Some(v("healed", 0)));
    assert_eq!(
        store
            .stats()
            .write_through_failures
            .load(std::sync::atomic::Ordering::Relaxed),
        50
    );
}

#[test]
fn write_through_failure_on_fresh_key_leaves_no_ghost() {
    let dir = tmpdir("wt-ghost");
    let (store, storage) = open_flaky(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(16 << 20)
            .policy(SyncPolicy::WriteThrough)
            .build(),
    );
    storage.refuse_writes(1);
    assert!(store.put(k(1), v("ghost", 1)).is_err());
    assert_eq!(store.get(&k(1)).unwrap(), None, "ghost value visible");
}

#[test]
fn write_back_flush_failure_keeps_data_dirty_and_recoverable() {
    let dir = tmpdir("wb-flushfail");
    let (store, storage) = open_flaky(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(16 << 20)
            .policy(SyncPolicy::WriteBack)
            .write_back(tierbase::store::WriteBackTuning {
                max_dirty_bytes: u64::MAX,
                flush_every_ops: u64::MAX,
                batch_size: 64,
            })
            .build(),
    );
    for i in 0..100 {
        store.put(k(i), v("wb", i)).unwrap();
    }
    assert!(store.dirty_bytes() > 0);
    // First flush attempt fails mid-way.
    storage.refuse_writes(1);
    assert!(store.flush_dirty().is_err());
    // Data is still served and still dirty.
    for i in 0..100 {
        assert_eq!(store.get(&k(i)).unwrap(), Some(v("wb", i)));
    }
    assert!(
        store.dirty_bytes() > 0,
        "dirty state lost after failed flush"
    );
    // Retry succeeds and drains.
    let flushed = store.flush_dirty().unwrap();
    assert!(flushed > 0);
    assert_eq!(store.dirty_bytes(), 0);
}

#[test]
fn write_back_backpressure_resolves_via_flush() {
    // Cache big enough for the workload only if dirty entries can be
    // cleaned: the store must flush-and-retry internally rather than
    // fail the client write.
    let dir = tmpdir("wb-bp");
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(96 << 10)
            .cache_shards(1)
            .policy(SyncPolicy::WriteBack)
            .write_back(tierbase::store::WriteBackTuning {
                max_dirty_bytes: u64::MAX,
                flush_every_ops: u64::MAX, // only backpressure triggers flushes
                batch_size: 64,
            })
            .build(),
    )
    .unwrap();
    for i in 0..2000 {
        store
            .put(k(i), Value::from(vec![b'x'; 100]))
            .unwrap_or_else(|e| panic!("write {i} failed under backpressure: {e}"));
    }
    // Everything is durable or cached; spot-check through the tiers.
    for i in (0..2000).step_by(97) {
        assert_eq!(
            store.get(&k(i)).unwrap(),
            Some(Value::from(vec![b'x'; 100])),
            "key {i}"
        );
    }
}

#[test]
fn cluster_replica_failover_preserves_all_data() {
    use std::sync::Arc;
    use tierbase::cluster::{ClusterClient, CoordinatorGroup, NodeId, NodeStore};

    // The guards must outlive every node engine; collect them here.
    let mut dirs = Vec::new();
    let mut node = |name: &str| -> Arc<dyn KvEngine> {
        let dir = tmpdir(name);
        let engine: Arc<dyn KvEngine> = Arc::new(
            TierBase::open(
                TierBaseConfig::builder(dir.path())
                    .cache_capacity(32 << 20)
                    .build(),
            )
            .unwrap(),
        );
        dirs.push(dir);
        engine
    };
    let nodes = (0..3)
        .map(|i| {
            NodeStore::new(NodeId(i), node(&format!("cl-{i}p")))
                .with_replica(node(&format!("cl-{i}r")))
        })
        .collect();
    let coordinators = Arc::new(CoordinatorGroup::bootstrap(3, nodes).unwrap());
    let client = ClusterClient::connect(coordinators.clone());

    for i in 0..1000 {
        client.put(k(i), v("cl", i)).unwrap();
    }
    // Crash two of three nodes.
    coordinators.node(NodeId(0)).unwrap().read().crash();
    coordinators.node(NodeId(2)).unwrap().read().crash();
    for i in 0..1000 {
        assert_eq!(
            client.get(&k(i)).unwrap(),
            Some(v("cl", i)),
            "key {i} lost after double node failure"
        );
    }
}
