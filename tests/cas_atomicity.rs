//! Compare-and-set atomicity across the workspace's engines.
//!
//! `KvEngine::cas` is one `EngineOp::Cas` submitted through
//! `apply_batch`, and every engine must run that op's read, compare and
//! write as one step: a concurrent writer slipping in between would be
//! silently overwritten (a lost update) while both CAS calls report
//! success. Each test hammers a counter from several threads and
//! counts the increments that survived; TierBase's read-modify-writes
//! are also raced against plain puts of their key, and its data types'
//! compare-and-delete against concurrent readers.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tierbase::cluster::{CoordinatorGroup, NodeId, NodeStore, Proxy};
use tierbase::common::testutil::MapEngine;
use tierbase::elastic::ThreadMode;
use tierbase::frontend::{Frontend, FrontendConfig};
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::prelude::*;
use tierbase::store::ListEnd;

fn tmpdir(name: &str) -> tierbase::common::TestDir {
    tierbase::common::test_dir(&format!("tb-cas-{name}"))
}

fn parse_counter(v: &Value) -> u64 {
    std::str::from_utf8(v.as_slice())
        .expect("counter is utf8")
        .parse()
        .expect("counter is a number")
}

/// `threads` workers each perform `per_thread` *successful* CAS
/// increments (retrying on `CasMismatch`); returns the final counter.
/// With an atomic `cas`, every success is a real increment, so the
/// counter must equal `threads * per_thread`.
fn hammer_counter(engine: &dyn KvEngine, threads: usize, per_thread: usize) -> u64 {
    let key = Key::from("cas-counter");
    engine.put(key.clone(), Value::from("0")).unwrap();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..per_thread {
                    loop {
                        let cur = engine.get(&Key::from("cas-counter")).unwrap().unwrap();
                        let next = Value::from((parse_counter(&cur) + 1).to_string());
                        match engine.cas(Key::from("cas-counter"), Some(&cur), next) {
                            Ok(()) => break,
                            Err(Error::CasMismatch) => continue,
                            Err(e) => panic!("unexpected cas error: {e}"),
                        }
                    }
                }
            });
        }
    });
    parse_counter(&engine.get(&key).unwrap().unwrap())
}

#[test]
fn lsm_db_cas_is_atomic() {
    let dir = tmpdir("lsm");
    let engine = LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap();
    assert_eq!(hammer_counter(&engine, 4, 50), 200);
}

#[test]
fn frontend_pipelined_cas_is_atomic() {
    // CAS submitted through the pipeline resolves against the LSM's
    // atomic override, so boosted (multi-worker) shards stay safe.
    let dir = tmpdir("frontend");
    let db = Arc::new(LsmDb::open(LsmConfig::small_for_tests(dir.path())).unwrap());
    let fe = Frontend::start(db, FrontendConfig::with_shards(2));
    assert_eq!(hammer_counter(&fe, 4, 50), 200);
    fe.shutdown();
}

#[test]
fn cluster_proxy_cas_is_atomic() {
    // Each CAS runs on the key's owning node, under the node's write
    // order, and ships to its replica only when it applied.
    let nodes = (0..2)
        .map(|i| NodeStore::new(NodeId(i), MapEngine::shared()).with_replica(MapEngine::shared()))
        .collect();
    let proxy = Proxy::new(Arc::new(CoordinatorGroup::bootstrap(1, nodes).unwrap()));
    assert_eq!(hammer_counter(&proxy, 4, 50), 200);
}

/// TierBase's CAS, EXPIRE and PERSIST read their key, then write it. A
/// put of the key from another thread must land before the read or
/// after the write, never between. Each trial sets the key to `a`, then
/// races `cas(a -> c)`, `expire` or `persist` against `put(b)`: every
/// linearization of the two ends at `b`, so any other final value is an
/// acknowledged put that was lost.
#[test]
fn tierbase_read_modify_writes_never_lose_a_concurrent_put() {
    const TRIALS: usize = 10_000;
    let mut lost_per_policy = Vec::new();
    for policy in [
        SyncPolicy::InMemory,
        SyncPolicy::WriteBack,
        SyncPolicy::WriteThrough,
    ] {
        let dir = tmpdir(&format!("rmw-{policy:?}"));
        let store = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .policy(policy)
                .threading(ThreadMode::Multi(2))
                .build(),
        )
        .unwrap();
        // A large CAS value widens the window between its read and its
        // write. Write-through sends every put to the storage tier, which
        // is window enough, so it races a small one.
        let c_len = if policy == SyncPolicy::WriteThrough {
            8
        } else {
            64 << 10
        };
        let (a, b, c) = (
            Value::from("a"),
            Value::from("b"),
            Value::from(vec![b'c'; c_len]),
        );
        let key = Key::from("raced");
        let barrier = Barrier::new(2);
        let lost = std::thread::scope(|s| {
            s.spawn(|| {
                for trial in 0..TRIALS {
                    barrier.wait();
                    // Sweep the put's start across the other call's span.
                    let start = Instant::now();
                    let delay = Duration::from_nanos(trial as u64 % 64 * 500);
                    while start.elapsed() < delay {
                        std::hint::spin_loop();
                    }
                    store.put(key.clone(), b.clone()).unwrap();
                    barrier.wait();
                }
            });
            let mut lost = 0;
            for trial in 0..TRIALS {
                store.put(key.clone(), a.clone()).unwrap();
                barrier.wait();
                match trial % 3 {
                    0 => match store.cas(key.clone(), Some(&a), c.clone()) {
                        Ok(()) | Err(Error::CasMismatch) => {}
                        Err(e) => panic!("unexpected cas error: {e}"),
                    },
                    1 => assert!(store.expire(&key, Duration::from_secs(3600)).unwrap()),
                    _ => assert!(store.persist(&key).unwrap()),
                }
                barrier.wait();
                if store.get(&key).unwrap() != Some(b.clone()) {
                    lost += 1;
                }
            }
            lost
        });
        lost_per_policy.push((policy, lost));
    }
    assert!(
        lost_per_policy.iter().all(|&(_, lost)| lost == 0),
        "acked puts lost of {TRIALS} per policy: {lost_per_policy:?}"
    );
}

/// A `DataTypes` pop that empties a list removes the key with one
/// compare-and-delete, so no reader ever finds the structure half
/// deleted. Two threads each push and then pop one shared list; every
/// call must succeed, and the list ends empty, so its key is absent.
#[test]
fn tierbase_structure_deletes_never_race_readers_into_errors() {
    const PAIRS: usize = 50_000;
    let dir = tmpdir("types");
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .threading(ThreadMode::Multi(2))
            .build(),
    )
    .unwrap();
    let key = Key::from("list");
    let errors: Vec<Error> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let types = DataTypes::new(&store);
                    let mut errors = Vec::new();
                    for _ in 0..PAIRS {
                        errors.extend(types.list_push(&key, b"x", ListEnd::Tail).err());
                        errors.extend(types.list_pop(&key, ListEnd::Head).err());
                    }
                    errors
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert!(
        errors.is_empty(),
        "{} of {} calls failed, first: {:?}",
        errors.len(),
        4 * PAIRS,
        errors.first()
    );
    assert_eq!(store.get(&key).unwrap(), None, "the emptied list is absent");
}
