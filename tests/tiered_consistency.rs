//! Cross-crate integration: the tiered store must behave exactly like a
//! model map under randomized operation sequences, for every sync
//! policy, including across flushes and reopen — one op at a time, and
//! cut into `apply_batch` submissions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tierbase::common::testutil::Flaky;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::prelude::*;

fn tmpdir(name: &str) -> tierbase::common::TestDir {
    tierbase::common::test_dir(&format!("tb-it-consist-{name}"))
}

fn random_ops(seed: u64, n: usize, keyspace: usize) -> Vec<(u8, Key, Value)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let key = Key::from(format!("key-{:04}", rng.gen_range(0..keyspace)));
            let kind = rng.gen_range(0..10u8);
            let value = Value::from(format!("v{i}-{}", "x".repeat(rng.gen_range(0..120))));
            (kind, key, value)
        })
        .collect()
}

fn check_against_model(policy: SyncPolicy, name: &str, seed: u64) {
    let dir = tmpdir(name);
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(64 << 10) // tiny: force heavy eviction/missing
            .cache_shards(4)
            .policy(policy)
            .build(),
    )
    .unwrap();
    let mut model: BTreeMap<Key, Value> = BTreeMap::new();

    for (kind, key, value) in random_ops(seed, 3000, 200) {
        match kind {
            0..=5 => {
                store.put(key.clone(), value.clone()).unwrap();
                model.insert(key, value);
            }
            6..=7 => {
                store.delete(&key).unwrap();
                model.remove(&key);
            }
            _ => {
                let got = store.get(&key).unwrap();
                assert_eq!(got.as_ref(), model.get(&key), "divergence at {key:?}");
            }
        }
    }
    // Full final scan.
    for (key, value) in &model {
        assert_eq!(
            store.get(key).unwrap().as_ref(),
            Some(value),
            "final state diverged at {key:?} under {policy:?}"
        );
    }
    store.sync().unwrap();

    // Tiered policies must also survive a restart.
    if matches!(policy, SyncPolicy::WriteThrough | SyncPolicy::WriteBack) {
        drop(store);
        let reopened = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(64 << 10)
                .cache_shards(4)
                .policy(policy)
                .build(),
        )
        .unwrap();
        for (key, value) in &model {
            assert_eq!(
                reopened.get(key).unwrap().as_ref(),
                Some(value),
                "post-restart divergence at {key:?} under {policy:?}"
            );
        }
    }
}

#[test]
fn in_memory_matches_model() {
    // In-memory with a tiny cache evicts, so only a large-cache variant
    // can promise full fidelity.
    let dir = tmpdir("mem");
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(64 << 20)
            .build(),
    )
    .unwrap();
    let mut model: BTreeMap<Key, Value> = BTreeMap::new();
    for (kind, key, value) in random_ops(7, 5000, 300) {
        match kind {
            0..=5 => {
                store.put(key.clone(), value.clone()).unwrap();
                model.insert(key, value);
            }
            6..=7 => {
                store.delete(&key).unwrap();
                model.remove(&key);
            }
            _ => {
                assert_eq!(store.get(&key).unwrap().as_ref(), model.get(&key));
            }
        }
    }
    for (key, value) in &model {
        assert_eq!(store.get(key).unwrap().as_ref(), Some(value));
    }
}

#[test]
fn write_through_matches_model() {
    check_against_model(SyncPolicy::WriteThrough, "wt", 11);
}

#[test]
fn write_back_matches_model() {
    check_against_model(SyncPolicy::WriteBack, "wb", 13);
}

#[test]
fn compressed_store_matches_model() {
    let dir = tmpdir("comp");
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(64 << 20)
            .compression(CompressorChoice::TzstdDict)
            .build(),
    )
    .unwrap();
    // Train on representative records, then verify fidelity on a
    // mixture of matching and alien values.
    let samples: Vec<Vec<u8>> = (0..300)
        .map(|i| format!("REC|{i:08}|status=OK|region=CN|padpadpad").into_bytes())
        .collect();
    store.train_compression(&samples).unwrap();
    let mut model: BTreeMap<Key, Value> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(23);
    for i in 0..2000 {
        let key = Key::from(format!("k{:03}", rng.gen_range(0..400)));
        let value = if i % 3 == 0 {
            // Alien (incompressible) bytes.
            Value::from(
                (0..rng.gen_range(1..200))
                    .map(|_| rng.gen::<u8>())
                    .collect::<Vec<u8>>(),
            )
        } else {
            Value::from(format!("REC|{i:08}|status=OK|region=CN|padpadpad"))
        };
        store.put(key.clone(), value.clone()).unwrap();
        model.insert(key, value);
    }
    for (key, value) in &model {
        assert_eq!(store.get(key).unwrap().as_ref(), Some(value));
    }
}

/// The schedules of [`random_ops`] as `apply_batch` submissions of 1–32
/// ops. Kinds 0..=3 put, 4..=5 a `MultiPut` of this entry and the next
/// three, 6..=7 delete, 8 get. Kind 9 turns on the value length mod 4:
/// 0 is a `MultiGet` of this key and the next three; 1 a `Cas`
/// expecting the key's last scheduled value; 2 a `CasDelete` expecting
/// it; 3 a `Cas` expecting the new value itself, which the key never
/// holds before.
fn random_batches(seed: u64) -> Vec<Vec<EngineOp>> {
    let schedule = random_ops(seed, 3000, 200);
    let mut rng = StdRng::seed_from_u64(!seed);
    let mut last: HashMap<Key, Value> = HashMap::new();
    let (mut batches, mut batch) = (Vec::new(), Vec::new());
    let mut size = rng.gen_range(1..=32usize);
    let mut i = 0;
    while i < schedule.len() {
        let (kind, key, value) = schedule[i].clone();
        let group = &schedule[i..(i + 4).min(schedule.len())];
        let op = match kind {
            0..=3 => EngineOp::Put(key, value),
            4..=5 => EngineOp::MultiPut(
                group
                    .iter()
                    .map(|(_, k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
            6..=7 => EngineOp::Delete(key),
            8 => EngineOp::Get(key),
            _ => match value.len() % 4 {
                1 => EngineOp::Cas {
                    expected: last.get(&key).cloned(),
                    key,
                    new: value,
                },
                2 => EngineOp::CasDelete {
                    expected: last.get(&key).cloned(),
                    key,
                },
                3 => EngineOp::Cas {
                    key,
                    expected: Some(value.clone()),
                    new: value,
                },
                _ => EngineOp::MultiGet(group.iter().map(|(_, k, _)| k.clone()).collect()),
            },
        };
        match &op {
            EngineOp::Put(k, v) => {
                last.insert(k.clone(), v.clone());
            }
            EngineOp::MultiPut(pairs) => last.extend(pairs.iter().cloned()),
            EngineOp::Delete(k) => {
                last.remove(k);
            }
            _ => {}
        }
        i += match &op {
            EngineOp::MultiPut(pairs) => pairs.len(),
            EngineOp::MultiGet(keys) => keys.len(),
            _ => 1,
        };
        batch.push(op);
        if batch.len() == size {
            batches.push(std::mem::take(&mut batch));
            size = rng.gen_range(1..=32);
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    batches
}

/// Checks one completion against the model, then applies it. A write
/// may answer `StorageWriteFailed` only when `may_fail`, and the model
/// then keeps the old value. Returns whether the write failed.
fn apply_to_model(
    model: &mut BTreeMap<Key, Value>,
    op: EngineOp,
    got: Result<OpOutcome>,
    may_fail: bool,
) -> bool {
    let failed = matches!(got, Err(Error::StorageWriteFailed(_)));
    assert!(!failed || may_fail, "{got:?} with no failure injected");
    let done = matches!(got, Ok(OpOutcome::Done(_)));
    match op {
        EngineOp::Get(key) => {
            let want = Ok(OpOutcome::Value(model.get(&key).cloned()));
            assert_eq!(got, want, "get {key:?}");
        }
        EngineOp::MultiGet(keys) => {
            let want = keys.iter().map(|k| model.get(k).cloned()).collect();
            assert_eq!(got, Ok(OpOutcome::Values(want)), "multi_get {keys:?}");
        }
        EngineOp::Delete(key) => {
            assert!(done, "delete {key:?}: {got:?}");
            model.remove(&key);
        }
        EngineOp::Cas { key, expected, new } => {
            if model.get(&key) != expected.as_ref() {
                assert_eq!(got, Err(Error::CasMismatch), "cas {key:?}");
            } else if !failed {
                assert!(done, "cas {key:?}: {got:?}");
                model.insert(key, new);
            }
        }
        EngineOp::CasDelete { key, expected } => {
            if model.get(&key) != expected.as_ref() {
                assert_eq!(got, Err(Error::CasMismatch), "cas delete {key:?}");
            } else {
                assert!(done, "cas delete {key:?}: {got:?}");
                model.remove(&key);
            }
        }
        _ if failed => {}
        EngineOp::Put(key, value) => {
            assert!(done, "put {key:?}: {got:?}");
            model.insert(key, value);
        }
        EngineOp::MultiPut(pairs) => {
            assert!(done, "multi_put: {got:?}");
            model.extend(pairs);
        }
        EngineOp::Scan { .. } => unreachable!("schedules hold no scans"),
    }
    failed
}

/// [`check_against_model`] with the schedule cut into batches. Under
/// write-through, about one batch in eight first arms one storage-write
/// failure, which refuses the writes of the next storage call: the
/// storage tier is the `LsmDb` `TierBase::open` would make, in a
/// [`Flaky`].
fn check_batches_against_model(policy: SyncPolicy, cache_bytes: usize, seed: u64) {
    let dir = tmpdir(&format!("batched-{policy:?}-{cache_bytes}-{seed:x}"));
    let open = || {
        let mut config = TierBaseConfig::builder(dir.path())
            .cache_capacity(cache_bytes)
            .cache_shards(4)
            .policy(policy)
            .build();
        let storage = (policy == SyncPolicy::WriteThrough).then(|| {
            let db = LsmDb::open(LsmConfig::new(dir.path().join("storage"))).unwrap();
            Arc::new(Flaky::new(db))
        });
        config.storage = storage.clone().map(|s| s as Arc<dyn KvEngine>);
        (TierBase::open(config).unwrap(), storage)
    };
    let (store, storage) = open();
    let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
    let mut model: BTreeMap<Key, Value> = BTreeMap::new();
    let (mut injected, mut failed_batches) = (0, 0);
    for ops in random_batches(seed) {
        if let Some(storage) = storage.as_ref().filter(|_| rng.gen_range(0..8) == 0) {
            storage.refuse_writes(1);
            injected += 1;
        }
        let got = store.apply_batch(ops.clone());
        assert_eq!(got.len(), ops.len(), "one completion per op");
        let mut failed = false;
        for (op, got) in ops.into_iter().zip(got) {
            failed |= apply_to_model(&mut model, op, got, injected > 0);
        }
        failed_batches += usize::from(failed);
    }
    // Each injection refuses one storage call, which one batch made.
    assert!(failed_batches <= injected, "{failed_batches} > {injected}");
    if policy == SyncPolicy::WriteThrough {
        assert!(failed_batches > 0, "no injected failure landed");
    }

    let keys: Vec<Key> = (0..200).map(|i| Key::from(format!("key-{i:04}"))).collect();
    let want: Vec<Option<Value>> = keys.iter().map(|k| model.get(k).cloned()).collect();
    assert_eq!(
        store.multi_get(&keys).unwrap(),
        want,
        "final state under {policy:?}"
    );
    store.sync().unwrap();
    if policy != SyncPolicy::InMemory {
        drop((store, storage));
        let (reopened, _) = open();
        assert_eq!(
            reopened.multi_get(&keys).unwrap(),
            want,
            "post-restart state under {policy:?}"
        );
    }
}

// 200 keys of at most ~200 B fit the 64 KiB cache, so it evicts
// nothing: the tiered policies also run at 16 KiB, where misses, fills,
// evictions and (under write-back) backpressure flushes happen mid-batch.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn write_through_batches_match_model(seed in any::<u64>()) {
        for cache_bytes in [64 << 10, 16 << 10] {
            check_batches_against_model(SyncPolicy::WriteThrough, cache_bytes, seed);
        }
    }

    #[test]
    fn write_back_batches_match_model(seed in any::<u64>()) {
        for cache_bytes in [64 << 10, 16 << 10] {
            check_batches_against_model(SyncPolicy::WriteBack, cache_bytes, seed);
        }
    }

    #[test]
    fn in_memory_batches_match_model(seed in any::<u64>()) {
        check_batches_against_model(SyncPolicy::InMemory, 64 << 10, seed);
    }
}
