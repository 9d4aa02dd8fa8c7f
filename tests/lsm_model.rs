//! Property-based model checking of the LSM storage engine: arbitrary
//! operation sequences interleaved with flushes and restarts must
//! always agree with a reference BTreeMap.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::prelude::*;

#[derive(Debug, Clone)]
enum ModelOp {
    Put(u8, u8), // key id, value seed
    Delete(u8),
    Get(u8),
    Flush,
    Restart,
}

fn model_op_strategy() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        5 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| ModelOp::Put(k, v)),
        2 => any::<u8>().prop_map(ModelOp::Delete),
        3 => any::<u8>().prop_map(ModelOp::Get),
        1 => Just(ModelOp::Flush),
        1 => Just(ModelOp::Restart),
    ]
}

fn key(id: u8) -> Key {
    Key::from(format!("model-key-{id:03}"))
}

fn value(seed: u8) -> Value {
    Value::from(format!("val-{seed}-{}", "z".repeat(seed as usize % 40)))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 64,
        ..ProptestConfig::default()
    })]

    /// The engine matches the model under puts/deletes/gets with
    /// interleaved flushes (memtable → SSTable) and restarts (full
    /// manifest + WAL recovery).
    #[test]
    fn lsm_agrees_with_model(ops in proptest::collection::vec(model_op_strategy(), 1..120)) {
        let dir = std::env::temp_dir().join(format!(
            "tb-lsm-model-{}-{:x}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = LsmDb::open(LsmConfig::small_for_tests(&dir)).unwrap();
        let mut model: BTreeMap<Key, Value> = BTreeMap::new();

        for op in ops {
            match op {
                ModelOp::Put(k, v) => {
                    db.put(key(k), value(v)).unwrap();
                    model.insert(key(k), value(v));
                }
                ModelOp::Delete(k) => {
                    db.delete(&key(k)).unwrap();
                    model.remove(&key(k));
                }
                ModelOp::Get(k) => {
                    let got = db.get(&key(k)).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&key(k)));
                }
                ModelOp::Flush => {
                    db.flush().unwrap();
                }
                ModelOp::Restart => {
                    drop(db);
                    db = LsmDb::open(LsmConfig::small_for_tests(&dir)).unwrap();
                }
            }
        }
        // Final full-state comparison, then once more after a restart.
        for (k, v) in &model {
            let got = db.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        drop(db);
        let db = LsmDb::open(LsmConfig::small_for_tests(&dir)).unwrap();
        for (k, v) in &model {
            let got = db.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        // Absent keys stay absent.
        for id in 0..=255u8 {
            if !model.contains_key(&key(id)) {
                prop_assert_eq!(db.get(&key(id)).unwrap(), None);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 32,
        ..ProptestConfig::default()
    })]

    /// The tiered TierBase store under write-back matches the model
    /// across sync + reopen for arbitrary op sequences.
    #[test]
    fn tiered_write_back_agrees_with_model(
        ops in proptest::collection::vec((0u8..3, any::<u8>(), any::<u8>()), 1..80)
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tb-wb-model-{}-{:x}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            TierBase::open(
                TierBaseConfig::builder(&dir)
                    .cache_capacity(256 << 10)
                    .cache_shards(2)
                    .policy(SyncPolicy::WriteBack)
                    .build(),
            )
            .unwrap()
        };
        let store = open();
        let mut model: BTreeMap<Key, Value> = BTreeMap::new();
        for (kind, k, v) in ops {
            match kind {
                0 | 1 => {
                    store.put(key(k), value(v)).unwrap();
                    model.insert(key(k), value(v));
                }
                _ => {
                    store.delete(&key(k)).unwrap();
                    model.remove(&key(k));
                }
            }
        }
        store.sync().unwrap();
        drop(store);
        let store = open();
        for (k, v) in &model {
            let got = store.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v), "key {:?}", k);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
