//! Property tests for the distributed layer's invariants: routing
//! tables always cover the slot space, rebalancing conserves keys, and
//! replication keeps replicas substitutable for their primary.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use tierbase::cluster::{ClusterClient, CoordinatorGroup, NodeId, NodeStore, RoutingTable};
use tierbase::common::fault::{self, FaultMode};
use tierbase::common::testutil::MapEngine;
use tierbase::common::{Lsn, SLOT_COUNT};
use tierbase::prelude::*;

type DeleteHook = Box<dyn Fn(&Key) + Send + Sync>;

/// A map engine that fires a hook on every delete — the probe for
/// observing rebalance eviction order from the victim's seat.
#[derive(Default)]
struct HookEngine {
    map: MapEngine,
    on_delete: std::sync::Mutex<Option<DeleteHook>>,
}

impl HookEngine {
    fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl KvEngine for HookEngine {
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        if let Some(hook) = self.on_delete.lock().unwrap().as_ref() {
            for op in &ops {
                if let EngineOp::Delete(key) = op {
                    hook(key);
                }
            }
        }
        self.map.apply_batch(ops)
    }
    fn resident_bytes(&self) -> u64 {
        0
    }
    fn label(&self) -> String {
        "hook-map".into()
    }
}

/// Regression (PR 8): `add_node_and_rebalance` must flip routing
/// *before* evicting source copies. The old copy→evict→flip order
/// opened a window where the still-routed old owner had already deleted
/// a migrated key — a routed read returned `None` for a live key. The
/// delete hook observes the exact eviction instant and asserts both
/// halves of the fix: routing no longer points at the evicting node,
/// and the new owner already serves the key.
#[test]
fn rebalance_never_opens_a_lost_read_window() {
    let source_engine = HookEngine::shared();
    let nodes = vec![NodeStore::new(NodeId(0), source_engine.clone())];
    let group = Arc::new(CoordinatorGroup::bootstrap(1, nodes).unwrap());

    for i in 0..200 {
        group
            .node(NodeId(0))
            .unwrap()
            .read()
            .put(Key::from(format!("w-{i}")), Value::from(format!("v{i}")))
            .unwrap();
    }

    // The new node's engine, held directly: the hook reads through it
    // rather than `group.node()` (the rebalance holds the node-list
    // lock while evicting).
    let new_engine = HookEngine::shared();
    let new_node = NodeStore::new(NodeId(1), new_engine.clone());

    let evictions = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    *source_engine.on_delete.lock().unwrap() = Some(Box::new({
        let group = group.clone();
        let new_engine = new_engine.clone();
        let evictions = evictions.clone();
        move |key: &Key| {
            evictions.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let owner = group.routing().owner_of_key(key.as_slice());
            assert_ne!(
                owner,
                NodeId(0),
                "evicting a key the routing table still sends to this node \
                 (lost-read window: a routed get now returns None)"
            );
            let expected = Value::from(format!(
                "v{}",
                String::from_utf8_lossy(key.as_slice()).trim_start_matches("w-")
            ));
            assert_eq!(
                new_engine.get(key).unwrap(),
                Some(expected),
                "routing flipped before the new owner held the key"
            );
        }
    }));

    let moved = group
        .add_node_and_rebalance(new_node)
        .expect("rebalance succeeds");
    assert!(moved > 0, "some keys must migrate for the probe to bite");
    assert_eq!(
        evictions.load(std::sync::atomic::Ordering::SeqCst),
        moved,
        "every migrated key is evicted from its source exactly once"
    );
    assert_eq!(group.total_keys(), 200, "rebalance conserves keys");
}

/// Regression (PR 8): a failed ship must fail the ack — and the
/// primary-side inventory must keep tracking the primary, which *did*
/// apply the write. Before the fix, `put` acked `Ok` while skipping the
/// inventory insert on ship failure, so the key survived on the primary
/// but was invisible to rebalance migration: `add_node_and_rebalance`
/// silently stranded it.
#[test]
fn failed_ship_keeps_inventory_and_ack_aligned_through_rebalance() {
    let nodes =
        vec![NodeStore::new(NodeId(0), MapEngine::shared()).with_replica(MapEngine::shared())];
    let group = CoordinatorGroup::bootstrap(1, nodes).unwrap();
    let handle = group.node(NodeId(0)).unwrap();

    for i in 0..64 {
        // Every single ship fails: each write errs (indeterminate ack)
        // but lands on the primary.
        let _guard = fault::arm_scoped("repl.ship", 1, FaultMode::Error);
        let err = handle
            .read()
            .put(Key::from(format!("s-{i}")), Value::from(format!("v{i}")));
        assert!(err.is_err(), "failed ship must not ack");
    }
    assert_eq!(
        group.total_keys(),
        64,
        "unshipped writes still live on (and are tracked by) the primary"
    );

    let moved = group
        .add_node_and_rebalance(NodeStore::new(NodeId(1), MapEngine::shared()))
        .unwrap();
    assert!(moved > 0, "inventory-tracked keys migrate");
    assert_eq!(group.total_keys(), 64, "no key stranded by migration");
    let table = group.routing();
    for i in 0..64 {
        let key = Key::from(format!("s-{i}"));
        let owner = table.owner_of_key(key.as_slice());
        assert_eq!(
            group.node(owner).unwrap().read().get(&key).unwrap(),
            Some(Value::from(format!("v{i}"))),
            "key s-{i} unreadable at its routed owner after rebalance"
        );
    }
}

/// Regression (PR 8): `run_failover` used to leave a promoted node
/// replica-less, so a *second* crash fell through to slot reassignment
/// and discarded every write since the first failover. With a replica
/// factory the promotion re-seeds, and two back-to-back crash+failover
/// cycles lose nothing.
#[test]
fn double_crash_failover_loses_nothing() {
    fn map_engine() -> Arc<dyn KvEngine> {
        MapEngine::shared()
    }
    let nodes = vec![NodeStore::new(NodeId(0), map_engine()).with_replica_factory(map_engine)];
    let group = Arc::new(CoordinatorGroup::bootstrap(1, nodes).unwrap());
    let client = ClusterClient::connect(group.clone());
    let handle = group.node(NodeId(0)).unwrap();

    for i in 0..40 {
        client
            .put(Key::from(format!("a-{i}")), Value::from(format!("A{i}")))
            .unwrap();
    }
    handle.read().crash();
    // Reads fail over transparently; batch A survives crash #1.
    for i in 0..40 {
        assert_eq!(
            client.get(&Key::from(format!("a-{i}"))).unwrap(),
            Some(Value::from(format!("A{i}"))),
            "a-{i} lost in first failover"
        );
    }
    assert!(
        handle.read().has_replica(),
        "promotion must re-seed a replica from the factory"
    );
    assert!(
        client.session_token(NodeId(0)) > Lsn::NONE,
        "acked writes minted a session token"
    );

    for i in 0..40 {
        client
            .put(Key::from(format!("b-{i}")), Value::from(format!("B{i}")))
            .unwrap();
    }
    handle.read().crash();
    // Crash #2: both batches survive — the re-seeded replica covered
    // every write acked after the first promotion.
    for i in 0..40 {
        assert_eq!(
            client.get(&Key::from(format!("a-{i}"))).unwrap(),
            Some(Value::from(format!("A{i}"))),
            "a-{i} lost in second failover"
        );
        assert_eq!(
            client.get(&Key::from(format!("b-{i}"))).unwrap(),
            Some(Value::from(format!("B{i}"))),
            "b-{i} lost in second failover"
        );
    }
    assert!(
        handle.read().has_replica(),
        "re-seeded again after crash #2"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every slot always has exactly one owner, under any sequence of
    /// reassignments; epochs strictly increase.
    #[test]
    fn routing_covers_all_slots(
        node_count in 1u32..12,
        moves in proptest::collection::vec((any::<u16>(), any::<u32>()), 0..20)
    ) {
        let nodes: Vec<NodeId> = (0..node_count).map(NodeId).collect();
        let mut table = RoutingTable::even(1, &nodes);
        let mut last_epoch = table.epoch;
        for (slot_seed, to_seed) in moves {
            let to = NodeId(to_seed % node_count);
            let slots: Vec<u16> = (0..4)
                .map(|i| (slot_seed.wrapping_add(i * 1000)) % SLOT_COUNT)
                .collect();
            table = table.reassign_slots(&slots, to);
            prop_assert!(table.epoch > last_epoch);
            last_epoch = table.epoch;
        }
        // Coverage: every slot owned by a known node; totals add up.
        let total: usize = table.distribution().iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, SLOT_COUNT as usize);
        for (owner, _) in table.distribution() {
            prop_assert!(owner.0 < node_count);
        }
    }

    /// Scale-out rebalancing conserves every key and leaves all keys
    /// readable through fresh routing.
    #[test]
    fn rebalance_conserves_keys(
        initial_nodes in 1u32..5,
        key_count in 1usize..150,
        added in 1u32..3,
    ) {
        let nodes = (0..initial_nodes)
            .map(|i| NodeStore::new(NodeId(i), MapEngine::shared()))
            .collect();
        let group = CoordinatorGroup::bootstrap(1, nodes).unwrap();
        // Load through routing so inventories match ownership.
        for i in 0..key_count {
            let key = Key::from(format!("pk-{i}"));
            let owner = group.routing().owner_of_key(key.as_slice());
            group.node(owner).unwrap().read().put(key, Value::from(format!("v{i}"))).unwrap();
        }
        prop_assert_eq!(group.total_keys(), key_count);

        for a in 0..added {
            let new = NodeStore::new(NodeId(100 + a), MapEngine::shared());
            group.add_node_and_rebalance(new).unwrap();
            prop_assert_eq!(group.total_keys(), key_count, "keys lost at add #{}", a);
        }
        // All keys readable at their (new) owners.
        let table = group.routing();
        for i in 0..key_count {
            let key = Key::from(format!("pk-{i}"));
            let owner = table.owner_of_key(key.as_slice());
            let got = group.node(owner).unwrap().read().get(&key).unwrap();
            prop_assert_eq!(got, Some(Value::from(format!("v{i}"))), "key pk-{} unreadable", i);
        }
    }

    /// A promoted replica serves exactly what its primary served.
    #[test]
    fn replica_promotion_is_transparent(
        writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..60)
    ) {
        let mut node = NodeStore::new(NodeId(0), MapEngine::shared())
            .with_replica(MapEngine::shared());
        let mut model: BTreeMap<Key, Value> = BTreeMap::new();
        for (k, v) in writes {
            let key = Key::from(format!("rk-{k}"));
            let value = Value::from(format!("rv-{v}"));
            if v % 5 == 0 {
                node.delete(&key).unwrap();
                model.remove(&key);
            } else {
                node.put(key.clone(), value.clone()).unwrap();
                model.insert(key, value);
            }
        }
        node.crash();
        node.promote_replica().unwrap();
        for (k, v) in &model {
            let got = node.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        // Deleted keys stayed deleted through promotion.
        for id in 0..=255u8 {
            let key = Key::from(format!("rk-{id}"));
            if !model.contains_key(&key) {
                prop_assert_eq!(node.get(&key).unwrap(), None);
            }
        }
    }
}

/// Write-back dirty data survives the loss of its primary through the
/// replica node: before a flush, the dirty copy in the primary's cache
/// is its only copy there, and the replica's engine holds the other.
/// The promoted replica serves every acked value, and they are durable
/// in its own directory once it syncs.
#[test]
fn write_back_dirty_data_survives_primary_loss_through_a_replica_node() {
    let (primary_dir, replica_dir) = (
        tierbase::common::test_dir("tb-cluster-wb-primary"),
        tierbase::common::test_dir("tb-cluster-wb-replica"),
    );
    let open = |dir: &std::path::Path| {
        Arc::new(
            TierBase::open(
                TierBaseConfig::builder(dir)
                    .policy(SyncPolicy::WriteBack)
                    .build(),
            )
            .unwrap(),
        )
    };
    let (primary, replica) = (open(primary_dir.path()), open(replica_dir.path()));
    let mut node = NodeStore::new(NodeId(0), primary.clone()).with_replica(replica.clone());
    let mut model: BTreeMap<Key, Value> = BTreeMap::new();
    for i in 0..2000 {
        let key = Key::from(format!("wb-{}", (i * 7919) % 300));
        let value = Value::from(format!("v{i}"));
        node.put(key.clone(), value.clone()).unwrap();
        model.insert(key, value);
    }
    assert!(
        primary.dirty_bytes() > 0,
        "the primary holds unflushed writes"
    );

    node.crash();
    drop(primary);
    node.promote_replica().unwrap();
    for (key, value) in &model {
        assert_eq!(node.get(key).unwrap().as_ref(), Some(value), "{key:?}");
    }

    replica.sync().unwrap();
    drop((node, replica));
    let reopened = open(replica_dir.path());
    for (key, value) in &model {
        assert_eq!(
            reopened.get(key).unwrap().as_ref(),
            Some(value),
            "{key:?} after reopen"
        );
    }
}
