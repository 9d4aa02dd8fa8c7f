//! The coordinator group: cluster metadata, failover, scaling.
//!
//! Coordinators own the routing table. A group of 2f+1 members elects
//! the lowest-id live member as leader (a stand-in for the consensus
//! election a production deployment runs); only the leader mutates the
//! table. Failover reassigns a dead node's slots after promoting its
//! replica; scale-out migrates slots (and their keys) to a new node.

use crate::node::{NodeId, NodeStore};
use crate::routing::RoutingTable;
use parking_lot::RwLock;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tb_common::{Error, Key, Result};

/// One coordinator process.
pub struct Coordinator {
    pub id: u32,
    alive: AtomicBool,
}

/// The coordinator group plus the data plane it manages.
pub struct CoordinatorGroup {
    members: Vec<Coordinator>,
    nodes: RwLock<Vec<Arc<RwLock<NodeStore>>>>,
    table: RwLock<Arc<RoutingTable>>,
}

impl CoordinatorGroup {
    /// Boots a group of `coordinators` members managing `nodes`, with
    /// slots spread evenly.
    pub fn bootstrap(coordinators: u32, nodes: Vec<NodeStore>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(Error::InvalidArgument("cluster needs data nodes".into()));
        }
        let ids: Vec<NodeId> = nodes.iter().map(|n| n.id).collect();
        let table = RoutingTable::even(1, &ids);
        Ok(Self {
            members: (0..coordinators.max(1))
                .map(|id| Coordinator {
                    id,
                    alive: AtomicBool::new(true),
                })
                .collect(),
            nodes: RwLock::new(
                nodes
                    .into_iter()
                    .map(|n| Arc::new(RwLock::new(n)))
                    .collect(),
            ),
            table: RwLock::new(Arc::new(table)),
        })
    }

    /// The current leader: lowest-id live member.
    pub fn leader(&self) -> Result<u32> {
        self.members
            .iter()
            .filter(|c| c.alive.load(Ordering::SeqCst))
            .map(|c| c.id)
            .min()
            .ok_or_else(|| Error::Unavailable("no live coordinator".into()))
    }

    /// Kills a coordinator member (leader re-election test hook).
    pub fn kill_coordinator(&self, id: u32) {
        if let Some(c) = self.members.iter().find(|c| c.id == id) {
            c.alive.store(false, Ordering::SeqCst);
        }
    }

    /// Current routing snapshot (what clients fetch).
    pub fn routing(&self) -> Arc<RoutingTable> {
        self.table.read().clone()
    }

    /// Looks up a node handle.
    pub fn node(&self, id: NodeId) -> Result<Arc<RwLock<NodeStore>>> {
        self.nodes
            .read()
            .iter()
            .find(|n| n.read().id == id)
            .cloned()
            .ok_or_else(|| Error::InvalidArgument(format!("unknown node {id:?}")))
    }

    /// Health sweep: for every dead node, promote its replica in place
    /// (same id keeps the routing table unchanged) or, with no replica,
    /// reassign its slots to the first live node. Returns the ids
    /// failed over. Only the leader may run this.
    ///
    /// A node *with* a replica whose promotion fails propagates the
    /// error instead of falling through to slot reassignment: the
    /// replica still holds every acked write, and
    /// [`NodeStore::promote_replica`] is resumable, so the next sweep
    /// finishes the promotion — reassigning would discard acked data.
    pub fn run_failover(&self) -> Result<Vec<NodeId>> {
        self.leader()?; // asserts a live coordinator exists
        let mut failed = Vec::new();
        let nodes = self.nodes.read();
        for node in nodes.iter() {
            // Probe, don't just trust the flag: a socket-backed primary
            // whose server process died reports `Unavailable` remotely
            // while the local flag still says alive.
            let dead = !node.read().probe();
            if !dead {
                continue;
            }
            let id = node.read().id;
            if node.read().has_replica() {
                node.write().promote_replica()?;
                failed.push(id);
                continue;
            }
            // No replica: hand the slots to a live peer (data on the
            // dead node is lost — cache semantics).
            let target = nodes
                .iter()
                .find(|n| n.read().is_alive() && n.read().id != id)
                .map(|n| n.read().id);
            if let Some(target) = target {
                let mut table = self.table.write();
                *table = Arc::new(table.reassign_all(id, target));
                failed.push(id);
            } else {
                return Err(Error::Unavailable("no live node to fail over to".into()));
            }
        }
        Ok(failed)
    }

    /// Scale-out: adds a node and migrates an even share of slots (with
    /// their keys) to it. Returns the number of keys moved.
    ///
    /// Migration is copy → flip → evict. The routing flip happens only
    /// after every moved key is resident on the new node, and sources
    /// evict only after the flip: evicting first opened a window where
    /// the still-routed old owner answered `None` for a key it had just
    /// deleted (the pre-PR-8 lost-read bug, pinned by
    /// `tests/cluster_invariants.rs`).
    pub fn add_node_and_rebalance(&self, new_node: NodeStore) -> Result<usize> {
        self.leader()?;
        let new_id = new_node.id;
        let new_arc = Arc::new(RwLock::new(new_node));
        let mut nodes = self.nodes.write();
        let old_count = nodes.len();
        nodes.push(new_arc.clone());

        // Take every (old_count+1)-th slot from each existing owner.
        let table = self.table.read().clone();
        let mut moved_slots: Vec<u16> = Vec::new();
        for node in nodes.iter().take(old_count) {
            let id = node.read().id;
            let owned = table.slots_of(id);
            let share = owned.len() / (old_count + 1);
            moved_slots.extend(owned.into_iter().take(share));
        }

        // Copy: resident keys for the moved slots land on the new node
        // while the sources keep serving them.
        let moved_set: HashSet<u16> = moved_slots.iter().copied().collect();
        let mut migrated: Vec<(Arc<RwLock<NodeStore>>, Key)> = Vec::new();
        for node in nodes.iter().take(old_count) {
            let keys = node.read().keys_in_slots(&moved_set);
            for key in keys {
                if let Some(value) = node.read().get(&key)? {
                    new_arc.read().put(key.clone(), value)?;
                }
                migrated.push((node.clone(), key));
            }
        }

        // Flip: readers now route to the new node, which already holds
        // every moved key.
        {
            let mut table_guard = self.table.write();
            *table_guard = Arc::new(table_guard.reassign_slots(&moved_slots, new_id));
        }

        // Evict: drop the source copies, now unreachable via routing.
        for (node, key) in &migrated {
            node.read().evict_migrated(key)?;
        }
        Ok(migrated.len())
    }

    /// Total cluster key count (diagnostics).
    pub fn total_keys(&self) -> usize {
        self.nodes.read().iter().map(|n| n.read().key_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::testutil::MapEngine;
    use tb_common::{EngineOp, Key, KvEngine, OpOutcome, Value};

    fn cluster(n: u32) -> CoordinatorGroup {
        let nodes = (0..n)
            .map(|i| {
                NodeStore::new(NodeId(i), MapEngine::shared()).with_replica(MapEngine::shared())
            })
            .collect();
        CoordinatorGroup::bootstrap(3, nodes).unwrap()
    }

    #[test]
    fn leader_election_prefers_lowest_live() {
        let c = cluster(2);
        assert_eq!(c.leader().unwrap(), 0);
        c.kill_coordinator(0);
        assert_eq!(c.leader().unwrap(), 1);
        c.kill_coordinator(1);
        assert_eq!(c.leader().unwrap(), 2);
        c.kill_coordinator(2);
        assert!(c.leader().is_err());
    }

    #[test]
    fn failover_promotes_replica_in_place() {
        let c = cluster(2);
        let node0 = c.node(NodeId(0)).unwrap();
        node0
            .read()
            .put(Key::from("on-node-0"), Value::from("x"))
            .unwrap();
        // Only keys routed to node 0 matter; write one we control.
        node0.read().crash();
        let failed = c.run_failover().unwrap();
        assert_eq!(failed, vec![NodeId(0)]);
        // Node serves again with replicated data; routing unchanged.
        assert_eq!(
            node0.read().get(&Key::from("on-node-0")).unwrap(),
            Some(Value::from("x"))
        );
        assert_eq!(c.routing().epoch, 1);
    }

    #[test]
    fn failover_without_replica_reassigns_slots() {
        let nodes = vec![
            NodeStore::new(NodeId(0), MapEngine::shared()), // no replica
            NodeStore::new(NodeId(1), MapEngine::shared()),
        ];
        let c = CoordinatorGroup::bootstrap(1, nodes).unwrap();
        c.node(NodeId(0)).unwrap().read().crash();
        let failed = c.run_failover().unwrap();
        assert_eq!(failed, vec![NodeId(0)]);
        let table = c.routing();
        assert_eq!(table.epoch, 2);
        assert!(table.slots_of(NodeId(0)).is_empty());
    }

    #[test]
    fn scale_out_migrates_keys_and_rebalances() {
        let c = cluster(2);
        // Load keys through routing so inventories match slot owners.
        let table = c.routing();
        for i in 0..300 {
            let key = Key::from(format!("k{i}"));
            let owner = table.owner_of_key(key.as_slice());
            c.node(owner)
                .unwrap()
                .read()
                .put(key, Value::from("v"))
                .unwrap();
        }
        assert_eq!(c.total_keys(), 300);

        let new_node =
            NodeStore::new(NodeId(9), MapEngine::shared()).with_replica(MapEngine::shared());
        let moved = c.add_node_and_rebalance(new_node).unwrap();
        assert!(moved > 0, "some keys must migrate");
        assert_eq!(c.total_keys(), 300, "migration must not lose keys");

        // New table routes migrated keys to the new node, and reads work.
        let table = c.routing();
        assert!(table.epoch >= 2);
        assert!(!table.slots_of(NodeId(9)).is_empty());
        for i in 0..300 {
            let key = Key::from(format!("k{i}"));
            let owner = table.owner_of_key(key.as_slice());
            assert_eq!(
                c.node(owner).unwrap().read().get(&key).unwrap(),
                Some(Value::from("v")),
                "key k{i} lost after rebalance"
            );
        }
    }

    /// An engine whose process "dies" remotely — like a killed
    /// tb-server behind a `ServerClient` — without `NodeStore::crash`
    /// ever being called locally.
    #[derive(Default)]
    struct RemoteEngine {
        dead: std::sync::atomic::AtomicBool,
        map: MapEngine,
    }

    impl KvEngine for RemoteEngine {
        fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
            // A socket client fails the whole exchange, even an empty
            // probe batch.
            if self.dead.load(std::sync::atomic::Ordering::SeqCst) {
                let refused = tb_common::Error::Unavailable("connection refused".into());
                return ops.iter().map(|_| Err(refused.clone())).collect();
            }
            self.map.apply_batch(ops)
        }
        fn resident_bytes(&self) -> u64 {
            0
        }
        fn label(&self) -> String {
            "remote-stub".into()
        }
    }

    #[test]
    fn failover_probe_detects_remotely_dead_primary() {
        let remote = Arc::new(RemoteEngine::default());
        let nodes = vec![
            NodeStore::new(NodeId(0), remote.clone()),
            NodeStore::new(NodeId(1), MapEngine::shared()),
        ];
        let c = CoordinatorGroup::bootstrap(1, nodes).unwrap();
        assert!(c.run_failover().unwrap().is_empty(), "all healthy");

        // The server process behind node 0 dies; the local alive flag
        // still says alive, only a probe can tell.
        remote.dead.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(c.node(NodeId(0)).unwrap().read().is_alive());
        let failed = c.run_failover().unwrap();
        assert_eq!(failed, vec![NodeId(0)]);
        assert!(!c.node(NodeId(0)).unwrap().read().is_alive());
        // No replica: every slot now routes to the surviving node.
        let table = c.routing();
        assert!(table.slots_of(NodeId(0)).is_empty());
        assert_eq!(table.slots_of(NodeId(1)).len(), 16384);
    }
}
