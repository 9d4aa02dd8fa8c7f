//! Smart client and proxy (§3 client tier).
//!
//! The smart client caches a routing snapshot from the coordinators,
//! routes each operation directly to its slot owner, and refreshes the
//! snapshot + retries when a node is down or routing moved (failover
//! transparency). The proxy wraps a client behind the plain
//! [`KvEngine`] interface for thin (native-Redis-style) callers.

use crate::coordinator::CoordinatorGroup;
use crate::node::NodeId;
use crate::routing::RoutingTable;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use tb_common::{EngineOp, Error, Key, KvEngine, Lsn, OpOutcome, Result, Value};

/// A routing-aware cluster client.
pub struct ClusterClient {
    coordinators: Arc<CoordinatorGroup>,
    cached: RwLock<Arc<RoutingTable>>,
    /// Per-node fan-out latency instruments, cached so the hot path
    /// pays a map read instead of a registry lock per call.
    node_histos: RwLock<BTreeMap<NodeId, Arc<tb_obs::Histo>>>,
    /// Per-node LSN session tokens: the highest write LSN this client
    /// was acked by each node. Reads refuse to land on a node that has
    /// not caught up to the token — read-your-writes and monotonic
    /// reads hold across a failover, because a promoted replica resumes
    /// at the replication watermark, which covers every acked write.
    sessions: RwLock<BTreeMap<NodeId, u64>>,
}

impl ClusterClient {
    /// Connects and fetches the initial routing snapshot.
    pub fn connect(coordinators: Arc<CoordinatorGroup>) -> Self {
        let cached = coordinators.routing();
        Self {
            coordinators,
            cached: RwLock::new(cached),
            node_histos: RwLock::new(BTreeMap::new()),
            sessions: RwLock::new(BTreeMap::new()),
        }
    }

    /// This session's token for `node` (test visibility).
    pub fn session_token(&self, node: NodeId) -> Lsn {
        Lsn(self.sessions.read().get(&node).copied().unwrap_or(0))
    }

    /// Folds an acked write LSN into the session token for `node`.
    fn note_write(&self, node: NodeId, lsn: Lsn) {
        if lsn.is_none() {
            return;
        }
        let mut sessions = self.sessions.write();
        let token = sessions.entry(node).or_insert(0);
        *token = (*token).max(lsn.0);
    }

    /// Refuses a read from a node that trails this session's token —
    /// surfaced as `Unavailable` so the caller's failover-retry path
    /// lands the read on a caught-up primary.
    fn check_session(&self, node: &crate::node::NodeStore) -> Result<()> {
        let token = self.sessions.read().get(&node.id).copied().unwrap_or(0);
        if token > 0 && node.session_lsn().0 < token {
            return Err(Error::Unavailable(format!(
                "node {:?} at lsn {} trails session token {token}",
                node.id,
                node.session_lsn().0
            )));
        }
        Ok(())
    }

    /// Epoch of the cached snapshot (test visibility).
    pub fn cached_epoch(&self) -> u64 {
        self.cached.read().epoch
    }

    fn refresh(&self) {
        *self.cached.write() = self.coordinators.routing();
    }

    /// The fan-out latency histogram of one data node.
    fn node_histo(&self, node: NodeId) -> Arc<tb_obs::Histo> {
        if let Some(h) = self.node_histos.read().get(&node) {
            return h.clone();
        }
        let h = tb_obs::global().histogram(&format!("cluster_node{}_fanout_ns", node.0));
        self.node_histos.write().entry(node).or_insert(h).clone()
    }

    /// Records a failover the client just triggered: the counter for
    /// rates, a tracer point event (keyed by the down node) for the
    /// timeline.
    fn note_failover(&self, down: NodeId) {
        tb_obs::counter!("cluster_failovers").add(1);
        tb_obs::tracer().event("cluster.failover", u64::from(down.0));
    }

    /// Routes an operation; on node failure triggers coordinator
    /// failover, refreshes routing, and retries once.
    fn with_owner<T>(
        &self,
        key: &Key,
        f: impl Fn(&crate::node::NodeStore) -> Result<T>,
    ) -> Result<T> {
        for attempt in 0..2 {
            let table = self.cached.read().clone();
            let owner = table.owner_of_key(key.as_slice());
            let node = self.coordinators.node(owner)?;
            let t0 = tb_obs::start();
            let result = {
                let guard = node.read();
                f(&guard)
            };
            if t0.is_some() {
                self.node_histo(owner).record_since(t0);
            }
            match result {
                Err(Error::Unavailable(_)) if attempt == 0 => {
                    // Node down: ask the control plane to fail over,
                    // then retry against fresh routing.
                    self.coordinators.run_failover()?;
                    self.refresh();
                    self.note_failover(owner);
                }
                other => return other,
            }
        }
        Err(Error::Unavailable("retries exhausted".into()))
    }

    pub fn get(&self, key: &Key) -> Result<Option<Value>> {
        self.with_owner(key, |n| {
            self.check_session(n)?;
            n.get(key)
        })
    }

    pub fn put(&self, key: Key, value: Value) -> Result<()> {
        let (node, lsn) = self.with_owner(&key.clone(), move |n| {
            n.put(key.clone(), value.clone()).map(|lsn| (n.id, lsn))
        })?;
        self.note_write(node, lsn);
        Ok(())
    }

    pub fn delete(&self, key: &Key) -> Result<()> {
        let (node, lsn) = self.with_owner(key, |n| n.delete(key).map(|lsn| (n.id, lsn)))?;
        self.note_write(node, lsn);
        Ok(())
    }

    /// Compare-and-set on the key's owner ([`NodeStore::cas`]; `new:
    /// None` deletes): atomic, and shipped to the replica like any
    /// other acked write.
    ///
    /// [`NodeStore::cas`]: crate::node::NodeStore::cas
    pub fn cas(&self, key: Key, expected: Option<&Value>, new: Option<Value>) -> Result<()> {
        let (node, lsn) = self.with_owner(&key, |n| {
            n.cas(key.clone(), expected, new.clone())
                .map(|lsn| (n.id, lsn))
        })?;
        self.note_write(node, lsn);
        Ok(())
    }

    /// Batched lookup across the cluster: keys group by owning node
    /// (one batched call each — the node's engine overlaps the batch's
    /// storage reads), results gather in request order. A down node
    /// triggers one failover + routing refresh, after which **only the
    /// failed groups** regroup against the refreshed table and retry —
    /// groups that already answered keep their results, so a failover
    /// mid-gather never re-fetches (or double-counts in the engines'
    /// batch stats) work that succeeded.
    pub fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        let mut out = vec![None; keys.len()];
        // Request positions still awaiting an answer.
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        let mut down: Option<NodeId> = None;
        for attempt in 0..2 {
            let table = self.cached.read().clone();
            let mut groups: BTreeMap<NodeId, (Vec<usize>, Vec<Key>)> = BTreeMap::new();
            for &i in &pending {
                let owner = table.owner_of_key(keys[i].as_slice());
                let entry = groups.entry(owner).or_default();
                entry.0.push(i);
                entry.1.push(keys[i].clone());
            }
            let mut failed: Vec<usize> = Vec::new();
            for (owner, (idx, group)) in groups {
                let node = self.coordinators.node(owner)?;
                let t0 = tb_obs::start();
                let values = {
                    let guard = node.read();
                    self.check_session(&guard)
                        .and_then(|_| guard.multi_get(&group))
                };
                if t0.is_some() {
                    self.node_histo(owner).record_since(t0);
                }
                match values {
                    Ok(values) => {
                        for (slot, v) in idx.into_iter().zip(values) {
                            out[slot] = v;
                        }
                    }
                    Err(Error::Unavailable(_)) if attempt == 0 => {
                        // Remember the group; keep gathering the rest of
                        // this attempt before failing over once.
                        failed.extend(idx);
                        down = Some(owner);
                    }
                    Err(e) => return Err(e),
                }
            }
            if failed.is_empty() {
                return Ok(out);
            }
            self.coordinators.run_failover()?;
            self.refresh();
            if let Some(owner) = down.take() {
                self.note_failover(owner);
            }
            // The retry regroups only the failed positions against the
            // refreshed table.
            tb_obs::counter!("cluster_regroups").add(1);
            pending = failed;
        }
        Err(Error::Unavailable("retries exhausted".into()))
    }

    /// Ordered range scan across the cluster. Hash-slot routing
    /// scatters any key range over every node, so the scan fans out to
    /// each slot owner (whose engine runs its own batched scan, bounded
    /// by `limit`) and merges the per-node results in key order,
    /// truncated to `limit`. A down node triggers one failover +
    /// routing refresh, after which **only the failed nodes' slots**
    /// retry against their refreshed owners — shares that already
    /// answered are kept, the multi_get partial-retry shape. The merge
    /// dedups by key (first answer wins), so a retry that lands on a
    /// node which already contributed cannot double-report.
    pub fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        let mut merged: BTreeMap<Key, Value> = BTreeMap::new();
        let mut pending: Vec<NodeId> = self
            .cached
            .read()
            .distribution()
            .into_iter()
            .map(|(node, _)| node)
            .collect();
        for attempt in 0..2 {
            let table = self.cached.read().clone();
            let mut failed: Vec<NodeId> = Vec::new();
            for &owner in &pending {
                let node = self.coordinators.node(owner)?;
                let t0 = tb_obs::start();
                let rows = {
                    let guard = node.read();
                    self.check_session(&guard)
                        .and_then(|_| guard.scan(start, end, limit))
                };
                if t0.is_some() {
                    self.node_histo(owner).record_since(t0);
                }
                match rows {
                    Ok(rows) => {
                        for (k, v) in rows {
                            merged.entry(k).or_insert(v);
                        }
                    }
                    Err(Error::Unavailable(_)) if attempt == 0 => failed.push(owner),
                    Err(e) => return Err(e),
                }
            }
            if failed.is_empty() {
                return Ok(merged.into_iter().take(limit).collect());
            }
            self.coordinators.run_failover()?;
            self.refresh();
            for &owner in &failed {
                self.note_failover(owner);
            }
            tb_obs::counter!("cluster_regroups").add(1);
            // Retry against whoever now owns the failed nodes' slots
            // (the promoted node keeps its id; a reassignment moves
            // them to a surviving peer).
            let after = self.cached.read().clone();
            let mut retry: Vec<NodeId> = failed
                .iter()
                .flat_map(|&down| table.slots_of(down))
                .map(|slot| after.owner_of_slot(slot))
                .collect();
            retry.sort_unstable();
            retry.dedup();
            pending = retry;
        }
        Err(Error::Unavailable("retries exhausted".into()))
    }
}

/// Proxy service: a [`KvEngine`] façade over the cluster for clients
/// that do not speak the routing protocol.
pub struct Proxy {
    client: ClusterClient,
}

impl Proxy {
    pub fn new(coordinators: Arc<CoordinatorGroup>) -> Self {
        Self {
            client: ClusterClient::connect(coordinators),
        }
    }
}

impl KvEngine for Proxy {
    /// Lowers each op onto the client's routed entry points: a
    /// `MultiGet` keeps the client's per-node grouping, a `Scan` fans
    /// out, a `Cas` runs atomically on its owner. Those entry points
    /// erase per-node LSNs (the client still folds them into its
    /// session tokens), so write acks carry `Lsn::NONE`.
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        let c = &self.client;
        let done = |written: Result<()>| written.map(|()| OpOutcome::Done(Lsn::NONE));
        ops.into_iter()
            .map(|op| match op {
                EngineOp::Get(key) => c.get(&key).map(OpOutcome::Value),
                EngineOp::MultiGet(keys) => c.multi_get(&keys).map(OpOutcome::Values),
                EngineOp::Scan { start, end, limit } => {
                    c.scan(&start, end.as_ref(), limit).map(OpOutcome::Range)
                }
                EngineOp::Put(key, value) => done(c.put(key, value)),
                EngineOp::Delete(key) => done(c.delete(&key)),
                EngineOp::Cas { key, expected, new } => {
                    done(c.cas(key, expected.as_ref(), Some(new)))
                }
                EngineOp::CasDelete { key, expected } => done(c.cas(key, expected.as_ref(), None)),
                // Per-key puts: each pair reaches its owning node.
                EngineOp::MultiPut(pairs) => {
                    done(pairs.into_iter().try_for_each(|(k, v)| c.put(k, v)))
                }
            })
            .collect()
    }

    fn resident_bytes(&self) -> u64 {
        0 // the proxy holds no data
    }

    fn label(&self) -> String {
        "tierbase-proxy".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::CoordinatorGroup;
    use crate::node::{NodeId, NodeStore};
    use tb_common::testutil::MapEngine;

    fn cluster(n: u32) -> Arc<CoordinatorGroup> {
        let nodes = (0..n)
            .map(|i| {
                NodeStore::new(NodeId(i), MapEngine::shared()).with_replica(MapEngine::shared())
            })
            .collect();
        Arc::new(CoordinatorGroup::bootstrap(3, nodes).unwrap())
    }

    #[test]
    fn client_routes_and_reads_back() {
        let c = cluster(4);
        let client = ClusterClient::connect(c);
        for i in 0..500 {
            client
                .put(Key::from(format!("k{i}")), Value::from(format!("v{i}")))
                .unwrap();
        }
        for i in 0..500 {
            assert_eq!(
                client.get(&Key::from(format!("k{i}"))).unwrap(),
                Some(Value::from(format!("v{i}")))
            );
        }
        client.delete(&Key::from("k0")).unwrap();
        assert_eq!(client.get(&Key::from("k0")).unwrap(), None);
    }

    #[test]
    fn client_survives_node_failure_via_failover() {
        let c = cluster(2);
        let client = ClusterClient::connect(c.clone());
        for i in 0..200 {
            client
                .put(Key::from(format!("k{i}")), Value::from("v"))
                .unwrap();
        }
        // Crash node 0; the next operations trigger transparent failover
        // (replica promotion) and succeed.
        c.node(NodeId(0)).unwrap().read().crash();
        for i in 0..200 {
            assert_eq!(
                client.get(&Key::from(format!("k{i}"))).unwrap(),
                Some(Value::from("v")),
                "key k{i} unreadable after failover"
            );
        }
    }

    #[test]
    fn pipelined_nodes_serve_concurrent_cluster_replay() {
        use crate::node::ServingMode;
        // Every data node serves through a front-end: submission
        // queues, coalesced writes, group commit.
        let nodes = (0..3)
            .map(|i| {
                NodeStore::with_serving_mode(
                    NodeId(i),
                    MapEngine::shared(),
                    ServingMode::Pipelined(tb_frontend::FrontendConfig::with_shards(2)),
                )
            })
            .collect();
        let c = Arc::new(CoordinatorGroup::bootstrap(3, nodes).unwrap());
        let client = Arc::new(ClusterClient::connect(c.clone()));
        std::thread::scope(|s| {
            for t in 0..4 {
                let client = client.clone();
                s.spawn(move || {
                    for i in 0..250 {
                        client
                            .put(
                                Key::from(format!("t{t}:k{i}")),
                                Value::from(format!("v{i}")),
                            )
                            .unwrap();
                    }
                });
            }
        });
        for t in 0..4 {
            for i in 0..250 {
                assert_eq!(
                    client.get(&Key::from(format!("t{t}:k{i}"))).unwrap(),
                    Some(Value::from(format!("v{i}"))),
                    "t{t}:k{i} lost through the pipelined node"
                );
            }
        }
        for id in 0..3 {
            let node = c.node(NodeId(id)).unwrap();
            assert_eq!(node.read().engine_label(), "frontend<map>");
        }
    }

    #[test]
    fn multi_get_gathers_across_nodes_in_key_order() {
        let c = cluster(4);
        let client = ClusterClient::connect(c.clone());
        for i in 0..64 {
            client
                .put(Key::from(format!("mg{i}")), Value::from(format!("v{i}")))
                .unwrap();
        }
        // Hits interleaved with misses, spanning every node.
        let keys: Vec<Key> = (0..128).map(|i| Key::from(format!("mg{i}"))).collect();
        let got = client.multi_get(&keys).unwrap();
        assert_eq!(got.len(), 128);
        for (i, item) in got.iter().enumerate() {
            if i < 64 {
                assert_eq!(
                    item.as_ref(),
                    Some(&Value::from(format!("v{i}"))),
                    "key mg{i}"
                );
            } else {
                assert!(item.is_none(), "key mg{i} should miss");
            }
        }
        // Survives a node failure via failover + regroup.
        c.node(NodeId(0)).unwrap().read().crash();
        let got = client.multi_get(&keys).unwrap();
        assert_eq!(got.iter().filter(|v| v.is_some()).count(), 64);
    }

    /// Engine that counts `MultiGet` ops, to pin down exactly which
    /// groups a failover retry re-fetches.
    #[derive(Default)]
    struct CountingEngine {
        map: MapEngine,
        multi_gets: std::sync::atomic::AtomicU64,
    }

    impl KvEngine for CountingEngine {
        fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
            // Empty batches are failover liveness probes
            // (`NodeStore::probe`), not data fetches — don't count them.
            let fetches = ops
                .iter()
                .filter(|op| matches!(op, EngineOp::MultiGet(keys) if !keys.is_empty()))
                .count();
            self.multi_gets
                .fetch_add(fetches as u64, std::sync::atomic::Ordering::Relaxed);
            self.map.apply_batch(ops)
        }
        fn resident_bytes(&self) -> u64 {
            0
        }
        fn label(&self) -> String {
            "counting-map".into()
        }
    }

    #[test]
    fn multi_get_failover_retries_only_the_failed_group() {
        // Node 0 healthy (counting engine), node 1 crashed. The gather
        // visits nodes in id order, so node 0's group succeeds before
        // node 1's fails — the failover retry must re-fetch *only* the
        // failed group, not restart the whole key set against node 0.
        let healthy = Arc::new(CountingEngine::default());
        let nodes = vec![
            NodeStore::new(NodeId(0), healthy.clone()).with_replica(MapEngine::shared()),
            NodeStore::new(NodeId(1), MapEngine::shared()).with_replica(MapEngine::shared()),
        ];
        let c = Arc::new(CoordinatorGroup::bootstrap(3, nodes).unwrap());
        let client = ClusterClient::connect(c.clone());
        let keys: Vec<Key> = (0..96).map(|i| Key::from(format!("fg{i}"))).collect();
        for key in &keys {
            client.put(key.clone(), Value::from("v")).unwrap();
        }
        let table = c.routing();
        assert!(
            keys.iter()
                .any(|k| table.owner_of_key(k.as_slice()) == NodeId(1)),
            "test needs keys on the crashing node"
        );
        healthy
            .multi_gets
            .store(0, std::sync::atomic::Ordering::Relaxed);
        c.node(NodeId(1)).unwrap().read().crash();
        let got = client.multi_get(&keys).unwrap();
        assert!(
            got.iter().all(|v| v.as_ref() == Some(&Value::from("v"))),
            "every key must survive the failover"
        );
        assert_eq!(
            healthy
                .multi_gets
                .load(std::sync::atomic::Ordering::Relaxed),
            1,
            "the healthy node's group was re-fetched after an unrelated failover"
        );
    }

    #[test]
    fn pipelined_nodes_batch_reads_through_the_engine_batch_path() {
        use crate::node::ServingMode;
        // Pipelined nodes over the real LSM engine: a client multi_get
        // must flow node → front-end scatter/gather → LsmDb::apply_batch,
        // which leaves its trace in the engine's dedup counters.
        let dir = tb_common::test_dir("tb-cluster-batch");
        let dbs: Vec<Arc<tb_lsm::LsmDb>> = (0..2)
            .map(|i| {
                let config = tb_lsm::LsmConfig::small_for_tests(dir.join(format!("n{i}")));
                Arc::new(tb_lsm::LsmDb::open(config).unwrap())
            })
            .collect();
        let nodes = dbs
            .iter()
            .enumerate()
            .map(|(i, db)| {
                NodeStore::with_serving_mode(
                    NodeId(i as u32),
                    db.clone() as Arc<dyn KvEngine>,
                    ServingMode::Pipelined(tb_frontend::FrontendConfig::with_shards(2)),
                )
            })
            .collect();
        let c = Arc::new(CoordinatorGroup::bootstrap(1, nodes).unwrap());
        let client = ClusterClient::connect(c);
        for i in 0..400 {
            client
                .put(Key::from(format!("bk{i:04}")), Value::from(format!("v{i}")))
                .unwrap();
        }
        let keys: Vec<Key> = (0..400).map(|i| Key::from(format!("bk{i:04}"))).collect();
        let got = client.multi_get(&keys).unwrap();
        assert!(
            got.iter().all(|v| v.is_some()),
            "every key written reads back"
        );
        let batched: u64 = dbs
            .iter()
            .map(|db| {
                let s = KvEngine::batch_read_stats(db.as_ref());
                s.blocks_read + s.memtable_hits
            })
            .sum();
        assert!(
            batched > 0,
            "client multi_get never reached the engines' batch read path"
        );
    }

    #[test]
    fn scan_fans_out_merges_in_key_order_and_survives_failover() {
        let c = cluster(4);
        let client = ClusterClient::connect(c.clone());
        for i in 0..80 {
            client
                .put(Key::from(format!("sc{i:03}")), Value::from(format!("v{i}")))
                .unwrap();
        }
        let start = Key::from("sc010");
        let end = Key::from("sc050");
        let got = client.scan(&start, Some(&end), 1000).unwrap();
        assert_eq!(got.len(), 40, "keys 10..50");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered");
        assert_eq!(got[0], (Key::from("sc010"), Value::from("v10")));
        assert_eq!(got.last().unwrap().0, Key::from("sc049"), "end exclusive");

        // The limit binds globally, not per node.
        let limited = client.scan(&start, Some(&end), 7).unwrap();
        assert_eq!(limited, got[..7].to_vec());

        // Unbounded tail scan.
        assert_eq!(
            client.scan(&Key::from("sc070"), None, 1000).unwrap().len(),
            10
        );

        // A crashed node fails over (replica promotion) and only its
        // share retries; the merged result is complete.
        c.node(NodeId(0)).unwrap().read().crash();
        let after = client.scan(&start, Some(&end), 1000).unwrap();
        assert_eq!(after, got, "scan lost rows across failover");
    }

    #[test]
    fn proxy_is_a_kv_engine() {
        let c = cluster(2);
        let proxy = Proxy::new(c);
        proxy.put(Key::from("a"), Value::from("1")).unwrap();
        assert_eq!(proxy.get(&Key::from("a")).unwrap(), Some(Value::from("1")));
        assert_eq!(proxy.label(), "tierbase-proxy");
        // CAS runs on the key's owner (`ClusterClient::cas`).
        proxy
            .cas(Key::from("a"), Some(&Value::from("1")), Value::from("2"))
            .unwrap();
        assert_eq!(proxy.get(&Key::from("a")).unwrap(), Some(Value::from("2")));
    }

    #[test]
    fn session_tokens_track_acked_writes_and_survive_failover() {
        let c = cluster(2);
        let client = ClusterClient::connect(c.clone());
        for i in 0..64 {
            client
                .put(Key::from(format!("sy{i}")), Value::from(format!("v{i}")))
                .unwrap();
        }
        // Every node the client wrote through holds a session token.
        let table = c.routing();
        let wrote: std::collections::BTreeSet<NodeId> = (0..64)
            .map(|i| table.owner_of_key(Key::from(format!("sy{i}")).as_slice()))
            .collect();
        for &node in &wrote {
            assert!(
                client.session_token(node) > Lsn::NONE,
                "no session token for {node:?}"
            );
        }
        // The promoted replica resumes at the replication watermark,
        // which covers every acked write — so reads carrying the
        // session token still land (read-your-writes across failover).
        c.node(NodeId(0)).unwrap().read().crash();
        for i in 0..64 {
            assert_eq!(
                client.get(&Key::from(format!("sy{i}"))).unwrap(),
                Some(Value::from(format!("v{i}"))),
                "sy{i} violated read-your-writes after failover"
            );
        }
    }

    #[test]
    fn routing_refresh_on_epoch_change() {
        let c = cluster(2);
        let client = ClusterClient::connect(c.clone());
        let epoch0 = client.cached_epoch();
        // Crash a node *without* a replica path by killing both; force a
        // slot reassignment through a no-replica node.
        let nodes_without_replica = vec![
            NodeStore::new(NodeId(10), MapEngine::shared()),
            NodeStore::new(NodeId(11), MapEngine::shared()),
        ];
        let c2 = Arc::new(CoordinatorGroup::bootstrap(1, nodes_without_replica).unwrap());
        let client2 = ClusterClient::connect(c2.clone());
        c2.node(NodeId(10)).unwrap().read().crash();
        // A get on a key owned by node 10 fails over and refreshes.
        let mut key = Key::from("probe");
        for i in 0..10_000 {
            let k = Key::from(format!("probe{i}"));
            if c2.routing().owner_of_key(k.as_slice()) == NodeId(10) {
                key = k;
                break;
            }
        }
        assert_eq!(client2.get(&key).unwrap(), None);
        assert!(client2.cached_epoch() > epoch0);
    }
}
