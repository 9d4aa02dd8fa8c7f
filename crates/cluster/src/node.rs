//! Data nodes: a serving engine, an LSN-sequenced replication channel,
//! and the key inventory needed for slot migration.
//!
//! # Write acknowledgement semantics
//!
//! A node write is **acked** (returns `Ok(lsn)`) only after the primary
//! applied it *and* — when a replica is attached — the write shipped
//! through the [`ReplChannel`] and the replica acknowledged it, so the
//! returned LSN is at or below the channel watermark and survives
//! promotion. An `Err` from a write is **indeterminate**: the primary
//! may hold it, but it is covered by no watermark and a failover may
//! lose it — exactly the `tb_common::engine` LSN/ack contract.
//!
//! The key inventory tracks the *primary*, not the ack: a write that
//! applied locally but failed to ship still updates the inventory, so
//! migration and space accounting never diverge from what the primary
//! engine actually holds (the pre-PR-8 dual-write skipped the inventory
//! update on replica failure, stranding the key).

use crate::replication::ReplChannel;
use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tb_common::log::WriteRecord;
use tb_common::{apply_write, slot_for_key, EngineOp, Error, Key, KvEngine, Lsn, Result, Value};

/// Cluster-unique node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// How a data node serves requests.
#[derive(Debug, Clone, Default)]
pub enum ServingMode {
    /// Callers hit the engine directly (the original in-process model).
    #[default]
    Direct,
    /// The engine sits behind a [`tb_frontend::Frontend`]: per-shard
    /// submission queues, write coalescing, and group-commit — the
    /// paper's pipelined data-node serving path (§4.1.2, §4.4).
    Pipelined(tb_frontend::FrontendConfig),
}

/// Factory for fresh replica engines, used to re-seed replication after
/// a promotion consumed the previous replica.
type ReplicaFactory = Box<dyn Fn() -> Arc<dyn KvEngine> + Send + Sync>;

/// A data node: primary engine, optional replication channel, liveness
/// flag, and a key inventory. (The inventory predates
/// [`KvEngine::scan`] and is still what slot migration wants: migration
/// selects by *hash slot*, which is not a contiguous key range.)
pub struct NodeStore {
    pub id: NodeId,
    primary: Arc<dyn KvEngine>,
    /// The serving mode the node was built with, so promotion can
    /// re-wrap the caught-up replica the same way (a pipelined node
    /// stays pipelined across failover).
    mode: ServingMode,
    replication: Option<ReplChannel>,
    /// Builds fresh replica engines for post-promotion re-seeding; a
    /// node without one serves unreplicated after its first failover.
    replica_factory: Option<ReplicaFactory>,
    alive: AtomicBool,
    keys: RwLock<HashSet<Key>>,
    /// Serializes LSN assignment and shipping with the primary apply:
    /// the replication log must see writes in the order the primary
    /// applied them, or promotion replay could resurrect a stale value.
    write_order: Mutex<()>,
    /// Node-local LSN high-water mark. Engines that sequence writes
    /// (the LSM WAL) drive it through [`KvEngine::applied_lsn`];
    /// LSN-less engines fall back to this counter so acks still carry
    /// monotone LSNs.
    seq: AtomicU64,
}

impl NodeStore {
    pub fn new(id: NodeId, primary: Arc<dyn KvEngine>) -> Self {
        Self {
            id,
            primary,
            mode: ServingMode::Direct,
            replication: None,
            replica_factory: None,
            alive: AtomicBool::new(true),
            keys: RwLock::new(HashSet::new()),
            write_order: Mutex::new(()),
            seq: AtomicU64::new(0),
        }
    }

    /// Builds a node whose engine serves in the given mode. Pipelined
    /// mode wraps the engine in a front-end, so every request a client
    /// or the replay harness routes here is a front-end burst: one
    /// sub-batch per shard it touches, and one sync for its writes.
    pub fn with_serving_mode(id: NodeId, engine: Arc<dyn KvEngine>, mode: ServingMode) -> Self {
        let primary = Self::wrap(engine, &mode);
        Self {
            mode,
            ..Self::new(id, primary)
        }
    }

    fn wrap(engine: Arc<dyn KvEngine>, mode: &ServingMode) -> Arc<dyn KvEngine> {
        match mode {
            ServingMode::Direct => engine,
            ServingMode::Pipelined(config) => {
                Arc::new(tb_frontend::Frontend::start(engine, config.clone()))
            }
        }
    }

    /// Attaches a replica behind an LSN-sequenced shipping channel.
    pub fn with_replica(mut self, replica: Arc<dyn KvEngine>) -> Self {
        self.replication = Some(ReplChannel::new(replica));
        self
    }

    /// Attaches a replica *factory*: the node starts replicated (unless
    /// [`Self::with_replica`] already attached one) and — unlike a bare
    /// `with_replica` node — re-seeds a fresh replica after every
    /// promotion, so a second primary crash is survivable.
    pub fn with_replica_factory(
        mut self,
        factory: impl Fn() -> Arc<dyn KvEngine> + Send + Sync + 'static,
    ) -> Self {
        if self.replication.is_none() {
            self.replication = Some(ReplChannel::new(factory()));
        }
        self.replica_factory = Some(Box::new(factory));
        self
    }

    /// Label of the serving engine ("frontend<...>" when pipelined).
    pub fn engine_label(&self) -> String {
        self.primary.label()
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Actively checks the node's health. The local `alive` flag only
    /// catches simulated [`NodeStore::crash`] calls; a *socket-backed*
    /// primary (a tb-server `ServerClient`) can die remotely without
    /// flipping it. The probe therefore also spends one cheap engine
    /// round trip (an empty `multi_get`) and records a remotely-dead
    /// primary as crashed, so failover sweeps see it.
    pub fn probe(&self) -> bool {
        if !self.is_alive() {
            return false;
        }
        match self.primary.multi_get(&[]) {
            Err(Error::Unavailable(_)) => {
                self.alive.store(false, Ordering::SeqCst);
                false
            }
            _ => true,
        }
    }

    /// Whether a replica is currently attached (failover decides
    /// between promotion and slot reassignment on this).
    pub fn has_replica(&self) -> bool {
        self.replication.is_some()
    }

    /// The replication watermark: every write acked at or below it
    /// survives promotion. `None` without a replica.
    pub fn replication_watermark(&self) -> Option<Lsn> {
        self.replication.as_ref().map(ReplChannel::watermark)
    }

    /// Highest LSN this node has acked (session-token recency bound:
    /// a client holding a token at or below this may read here without
    /// violating read-your-writes).
    pub fn session_lsn(&self) -> Lsn {
        Lsn(self.seq.load(Ordering::SeqCst))
    }

    /// Simulates a crash: the primary stops serving. Replication state
    /// is retained for promotion.
    pub fn crash(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Promotes the replica into the primary role; the node serves
    /// again. The caught-up replica is re-wrapped in the node's
    /// original [`ServingMode`], the inventory is pruned to what the
    /// promoted engine actually holds (un-acked writes died with the
    /// old primary), and — when a replica factory is attached — a fresh
    /// replica is seeded from the promoted state so a second crash is
    /// survivable. Errors when no replica exists; a faulted promotion
    /// leaves the channel intact, so a retry resumes the replay.
    pub fn promote_replica(&mut self) -> Result<()> {
        let channel = self
            .replication
            .as_ref()
            .ok_or_else(|| Error::Unavailable(format!("node {:?} has no replica", self.id)))?;
        let caught_up = channel.promote()?;
        let watermark = channel.watermark();
        self.replication = None;
        self.primary = Self::wrap(caught_up.clone(), &self.mode);
        self.seq.store(watermark.0, Ordering::SeqCst);
        // Writes the primary applied but never acked are gone: keep the
        // inventory honest about the promoted engine's contents.
        self.keys
            .write()
            .retain(|k| matches!(caught_up.get(k), Ok(Some(_))));
        if let Some(factory) = &self.replica_factory {
            // Snapshot re-seed: copy promoted state into a fresh
            // replica, then tail-ship from the watermark.
            let fresh = factory();
            for key in self.keys.read().iter() {
                if let Some(value) = caught_up.get(key)? {
                    fresh.put(key.clone(), value)?;
                }
            }
            self.replication = Some(ReplChannel::seeded(fresh, watermark));
        }
        self.alive.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(Error::Unavailable(format!("node {:?} is down", self.id)))
        }
    }

    /// Next covering LSN for a write of `n` ops, folding in the
    /// engine's own sequencing when it has one. Callers hold
    /// `write_order`.
    fn next_lsn(&self, n: u64) -> Lsn {
        let applied = self.primary.applied_lsn().0;
        let covering = applied.max(self.seq.load(Ordering::SeqCst) + n);
        self.seq.store(covering, Ordering::SeqCst);
        Lsn(covering)
    }

    pub fn get(&self, key: &Key) -> Result<Option<Value>> {
        self.check_alive()?;
        self.primary.get(key)
    }

    /// Batched lookups; `result[i]` answers `keys[i]`. One engine
    /// submission: through a pipelined serving mode this rides the
    /// front-end's scatter/gather and the storage engine's overlapped
    /// `apply_batch` read path.
    pub fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        self.check_alive()?;
        self.primary.multi_get(keys)
    }

    /// Ordered range scan of this node's share of the keyspace. One
    /// engine submission; through a pipelined serving mode the scan is
    /// one op in a drained front-end batch.
    pub fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        self.check_alive()?;
        self.primary.scan(start, end, limit)
    }

    /// Applies one write to the primary under `write_order`, records it
    /// in the inventory, then ships it (`value: None` deletes) at the
    /// next LSN. See the module doc for the ack semantics the return
    /// value carries.
    fn write(
        &self,
        key: Key,
        value: Option<Value>,
        apply: impl FnOnce(&dyn KvEngine) -> Result<()>,
    ) -> Result<Lsn> {
        let _order = self.write_order.lock();
        apply(self.primary.as_ref())?;
        match value {
            Some(_) => self.keys.write().insert(key.clone()),
            None => self.keys.write().remove(&key),
        };
        let record = WriteRecord { key, value };
        let lsn = self.next_lsn(1);
        if let Some(channel) = &self.replication {
            channel.ship(lsn, &record)?;
        }
        Ok(lsn)
    }

    pub fn put(&self, key: Key, value: Value) -> Result<Lsn> {
        self.check_alive()?;
        self.write(key.clone(), Some(value.clone()), |e| e.put(key, value))
    }

    pub fn delete(&self, key: &Key) -> Result<Lsn> {
        self.check_alive()?;
        self.write(key.clone(), None, |e| e.delete(key))
    }

    /// Compare-and-set on the primary (`new: None` deletes), atomic
    /// against every other write to this node: the engine's one `Cas`
    /// or `CasDelete` op runs under `write_order`, and a success ships
    /// as a `Put` or a `Delete` in that order. A mismatch writes and
    /// ships nothing.
    pub fn cas(&self, key: Key, expected: Option<&Value>, new: Option<Value>) -> Result<Lsn> {
        self.check_alive()?;
        self.write(key.clone(), new.clone(), |e| {
            apply_write(e, EngineOp::cas(key, expected.cloned(), new))
        })
    }

    /// Coalesced write: one engine submission (through a pipelined
    /// serving mode, one burst made durable by one sync), then
    /// every pair ships through the one replication channel in LSN
    /// order. Returns the covering LSN — the max across the pairs.
    pub fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<Lsn> {
        self.check_alive()?;
        if pairs.is_empty() {
            return Ok(Lsn::NONE);
        }
        let _order = self.write_order.lock();
        self.primary.multi_put(pairs.clone())?;
        {
            let mut keys = self.keys.write();
            for (key, _) in &pairs {
                keys.insert(key.clone());
            }
        }
        let n = pairs.len() as u64;
        let covering = self.next_lsn(n);
        if let Some(channel) = &self.replication {
            let base = covering.0 - n;
            for (i, (key, value)) in pairs.into_iter().enumerate() {
                let record = WriteRecord {
                    key,
                    value: Some(value),
                };
                channel.ship(Lsn(base + 1 + i as u64), &record)?;
            }
        }
        Ok(covering)
    }

    /// Keys whose slot is in `slots` (migration source scan).
    pub fn keys_in_slots(&self, slots: &HashSet<u16>) -> Vec<Key> {
        self.keys
            .read()
            .iter()
            .filter(|k| slots.contains(&slot_for_key(k.as_slice())))
            .cloned()
            .collect()
    }

    /// Removes a key from the inventory and engine without liveness
    /// checks (migration cleanup on the source). The eviction ships
    /// like any delete, so a later promotion does not resurrect a
    /// migrated key on this node.
    pub fn evict_migrated(&self, key: &Key) -> Result<()> {
        self.write(key.clone(), None, |e| e.delete(key)).map(drop)
    }

    /// Number of keys resident.
    pub fn key_count(&self) -> usize {
        self.keys.read().len()
    }

    /// Engine bytes (space accounting).
    pub fn resident_bytes(&self) -> u64 {
        let mut total = self.primary.resident_bytes();
        if let Some(channel) = &self.replication {
            total += channel.resident_bytes();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::fault::{self, FaultMode};
    use tb_common::testutil::MapEngine;

    #[test]
    fn crash_blocks_access() {
        let n = NodeStore::new(NodeId(1), MapEngine::shared());
        n.put(Key::from("a"), Value::from("1")).unwrap();
        n.crash();
        assert!(matches!(n.get(&Key::from("a")), Err(Error::Unavailable(_))));
        assert!(matches!(
            n.put(Key::from("b"), Value::from("2")),
            Err(Error::Unavailable(_))
        ));
    }

    #[test]
    fn replica_promotion_restores_data() {
        let mut n =
            NodeStore::new(NodeId(1), MapEngine::shared()).with_replica(MapEngine::shared());
        n.put(Key::from("a"), Value::from("1")).unwrap();
        n.crash();
        n.promote_replica().unwrap();
        assert_eq!(n.get(&Key::from("a")).unwrap(), Some(Value::from("1")));
    }

    #[test]
    fn promotion_without_replica_fails() {
        let mut n = NodeStore::new(NodeId(1), MapEngine::shared());
        n.crash();
        assert!(matches!(n.promote_replica(), Err(Error::Unavailable(_))));
    }

    #[test]
    fn writes_carry_monotone_lsns_matching_the_watermark() {
        let n = NodeStore::new(NodeId(1), MapEngine::shared()).with_replica(MapEngine::shared());
        let mut last = Lsn::NONE;
        for i in 0..10 {
            let lsn = n.put(Key::from(format!("k{i}")), Value::from("v")).unwrap();
            assert!(lsn > last, "acked LSNs must be strictly monotone");
            last = lsn;
        }
        let covering = n
            .multi_put(
                (0..4)
                    .map(|i| (Key::from(format!("m{i}")), Value::from("v")))
                    .collect(),
            )
            .unwrap();
        assert!(covering > last);
        assert_eq!(n.replication_watermark(), Some(covering));
        assert_eq!(n.session_lsn(), covering);
        let del = n.delete(&Key::from("k0")).unwrap();
        assert!(del > covering);
    }

    #[test]
    fn cas_ships_only_what_applied() {
        let mut n =
            NodeStore::new(NodeId(1), MapEngine::shared()).with_replica(MapEngine::shared());
        let put = n.put(Key::from("a"), Value::from("1")).unwrap();
        assert_eq!(
            n.cas(
                Key::from("a"),
                Some(&Value::from("9")),
                Some(Value::from("x"))
            ),
            Err(Error::CasMismatch)
        );
        assert_eq!(
            n.replication_watermark(),
            Some(put),
            "a mismatch ships nothing"
        );
        let lsn = n
            .cas(
                Key::from("a"),
                Some(&Value::from("1")),
                Some(Value::from("2")),
            )
            .unwrap();
        assert!(lsn > put);
        assert_eq!(n.replication_watermark(), Some(lsn));
        n.put(Key::from("b"), Value::from("1")).unwrap();
        let del = n
            .cas(Key::from("b"), Some(&Value::from("1")), None)
            .unwrap();
        assert_eq!(n.replication_watermark(), Some(del));
        n.crash();
        n.promote_replica().unwrap();
        assert_eq!(n.get(&Key::from("a")).unwrap(), Some(Value::from("2")));
        assert_eq!(
            n.get(&Key::from("b")).unwrap(),
            None,
            "a compare-and-delete ships as a delete"
        );
    }

    #[test]
    fn failed_ship_keeps_primary_ack_and_inventory_aligned() {
        // The pre-PR-8 dual-write skipped the inventory update when the
        // replica write failed: the key existed on the primary but
        // migration could never see it. Now the inventory tracks the
        // primary, and the error tells the caller the ack is
        // indeterminate (covered by no watermark).
        let n = NodeStore::new(NodeId(1), MapEngine::shared()).with_replica(MapEngine::shared());
        let guard = fault::arm_scoped("repl.ship", 1, FaultMode::Error);
        let err = n.put(Key::from("a"), Value::from("1"));
        drop(guard);
        assert!(err.is_err(), "a failed ship must not ack");
        assert_eq!(
            n.get(&Key::from("a")).unwrap(),
            Some(Value::from("1")),
            "primary applied the write"
        );
        assert_eq!(n.key_count(), 1, "inventory tracks the primary");
        assert_eq!(n.replication_watermark(), Some(Lsn::NONE));
        // The write was never acked, so losing it via promotion is
        // allowed — and the log stayed parseable for the next ship.
        n.put(Key::from("b"), Value::from("2")).unwrap();
    }

    #[test]
    fn promotion_preserves_the_serving_mode() {
        let mut n = NodeStore::with_serving_mode(
            NodeId(3),
            MapEngine::shared(),
            ServingMode::Pipelined(tb_frontend::FrontendConfig::with_shards(2)),
        )
        .with_replica(MapEngine::shared());
        assert_eq!(n.engine_label(), "frontend<map>");
        n.put(Key::from("a"), Value::from("1")).unwrap();
        n.crash();
        n.promote_replica().unwrap();
        assert_eq!(
            n.engine_label(),
            "frontend<map>",
            "promotion must re-wrap the replica in the node's serving mode"
        );
        assert_eq!(n.get(&Key::from("a")).unwrap(), Some(Value::from("1")));
    }

    #[test]
    fn replica_factory_survives_two_crashes() {
        let mut n =
            NodeStore::new(NodeId(4), MapEngine::shared()).with_replica_factory(MapEngine::shared);
        n.put(Key::from("a"), Value::from("1")).unwrap();
        n.crash();
        n.promote_replica().unwrap();
        assert!(n.has_replica(), "promotion must re-seed a fresh replica");
        n.put(Key::from("b"), Value::from("2")).unwrap();
        n.crash();
        n.promote_replica().unwrap();
        assert_eq!(n.get(&Key::from("a")).unwrap(), Some(Value::from("1")));
        assert_eq!(n.get(&Key::from("b")).unwrap(), Some(Value::from("2")));
    }

    #[test]
    fn pipelined_serving_mode_wraps_engine_in_frontend() {
        let n = NodeStore::with_serving_mode(
            NodeId(7),
            MapEngine::shared(),
            ServingMode::Pipelined(tb_frontend::FrontendConfig::with_shards(2)),
        );
        assert_eq!(n.engine_label(), "frontend<map>");
        for i in 0..200 {
            n.put(Key::from(format!("k{i}")), Value::from("v")).unwrap();
        }
        assert_eq!(n.get(&Key::from("k42")).unwrap(), Some(Value::from("v")));
        n.delete(&Key::from("k42")).unwrap();
        assert_eq!(n.get(&Key::from("k42")).unwrap(), None);
        // Direct mode leaves the engine unwrapped.
        let d = NodeStore::with_serving_mode(NodeId(8), MapEngine::shared(), ServingMode::Direct);
        assert_eq!(d.engine_label(), "map");
    }

    #[test]
    fn slot_scan_finds_keys() {
        let n = NodeStore::new(NodeId(1), MapEngine::shared());
        let keys: Vec<Key> = (0..50).map(|i| Key::from(format!("k{i}"))).collect();
        for k in &keys {
            n.put(k.clone(), Value::from("v")).unwrap();
        }
        let all_slots: HashSet<u16> = keys.iter().map(|k| slot_for_key(k.as_slice())).collect();
        assert_eq!(n.keys_in_slots(&all_slots).len(), 50);
        let none: HashSet<u16> = HashSet::new();
        assert!(n.keys_in_slots(&none).is_empty());
    }
}
