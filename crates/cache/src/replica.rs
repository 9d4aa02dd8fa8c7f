//! Master→replica replication of cache contents (§4.1.2).
//!
//! Write-back keeps the *only* copy of dirty data in the cache tier
//! until the batched storage flush, so the cache must be replicated to
//! survive node loss. Writes apply to the primary and replicate
//! synchronously to every live replica; a replica can be promoted when
//! the primary fails. The space cost of replication (the `×2` the paper
//! charges replicated configurations) falls out of `resident_bytes`.

use crate::cache::{CacheConfig, ShardedCache};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tb_common::{Error, Key, Result, Value};

/// How writes propagate from the primary to its replicas — the paper's
/// "various replication protocols to accommodate different reliability
/// requirements".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Every live replica acknowledges before the write returns.
    /// Strongest: failover never loses an acknowledged write.
    Sync,
    /// The write returns once the primary plus enough replicas for a
    /// group majority have it (`(replicas + 1) / 2 + 1` copies total).
    /// Survives minority replica loss.
    Quorum,
    /// The write returns after the primary alone; replication is queued
    /// and applied by [`ReplicatedCache::drain_replication`]. Cheapest,
    /// but failover can lose queued writes (see
    /// [`ReplicatedCache::replication_lag`]).
    Async,
}

/// One replica node.
struct Replica {
    cache: Arc<ShardedCache>,
    alive: AtomicBool,
}

/// One replicated cache write, applied to each copy in turn (and
/// queued as is under `Async`).
enum RepOp {
    Insert {
        key: Key,
        value: Value,
        dirty: bool,
        expires_at: Option<u64>,
    },
    /// [`ShardedCache::fill`]: insert-if-absent on every copy.
    Fill {
        key: Key,
        value: Value,
        expires_at: Option<u64>,
    },
    Remove(Key),
    MarkClean(Key, Value),
}

impl RepOp {
    /// Applies the write to one copy. `Ok(false)` when a fill found the
    /// key present and left the copy alone.
    fn apply(&self, cache: &ShardedCache) -> Result<bool> {
        match self {
            RepOp::Insert {
                key,
                value,
                dirty,
                expires_at,
            } => cache
                .insert_full(key.clone(), value.clone(), *dirty, *expires_at)
                .map(|_| true),
            RepOp::Fill {
                key,
                value,
                expires_at,
            } => cache.fill(key.clone(), value.clone(), *expires_at),
            RepOp::Remove(key) => {
                cache.remove(key);
                Ok(true)
            }
            RepOp::MarkClean(key, flushed) => {
                cache.mark_clean(key, flushed);
                Ok(true)
            }
        }
    }

    /// Whether the write stores an entry (what `replicated_writes` counts).
    fn stores(&self) -> bool {
        matches!(self, RepOp::Insert { .. } | RepOp::Fill { .. })
    }
}

/// A replication group: one primary cache plus N replicas.
pub struct ReplicatedCache {
    primary: Arc<ShardedCache>,
    replicas: Vec<Replica>,
    mode: ReplicationMode,
    pending: Mutex<VecDeque<RepOp>>,
    pub replicated_writes: AtomicU64,
}

impl ReplicatedCache {
    /// Builds a group with `replica_count` replicas, each configured
    /// like the primary, replicating synchronously.
    pub fn new(config: CacheConfig, replica_count: usize) -> Self {
        Self::with_mode(config, replica_count, ReplicationMode::Sync)
    }

    /// [`new`](Self::new) with an explicit replication protocol.
    pub fn with_mode(config: CacheConfig, replica_count: usize, mode: ReplicationMode) -> Self {
        let primary = Arc::new(ShardedCache::new(config.clone()));
        let replicas = (0..replica_count)
            .map(|_| Replica {
                cache: Arc::new(ShardedCache::new(config.clone())),
                alive: AtomicBool::new(true),
            })
            .collect();
        Self {
            primary,
            replicas,
            mode,
            pending: Mutex::new(VecDeque::new()),
            replicated_writes: AtomicU64::new(0),
        }
    }

    /// The group's replication protocol.
    pub fn mode(&self) -> ReplicationMode {
        self.mode
    }

    /// Copies a majority needs, counting the primary (`Quorum` mode).
    fn quorum_size(&self) -> usize {
        self.replicas.len().div_ceil(2) + 1
    }

    /// Writes queued but not yet applied to replicas (`Async` mode).
    pub fn replication_lag(&self) -> usize {
        self.pending.lock().len()
    }

    /// Applies up to `max_ops` queued async replication records to all
    /// live replicas, in order. Returns how many were applied.
    pub fn drain_replication(&self, max_ops: usize) -> Result<usize> {
        let mut applied = 0;
        while applied < max_ops {
            let Some(op) = self.pending.lock().pop_front() else {
                break;
            };
            for r in self.live() {
                if op.apply(&r.cache)? && op.stores() {
                    self.replicated_writes.fetch_add(1, Ordering::Relaxed);
                }
            }
            applied += 1;
        }
        Ok(applied)
    }

    /// The primary cache (normal read/write path).
    pub fn primary(&self) -> &Arc<ShardedCache> {
        &self.primary
    }

    fn live(&self) -> impl Iterator<Item = &Replica> {
        self.replicas
            .iter()
            .filter(|r| r.alive.load(Ordering::Relaxed))
    }

    /// Number of replicas still marked alive.
    pub fn live_replicas(&self) -> usize {
        self.live().count()
    }

    /// Applies `op` to the primary, then propagates it: queued under
    /// `Async`, applied to every live replica otherwise (a replica error
    /// fails the call under `Sync` only). Returns how many copies took
    /// it, the primary included; 0 when the primary's fill was skipped.
    fn replicate(&self, op: RepOp) -> Result<usize> {
        if !op.apply(&self.primary)? {
            return Ok(0);
        }
        if self.mode == ReplicationMode::Async {
            self.pending.lock().push_back(op);
            return Ok(1);
        }
        let mut copies = 1;
        for r in self.live() {
            match op.apply(&r.cache) {
                Ok(took) => {
                    copies += usize::from(took);
                    if took && op.stores() {
                        self.replicated_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if self.mode == ReplicationMode::Sync => return Err(e),
                Err(_) => {}
            }
        }
        Ok(copies)
    }

    /// Writes to the primary and synchronously replicates.
    pub fn insert(&self, key: Key, value: Value, dirty: bool) -> Result<()> {
        self.insert_full(key, value, dirty, None)
    }

    /// [`insert`](Self::insert) with an absolute expiry deadline, which
    /// replicates with the value so TTLs survive failover. Propagation
    /// follows the group's [`ReplicationMode`].
    pub fn insert_full(
        &self,
        key: Key,
        value: Value,
        dirty: bool,
        expires_at: Option<u64>,
    ) -> Result<()> {
        let copies = self.replicate(RepOp::Insert {
            key,
            value,
            dirty,
            expires_at,
        })?;
        if self.mode == ReplicationMode::Quorum && copies < self.quorum_size() {
            return Err(Error::Unavailable(format!(
                "quorum lost: {copies}/{} copies (need {})",
                self.replicas.len() + 1,
                self.quorum_size()
            )));
        }
        Ok(())
    }

    /// [`ShardedCache::fill`] on the primary and, when it went in there,
    /// on every live replica. Each copy applies the same
    /// insert-if-absent rule, so a write that reached a replica first is
    /// never replaced by an older fetched copy.
    pub fn fill(&self, key: Key, value: Value, expires_at: Option<u64>) -> Result<bool> {
        let op = RepOp::Fill {
            key,
            value,
            expires_at,
        };
        Ok(self.replicate(op)? > 0)
    }

    /// Sets a TTL on the primary and all live replicas. Returns the
    /// primary's answer (`false` = key absent).
    pub fn expire(&self, key: &Key, ttl: std::time::Duration) -> bool {
        let hit = self.primary.expire(key, ttl);
        for r in self.live() {
            r.cache.expire(key, ttl);
        }
        hit
    }

    /// Clears a TTL on the primary and all live replicas.
    pub fn persist(&self, key: &Key) -> bool {
        let hit = self.primary.persist(key);
        for r in self.live() {
            r.cache.persist(key);
        }
        hit
    }

    /// Active expiration on the primary (replicas sweep the same keys).
    /// Returns the expired keys for storage-tier propagation.
    pub fn sweep_expired(&self) -> Vec<Key> {
        let keys = self.primary.sweep_expired();
        for r in self.live() {
            r.cache.sweep_expired();
        }
        keys
    }

    /// Removes from the primary and all live replicas. Under `Async`
    /// the replica-side remove is queued so it stays ordered with
    /// queued inserts of the same key.
    pub fn remove(&self, key: &Key) {
        let _ = self.replicate(RepOp::Remove(key.clone()));
    }

    /// Marks an entry clean everywhere after a storage flush wrote
    /// `flushed` for it (queued under `Async` to preserve write
    /// ordering). Every copy cleans only if it still holds those bytes
    /// — see [`ShardedCache::mark_clean`].
    pub fn mark_clean(&self, key: &Key, flushed: &Value) {
        let _ = self.replicate(RepOp::MarkClean(key.clone(), flushed.clone()));
    }

    /// Reads from the primary.
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.primary.get(key)
    }

    /// Simulates a replica crash.
    pub fn kill_replica(&self, idx: usize) -> Result<()> {
        let r = self
            .replicas
            .get(idx)
            .ok_or_else(|| Error::InvalidArgument(format!("no replica {idx}")))?;
        r.alive.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// Promotes replica `idx` to primary (primary failover). The dirty
    /// data it replicated — including unsynchronized write-back state —
    /// survives the promotion.
    pub fn promote_replica(&mut self, idx: usize) -> Result<()> {
        let r = self
            .replicas
            .get(idx)
            .ok_or_else(|| Error::InvalidArgument(format!("no replica {idx}")))?;
        if !r.alive.load(Ordering::Relaxed) {
            return Err(Error::Unavailable(format!("replica {idx} is dead")));
        }
        let new_primary = r.cache.clone();
        let old_primary = std::mem::replace(&mut self.primary, new_primary);
        // Old primary becomes a (dead) replica slot; callers re-add
        // capacity out of band.
        self.replicas[idx] = Replica {
            cache: old_primary,
            alive: AtomicBool::new(false),
        };
        Ok(())
    }

    /// Total bytes across primary and live replicas — the replicated
    /// space cost the paper's model charges.
    pub fn total_resident_bytes(&self) -> u64 {
        let mut total = self.primary.used_bytes();
        for r in self.live() {
            total += r.cache.used_bytes();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(replicas: usize) -> ReplicatedCache {
        ReplicatedCache::new(CacheConfig::with_capacity(1 << 20), replicas)
    }

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn writes_reach_all_replicas() {
        let g = group(2);
        g.insert(k("a"), v("1"), true).unwrap();
        assert_eq!(g.replicated_writes.load(Ordering::Relaxed), 2);
        assert_eq!(g.get(&k("a")), Some(v("1")));
        // Replication doubles (here triples) resident bytes.
        let total = g.total_resident_bytes();
        assert_eq!(total % 3, 0);
        assert!(total > 0);
    }

    #[test]
    fn dead_replica_skipped() {
        let g = group(2);
        g.kill_replica(0).unwrap();
        g.insert(k("a"), v("1"), false).unwrap();
        assert_eq!(g.replicated_writes.load(Ordering::Relaxed), 1);
        assert_eq!(g.live_replicas(), 1);
    }

    #[test]
    fn promotion_preserves_dirty_data() {
        let mut g = group(1);
        g.insert(k("dirty-key"), v("unsynced"), true).unwrap();
        // Primary dies; promote replica 0.
        g.promote_replica(0).unwrap();
        assert_eq!(g.get(&k("dirty-key")), Some(v("unsynced")));
        let entry = g.primary().peek_entry(&k("dirty-key")).unwrap();
        assert!(entry.dirty, "dirty flag must survive failover");
    }

    #[test]
    fn promote_dead_replica_fails() {
        let mut g = group(1);
        g.kill_replica(0).unwrap();
        assert!(matches!(g.promote_replica(0), Err(Error::Unavailable(_))));
        assert!(matches!(
            g.promote_replica(5),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn mark_clean_propagates() {
        let g = group(1);
        g.insert(k("a"), v("1"), true).unwrap();
        g.mark_clean(&k("a"), &v("1"));
        assert_eq!(g.primary().dirty_bytes(), 0);
        // Promote and confirm the replica also saw the clean.
        let mut g = g;
        g.promote_replica(0).unwrap();
        assert_eq!(g.primary().dirty_bytes(), 0);
    }

    #[test]
    fn fill_reaches_replicas_without_replacing_their_writes() {
        let mut g = group(1);
        assert!(g.fill(k("a"), v("fetched"), None).unwrap());
        // A write that reached only the replica (the primary's copy was
        // since dropped) is newer than any fetch: the fill lands on the
        // primary, not over it.
        g.replicas[0].cache.insert(k("b"), v("new"), true).unwrap();
        assert!(g.fill(k("b"), v("old"), None).unwrap());
        assert!(!g.fill(k("b"), v("older"), None).unwrap());
        g.promote_replica(0).unwrap();
        assert_eq!(g.get(&k("a")), Some(v("fetched")));
        assert_eq!(g.get(&k("b")), Some(v("new")));
        assert!(g.primary().peek_entry(&k("b")).unwrap().dirty);
    }

    #[test]
    fn remove_propagates() {
        let mut g = group(1);
        g.insert(k("a"), v("1"), false).unwrap();
        g.remove(&k("a"));
        g.promote_replica(0).unwrap();
        assert_eq!(g.get(&k("a")), None);
    }

    #[test]
    fn ttl_survives_failover() {
        let clock = tb_common::ManualClock::new();
        let mk = || CacheConfig {
            clock: clock.clone(),
            ..CacheConfig::with_capacity(1 << 20)
        };
        let mut g = ReplicatedCache::new(mk(), 1);
        let deadline = Some(5_000_000_000); // t = 5 s
        g.insert_full(k("session"), v("tok"), false, deadline)
            .unwrap();
        g.promote_replica(0).unwrap();
        assert_eq!(g.get(&k("session")), Some(v("tok")));
        clock.advance(std::time::Duration::from_secs(5));
        assert_eq!(
            g.get(&k("session")),
            None,
            "TTL must be honored on the promoted replica"
        );
    }

    #[test]
    fn expire_persist_propagate() {
        let clock = tb_common::ManualClock::new();
        let mk = || CacheConfig {
            clock: clock.clone(),
            ..CacheConfig::with_capacity(1 << 20)
        };
        let mut g = ReplicatedCache::new(mk(), 1);
        g.insert(k("a"), v("1"), false).unwrap();
        assert!(g.expire(&k("a"), std::time::Duration::from_secs(3)));
        assert!(g.persist(&k("a")));
        g.promote_replica(0).unwrap();
        clock.advance(std::time::Duration::from_secs(10));
        assert_eq!(g.get(&k("a")), Some(v("1")), "persist replicated");
    }

    #[test]
    fn async_mode_lags_then_drains() {
        let g = ReplicatedCache::with_mode(
            CacheConfig::with_capacity(1 << 20),
            2,
            ReplicationMode::Async,
        );
        for i in 0..10 {
            g.insert(k(&format!("k{i}")), v("x"), false).unwrap();
        }
        assert_eq!(g.replication_lag(), 10);
        assert_eq!(g.replicated_writes.load(Ordering::Relaxed), 0);
        // Partial drain.
        assert_eq!(g.drain_replication(4).unwrap(), 4);
        assert_eq!(g.replication_lag(), 6);
        // Full drain: 10 ops × 2 replicas.
        assert_eq!(g.drain_replication(usize::MAX).unwrap(), 6);
        assert_eq!(g.replicated_writes.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn async_fill_is_queued_like_a_write() {
        let mut g = ReplicatedCache::with_mode(
            CacheConfig::with_capacity(1 << 20),
            1,
            ReplicationMode::Async,
        );
        assert!(g.fill(k("a"), v("fetched"), None).unwrap());
        assert_eq!(g.replication_lag(), 1);
        assert_eq!(g.drain_replication(usize::MAX).unwrap(), 1);
        g.promote_replica(0).unwrap();
        assert_eq!(g.get(&k("a")), Some(v("fetched")));
    }

    #[test]
    fn async_failover_loses_undrained_writes() {
        let mut g = ReplicatedCache::with_mode(
            CacheConfig::with_capacity(1 << 20),
            1,
            ReplicationMode::Async,
        );
        g.insert(k("durable"), v("1"), false).unwrap();
        g.drain_replication(usize::MAX).unwrap();
        g.insert(k("racy"), v("2"), false).unwrap();
        // Primary dies before the queue drains.
        g.promote_replica(0).unwrap();
        assert_eq!(g.get(&k("durable")), Some(v("1")));
        assert_eq!(g.get(&k("racy")), None, "async loses queued writes");
    }

    #[test]
    fn async_remove_stays_ordered() {
        let g = ReplicatedCache::with_mode(
            CacheConfig::with_capacity(1 << 20),
            1,
            ReplicationMode::Async,
        );
        g.insert(k("a"), v("1"), false).unwrap();
        g.remove(&k("a"));
        g.insert(k("a"), v("2"), false).unwrap();
        g.drain_replication(usize::MAX).unwrap();
        let mut g = g;
        g.promote_replica(0).unwrap();
        assert_eq!(g.get(&k("a")), Some(v("2")), "insert-remove-insert order");
    }

    #[test]
    fn quorum_tolerates_minority_loss() {
        // 1 primary + 2 replicas: quorum is 2 copies.
        let g = ReplicatedCache::with_mode(
            CacheConfig::with_capacity(1 << 20),
            2,
            ReplicationMode::Quorum,
        );
        g.kill_replica(0).unwrap();
        g.insert(k("a"), v("1"), false).unwrap(); // 2 copies ≥ quorum 2
        assert_eq!(g.get(&k("a")), Some(v("1")));
    }

    #[test]
    fn quorum_fails_on_majority_loss() {
        let g = ReplicatedCache::with_mode(
            CacheConfig::with_capacity(1 << 20),
            2,
            ReplicationMode::Quorum,
        );
        g.kill_replica(0).unwrap();
        g.kill_replica(1).unwrap();
        let err = g.insert(k("a"), v("1"), false).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "{err:?}");
    }

    #[test]
    fn quorum_failover_preserves_acknowledged_writes() {
        let mut g = ReplicatedCache::with_mode(
            CacheConfig::with_capacity(1 << 20),
            2,
            ReplicationMode::Quorum,
        );
        g.insert(k("paid"), v("ack"), true).unwrap();
        g.promote_replica(1).unwrap();
        assert_eq!(g.get(&k("paid")), Some(v("ack")));
        assert!(g.primary().peek_entry(&k("paid")).unwrap().dirty);
    }

    #[test]
    fn zero_replicas_is_single_copy() {
        let g = group(0);
        g.insert(k("a"), v("1"), false).unwrap();
        assert_eq!(g.replicated_writes.load(Ordering::Relaxed), 0);
        assert_eq!(g.live_replicas(), 0);
    }
}
