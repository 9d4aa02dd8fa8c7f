//! The sharded cache: N `LruShard`s behind per-shard locks, with
//! hit/miss statistics and DRAM/PMem placement.

use crate::lru::{CacheEntry, Lookup, LruShard};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tb_common::{fx_hash, Clock, Key, Result, SystemClock, Value};
use tb_pmem::LatencyModel;

/// The §4.3 DRAM/PMem split. Keys and index entries always stay in
/// DRAM; a value of at least `value_threshold` bytes lives in PMem,
/// where the latency premium is amortized over its size, and pays
/// `latency` on every read and write.
#[derive(Debug, Clone, Copy)]
pub struct PmemPlacement {
    pub value_threshold: usize,
    pub latency: LatencyModel,
}

/// Cache construction options.
#[derive(Clone)]
pub struct CacheConfig {
    /// Total byte budget across shards.
    pub capacity_bytes: usize,
    /// Shard count (power of two recommended).
    pub shards: usize,
    /// Where large values live; `None` keeps every value in DRAM.
    pub pmem: Option<PmemPlacement>,
    /// Time source for TTL expiry (tests inject a `ManualClock`).
    pub clock: Arc<dyn Clock>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 64 << 20,
            shards: 16,
            pmem: None,
            clock: Arc::new(SystemClock::new()),
        }
    }
}

impl CacheConfig {
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            ..Self::default()
        }
    }
}

/// Aggregate counters.
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub inserts: AtomicU64,
    /// Entries reclaimed because their TTL passed (lazy or swept).
    pub expired: AtomicU64,
}

impl CacheStats {
    /// Observed miss ratio (1.0 when no lookups yet).
    pub fn miss_ratio(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed);
        let m = self.misses.load(Ordering::Relaxed);
        if h + m == 0 {
            1.0
        } else {
            m as f64 / (h + m) as f64
        }
    }
}

/// A concurrent, bounded key-value cache that evicts by CLOCK: one
/// reference bit per entry, which a hit sets, where exact LRU would
/// keep two links per entry and rewrite them on every hit.
pub struct ShardedCache {
    shards: Vec<Mutex<LruShard>>,
    capacity_bytes: usize,
    /// Each shard's budget: its share of the capacity less what
    /// [`Self::reserve`] holds back.
    shard_budget: AtomicUsize,
    pmem: Option<PmemPlacement>,
    clock: Arc<dyn Clock>,
    pub stats: Arc<CacheStats>,
    _obs: tb_obs::SourceGuard,
}

impl ShardedCache {
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.shards > 0);
        let per_shard = (config.capacity_bytes / config.shards).max(1024);
        let pmem_from = config.pmem.map(|p| p.value_threshold);
        let shards = (0..config.shards)
            .map(|_| Mutex::new(LruShard::placed(per_shard, pmem_from)))
            .collect();
        let stats = Arc::new(CacheStats::default());
        let obs = {
            let stats = stats.clone();
            tb_obs::global().register_source(move |b| {
                b.counter("cache_hits", stats.hits.load(Ordering::Relaxed));
                b.counter("cache_misses", stats.misses.load(Ordering::Relaxed));
                b.counter("cache_evictions", stats.evictions.load(Ordering::Relaxed));
                b.counter("cache_inserts", stats.inserts.load(Ordering::Relaxed));
                b.counter("cache_expired", stats.expired.load(Ordering::Relaxed));
            })
        };
        Self {
            shards,
            capacity_bytes: config.capacity_bytes,
            shard_budget: AtomicUsize::new(per_shard),
            pmem: config.pmem,
            clock: config.clock,
            stats,
            _obs: obs,
        }
    }

    fn shard(&self, key: &Key) -> &Mutex<LruShard> {
        let idx = (fx_hash(key.as_slice()) as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// The latency a value of `len` bytes pays per access: `Some`
    /// exactly when the placement rule puts it in PMem.
    fn pmem_latency(&self, len: usize) -> Option<&LatencyModel> {
        let pmem = self.pmem.as_ref()?;
        (len >= pmem.value_threshold).then_some(&pmem.latency)
    }

    /// The cache's time source (shared with TTL bookkeeping).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Looks up a value, setting its reference bit and counting a hit or
    /// a miss. Expired entries read as misses. PMem-resident values pay
    /// the configured read-latency premium.
    pub fn get(&self, key: &Key) -> Option<Value> {
        match self.lookup(key) {
            Lookup::Live(v) => Some(v),
            Lookup::Expired | Lookup::Absent => None,
        }
    }

    /// [`get`](Self::get) that distinguishes a key that was present but
    /// expired from one that was never cached — tiered stores must not
    /// fall back to the storage tier for expired keys (the storage copy
    /// is stale by definition). One probe of the key's shard.
    pub fn lookup(&self, key: &Key) -> Lookup {
        let now = self.clock.now_nanos();
        let found = self.shard(key).lock().lookup(key, now);
        let stats = &self.stats;
        match &found {
            Lookup::Live(value) => {
                stats.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(model) = self.pmem_latency(value.len()) {
                    model.stall_read(value.len());
                }
            }
            Lookup::Expired => {
                stats.misses.fetch_add(1, Ordering::Relaxed);
                stats.expired.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Absent => {
                stats.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// A copy of the full entry (value, dirty flag, deadline), without
    /// stats or reference bits.
    pub fn peek_entry(&self, key: &Key) -> Option<CacheEntry> {
        self.shard(key).lock().peek(key)
    }

    /// Whether the key is cached, expired or not, without stats.
    pub fn contains(&self, key: &Key) -> bool {
        self.shard(key).lock().contains(key)
    }

    /// Refuses an entry that, dirty and expiring, would be larger than a
    /// shard's budget with
    /// [`Error::InvalidArgument`](tb_common::Error::InvalidArgument), as
    /// an insert of it would. Callers check before a step they cannot
    /// take back, such as a log append.
    pub fn admit(&self, key: &Key, value: &[u8]) -> Result<()> {
        LruShard::admit(
            self.shard_budget.load(Ordering::Relaxed),
            key.len(),
            value.len(),
        )
    }

    /// Holds `bytes` of the capacity back for what the cache's owner
    /// keeps beside its entries (a store's compression models), so
    /// entries and reserve together stay within it: every shard's
    /// budget becomes its share of the rest, and clean entries are
    /// evicted by CLOCK down to it. Dirty entries are not, and keep a
    /// shard over its budget until they are flushed. A later call
    /// replaces the reserve.
    pub fn reserve(&self, bytes: usize) {
        let shards = self.shards.len();
        let per_shard = (self.capacity_bytes.saturating_sub(bytes) / shards).max(1024);
        self.shard_budget.store(per_shard, Ordering::Relaxed);
        for shard in &self.shards {
            let evicted = shard.lock().set_budget(per_shard);
            self.stats
                .evictions
                .fetch_add(evicted as u64, Ordering::Relaxed);
        }
    }

    /// Inserts a copy of the value; returns how many entries it evicted.
    pub fn insert(&self, key: Key, value: Value, dirty: bool) -> Result<usize> {
        self.insert_full(key, value, dirty, None)
    }

    /// Inserts with an explicit absolute expiry deadline (log replay,
    /// storage re-population).
    pub fn insert_full(
        &self,
        key: Key,
        value: impl AsRef<[u8]>,
        dirty: bool,
        expires_at: Option<u64>,
    ) -> Result<usize> {
        let value = value.as_ref();
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(model) = self.pmem_latency(value.len()) {
            model.stall_write(value.len());
        }
        let evicted = self
            .shard(&key)
            .lock()
            .insert_full(key, value, dirty, expires_at)?;
        self.stats
            .evictions
            .fetch_add(evicted as u64, Ordering::Relaxed);
        Ok(evicted)
    }

    /// Inserts a clean copy fetched from the storage tier, only if the
    /// key is absent. Any entry present now — even an expired one — was
    /// written after the fetch was issued and is newer than it, so the
    /// fill must not replace it. Returns whether the copy went in.
    pub fn fill(&self, key: Key, value: Value, expires_at: Option<u64>) -> Result<bool> {
        let len = value.len();
        let evicted = {
            let mut shard = self.shard(&key).lock();
            if shard.contains(&key) {
                return Ok(false);
            }
            shard.insert_full(key, value, false, expires_at)?
        };
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .evictions
            .fetch_add(evicted as u64, Ordering::Relaxed);
        if let Some(model) = self.pmem_latency(len) {
            model.stall_write(len);
        }
        Ok(true)
    }

    /// Live entries with `start <= key < end` (`end = None` =
    /// unbounded above), sorted by key. Read-only: no reference bits set,
    /// no stats, no reclamation.
    pub fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Vec<(Key, CacheEntry)> {
        let now = self.clock.now_nanos();
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().scan_range(start, end, now));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Calls `f(key, value, dirty, expires_at)` for every live entry,
    /// one shard at a time under its lock. Read-only, like
    /// [`scan_range`](Self::scan_range), but in no order and without
    /// copying an entry.
    pub fn for_each_live(&self, mut f: impl FnMut(&[u8], &[u8], bool, Option<u64>)) {
        let now = self.clock.now_nanos();
        for shard in &self.shards {
            shard.lock().for_each_live(now, &mut f);
        }
    }

    /// Active expiration pass over every shard: removes expired clean
    /// entries, returning their keys so the caller can propagate
    /// deletes to the storage tier.
    pub fn sweep_expired(&self) -> Vec<Key> {
        let now = self.clock.now_nanos();
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().sweep_expired(now));
        }
        self.stats
            .expired
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Removes a key (cache invalidation). Returns whether it was
    /// cached.
    pub fn remove(&self, key: &Key) -> bool {
        self.shard(key).lock().remove(key)
    }

    /// Marks an entry clean after a storage write of `flushed`
    /// completed — only if the entry still holds exactly those bytes,
    /// so an overwrite racing the flush stays dirty (and pinned) for the
    /// next one. Returns whether the entry is clean now.
    pub fn mark_clean(&self, key: &Key, flushed: &Value) -> bool {
        self.shard(key)
            .lock()
            .mark_clean_if(key, flushed.as_slice())
    }

    /// Collects all dirty entries across shards (write-back flush).
    pub fn dirty_entries(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().dirty_entries());
        }
        out
    }

    /// Heap bytes the entries hold across shards (see [`crate::lru`]).
    pub fn used_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().used_bytes() as u64)
            .sum()
    }

    /// Bytes held by dirty entries across shards.
    pub fn dirty_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().dirty_bytes() as u64)
            .sum()
    }

    /// Entry count across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes resident per medium `(dram, pmem)` — feeds the blended
    /// space-cost accounting of the PMem configuration. An entry is
    /// billed whole to its value's medium. O(shards): each shard keeps
    /// both counts.
    pub fn bytes_by_medium(&self) -> (u64, u64) {
        let (mut dram, mut pmem) = (0u64, 0u64);
        for shard in &self.shards {
            let s = shard.lock();
            dram += (s.used_bytes() - s.pmem_bytes()) as u64;
            pmem += s.pmem_bytes() as u64;
        }
        (dram, pmem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tb_common::deadline_after;

    fn cache(capacity: usize) -> ShardedCache {
        cache_with_clock(capacity, Arc::new(SystemClock::new()))
    }

    fn cache_with_clock(capacity: usize, clock: Arc<dyn Clock>) -> ShardedCache {
        ShardedCache::new(CacheConfig {
            capacity_bytes: capacity,
            shards: 4,
            pmem: Some(PmemPlacement {
                value_threshold: 100,
                latency: LatencyModel::none(),
            }),
            clock,
        })
    }

    fn k(i: usize) -> Key {
        Key::from(format!("key-{i}"))
    }

    /// Inserts a value that expires `ttl` after the cache clock's now.
    fn insert_expiring(c: &ShardedCache, key: Key, value: &str, dirty: bool, ttl: Duration) {
        let deadline = deadline_after(c.clock().now_nanos(), ttl);
        c.insert_full(key, Value::from(value), dirty, Some(deadline))
            .unwrap();
    }

    #[test]
    fn hit_miss_stats() {
        let c = cache(1 << 20);
        c.insert(k(1), Value::from("v"), false).unwrap();
        assert!(c.get(&k(1)).is_some());
        assert!(c.get(&k(2)).is_none());
        assert_eq!(c.stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(c.stats.misses.load(Ordering::Relaxed), 1);
        assert!((c.stats.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn eviction_under_pressure() {
        let c = cache(8 << 10);
        for i in 0..1000 {
            c.insert(k(i), Value::from(vec![b'x'; 64]), false).unwrap();
        }
        assert!(c.used_bytes() <= 8 << 10);
        assert!(c.stats.evictions.load(Ordering::Relaxed) > 0);
        assert!(c.len() < 1000);
    }

    /// A reserve comes out of the capacity: clean entries are evicted
    /// down to what is left, dirty ones stay (over the budget until
    /// cleaned), and an overwrite that cannot fit leaves the old entry
    /// as it was.
    #[test]
    fn reserve_holds_capacity_back() {
        let c = cache(64 << 10);
        for i in 0..400 {
            c.insert(k(i), Value::from(vec![b'x'; 64]), i % 4 == 0)
                .unwrap();
        }
        let full = c.used_bytes();
        c.reserve(32 << 10);
        assert!(c.stats.evictions.load(Ordering::Relaxed) > 0);
        assert!(c.used_bytes() < full);
        let dirty = c.dirty_bytes();
        assert!(c.used_bytes() <= (32 << 10) + dirty);
        // Every dirty entry is kept; only clean ones went.
        assert_eq!(c.dirty_entries().len(), 100);
        // Dirty entries over a shrunk budget: an overwrite finds no room
        // and is refused, the old entry back in its place.
        let all_dirty = cache(64 << 10);
        for i in 0..400 {
            all_dirty
                .insert(k(i), Value::from(vec![b'd'; 64]), true)
                .unwrap();
        }
        all_dirty.reserve(64 << 10);
        assert_eq!(all_dirty.len(), 400);
        let bigger = Value::from(vec![b'D'; 100]);
        assert!(matches!(
            all_dirty.insert(k(0), bigger, true),
            Err(tb_common::Error::Backpressure { .. })
        ));
        assert_eq!(all_dirty.get(&k(0)), Some(Value::from(vec![b'd'; 64])));
        assert_eq!(all_dirty.len(), 400);
        // A smaller reserve gives the room back.
        c.reserve(0);
        for i in 1000..1400 {
            c.insert(k(i), Value::from(vec![b'x'; 64]), false).unwrap();
        }
        assert!(c.used_bytes() > full * 9 / 10);
    }

    /// A value is in PMem exactly when the config sets `pmem` and the
    /// value is at least its threshold.
    #[test]
    fn placement_routes_values() {
        let cost = |i: usize, len: usize| crate::entry_cost(k(i).len(), len);
        let c = cache(1 << 20); // threshold 100
        c.insert(k(1), Value::from(vec![0u8; 99]), false).unwrap();
        assert_eq!(c.bytes_by_medium(), (cost(1, 99) as u64, 0));
        c.insert(k(2), Value::from(vec![0u8; 100]), false).unwrap();
        assert_eq!(
            c.bytes_by_medium(),
            (cost(1, 99) as u64, cost(2, 100) as u64)
        );
        // A fill follows the same rule.
        assert!(c.fill(k(3), Value::from(vec![0u8; 10]), None).unwrap());
        let (dram, _) = c.bytes_by_medium();
        assert_eq!(dram, (cost(1, 99) + cost(3, 10)) as u64);

        let dram_only = ShardedCache::new(CacheConfig::with_capacity(1 << 20));
        dram_only
            .insert(k(1), Value::from(vec![0u8; 1024]), false)
            .unwrap();
        assert_eq!(dram_only.bytes_by_medium(), (cost(1, 1024) as u64, 0));
    }

    #[test]
    fn dirty_tracking_across_shards() {
        let c = cache(1 << 20);
        for i in 0..20 {
            c.insert(k(i), Value::from("dirty"), true).unwrap();
        }
        assert_eq!(c.dirty_entries().len(), 20);
        assert!(c.dirty_bytes() > 0);
        for i in 0..20 {
            assert!(c.mark_clean(&k(i), &Value::from("dirty")));
        }
        assert_eq!(c.dirty_bytes(), 0);
        assert!(c.dirty_entries().is_empty());
    }

    #[test]
    fn remove_invalidates() {
        let c = cache(1 << 20);
        c.insert(k(1), Value::from("v"), false).unwrap();
        assert!(c.remove(&k(1)));
        assert!(c.get(&k(1)).is_none());
        assert!(!c.remove(&k(1)));
    }

    #[test]
    fn ttl_expires_entries() {
        let clock = tb_common::ManualClock::new();
        let c = cache_with_clock(1 << 20, clock.clone());
        insert_expiring(&c, k(1), "v", false, Duration::from_secs(10));
        c.insert(k(2), Value::from("forever"), false).unwrap();
        assert_eq!(c.get(&k(1)), Some(Value::from("v")));
        let deadline = deadline_after(clock.now_nanos(), Duration::from_secs(10));
        assert_eq!(c.peek_entry(&k(1)).unwrap().expires_at, Some(deadline));
        assert_eq!(c.peek_entry(&k(2)).unwrap().expires_at, None);
        assert_eq!(c.peek_entry(&k(3)), None);

        clock.advance(Duration::from_secs(10));
        assert_eq!(c.get(&k(1)), None, "entry expired");
        assert_eq!(
            c.peek_entry(&k(1)),
            None,
            "a clean expired entry is reclaimed"
        );
        assert_eq!(c.get(&k(2)), Some(Value::from("forever")));
        assert_eq!(c.stats.expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn overwrite_resets_ttl() {
        let clock = tb_common::ManualClock::new();
        let c = cache_with_clock(1 << 20, clock.clone());
        insert_expiring(&c, k(1), "a", false, Duration::from_secs(1));
        // Plain SET replaces the expiry (Redis semantics).
        c.insert(k(1), Value::from("b"), false).unwrap();
        clock.advance(Duration::from_secs(2));
        assert_eq!(c.get(&k(1)), Some(Value::from("b")));
    }

    #[test]
    fn sweep_reclaims_expired_clean_entries() {
        let clock = tb_common::ManualClock::new();
        let c = cache_with_clock(1 << 20, clock.clone());
        for i in 0..10 {
            insert_expiring(&c, k(i), "x", false, Duration::from_secs(1));
        }
        for i in 10..15 {
            c.insert(k(i), Value::from("x"), false).unwrap();
        }
        // Dirty entry with TTL: invisible after expiry but not swept.
        insert_expiring(&c, k(99), "dirty", true, Duration::from_secs(1));
        clock.advance(Duration::from_secs(2));
        let swept = c.sweep_expired();
        assert_eq!(swept.len(), 10);
        assert_eq!(c.len(), 6, "5 persistent + 1 pinned dirty remain");
        assert_eq!(c.get(&k(99)), None, "expired dirty entry is invisible");
        assert!(c.dirty_bytes() > 0, "dirty entry still pinned for flush");
    }

    #[test]
    fn lookup_distinguishes_expired_from_absent() {
        let clock = tb_common::ManualClock::new();
        let c = cache_with_clock(1 << 20, clock.clone());
        insert_expiring(&c, k(1), "v", true, Duration::from_secs(1));
        clock.advance(Duration::from_secs(2));
        assert_eq!(c.lookup(&k(1)), Lookup::Expired);
        assert_eq!(c.lookup(&k(2)), Lookup::Absent);
    }

    #[test]
    fn fill_never_replaces_a_present_entry() {
        let clock = tb_common::ManualClock::new();
        let c = cache_with_clock(1 << 20, clock.clone());
        assert!(c.fill(k(1), Value::from("fetched"), None).unwrap());
        assert_eq!(c.get(&k(1)), Some(Value::from("fetched")));
        assert!(!c.peek_entry(&k(1)).unwrap().dirty, "a fill is clean");
        // A newer dirty write wins over a later-arriving fill.
        c.insert(k(2), Value::from("new"), true).unwrap();
        assert!(!c.fill(k(2), Value::from("old"), None).unwrap());
        assert_eq!(c.get(&k(2)), Some(Value::from("new")));
        assert!(c.peek_entry(&k(2)).unwrap().dirty);
        // So does an expired one: it is still the key's latest write.
        insert_expiring(&c, k(3), "new", true, Duration::from_secs(1));
        clock.advance(Duration::from_secs(2));
        assert!(!c.fill(k(3), Value::from("old"), None).unwrap());
        assert_eq!(c.get(&k(3)), None);
    }

    #[test]
    fn concurrent_access() {
        let c = Arc::new(cache(1 << 20));
        let mut handles = vec![];
        for t in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let key = k(i * 8 + t);
                    c.insert(key.clone(), Value::from(format!("v{t}")), false)
                        .unwrap();
                    assert!(c.get(&key).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 4000);
    }
}
