//! The cache tier's byte count is the heap it holds.
//!
//! Records arrive as a server hands them over: keys and values are
//! windows into one shared buffer per 256-op burst, and the burst is
//! dropped once applied. After 10 k, 50 k and 200 k such records (20 B
//! keys, 95 B values), the bytes the cache reports — Σ `entry_cost`
//! for a 16-shard `ShardedCache`, `resident_bytes` for an in-memory
//! `TierBase` — must be within ±5 % of the heap this thread's inserts
//! left allocated, as `AllocProbe` measures it (requested bytes; the
//! system allocator's own headers are not counted on either side).

use tierbase::cache::{CacheConfig, ShardedCache};
use tierbase::common::testutil::{net_allocation, AllocProbe};
use tierbase::prelude::*;

#[global_allocator]
static PROBE: AllocProbe = AllocProbe;

const KEY: usize = 20;
const VALUE: usize = 95;
const BURST: usize = 256;
const SIZES: [usize; 3] = [10_000, 50_000, 200_000];

/// Records `first..first + n` as windows into one burst buffer.
fn burst(first: usize, n: usize) -> Vec<(Key, Value)> {
    let mut buf = Vec::with_capacity(n * (KEY + VALUE));
    for i in first..first + n {
        buf.extend_from_slice(format!("user{i:016}").as_bytes());
        buf.extend((0..VALUE).map(|j| b'a' + ((i + j) % 26) as u8));
    }
    let buf = Value::from(buf);
    (0..n)
        .map(|r| {
            let at = r * (KEY + VALUE);
            (
                Key::from_bytes(buf.0.slice(at..at + KEY)),
                Value::from_bytes(buf.0.slice(at + KEY..at + KEY + VALUE)),
            )
        })
        .collect()
}

/// Feeds `records` in bursts to `apply`; returns the heap the bursts
/// left allocated and what `counted` then reports.
fn held_and_counted(
    records: usize,
    mut apply: impl FnMut(Vec<(Key, Value)>),
    counted: impl Fn() -> u64,
) -> (f64, f64) {
    let ((), held) = net_allocation(|| {
        for first in (0..records).step_by(BURST) {
            apply(burst(first, BURST.min(records - first)));
        }
    });
    (held as f64, counted() as f64)
}

fn assert_honest(label: &str, records: usize, held: f64, counted: f64) {
    let user = (records * (KEY + VALUE)) as f64;
    println!(
        "{label} {records:>7} records: heap {:.3} B/user B, counted {:.3} B/user B",
        held / user,
        counted / user
    );
    assert!(
        (counted / held - 1.0).abs() <= 0.05,
        "{label}, {records} records: counted {counted} B, heap holds {held} B"
    );
}

#[test]
fn a_sharded_cache_counts_the_heap_its_entries_hold() {
    for records in SIZES {
        let cache = ShardedCache::new(CacheConfig {
            shards: 16,
            ..CacheConfig::with_capacity(1 << 30)
        });
        let (held, counted) = held_and_counted(
            records,
            |burst| {
                for (key, value) in burst {
                    cache.insert(key, value, false).unwrap();
                }
            },
            || cache.used_bytes(),
        );
        assert_eq!(cache.len(), records);
        assert_honest("ShardedCache", records, held, counted);
    }
}

#[test]
fn an_in_memory_store_counts_the_heap_its_cache_holds() {
    for records in SIZES {
        let dir = tierbase::common::test_dir("tb-it-cache-footprint");
        let store = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(1 << 30)
                .policy(SyncPolicy::InMemory)
                .build(),
        )
        .unwrap();
        let (held, counted) = held_and_counted(
            records,
            |burst| {
                let ops = burst
                    .into_iter()
                    .map(|(k, v)| EngineOp::Put(k, v))
                    .collect();
                for done in store.apply_batch(ops) {
                    done.unwrap();
                }
            },
            || store.resident_bytes(),
        );
        assert_honest("TierBase InMemory", records, held, counted);
    }
}
