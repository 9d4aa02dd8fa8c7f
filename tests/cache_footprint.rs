//! The cache tier's byte count is the heap it holds, and an insert
//! allocates once.
//!
//! Records arrive as a server hands them over: keys and values are
//! windows into one shared buffer per 256-op burst, and the burst is
//! dropped once applied. After 10 k, 50 k and 200 k such records (20 B
//! keys, 95 B values), the bytes the cache reports — Σ `entry_cost`
//! (plus `EXTRA_BYTES` for a dirty or expiring entry) for a 16-shard
//! `ShardedCache`, `resident_bytes` for an in-memory `TierBase` — must
//! be within ±5 % of the heap this thread's inserts left allocated, as
//! `AllocProbe` measures it (requested bytes; the system allocator's
//! own headers are not counted on either side). The same probe counts
//! the allocations a new key's insert makes.

use tierbase::cache::{CacheConfig, ShardedCache};
use tierbase::common::testutil::{allocation_count, net_allocation, AllocProbe};
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

/// A 16-shard cache with room for every record.
fn sharded() -> ShardedCache {
    ShardedCache::new(CacheConfig {
        shards: 16,
        ..CacheConfig::with_capacity(1 << 30)
    })
}

/// Inserts every size's records into a fresh [`sharded`] cache as
/// `dirty`, expiring at `expires_at`, and holds its count to the heap.
fn assert_sharded_cache_honest(label: &str, dirty: bool, expires_at: Option<u64>) {
    for records in SIZES {
        let cache = sharded();
        let (held, counted) = held_and_counted(
            records,
            |burst| {
                for (key, value) in burst {
                    cache.insert_full(key, value, dirty, expires_at).unwrap();
                }
            },
            || cache.used_bytes(),
        );
        assert_eq!(cache.len(), records);
        assert_honest(label, records, held, counted);
    }
}

#[test]
fn a_sharded_cache_counts_the_heap_its_entries_hold() {
    assert_sharded_cache_honest("ShardedCache", false, None);
}

#[test]
fn a_sharded_cache_counts_the_heap_its_dirty_entries_hold() {
    assert_sharded_cache_honest("ShardedCache dirty", true, None);
}

#[test]
fn a_sharded_cache_counts_the_heap_its_expiring_entries_hold() {
    // A deadline the clock never reaches: every entry stays live.
    assert_sharded_cache_honest("ShardedCache expiring", false, Some(u64::MAX));
}

/// The bursts of `records` records, built before a probe runs.
fn bursts(records: usize) -> Vec<Vec<(Key, Value)>> {
    (0..records)
        .step_by(BURST)
        .map(|first| burst(first, BURST.min(records - first)))
        .collect()
}

/// A new key's insert allocates its record; the slab and the index
/// grow a fraction at a time, so their reallocations add little.
#[test]
fn a_sharded_cache_insert_allocates_its_record_and_little_more() {
    const RECORDS: usize = 50_000;
    let cache = sharded();
    let bursts = bursts(RECORDS);
    let ((), allocations) = allocation_count(|| {
        for (key, value) in bursts.into_iter().flatten() {
            cache.insert(key, value, false).unwrap();
        }
    });
    let per_insert = allocations as f64 / RECORDS as f64;
    println!("ShardedCache: {per_insert:.3} allocations per insert of a new key");
    assert!(per_insert <= 1.15, "{per_insert:.3} allocations per insert");
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

/// Allocations per put of a new key through an in-memory `TierBase`,
/// compressed under its auto-trained model (the default `tzstd-d`),
/// held to what the put path makes today (1.06: the cache record,
/// copied from the envelope the put builds in a reused buffer, and a
/// share of each batch's own and of the model's training, dictionary
/// included), so a change that adds one per put fails. It was 2.06
/// while the envelope was a `Value` of its own, and 1.08 under the
/// earlier `tzstd` default.
#[test]
fn an_in_memory_store_put_allocates_at_most_twice() {
    const RECORDS: usize = 50_000;
    const MAX_PER_PUT: f64 = 1.1;
    let dir = tierbase::common::test_dir("tb-it-cache-allocations");
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(1 << 30)
            .policy(SyncPolicy::InMemory)
            .build(),
    )
    .unwrap();
    let batches: Vec<Vec<EngineOp>> = bursts(RECORDS)
        .into_iter()
        .map(|burst| {
            burst
                .into_iter()
                .map(|(k, v)| EngineOp::Put(k, v))
                .collect()
        })
        .collect();
    let ((), allocations) = allocation_count(|| {
        for ops in batches {
            for done in store.apply_batch(ops) {
                done.unwrap();
            }
        }
    });
    let per_put = allocations as f64 / RECORDS as f64;
    println!("TierBase InMemory: {per_put:.3} allocations per put of a new key");
    assert!(per_put <= MAX_PER_PUT, "{per_put:.3} allocations per put");
}

/// A trained model's `heap_bytes`, which a store bills and holds back
/// from its cache, is the heap the model holds, within ±5 %; and that
/// heap stays under its codec's ceiling.
#[test]
fn a_compression_model_counts_the_heap_it_holds() {
    use tierbase::compress::{CompressorChoice, PretrainedCompression, TzstdLevel};
    let dataset = tierbase::workload::DatasetKind::Cities.build(7);
    let samples: Vec<Vec<u8>> = (0..256).map(|i| dataset.record(i)).collect();
    // Ceilings on what each model holds: one 8 KiB root table for its
    // sixteen codes, sub-tables only for the longer codes.
    for (choice, ceiling) in [
        (CompressorChoice::Tzstd, 36_000.0),
        (CompressorChoice::TzstdDict, 48_000.0),
        (CompressorChoice::Pbc, 70_000.0),
    ] {
        // Once first, so this thread's parse buffers are not counted.
        drop(PretrainedCompression::train(
            choice,
            &samples,
            TzstdLevel(1),
        ));
        let (unit, held) =
            net_allocation(|| PretrainedCompression::train(choice, &samples, TzstdLevel(1)));
        let counted = unit.heap_bytes() as f64;
        println!("{choice:?}: model holds {held} B, counts {counted} B");
        let held = held as f64;
        assert!(
            (counted - held).abs() <= 0.05 * held,
            "{choice:?}: counted {counted} B, heap holds {held} B"
        );
        assert!(
            held <= ceiling,
            "{choice:?}: holds {held} B, over {ceiling} B"
        );
    }
}
