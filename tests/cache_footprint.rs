//! The cache tier's byte count is the heap it holds, and an insert
//! allocates no record of its own.
//!
//! Records arrive as a server hands them over: keys and values are
//! windows into one shared buffer per 256-op burst, and the burst is
//! dropped once applied. After 10 k, 50 k and 200 k such records, the
//! bytes the cache reports — Σ `entry_cost` (plus `EXTRA_BYTES` for a
//! dirty or expiring entry) for a 16-shard `ShardedCache`,
//! `resident_bytes` for an in-memory `TierBase` — must be within ±5 %
//! of the heap this thread's puts left allocated, as `AllocProbe`
//! measures it (requested bytes; the system allocator's own headers
//! are not counted on either side). Two shapes of record are put:
//! fixed (20 B keys, 95 B values) and mixed (values of every inline
//! stride and some past the inline cap, a quarter of the keys then
//! overwritten at another length, most into another size class), so
//! the classes' spare room is held to the bound too. The same probe
//! counts the allocations a new key's insert makes.

use tierbase::cache::{CacheConfig, ShardedCache};
use tierbase::common::testutil::{allocation_count, net_allocation, AllocProbe};
use tierbase::prelude::*;

#[global_allocator]
static PROBE: AllocProbe = AllocProbe;

const KEY: usize = 20;
const VALUE: usize = 95;
const BURST: usize = 256;
const SIZES: [usize; 3] = [10_000, 50_000, 200_000];

/// What a case puts, in order: each record's key number and value
/// length, and whether its values are noise (else rotations of the
/// alphabet, which compress to a few bytes).
struct Puts {
    label: &'static str,
    records: Vec<(usize, usize)>,
    noise: bool,
}

impl Puts {
    /// Keys `0..n`, each with a 95 B value.
    fn fixed(n: usize) -> Self {
        Self {
            label: "fixed",
            records: (0..n).map(|i| (i, VALUE)).collect(),
            noise: false,
        }
    }

    /// Keys `0..n` with values of 0–235 B, cells of every inline
    /// stride from 24 to 256 B, and one in 16 of 300–699 B, past the
    /// inline cap; then every fourth key again at another such length.
    /// The values are noise, so a store's compression keeps their
    /// spread.
    fn mixed(n: usize) -> Self {
        let len = |i: usize, round: usize| {
            if (i + round).is_multiple_of(16) {
                300 + (i * 7 + round * 131) % 400
            } else {
                (i * 37 + round * 101) % 236
            }
        };
        let mut records: Vec<(usize, usize)> = (0..n).map(|i| (i, len(i, 0))).collect();
        records.extend((0..n).step_by(4).map(|i| (i, len(i, 1))));
        Self {
            label: "mixed",
            records,
            noise: true,
        }
    }

    /// Distinct keys, and the key and value bytes they hold at the end.
    fn live(&self) -> (usize, usize) {
        let mut last = std::collections::HashMap::new();
        for &(i, len) in &self.records {
            last.insert(i, len);
        }
        (last.len(), last.values().map(|len| KEY + len).sum())
    }

    /// The puts as bursts, each built when it is asked for.
    fn bursts(&self) -> impl Iterator<Item = Vec<(Key, Value)>> + '_ {
        self.records
            .chunks(BURST)
            .map(|chunk| burst(chunk, self.noise))
    }
}

/// The records `(key number, value length)` as windows into one burst
/// buffer.
fn burst(records: &[(usize, usize)], noise: bool) -> Vec<(Key, Value)> {
    let mut buf = Vec::with_capacity(records.iter().map(|(_, len)| KEY + len).sum());
    for &(i, len) in records {
        buf.extend_from_slice(format!("user{i:016}").as_bytes());
        buf.extend((0..len).map(|j| {
            if noise {
                // The top byte of a splitmix64 finish of (i, j).
                let mut z = ((i as u64) << 32 | j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) >> 56) as u8
            } else {
                b'a' + ((i + j) % 26) as u8
            }
        }));
    }
    let buf = Value::from(buf);
    let mut at = 0;
    records
        .iter()
        .map(|&(_, len)| {
            let record = (
                Key::from_bytes(buf.0.slice(at..at + KEY)),
                Value::from_bytes(buf.0.slice(at + KEY..at + KEY + len)),
            );
            at += KEY + len;
            record
        })
        .collect()
}

/// Feeds `puts` in bursts to `apply`, holds what `counted` then reports
/// to the heap the bursts left allocated, ±5 %, and returns how many
/// keys were put.
fn assert_honest(
    store: &str,
    puts: &Puts,
    mut apply: impl FnMut(Vec<(Key, Value)>),
    counted: impl Fn() -> u64,
) -> usize {
    let ((), held) = net_allocation(|| puts.bursts().for_each(&mut apply));
    let (held, counted) = (held as f64, counted() as f64);
    let (keys, user) = puts.live();
    let user = user as f64;
    println!(
        "{store} {} {keys:>7} keys: heap {:.3} B/user B, counted {:.3} B/user B",
        puts.label,
        held / user,
        counted / user
    );
    assert!(
        (counted / held - 1.0).abs() <= 0.05,
        "{store}, {} {keys} keys: counted {counted} B, heap holds {held} B",
        puts.label
    );
    keys
}

/// A 16-shard cache with room for every record.
fn sharded() -> ShardedCache {
    ShardedCache::new(CacheConfig {
        shards: 16,
        ..CacheConfig::with_capacity(1 << 30)
    })
}

/// Both shapes at every size.
fn cases() -> impl Iterator<Item = Puts> {
    SIZES
        .into_iter()
        .flat_map(|n| [Puts::fixed(n), Puts::mixed(n)])
}

/// Puts every case into a fresh [`sharded`] cache as `dirty`, expiring
/// at `expires_at`, and holds its count to the heap.
fn assert_sharded_cache_honest(store: &str, dirty: bool, expires_at: Option<u64>) {
    for puts in cases() {
        let cache = sharded();
        let keys = assert_honest(
            store,
            &puts,
            |burst| {
                for (key, value) in burst {
                    cache.insert_full(key, value, dirty, expires_at).unwrap();
                }
            },
            || cache.used_bytes(),
        );
        assert_eq!(cache.len(), keys);
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

/// A new key's insert copies its record into its size class, which
/// grows a 32nd at a time, as the index grows a quarter at a time: it
/// allocates only when one of them grows. Held to just above the 0.063
/// measured; it was 1.02 (bound 1.15) while every record was an
/// allocation of its own.
#[test]
fn a_sharded_cache_insert_allocates_only_to_grow_its_arrays() {
    const RECORDS: usize = 50_000;
    let cache = sharded();
    let bursts: Vec<_> = Puts::fixed(RECORDS).bursts().collect();
    let ((), allocations) = allocation_count(|| {
        for (key, value) in bursts.into_iter().flatten() {
            cache.insert(key, value, false).unwrap();
        }
    });
    let per_insert = allocations as f64 / RECORDS as f64;
    println!("ShardedCache: {per_insert:.3} allocations per insert of a new key");
    assert!(per_insert <= 0.07, "{per_insert:.3} allocations per insert");
}

/// An in-memory store's `resident_bytes` is the heap its cache and its
/// compression model hold.
#[test]
fn an_in_memory_store_counts_the_heap_its_cache_holds() {
    for puts in cases() {
        let dir = tierbase::common::test_dir("tb-it-cache-footprint");
        let store = TierBase::open(
            TierBaseConfig::builder(dir.path())
                .cache_capacity(1 << 30)
                .policy(SyncPolicy::InMemory)
                .build(),
        )
        .unwrap();
        assert_honest(
            "TierBase InMemory",
            &puts,
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
    }
}

/// Allocations per put of a new key through an in-memory `TierBase`,
/// compressed under its auto-trained model (the default `tzstd-d`),
/// held to just above what the put path makes today (0.126: a share of
/// the cache's array growth, of each batch's own and of the model's
/// training, dictionary included; the envelope is built in a reused
/// buffer and copied into its cell), so a change that adds one per put
/// fails. It was 1.06 (bound 1.1) while each cache record was an
/// allocation of its own, 2.06 while the envelope was a `Value` of its
/// own, and 1.08 under the earlier `tzstd` default.
#[test]
fn an_in_memory_store_put_allocates_no_record_of_its_own() {
    const RECORDS: usize = 50_000;
    const MAX_PER_PUT: f64 = 0.14;
    let dir = tierbase::common::test_dir("tb-it-cache-allocations");
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .cache_capacity(1 << 30)
            .policy(SyncPolicy::InMemory)
            .build(),
    )
    .unwrap();
    let batches: Vec<Vec<EngineOp>> = Puts::fixed(RECORDS)
        .bursts()
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
