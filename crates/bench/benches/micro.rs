//! Criterion micro-benchmarks for the hot data-path primitives:
//! cache shard ops, LSM point ops, compressors, the SSTable block
//! codecs and block format, hashing, histograms.
//!
//! Data sizes scale with `TB_BENCH_SCALE` and shrink under
//! `TB_BENCH_SMOKE` (`tb_bench::budget`); `TB_BENCH_MS` sets each
//! measurement window. Each `cache` row also prints the allocations
//! its op makes.

use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion, Throughput,
};
use std::path::Path;
use tb_bench::{bench_dir, budget};
use tb_cache::{entry_cost, CacheConfig, ShardedCache};
use tb_common::testutil::{allocation_count, AllocProbe};
use tb_common::{crc32, fx_hash, Histogram, Key, KvEngine, Value};
use tb_compress::block::TRAINED_DICT_BYTES;
use tb_compress::{
    train_dictionary, BlockCodec, BlockCodecState, BlockEffort, Compressor, Pbc, PbcConfig, Tzstd,
    TzstdLevel,
};
use tb_lsm::memtable::Entry;
use tb_lsm::sstable::{decode_block, find_in_block, write_sstable, SstConfig, SstReader};
use tb_lsm::{LsmConfig, LsmDb};
use tb_workload::DatasetKind;

/// Counts allocations for the cache rows; every row pays its check.
#[global_allocator]
static PROBE: AllocProbe = AllocProbe;

/// Prints, under the row `id` just timed, the allocations per call of
/// `op` over `calls` more calls.
fn print_allocations(id: &str, calls: u64, mut op: impl FnMut()) {
    let ((), allocations) = allocation_count(|| (0..calls).for_each(|_| op()));
    println!(
        "{:<40} {:>12.3} allocations/op",
        id,
        allocations as f64 / calls as f64
    );
}

/// Times each op as a row, then prints the allocations it makes.
fn row(group: &mut BenchmarkGroup<'_>, id: &str, mut op: impl FnMut()) {
    group.bench_function(id, |b| b.iter(&mut op));
    print_allocations(id, budget(10_000), op);
}

fn bench_cache(c: &mut Criterion) {
    let cache = ShardedCache::new(CacheConfig::with_capacity(256 << 20));
    let keys: Vec<Key> = (0..budget(10_000))
        .map(|i| Key::from(format!("key-{i:08}")))
        .collect();
    let value = Value::from(vec![b'v'; 128]);
    for k in &keys {
        cache.insert(k.clone(), value.clone(), false).unwrap();
    }
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    row(&mut group, "get_hit", || {
        i = (i + 1) % keys.len();
        std::hint::black_box(cache.get(&keys[i]));
    });
    // The same hits on dirty entries: a hit sets the entry's reference
    // bit, as on a clean one, and leaves the dirty flag as it is.
    let dirty = ShardedCache::new(CacheConfig::with_capacity(256 << 20));
    for k in &keys {
        dirty.insert(k.clone(), value.clone(), true).unwrap();
    }
    row(&mut group, "get_hit_dirty", || {
        i = (i + 1) % keys.len();
        std::hint::black_box(dirty.get(&keys[i]));
    });
    drop(dirty);
    // One write-back flush of `tiered-skew`'s size (~3.9 entries a
    // flush): four dirty overwrites, the snapshot of the dirty entries,
    // then each cleaned against the bytes it was flushed with, as
    // `TierBase`'s flush does.
    row(&mut group, "dirty_flush", || {
        for _ in 0..4 {
            i = (i + 1) % keys.len();
            cache.insert(keys[i].clone(), value.clone(), true).unwrap();
        }
        for (key, flushed) in cache.dirty_entries() {
            cache.mark_clean(&key, &flushed);
        }
    });
    // The inserted value is built once, so the insert rows time the
    // cache's own work.
    row(&mut group, "insert", || {
        i = (i + 1) % keys.len();
        cache.insert(keys[i].clone(), value.clone(), false).unwrap();
    });
    // New keys into a cache whose budget holds half of `keys`' worth of
    // them, filled first: every insert evicts an entry. The key is the
    // next number's 8 bytes, so no key repeats.
    let full = ShardedCache::new(CacheConfig::with_capacity(
        keys.len() / 2 * entry_cost(8, value.len()),
    ));
    let mut next = 0u64;
    let mut new_key = || {
        next += 1;
        Key::copy_from(&next.to_be_bytes())
    };
    for _ in 0..keys.len() {
        full.insert(new_key(), value.clone(), false).unwrap();
    }
    row(&mut group, "insert_evict", || {
        full.insert(new_key(), value.clone(), false).unwrap();
    });
    drop(full);

    // `serve-hot`'s shape: Cities records under `user{i:012}` keys, each
    // coded under `tzstd-d` trained on the first 256, behind a 2-byte
    // header, as a store's envelope holds it (~46 B, most in the 64 B
    // stride). Loading them inserts new keys; the rows then overwrite
    // and hit them.
    let cities = DatasetKind::Cities.build(5);
    let records: Vec<Vec<u8>> = (0..budget(50_000)).map(|i| cities.record(i)).collect();
    let model = Tzstd::train_with_dict(TzstdLevel(1), &records[..256]);
    let envelopes: Vec<Value> = records
        .iter()
        .map(|r| Value::from([&[0, 0][..], &model.compress(r)].concat()))
        .collect();
    let keys: Vec<Key> = (0..envelopes.len())
        .map(|i| Key::from(format!("user{i:012}")))
        .collect();
    let served = ShardedCache::new(CacheConfig::with_capacity(256 << 20));
    let mut load = keys.iter().zip(&envelopes);
    print_allocations("insert_cities (new keys)", keys.len() as u64, || {
        let (key, envelope) = load.next().unwrap();
        served.insert(key.clone(), envelope.clone(), false).unwrap();
    });
    row(&mut group, "insert_cities", || {
        i = (i + 1) % keys.len();
        served
            .insert(keys[i].clone(), envelopes[i].clone(), false)
            .unwrap();
    });
    row(&mut group, "get_hit_cities", || {
        i = (i + 1) % keys.len();
        std::hint::black_box(served.get(&keys[i]));
    });
    // Each overwrite lengthens or shortens its envelope by one stride
    // (8 bytes), so the key's record moves to another size class.
    let longer: Vec<Value> = envelopes
        .iter()
        .map(|e| Value::from([e.as_slice(), &[0; 8]].concat()))
        .collect();
    // Whole passes over the keys, from the first: every key moves on
    // each pass.
    let (mut i, mut long) = (0, true);
    row(&mut group, "overwrite_across_classes", || {
        let value = if long { &longer[i] } else { &envelopes[i] };
        served
            .insert(keys[i].clone(), value.clone(), false)
            .unwrap();
        i = (i + 1) % keys.len();
        long ^= i == 0;
    });
    drop(served);

    // 4 KiB values, past the inline cap, so each is an allocation of its
    // own: a hit hands out a copy of the value and an insert copies it
    // in, both under the shard lock.
    let big = ShardedCache::new(CacheConfig::with_capacity(256 << 20));
    let value = Value::from(vec![b'v'; 4096]);
    let keys = &keys[..(budget(2_000) as usize).min(keys.len())];
    for k in keys {
        big.insert(k.clone(), value.clone(), false).unwrap();
    }
    row(&mut group, "get_hit_4k", || {
        i = (i + 1) % keys.len();
        std::hint::black_box(big.get(&keys[i]));
    });
    row(&mut group, "insert_4k", || {
        i = (i + 1) % keys.len();
        big.insert(keys[i].clone(), value.clone(), false).unwrap();
    });
    group.finish();
}

fn bench_lsm(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("tb-micro-lsm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = LsmDb::open(LsmConfig::new(dir)).unwrap();
    let keys: Vec<Key> = (0..budget(10_000))
        .map(|i| Key::from(format!("key-{i:08}")))
        .collect();
    for k in &keys {
        db.put(k.clone(), Value::from(vec![b'v'; 128])).unwrap();
    }
    db.flush().unwrap();
    let mut group = c.benchmark_group("lsm");
    group.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    group.bench_function("get", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            std::hint::black_box(db.get(&keys[i]).unwrap())
        })
    });
    group.bench_function("put", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            db.put(keys[i].clone(), Value::from(vec![b'w'; 128]))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_compressors(c: &mut Criterion) {
    let dataset = DatasetKind::Kv1.build(5);
    let train: Vec<Vec<u8>> = (0..256u64).map(|i| dataset.record(i)).collect();
    let record = dataset.record(9999);
    let tz = Tzstd::train(TzstdLevel(1), &train);
    let tzd = Tzstd::train_with_dict(TzstdLevel(1), &train);
    let pbc = Pbc::train(&train, &PbcConfig::default());

    let mut group = c.benchmark_group("compress");
    group.throughput(Throughput::Bytes(record.len() as u64));
    for (name, comp, heap) in [
        ("tzstd", &tz as &dyn Compressor, tz.heap_bytes()),
        ("tzstd_dict", &tzd, tzd.heap_bytes()),
        ("pbc", &pbc, pbc.model().heap_bytes()),
    ] {
        println!("compress/{name}: model holds {heap} B of heap");
        group.bench_function(format!("{name}/compress"), |b| {
            b.iter(|| std::hint::black_box(comp.compress(&record)))
        });
        let compressed = comp.compress(&record);
        group.bench_function(format!("{name}/decompress"), |b| {
            b.iter_batched(
                || compressed.clone(),
                |z| std::hint::black_box(comp.decompress(&z).unwrap()),
                BatchSize::SmallInput,
            )
        });
    }

    // The rows above code one record, whose bytes and model stay hot
    // in L1. A cache tier codes a different record each time: these
    // cycle through 50 000 distinct Cities records (and their frames)
    // under a model trained on the first 256, through the reused-buffer
    // calls the store makes: the store's default model, `tzstd-d`, and
    // `tzstd` beside it.
    let cities = DatasetKind::Cities.build(5);
    let records: Vec<Vec<u8>> = (0..budget(50_000)).map(|i| cities.record(i)).collect();
    let train = &records[..256];

    // The 256th put trains the store's model inline, dictionary first.
    let dict = train_dictionary(train, TRAINED_DICT_BYTES);
    println!(
        "compress/train_dictionary: {} B of dictionary from 256 Cities records",
        dict.len()
    );
    let train_bytes = train.iter().map(Vec::len).sum::<usize>();
    group.throughput(Throughput::Bytes(train_bytes as u64));
    group.bench_function("train_dictionary", |b| {
        b.iter(|| std::hint::black_box(train_dictionary(train, TRAINED_DICT_BYTES).len()))
    });

    let mean = records.iter().map(Vec::len).sum::<usize>() / records.len();
    group.throughput(Throughput::Bytes(mean as u64));
    for (prefix, model) in [
        ("", Tzstd::train_with_dict(TzstdLevel(1), train)),
        ("tzstd/", Tzstd::train(TzstdLevel(1), train)),
    ] {
        let frames: Vec<Vec<u8>> = records.iter().map(|r| model.compress(r)).collect();
        println!(
            "compress/{prefix}record_*_cold: {} model holds {} B of heap",
            model.name(),
            model.heap_bytes()
        );
        let mut out = Vec::new();
        let mut i = 0usize;
        group.bench_function(format!("{prefix}record_encode_cold"), |b| {
            b.iter(|| {
                i = (i + 1) % records.len();
                out.clear();
                model.compress_into(&records[i], &mut out);
                std::hint::black_box(out.len())
            })
        });
        group.bench_function(format!("{prefix}record_decode_cold"), |b| {
            b.iter(|| {
                i = (i + 1) % frames.len();
                model.decompress_into(&frames[i], &mut out).unwrap();
                std::hint::black_box(out.len())
            })
        });
    }
    group.finish();
}

/// The benchmark's data shape: `n` Cities records under
/// `user{i:012}` keys, in key order.
fn cities_entries(n: u64) -> Vec<(Key, Entry)> {
    let dataset = DatasetKind::Cities.build(5);
    (0..n)
        .map(|i| {
            let value = Value::from(dataset.record(i));
            (Key::from(format!("user{i:012}")), Entry::Put(value))
        })
        .collect()
}

/// `entries` written as one SSTable under `codec` at `path`.
fn table(path: &Path, entries: &[(Key, Entry)], codec: BlockCodec) -> SstReader {
    let config = SstConfig {
        codec,
        ..SstConfig::default()
    };
    SstReader::open(write_sstable(1, path, entries.iter().cloned(), &config).unwrap()).unwrap()
}

/// The SSTable block path per codec, on the first 64 data blocks (or
/// all, when a smoke run writes fewer) of a `none` table of Cities
/// records (exactly the writer's blocks) and
/// trained the way the writer trains (first 512 values, the table's
/// own blocks): throughput is uncompressed bytes per second through
/// `encode_frame` / `decode_frame`, CRC included. Every codec runs at
/// a flush table's effort; `lz-compaction` is `lz` as a compaction
/// writes it (lazy parse, 8 KiB dictionary). `crc32` is the
/// checksum alone over one block.
fn bench_block_codec(c: &mut Criterion) {
    let entries = cities_entries(budget(8000));
    let dir = bench_dir("block-codec");
    let raw = table(&dir.join("none.sst"), &entries, BlockCodec::None);
    let (_, in_table) = raw.locate_range(&Key::from(""), None).unwrap();
    let blocks: Vec<Vec<u8>> = (0..in_table.min(64))
        .map(|i| raw.read_block(i).unwrap())
        .collect();
    let samples: Vec<Vec<u8>> = entries
        .iter()
        .take(512)
        .filter_map(|(_, e)| match e {
            Entry::Put(v) => Some(v.as_slice().to_vec()),
            Entry::Tombstone => None,
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let bytes: usize = blocks.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group("block_codec");
    group.throughput(Throughput::Bytes(bytes as u64));
    let flush = BlockCodec::ALL.map(|codec| (codec, BlockEffort::Flush, codec.name()));
    let compaction = (BlockCodec::Lz, BlockEffort::Compaction, "lz-compaction");
    for (codec, effort, name) in flush.into_iter().chain([compaction]) {
        let state = BlockCodecState::train_on_blocks(codec, effort, &samples, &blocks);
        let mut frame = Vec::new();
        group.bench_function(format!("{name}/encode"), |b| {
            b.iter(|| {
                for block in &blocks {
                    frame.clear();
                    std::hint::black_box(state.encode_frame(block, &mut frame));
                }
            })
        });
        let frames: Vec<Vec<u8>> = blocks
            .iter()
            .map(|block| {
                let mut frame = Vec::new();
                state.encode_frame(block, &mut frame);
                frame
            })
            .collect();
        let on_disk: usize = frames.iter().map(Vec::len).sum();
        println!(
            "block_codec/{name}: ratio {:.3} ({bytes} -> {on_disk} B + {} B table payload)",
            bytes as f64 / on_disk as f64,
            state.dict_payload().len()
        );
        group.bench_function(format!("{name}/decode"), |b| {
            b.iter(|| {
                for frame in &frames {
                    std::hint::black_box(state.decode_frame(frame).unwrap());
                }
            })
        });
    }
    group.throughput(Throughput::Bytes(blocks[0].len() as u64));
    group.bench_function("crc32", |b| {
        b.iter(|| std::hint::black_box(crc32(&blocks[0])))
    });
    group.finish();
}

/// The SSTable block format on the benchmark's data shape, 8 000
/// (`budget`) Cities records in one `lz` table: `find_in_block` per lookup on its
/// decoded middle block — that block's first, middle and last entry,
/// and a miss just after the middle one — `decode_block` over the same
/// block, and `write_sstable` for the whole table (bytes = keys +
/// values; encode, fsync and rename included).
fn bench_sst_block(c: &mut Criterion) {
    let entries = cities_entries(budget(8000));
    let user_bytes: usize = entries
        .iter()
        .map(|(k, e)| match e {
            Entry::Put(v) => k.len() + v.len(),
            Entry::Tombstone => k.len(),
        })
        .sum();
    let dir = bench_dir("sst-block");
    let r = table(&dir.join("cities.sst"), &entries, BlockCodec::Lz);
    let (_, blocks) = r.locate_range(&Key::from(""), None).unwrap();
    let block = r.read_block(blocks / 2).unwrap();
    let keys: Vec<Key> = decode_block(&block)
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let middle = &keys[keys.len() / 2];
    let miss = Key::from([middle.as_slice(), b"x"].concat());

    let mut group = c.benchmark_group("sst_block");
    group.throughput(Throughput::Elements(1));
    for (name, key) in [
        ("first", &keys[0]),
        ("middle", middle),
        ("last", &keys[keys.len() - 1]),
        ("miss", &miss),
    ] {
        group.bench_function(format!("find_in_block/{name}"), |b| {
            b.iter(|| std::hint::black_box(find_in_block(&block, key).unwrap()))
        });
    }
    group.throughput(Throughput::Bytes(block.len() as u64));
    group.bench_function("decode_block", |b| {
        b.iter(|| std::hint::black_box(decode_block(&block).unwrap()))
    });
    group.throughput(Throughput::Bytes(user_bytes as u64));
    let path = dir.join("write.sst");
    let config = SstConfig {
        codec: BlockCodec::Lz,
        ..SstConfig::default()
    };
    group.bench_function("write_sstable/lz", |b| {
        b.iter(|| write_sstable(2, &path, entries.iter().cloned(), &config).unwrap())
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    let key = b"user:123456789:profile";
    group.bench_function("fx_hash", |b| b.iter(|| std::hint::black_box(fx_hash(key))));
    let hist = Histogram::new();
    group.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(v % 1_000_000)
        })
    });
    group.finish();
}

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    let counter = tb_obs::global().counter("micro_obs_probe");
    let histo = tb_obs::global().histogram("micro_obs_probe_ns");

    // The cost-discipline contract: with telemetry off, a timed site is
    // one relaxed load — `start()` returns `None` without reading the
    // clock, and `record_since(None)` is a no-op branch.
    tb_obs::set_enabled(false);
    group.bench_function("disabled_start", |b| {
        b.iter(|| std::hint::black_box(tb_obs::start()))
    });
    group.bench_function("disabled_timed_site", |b| {
        b.iter(|| {
            let t = tb_obs::start();
            histo.record_since(std::hint::black_box(t));
        })
    });
    group.bench_function("disabled_counter_add", |b| b.iter(|| counter.add(1)));

    tb_obs::set_enabled(true);
    group.bench_function("enabled_timed_site", |b| {
        b.iter(|| {
            let t = tb_obs::start();
            histo.record_since(std::hint::black_box(t));
        })
    });
    group.bench_function("enabled_counter_add", |b| b.iter(|| counter.add(1)));
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_lsm,
    bench_compressors,
    bench_block_codec,
    bench_sst_block,
    bench_primitives,
    bench_obs
);
criterion_main!(benches);
