//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. Write-back flush batch size — RPC amortization.
//! 2. Bloom filters — LSM point-read cost for absent keys, and what the
//!    bottom level pays for carrying none.
//! 3. DRAM/PMem split threshold — space cost vs latency.
//! 4. SHARDS sampling rate — MRC build cost vs accuracy vs the CR* it
//!    feeds into Theorem 5.1.
//! 5. Deferred cache-fetching — per-key gets vs one batched fetch over
//!    a modelled network hop (§4.1.2).
//!
//! Ablations 1 and 5 reach their storage tier over a modelled 200 µs
//! hop (`tb_bench::Delayed`); no real hop is measured.
//!
//! Record and op counts scale with `TB_BENCH_SCALE` and shrink under
//! `TB_BENCH_SMOKE` (`tb_bench::budget`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tb_bench::{bench_dir, budget, delayed_storage, print_table};
use tb_common::{Key, KvEngine, Value};
use tb_costmodel::{
    lru_miss_ratio_curve, shards_miss_ratio_curve, MissRatioCurve, ShardsConfig, TieredCostModel,
    TieredCostParams,
};
use tb_lsm::{sstable::SstConfig, LsmConfig, LsmDb};
use tb_workload::{KeyChooser, Op, ScrambledZipfian, Trace};
use tierbase_core::{PmemTuning, SyncPolicy, TierBase, TierBaseConfig, WriteBackTuning};

fn main() {
    ablation_writeback_batch();
    ablation_bloom();
    ablation_pmem_split();
    ablation_shards_sampling();
    ablation_deferred_fetch();
}

/// 1. Write-back batch size: same dirty set, different flush batches.
fn ablation_writeback_batch() {
    let mut rows = Vec::new();
    for batch in [1usize, 16, 256] {
        let dir = bench_dir(&format!("abl-wb-{batch}"));
        let tb = TierBase::open(
            TierBaseConfig::builder(&dir)
                .cache_capacity(256 << 20)
                .policy(SyncPolicy::WriteBack)
                .storage(delayed_storage(&dir, 200).unwrap())
                .write_back(WriteBackTuning {
                    max_dirty_bytes: u64::MAX,
                    flush_every_ops: u64::MAX,
                    batch_size: batch,
                })
                .build(),
        )
        .unwrap();
        let n = budget(2_000);
        for i in 0..n {
            tb.put(Key::from(format!("k{i}")), Value::from(vec![b'x'; 120]))
                .unwrap();
        }
        let t0 = Instant::now();
        let flushed = tb.flush_dirty().unwrap();
        let dt = t0.elapsed();
        rows.push(vec![
            format!("batch={batch}"),
            flushed.to_string(),
            format!("{:.0}", dt.as_millis()),
            format!("{:.0}", flushed as f64 / dt.as_secs_f64().max(1e-9)),
        ]);
    }
    print_table(
        "Ablation 1: write-back flush batch size (200us RTT)",
        &["variant", "entries", "flush ms", "entries/s"],
        &rows,
    );
}

/// 2. Bloom filters: random absent-key reads, inside the stored key
///    range, against many un-merged L0 tables with and without filters,
///    and against one bottom-level table, which carries the pass-through
///    filter (the one price of dropping it: a block read per absent key).
///    `lsm_bottom_misses` counts misses in filterless tables, so with
///    filters off it counts every L0 miss too.
fn ablation_bloom() {
    let mut rows = Vec::new();
    for (label, bits, l0_trigger) in [
        ("L0 bloom(10b/key)", 10usize, 64usize),
        ("L0 no-bloom", 0, 64),
        ("bottom (pass-through)", 10, 0),
    ] {
        let mut config = LsmConfig::new(bench_dir(&format!("abl-bloom-{bits}-{l0_trigger}")));
        config.memtable_bytes = 32 << 10; // many small tables
                                          // 64 keeps the flush tables un-merged; 0 compacts every flush
                                          // into L1, the bottom level.
        config.l0_compaction_trigger = l0_trigger;
        config.sst = SstConfig {
            block_size: 4096,
            bloom_bits_per_key: bits,
            ..SstConfig::default()
        };
        let db = LsmDb::open(config).unwrap();
        let n = budget(4_000);
        // A stride permutation (7919 and 7927 are prime, so one of them
        // is coprime to `n`): every flush spans the whole key range, so
        // the L0 tables overlap as a random load's would.
        let stride = if n.is_multiple_of(7919) { 7927 } else { 7919 };
        for j in 0..n {
            let i = j * stride % n;
            db.put(
                Key::from(format!("present{i:08}")),
                Value::from(vec![b'v'; 64]),
            )
            .unwrap();
        }
        db.flush().unwrap();
        let tables: usize = db.level_table_counts().iter().sum();

        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (blocks0, misses0) = (
            count(&db.stats.batch_blocks_read),
            count(&db.stats.bottom_misses),
        );
        let t0 = Instant::now();
        let lookups = budget(20_000);
        for i in 0..lookups {
            // Absent keys *inside* the table key range, so the min/max
            // range check cannot reject them — only the bloom filter
            // (or a block read) can.
            let _ = db.get(&Key::from(format!("present{:08}x", i % n))).unwrap();
        }
        let dt = t0.elapsed();
        let per_get = |delta: u64| format!("{:.3}", delta as f64 / lookups as f64);
        rows.push(vec![
            label.into(),
            tables.to_string(),
            format!(
                "{:.0}",
                lookups as f64 / dt.as_secs_f64().max(1e-9) / 1000.0
            ),
            per_get(count(&db.stats.batch_blocks_read) - blocks0),
            per_get(count(&db.stats.bottom_misses) - misses0),
        ]);
    }
    print_table(
        "Ablation 2: bloom filters on absent-key reads",
        &[
            "variant",
            "sstables",
            "kQPS (absent gets)",
            "blocks/get",
            "lsm_bottom_misses/get",
        ],
        &rows,
    );
}

/// 3. DRAM/PMem split threshold: space cost of the same data set.
fn ablation_pmem_split() {
    let mut rows = Vec::new();
    for (label, threshold) in [
        ("all-DRAM", usize::MAX),
        ("split@1KiB", 1024),
        ("split@64B", 64),
    ] {
        let mut builder = TierBaseConfig::builder(bench_dir(&format!("abl-pmem-{threshold}")))
            .cache_capacity(256 << 20);
        if threshold != usize::MAX {
            builder = builder.pmem(PmemTuning {
                value_threshold: threshold,
                cost_factor: 0.4,
            });
        }
        let tb = TierBase::open(builder.build()).unwrap();
        let n = budget(3_000);
        let t0 = Instant::now();
        for i in 0..n {
            // Mixed sizes: small counters + large records.
            let len = if i % 4 == 0 { 32 } else { 512 };
            tb.put(Key::from(format!("k{i}")), Value::from(vec![b'x'; len]))
                .unwrap();
        }
        let dt = t0.elapsed();
        rows.push(vec![
            label.into(),
            tb.resident_bytes().to_string(),
            format!("{:.0}", n as f64 / dt.as_secs_f64().max(1e-9) / 1000.0),
        ]);
    }
    print_table(
        "Ablation 3: DRAM/PMem value placement (cost-equivalent bytes)",
        &["variant", "SC bytes (DRAM-equiv)", "kQPS (puts)"],
        &rows,
    );
}

/// 4. SHARDS sampling rate: MRC construction cost vs accuracy, and the
///    CR* each curve feeds into Theorem 5.1.
fn ablation_shards_sampling() {
    // A zipfian read trace large enough that sampling matters.
    let n_keys = 20_000u64;
    let n_refs = budget(100_000) as usize;
    let mut chooser = ScrambledZipfian::with_theta(n_keys, 0.9);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let ops: Vec<Op> = (0..n_refs)
        .map(|_| Op::Read {
            key: Key::from(format!("k{:08}", chooser.next_index(&mut rng))),
        })
        .collect();
    let trace = Trace::new(ops);

    let params = TieredCostParams {
        pc_cache: 1.0,
        pc_miss: 4.0,
        sc_cache: 20.0,
        pc_storage: 30.0,
        sc_storage: 2.0,
    };

    let t0 = Instant::now();
    let exact = lru_miss_ratio_curve(&trace);
    let exact_ms = t0.elapsed().as_millis();
    let exact_cr = TieredCostModel::new(params, exact).optimal_cache_ratio();

    let mut rows = vec![vec![
        "exact (Mattson)".into(),
        format!("{exact_ms}"),
        "0.0000".into(),
        format!("{:.4}", exact_cr.cache_ratio),
    ]];

    for rate in [0.5, 0.1, 0.02] {
        let t0 = Instant::now();
        let approx = shards_miss_ratio_curve(
            &trace,
            ShardsConfig {
                sampling_rate: rate,
            },
        );
        let build_ms = t0.elapsed().as_millis();
        // Mean absolute error against the exact curve.
        let exact = lru_miss_ratio_curve(&trace);
        let mae: f64 = (1..=50)
            .map(|i| {
                let cr = i as f64 / 50.0;
                (exact.miss_ratio(cr) - approx.miss_ratio(cr)).abs()
            })
            .sum::<f64>()
            / 50.0;
        let cr = TieredCostModel::new(params, approx).optimal_cache_ratio();
        rows.push(vec![
            format!("SHARDS R={rate}"),
            format!("{build_ms}"),
            format!("{mae:.4}"),
            format!("{:.4}", cr.cache_ratio),
        ]);
    }
    print_table(
        "Ablation 4: SHARDS sampling rate (MRC accuracy vs cost)",
        &["variant", "build ms", "MAE vs exact", "CR* (Thm 5.1)"],
        &rows,
    );
}

/// 5. Deferred cache-fetching (§4.1.2): reading cold keys (1000 at
///    scale 1) with per-key gets vs one batched multi_get over a
///    200us-RTT network.
fn ablation_deferred_fetch() {
    let n_cold = budget(1_000);
    let setup = |name: &str| {
        let dir = bench_dir(name);
        let open = || {
            TierBase::open(
                TierBaseConfig::builder(&dir)
                    .cache_capacity(256 << 20)
                    .policy(SyncPolicy::WriteThrough)
                    .storage(delayed_storage(&dir, 200).unwrap())
                    .build(),
            )
            .unwrap()
        };
        let tb = open();
        for i in 0..n_cold {
            tb.put(Key::from(format!("k{i:06}")), Value::from(vec![b'v'; 100]))
                .unwrap();
        }
        drop(tb);
        // Reopen cold.
        open()
    };
    let keys: Vec<Key> = (0..n_cold).map(|i| Key::from(format!("k{i:06}"))).collect();

    let tb1 = setup("abl-defer-single");
    let t0 = Instant::now();
    for key in &keys {
        let _ = tb1.get(key).unwrap();
    }
    let single = t0.elapsed();

    let tb2 = setup("abl-defer-batch");
    let t1 = Instant::now();
    let got = tb2.multi_get(&keys).unwrap();
    let batched = t1.elapsed();
    assert!(got.iter().all(|v| v.is_some()));

    print_table(
        &format!("Ablation 5: deferred cache-fetching ({n_cold} cold keys, 200us RTT)"),
        &["variant", "wall ms", "kQPS"],
        &[
            vec![
                "per-key get".into(),
                format!("{:.0}", single.as_millis()),
                format!("{:.0}", keys.len() as f64 / single.as_secs_f64() / 1000.0),
            ],
            vec![
                "multi_get (one RPC)".into(),
                format!("{:.0}", batched.as_millis()),
                format!("{:.0}", keys.len() as f64 / batched.as_secs_f64() / 1000.0),
            ],
        ],
    );
}
