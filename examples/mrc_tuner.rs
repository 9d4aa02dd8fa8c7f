//! MRC-driven cache sizing: estimate a workload's miss-ratio curve
//! cheaply with SHARDS sampling, solve Theorem 5.1 for the optimal
//! cache ratio, then prove the prediction on a real TierBase instance.
//!
//! This is the §5.2/§5.3 loop an operator actually runs: you cannot
//! afford to replay production traffic against every candidate cache
//! size, but you *can* afford a sampled MRC — and the cost model turns
//! that one curve into the optimal cache ratio directly.
//!
//! ```sh
//! cargo run --release --example mrc_tuner
//! ```

use rand::SeedableRng;
use tierbase::costmodel::{
    lru_miss_ratio_curve, shards_miss_ratio_curve, MissRatioCurve, ShardsConfig, TieredCostModel,
    TieredCostParams,
};
use tierbase::prelude::*;
use tierbase::workload::{KeyChooser, ScrambledZipfian};

fn main() -> Result<()> {
    // --- 1. Record a skewed read trace ----------------------------------
    let n_keys: u64 = 20_000;
    let n_refs: usize = 200_000;
    let record_bytes = 120usize;
    let mut chooser = ScrambledZipfian::with_theta(n_keys, 0.9);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let ops: Vec<Op> = (0..n_refs)
        .map(|_| Op::Read {
            key: Key::from(format!("k{:08}", chooser.next_index(&mut rng))),
        })
        .collect();
    let trace = Trace::new(ops.clone());
    println!("trace: {n_refs} refs over {n_keys} keys, zipf(0.9)");

    // --- 2. Build the MRC: exact vs sampled -----------------------------
    let t0 = std::time::Instant::now();
    let exact = lru_miss_ratio_curve(&trace);
    let exact_ms = t0.elapsed().as_millis();
    let t1 = std::time::Instant::now();
    let sampled = shards_miss_ratio_curve(
        &trace,
        ShardsConfig {
            sampling_rate: 0.05,
        },
    );
    let sampled_ms = t1.elapsed().as_millis();
    println!("\nMRC construction: exact {exact_ms} ms, SHARDS(R=0.05) {sampled_ms} ms");
    println!("  CR    exact MR   sampled MR");
    for cr in [0.01, 0.05, 0.1, 0.2, 0.5] {
        println!(
            "  {cr:<5} {:<10.4} {:<10.4}",
            exact.miss_ratio(cr),
            sampled.miss_ratio(cr)
        );
    }

    // --- 3. Theorem 5.1: the optimal cache ratio -------------------------
    // Cache 20x pricier per byte than storage; miss penalty 4x the
    // cache-hit cost (per-workload units as in §5.2).
    let params = TieredCostParams {
        pc_cache: 1.0,
        pc_miss: 4.0,
        sc_cache: 20.0,
        pc_storage: 30.0,
        sc_storage: 2.0,
    };
    let model = TieredCostModel::new(params, sampled);
    let opt = model.optimal_cache_ratio();
    println!(
        "\nTheorem 5.1 on the sampled curve: CR* = {:.4} (predicted MR {:.4})",
        opt.cache_ratio, opt.miss_ratio
    );
    println!(
        "  balance check: PC {:.3} vs SC {:.3}  (equal at the optimum)",
        opt.performance_cost, opt.space_cost
    );

    // --- 4. Validate on a real store -------------------------------------
    // Size the cache tier to CR* of the dataset footprint and replay.
    let dir = std::env::temp_dir().join(format!("tb-example-mrc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The heap a cached entry holds: its `k{i:08}` key and its value
    // behind the one-byte envelope the store stores it in, raw: the
    // store is sized by raw `entry_cost`, so it stores values raw.
    let per_entry = tierbase::cache::entry_cost("k00000000".len(), 1 + record_bytes);
    let footprint = n_keys as usize * per_entry;
    let cache_bytes = (footprint as f64 * opt.cache_ratio) as usize;
    let store = TierBase::open(
        TierBaseConfig::builder(&dir)
            .cache_capacity(cache_bytes)
            .policy(SyncPolicy::WriteThrough)
            .compression(CompressorChoice::Raw)
            .build(),
    )?;
    for i in 0..n_keys {
        store.put(
            Key::from(format!("k{i:08}")),
            Value::from(vec![b'v'; record_bytes]),
        )?;
    }
    // Warm pass so the cache reflects steady state, then measure.
    for op in &ops[..n_refs / 2] {
        if let Op::Read { key } = op {
            store.get(key)?;
        }
    }
    let h0 = store
        .stats()
        .cache_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    let m0 = store
        .stats()
        .cache_misses
        .load(std::sync::atomic::Ordering::Relaxed);
    for op in &ops[n_refs / 2..] {
        if let Op::Read { key } = op {
            store.get(key)?;
        }
    }
    let h1 = store
        .stats()
        .cache_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    let m1 = store
        .stats()
        .cache_misses
        .load(std::sync::atomic::Ordering::Relaxed);
    let measured_mr = (m1 - m0) as f64 / ((h1 - h0) + (m1 - m0)) as f64;
    println!(
        "\nreal store at CR*: measured MR {:.4} vs predicted {:.4}",
        measured_mr, opt.miss_ratio
    );
    println!(
        "  (cache {} KiB of a {} KiB footprint)",
        cache_bytes / 1024,
        footprint / 1024
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
