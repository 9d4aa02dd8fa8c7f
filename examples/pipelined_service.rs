//! Pipelined service: the `tb-frontend` serving layer under mixed
//! readers and writers, with visible backpressure.
//!
//! The scenario: a durable LSM store behind the front-end serves an
//! API fleet. Write-heavy ingest threads pipeline puts (acknowledged
//! after each batch's group commit), read threads issue point and
//! batched lookups, and one best-effort telemetry thread uses
//! `try_submit`, shedding load whenever its shard queue saturates
//! instead of stalling the caller.
//!
//! ```sh
//! cargo run --release --example pipelined_service
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::prelude::*;

fn main() -> Result<()> {
    let dir = std::env::temp_dir().join(format!("tb-example-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A durable engine: every acknowledged write has been fsync'd by
    // the batch's group commit.
    let db = Arc::new(LsmDb::open(LsmConfig::new(&dir))?);
    let fe = Arc::new(Frontend::start(
        db.clone(),
        FrontendConfig {
            shards: 4,
            // Small queues so the telemetry thread actually sees
            // backpressure in a few seconds of runtime.
            queue_capacity: 256,
            max_batch: 64,
        },
    ));

    let writes = Arc::new(AtomicU64::new(0));
    let reads = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Ingest: four writers pipeline a burst each, then await the
        // tickets — deep batches for the group commit.
        for w in 0..4 {
            let fe = fe.clone();
            let writes = writes.clone();
            s.spawn(move || {
                for chunk in 0..20 {
                    let tickets: Vec<_> = (0..250)
                        .map(|i| {
                            let key = Key::from(format!("user:{w}:{}", chunk * 250 + i));
                            fe.submit(EngineOp::Put(key, Value::from(format!("profile-{i}"))))
                        })
                        .collect();
                    for t in tickets {
                        if t.wait().is_ok() {
                            writes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // Readers: point gets plus gateway-style batched lookups.
        for r in 0..2 {
            let fe = fe.clone();
            let reads = reads.clone();
            s.spawn(move || {
                for round in 0..500 {
                    let key = Key::from(format!("user:{}:{}", r, round % 1000));
                    let _ = fe.get(&key);
                    let batch: Vec<Key> = (0..16)
                        .map(|i| Key::from(format!("user:{r}:{}", (round + i) % 1000)))
                        .collect();
                    let _ = fe.multi_get(&batch);
                    reads.fetch_add(17, Ordering::Relaxed);
                }
            });
        }

        // Telemetry: best-effort counters that must never block the
        // hot path — try_submit sheds on a saturated shard.
        {
            let fe = fe.clone();
            let shed = shed.clone();
            s.spawn(move || {
                for i in 0..5000 {
                    let key = Key::from(format!("telemetry:{}", i % 64));
                    match fe.try_submit(EngineOp::Put(key, Value::from("tick"))) {
                        Ok(_) => {}
                        Err(Error::Backpressure { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });

    fe.barrier();

    // A feed-style fetch through the batched submission/completion API:
    // one heterogeneous op batch, one overlapped storage pass. The
    // shard workers lower it onto `LsmDb::apply_batch`, which dedups
    // the SSTable block reads behind the keys.
    let feed: Vec<Key> = (0..64).map(|i| Key::from(format!("user:0:{i}"))).collect();
    let outcomes = fe.apply_batch(vec![
        EngineOp::MultiGet(feed),
        EngineOp::Put(Key::from("feed:cursor"), Value::from("64")),
        EngineOp::Get(Key::from("feed:cursor")),
    ]);
    let feed_hits = match &outcomes[0] {
        Ok(OpOutcome::Values(values)) => values.iter().flatten().count(),
        other => panic!("feed fetch failed: {other:?}"),
    };
    assert_eq!(
        outcomes[2],
        Ok(OpOutcome::Value(Some(Value::from("64")))),
        "the batched get must see the batched put before it"
    );

    let snap = fe.stats_snapshot();
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
    println!("pipelined service over {}:", fe.label());
    println!("  feed batch          : {feed_hits}/64 hits in one apply_batch submission");
    println!(
        "  engine batch reads  : {} blocks ({} deduped, {} memtable hits)",
        count(&db.stats.batch_blocks_read),
        count(&db.stats.batch_block_dedup_hits),
        count(&db.stats.batch_memtable_hits)
    );
    println!("  acknowledged writes : {}", writes.load(Ordering::Relaxed));
    println!("  reads served        : {}", reads.load(Ordering::Relaxed));
    println!(
        "  telemetry shed      : {} (backpressure rejections: {})",
        shed.load(Ordering::Relaxed),
        snap.backpressure_rejections
    );
    println!(
        "  batches drained     : {} ({:.1} ops/batch)",
        snap.batches,
        snap.mean_batch()
    );
    println!(
        "  group commits       : {} fsyncs for {} submitted ops",
        snap.group_syncs, snap.submitted
    );

    // One unified telemetry snapshot covers the front-end and the LSM
    // engine behind it. Both renderings are self-validated: the
    // Prometheus text must pass the exposition linter and the JSON
    // must round-trip through the parser.
    let metrics = tierbase::obs::global().snapshot();
    let exposition = metrics.to_prometheus();
    tierbase::obs::validate_exposition(&exposition).expect("well-formed exposition");
    tierbase::obs::json::parse(&metrics.to_json()).expect("well-formed json");
    println!("\n# telemetry snapshot (Prometheus exposition, frontend_* excerpt)");
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("frontend_") && !l.contains("_ns"))
        .take(12)
    {
        println!("{line}");
    }
    println!(
        "# ... {} counters, {} gauges, {} histograms in the full snapshot",
        metrics.counters.len(),
        metrics.gauges.len(),
        metrics.histograms.len()
    );
    if let Some(h) = metrics.histograms.get("frontend_e2e_ns") {
        println!(
            "frontend e2e latency: p50 {:.1}us p99 {:.1}us ({} ops)",
            h.p50 as f64 / 1000.0,
            h.p99 as f64 / 1000.0,
            h.count
        );
    }

    fe.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
