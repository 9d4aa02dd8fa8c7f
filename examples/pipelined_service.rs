//! Pipelined service: the `tb-frontend` serving layer under concurrent
//! bursts, with visible load shedding.
//!
//! The scenario: a durable LSM store behind the front-end serves an API
//! fleet. Ingest threads hand the front-end 250-op write bursts (each
//! acknowledged after its burst's one `sync()`), read threads issue
//! point and batched lookups, and a telemetry thread sends small bursts
//! back to back. Small shard queues make a saturated shard shed a
//! burst's sub-batch with `Error::Backpressure`; the sender backs off
//! for the queue depth it names and resubmits what was shed.
//!
//! ```sh
//! cargo run --release --example pipelined_service
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tierbase::lsm::{LsmConfig, LsmDb};
use tierbase::prelude::*;

/// Submits `ops` as one burst and resubmits whatever a saturated shard
/// shed, backing off about a microsecond per op queued ahead. Returns
/// the outcomes and how many ops were shed on the way. A resubmitted op
/// runs after the ops admitted before it; each key here has one writer
/// per burst, so that order is harmless.
fn apply_with_retry(fe: &Frontend, ops: Vec<EngineOp>) -> (Vec<Result<OpOutcome>>, u64) {
    let mut outcomes: Vec<Option<Result<OpOutcome>>> = vec![None; ops.len()];
    let mut pending: Vec<usize> = (0..ops.len()).collect();
    let mut shed = 0;
    while !pending.is_empty() {
        let burst = pending.iter().map(|&i| ops[i].clone()).collect();
        let mut depth = 0;
        let mut retry = Vec::new();
        for (i, outcome) in pending.into_iter().zip(fe.apply_batch(burst)) {
            match outcome {
                Err(e @ Error::Backpressure { .. }) => {
                    depth = depth.max(e.queue_depth().unwrap_or(0));
                    retry.push(i);
                }
                outcome => outcomes[i] = Some(outcome),
            }
        }
        shed += retry.len() as u64;
        if !retry.is_empty() {
            std::thread::sleep(Duration::from_micros(u64::from(depth)));
        }
        pending = retry;
    }
    let outcomes = outcomes.into_iter().map(|o| o.expect("every op resolved"));
    (outcomes.collect(), shed)
}

fn main() -> Result<()> {
    let dir = std::env::temp_dir().join(format!("tb-example-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A durable engine: every acknowledged write has been fsync'd by
    // its burst's sync, which concurrent bursts share inside the LSM.
    let db = Arc::new(LsmDb::open(LsmConfig::new(&dir))?);
    let fe = Arc::new(Frontend::start(
        db.clone(),
        FrontendConfig {
            shards: 4,
            // Small queues so the senders actually see backpressure in a
            // few seconds of runtime.
            queue_capacity: 64,
            max_batch: 64,
        },
    ));

    let writes = AtomicU64::new(0);
    let reads = AtomicU64::new(0);
    let shed = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Ingest: four writers, twenty 250-put bursts each.
        for w in 0..4 {
            let (fe, writes, shed) = (&fe, &writes, &shed);
            s.spawn(move || {
                for chunk in 0..20 {
                    let burst = (0..250)
                        .map(|i| {
                            let key = Key::from(format!("user:{w}:{}", chunk * 250 + i));
                            EngineOp::Put(key, Value::from(format!("profile-{i}")))
                        })
                        .collect();
                    let (outcomes, sheds) = apply_with_retry(fe, burst);
                    shed.fetch_add(sheds, Ordering::Relaxed);
                    let acked = outcomes.iter().filter(|o| o.is_ok()).count();
                    writes.fetch_add(acked as u64, Ordering::Relaxed);
                }
            });
        }

        // Readers: point gets plus gateway-style batched lookups.
        for r in 0..2 {
            let (fe, reads, shed) = (&fe, &reads, &shed);
            s.spawn(move || {
                for round in 0..500 {
                    let mut burst = vec![EngineOp::Get(Key::from(format!(
                        "user:{r}:{}",
                        round % 1000
                    )))];
                    burst.push(EngineOp::MultiGet(
                        (0..16)
                            .map(|i| Key::from(format!("user:{r}:{}", (round + i) % 1000)))
                            .collect(),
                    ));
                    let (_, sheds) = apply_with_retry(fe, burst);
                    shed.fetch_add(sheds, Ordering::Relaxed);
                    reads.fetch_add(17, Ordering::Relaxed);
                }
            });
        }

        // Telemetry: small counter bursts sent back to back.
        {
            let (fe, shed) = (&fe, &shed);
            s.spawn(move || {
                for i in 0..500 {
                    let burst = (0..10)
                        .map(|j| {
                            let key = Key::from(format!("telemetry:{}", (i * 10 + j) % 64));
                            EngineOp::Put(key, Value::from("tick"))
                        })
                        .collect();
                    let (_, sheds) = apply_with_retry(fe, burst);
                    shed.fetch_add(sheds, Ordering::Relaxed);
                }
            });
        }
    });

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
    assert_eq!(writes.load(Ordering::Relaxed), 4 * 20 * 250);

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
        "  ops shed and retried: {} (backpressure rejections: {})",
        shed.load(Ordering::Relaxed),
        snap.backpressure_rejections
    );
    println!(
        "  batches drained     : {} ({:.1} ops/batch)",
        snap.batches,
        snap.mean_batch()
    );
    println!(
        "  burst syncs         : {} for {} submitted ops ({} waited on another's fdatasync)",
        snap.group_syncs,
        snap.submitted,
        count(&db.stats.sync_waits)
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
