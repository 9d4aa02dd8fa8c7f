//! §6.5.3 end-to-end: measure a live store's mean key access interval,
//! compare it against the Table 3 break-even ladder, and get the same
//! configuration choice the paper reports (hot traffic → Raw, cold
//! traffic → compression).

use std::sync::Arc;
use std::time::Duration;
use tierbase::common::ManualClock;
use tierbase::costmodel::{BreakEvenTable, CostMetrics};
use tierbase::prelude::*;

fn tmpdir(name: &str) -> tierbase::common::TestDir {
    tierbase::common::test_dir(&format!("tb-it-be-{name}"))
}

/// A Table 3-like ladder: Raw is fastest and most space-hungry, PMem in
/// between, PBC compression slowest and most frugal. (Shapes mirror the
/// measured table3 bench; absolute numbers are illustrative.)
fn ladder() -> BreakEvenTable {
    let configs = vec![
        ("raw".to_string(), CostMetrics::new(120_000.0, 3.0, 1.0)),
        ("pmem".to_string(), CostMetrics::new(100_000.0, 8.0, 1.0)),
        ("pbc".to_string(), CostMetrics::new(60_000.0, 12.0, 1.0)),
    ];
    BreakEvenTable::build(&configs, 200.0)
}

fn drive(interval: Duration, rounds: usize) -> Option<f64> {
    let clock = ManualClock::new();
    let dir = tmpdir(&format!("drive-{}", interval.as_secs()));
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .clock(clock.clone() as Arc<_>)
            .build(),
    )
    .unwrap();
    for i in 0..2_000u32 {
        store
            .put(Key::from(format!("k{i:06}")), Value::from("v"))
            .unwrap();
    }
    for _ in 0..rounds {
        clock.advance(interval);
        for i in 0..2_000u32 {
            store.get(&Key::from(format!("k{i:06}"))).unwrap();
        }
    }
    store.mean_access_interval_secs()
}

#[test]
fn hot_workload_recommends_fast_config() {
    let table = ladder();
    // Keys re-accessed every 5 seconds — far below every break-even.
    let measured = drive(Duration::from_secs(5), 4).expect("intervals observed");
    assert!((measured - 5.0).abs() < 0.5, "measured {measured}");
    assert_eq!(table.recommend(measured), Some("raw"));
}

#[test]
fn cold_workload_recommends_compression() {
    let table = ladder();
    let max_break_even = table
        .rows
        .iter()
        .map(|r| r.interval_seconds)
        .fold(0.0f64, f64::max);
    // Re-access interval beyond every break-even in the ladder — the
    // paper's Case 1 regime (measured interval > 1018 s there).
    let cold_secs = (max_break_even * 2.0).ceil() as u64;
    let measured = drive(Duration::from_secs(cold_secs), 3).expect("intervals observed");
    assert_eq!(
        table.recommend(measured),
        Some("pbc"),
        "cold traffic ({measured:.0}s) must land on the space-frugal config"
    );
}

#[test]
fn insight_surfaces_the_interval() {
    let clock = ManualClock::new();
    let dir = tmpdir("insight");
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .clock(clock.clone() as Arc<_>)
            .build(),
    )
    .unwrap();
    for i in 0..500u32 {
        store
            .put(Key::from(format!("k{i:05}")), Value::from("v"))
            .unwrap();
    }
    clock.advance(Duration::from_secs(60));
    for i in 0..500u32 {
        store.get(&Key::from(format!("k{i:05}"))).unwrap();
    }
    let mean = store.mean_access_interval_secs().expect("observed");
    assert!((mean - 60.0).abs() < 1.0, "mean {mean}");
}
