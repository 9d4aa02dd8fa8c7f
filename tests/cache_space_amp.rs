//! `space_amp` gate for the cache tier, in tier-1.
//!
//! What a store holds per user byte is its cache's layout times its
//! record model's ratio, plus the model itself. This puts 50 000 Cities
//! records under `user{i:012}` keys, as the benchmark's `serve-hot`
//! loads them, into a default in-memory `TierBase` (compressed under
//! its auto-trained `tzstd-d` model), and checks that
//! `resident_bytes / user bytes` stays at or under a ceiling, so a
//! change to the cache's layout or to the codec cannot give bytes back
//! unnoticed.

use tierbase::prelude::*;
use tierbase::workload::DatasetKind;

const RECORDS: u64 = 50_000;
const BURST: u64 = 256;

/// 1.5 % above the reading, 0.6589. It read 0.7638 while each record
/// was an allocation of its own behind a 16-byte slab node.
const CEILING: f64 = 0.669;

#[test]
fn cities_records_stay_under_their_space_amp_ceiling() {
    let dataset = DatasetKind::Cities.build(1);
    let dir = tierbase::common::test_dir("tb-it-cache-space-amp");
    let store = TierBase::open(
        TierBaseConfig::builder(dir.path())
            .policy(SyncPolicy::InMemory)
            .build(),
    )
    .unwrap();
    let mut user = 0;
    for first in (0..RECORDS).step_by(BURST as usize) {
        let ops: Vec<EngineOp> = (first..(first + BURST).min(RECORDS))
            .map(|i| {
                let key = Key::from(format!("user{i:012}"));
                let value = Value::from(dataset.record(i));
                user += key.len() + value.len();
                EngineOp::Put(key, value)
            })
            .collect();
        for done in store.apply_batch(ops) {
            done.unwrap();
        }
    }
    let space_amp = store.resident_bytes() as f64 / user as f64;
    println!("Cities, {RECORDS} records: space_amp {space_amp:.4}");
    assert!(
        space_amp <= CEILING,
        "space_amp {space_amp:.4} over {CEILING}"
    );
}
