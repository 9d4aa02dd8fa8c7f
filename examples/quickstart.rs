//! Quickstart: open a tiered TierBase store, use strings, CAS and data
//! types, and watch the cost-relevant statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tierbase::prelude::*;
use tierbase::store::ListEnd;

fn main() -> Result<()> {
    let dir = std::env::temp_dir().join("tierbase-example-quickstart");
    let _ = std::fs::remove_dir_all(&dir);

    // A tiered store: in-memory cache tier in front of an LSM storage
    // tier, synchronized write-through.
    let store = TierBase::open(
        TierBaseConfig::builder(&dir)
            .cache_capacity(16 << 20)
            .policy(SyncPolicy::WriteThrough)
            .build(),
    )?;

    // --- strings -------------------------------------------------------
    store.put(Key::from("user:1:name"), Value::from("alice"))?;
    store.put(Key::from("user:1:city"), Value::from("hangzhou"))?;
    println!("user:1:name = {:?}", store.get(&Key::from("user:1:name"))?);

    // --- compare-and-set ------------------------------------------------
    store.put(Key::from("counter"), Value::from("41"))?;
    store.cas(
        Key::from("counter"),
        Some(&Value::from("41")),
        Value::from("42"),
    )?;
    let stale = store.cas(
        Key::from("counter"),
        Some(&Value::from("41")), // stale expectation
        Value::from("43"),
    );
    println!(
        "counter = {:?}, stale CAS -> {stale:?}",
        store.get(&Key::from("counter"))?
    );

    // --- Redis-style data types -----------------------------------------
    let types = DataTypes::new(&store);
    types.list_push(&Key::from("queue"), b"job-1", ListEnd::Tail)?;
    types.list_push(&Key::from("queue"), b"job-2", ListEnd::Tail)?;
    types.set_add(&Key::from("tags"), b"fintech")?;
    types.set_add(&Key::from("tags"), b"kv-store")?;
    types.zset_add(&Key::from("leaderboard"), b"alice", 97.0)?;
    types.zset_add(&Key::from("leaderboard"), b"bob", 64.0)?;
    println!(
        "queue head = {:?}, tags = {}, top = {:?}",
        types.list_pop(&Key::from("queue"), ListEnd::Head)?,
        types.set_members(&Key::from("tags"))?.len(),
        types.zset_range(&Key::from("leaderboard"), 1, 2)?,
    );

    // --- rows of named columns ---------------------------------------------
    // One hash per row; the `{...}` hash tag keeps a row on one cluster
    // slot.
    let order = Key::from("orders:{order-1001}");
    for (column, value) in [
        (b"amount".as_slice(), b"128.50".as_slice()),
        (b"currency", b"CNY"),
        (b"status", b"PAID"),
    ] {
        types.hash_set(&order, column, value)?;
    }
    println!("order-1001 = {:?}", types.hash_get_all(&order)?);

    // --- durability ------------------------------------------------------
    store.sync()?;
    drop(store);
    let reopened = TierBase::open(
        TierBaseConfig::builder(&dir)
            .cache_capacity(16 << 20)
            .policy(SyncPolicy::WriteThrough)
            .build(),
    )?;
    assert_eq!(
        reopened.get(&Key::from("user:1:name"))?,
        Some(Value::from("alice")),
        "data must survive restart through the storage tier"
    );
    println!(
        "reopened store serves {} (cache miss ratio so far: {:.2})",
        String::from_utf8_lossy(
            reopened
                .get(&Key::from("user:1:name"))?
                .expect("present")
                .as_slice()
        ),
        reopened.stats().miss_ratio(),
    );
    Ok(())
}
