//! Baseline comparator engines (§6.1).
//!
//! Simplified in-process reimplementations of the systems the paper
//! evaluates against. Each captures its subject's *architectural
//! signature* — the property that determines where it lands on the
//! cost plane — rather than vendor code:
//!
//! | Engine | Signature | Cost-plane effect |
//! |---|---|---|
//! | [`RedisLike`] | single-threaded event loop (one global serialization point), rich-object overhead, optional AOF | low PC at 1 core, higher SC |
//! | [`MemcachedLike`] | multi-threaded sharded slab cache | scales with cores, slab rounding wastes some memory but per-entry overhead is small |
//! | [`DragonflyLike`] | shared-nothing per-core shards reached by message passing | high parallel throughput, per-op messaging cost |
//! | [`CassandraLike`] / [`HBaseLike`] | LSM on disk with JVM-ish per-op CPU overhead | low SC (disk is cheap), high PC |
//!
//! All implement [`KvEngine`], so the same replay/cost harness drives
//! every system in Figures 7 and 10–12.

#![deny(unsafe_code)]

pub mod cassandra_like;
pub mod dragonfly_like;
pub mod memcached_like;
pub mod redis_like;

pub use cassandra_like::{CassandraLike, HBaseLike};
pub use dragonfly_like::DragonflyLike;
pub use memcached_like::MemcachedLike;
pub use redis_like::RedisLike;

use std::time::{Duration, Instant};

/// Busy-wait for `us` microseconds — models fixed per-op CPU overhead
/// (JVM dispatch, protocol parsing) that wall-clock throughput must pay.
pub(crate) fn burn_cpu_us(us: u64) {
    if us == 0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_micros(us);
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}
