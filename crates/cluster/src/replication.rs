//! LSN-sequenced WAL-shipping replication: the primary→replica channel.
//!
//! A [`ReplChannel`] is a data node's one replication pipe. Every write
//! the primary applies is *shipped* as an LSN-stamped frame into the
//! replica-side log (an in-memory byte log with the same framing as the
//! `tb-lsm` WAL, so torn-frame injection is meaningful), the replica
//! *acks* it — advancing the channel watermark — and is then eagerly
//! *applied* to the replica engine. Eager apply is best-effort: a
//! failure leaves the frame logged and acked, and promotion replay
//! catches the replica up from the log.
//!
//! The channel enforces the `tb_common::engine` LSN/ack contract at the
//! replication layer: **no write acked at or below the watermark is
//! ever lost by promotion** — [`ReplChannel::promote`] replays logged
//! frames up to the watermark exactly, discarding any un-acked tail
//! (including a torn final frame from a primary that crashed mid-ship).
//!
//! Fault sites (torture coverage in `tests/fault_torture.rs`):
//!
//! * `repl.ship` — the frame write into the replica log (write site:
//!   supports torn frames).
//! * `repl.ack` — the replica acknowledgement that advances the
//!   watermark.
//! * `repl.apply` — applying a shipped record to the replica engine
//!   (eager path and promotion replay).
//! * `repl.promote` — the promotion entry point.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tb_common::log::{self, WriteRecord, FRAME_HEADER};
use tb_common::{fault, KvEngine, Lsn, Result};

/// The replication fault sites, in ship order. `tests/fault_torture.rs`
/// enumerates `(site, hit)` across these.
pub const REPL_FAULT_SITES: &[&str] = &["repl.ship", "repl.ack", "repl.apply", "repl.promote"];

struct Inner {
    /// Shipped frames — the replica's receive log. An in-memory
    /// stand-in for the replica's persistent WAL.
    log: Vec<u8>,
    /// Byte offset of the first frame not yet applied to the replica
    /// engine (promotion replay resumes here).
    applied_off: usize,
}

/// Watermark state, shared with the channel's obs snapshot source.
struct Stats {
    shipped: AtomicU64,
    /// Highest LSN the replica acknowledged: the channel watermark. No
    /// write at or below it may ever be lost.
    acked: AtomicU64,
    /// Highest LSN applied to the replica engine.
    applied: AtomicU64,
}

/// The primary→replica shipping channel for one node.
pub struct ReplChannel {
    replica: Arc<dyn KvEngine>,
    inner: Mutex<Inner>,
    stats: Arc<Stats>,
    /// Keeps `repl_shipped` / `repl_applied_lsn` / `repl_lag`
    /// contributing to [`tb_obs::global`] snapshots; drops with the
    /// channel.
    _obs: tb_obs::SourceGuard,
}

impl ReplChannel {
    /// A channel to an empty replica, watermark at [`Lsn::NONE`].
    pub fn new(replica: Arc<dyn KvEngine>) -> Self {
        Self::seeded(replica, Lsn::NONE)
    }

    /// A channel to a replica already seeded with state through
    /// `watermark` (snapshot re-seed after promotion: the snapshot
    /// covers everything up to the watermark, the log tail-ships from
    /// there).
    pub fn seeded(replica: Arc<dyn KvEngine>, watermark: Lsn) -> Self {
        let stats = Arc::new(Stats {
            shipped: AtomicU64::new(0),
            acked: AtomicU64::new(watermark.0),
            applied: AtomicU64::new(watermark.0),
        });
        let obs = {
            let s = stats.clone();
            tb_obs::global().register_source(move |b| {
                let acked = s.acked.load(Ordering::Relaxed);
                let applied = s.applied.load(Ordering::Relaxed);
                b.counter("repl_shipped", s.shipped.load(Ordering::Relaxed));
                b.gauge("repl_applied_lsn", applied as i64);
                b.gauge("repl_lag", acked.saturating_sub(applied) as i64);
            })
        };
        Self {
            replica,
            inner: Mutex::new(Inner {
                log: Vec::new(),
                applied_off: 0,
            }),
            stats,
            _obs: obs,
        }
    }

    /// The acked watermark: every write at or below it survives
    /// promotion.
    pub fn watermark(&self) -> Lsn {
        Lsn(self.stats.acked.load(Ordering::Acquire))
    }

    /// Highest LSN applied to the replica engine (lags the watermark
    /// only while an eager apply failed and replay hasn't run).
    pub fn applied_lsn(&self) -> Lsn {
        Lsn(self.stats.applied.load(Ordering::Acquire))
    }

    /// Frames shipped since the channel opened.
    pub fn shipped(&self) -> u64 {
        self.stats.shipped.load(Ordering::Relaxed)
    }

    /// Ships one write at `lsn`: log the frame, take the replica ack
    /// (advancing the watermark), then eagerly apply. An error anywhere
    /// leaves the write **below no watermark** — the caller must not
    /// report it covered — but never corrupts the log: a partially
    /// written frame from an errored ship is truncated away, and a torn
    /// frame from a crash is discarded by promotion replay.
    pub fn ship(&self, lsn: Lsn, record: &WriteRecord) -> Result<()> {
        let mut inner = self.inner.lock();
        let frame = log::encode_frame(lsn.0, &record.encode());
        let base = inner.log.len();
        if let Err(e) = fault::write_all("repl.ship", &mut inner.log, &frame) {
            // Keep the log parseable so later frames don't land behind
            // garbage (a crash/torn panic skips this — replay handles
            // the torn tail instead).
            inner.log.truncate(base);
            return Err(e);
        }
        fault::hit("repl.ack")?;
        self.stats.acked.store(lsn.0, Ordering::Release);
        self.stats.shipped.fetch_add(1, Ordering::Relaxed);
        tb_obs::counter!("repl_ship_frames").add(1);
        // Eager apply is best-effort: on failure the acked frame stays
        // in the log and promotion replay catches the replica up. It
        // runs only while the applied prefix is contiguous with this
        // frame — once a failed apply leaves a gap, applying later
        // frames out of order could overtake an overwrite/delete the
        // gap still holds, so the channel waits for replay instead.
        let contiguous = inner.applied_off == base;
        let applied = contiguous
            && fault::hit("repl.apply").is_ok()
            && apply_record(self.replica.as_ref(), record).is_ok();
        if applied {
            self.stats.applied.store(lsn.0, Ordering::Release);
            inner.applied_off = inner.log.len();
        }
        Ok(())
    }

    /// Promotes the replica: replays every logged frame up to the
    /// watermark that the eager path hasn't applied, then hands the
    /// caught-up replica engine back. Frames past the watermark —
    /// shipped but never acked, torn tails included — are discarded.
    /// On error the channel state is intact and resumable: a retry
    /// continues the replay where it stopped.
    pub fn promote(&self) -> Result<Arc<dyn KvEngine>> {
        fault::hit("repl.promote")?;
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let acked = self.stats.acked.load(Ordering::Acquire);
        let from = inner.applied_off;
        for (lsn, payload) in log::parse(&inner.log[from..])?.frames {
            if lsn > acked {
                break;
            }
            if lsn > self.stats.applied.load(Ordering::Acquire) {
                let record = WriteRecord::decode(payload)?;
                fault::hit("repl.apply")?;
                apply_record(self.replica.as_ref(), &record)?;
                self.stats.applied.store(lsn, Ordering::Release);
            }
            inner.applied_off += FRAME_HEADER + payload.len();
        }
        Ok(self.replica.clone())
    }

    /// Replica engine bytes (node space accounting).
    pub fn resident_bytes(&self) -> u64 {
        self.replica.resident_bytes()
    }
}

fn apply_record(replica: &dyn KvEngine, record: &WriteRecord) -> Result<()> {
    match &record.value {
        Some(v) => replica.put(record.key.clone(), v.clone()),
        None => replica.delete(&record.key),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::fault::FaultMode;
    use tb_common::testutil::MapEngine;
    use tb_common::{Key, Value};

    fn k(i: u64) -> Key {
        Key::from(format!("k{i}"))
    }

    fn v(i: u64) -> Value {
        Value::from(format!("v{i}"))
    }

    fn put(i: u64) -> WriteRecord {
        WriteRecord {
            key: k(i),
            value: Some(v(i)),
        }
    }

    fn del(i: u64) -> WriteRecord {
        WriteRecord {
            key: k(i),
            value: None,
        }
    }

    #[test]
    fn ship_advances_watermark_and_applies_eagerly() {
        let replica = MapEngine::shared();
        let ch = ReplChannel::new(replica.clone());
        for i in 1..=5u64 {
            ch.ship(Lsn(i), &put(i)).unwrap();
        }
        ch.ship(Lsn(6), &del(1)).unwrap();
        assert_eq!(ch.watermark(), Lsn(6));
        assert_eq!(ch.applied_lsn(), Lsn(6));
        assert_eq!(ch.shipped(), 6);
        assert_eq!(replica.get(&k(1)).unwrap(), None);
        assert_eq!(replica.get(&k(5)).unwrap(), Some(v(5)));
    }

    #[test]
    fn promote_replays_acked_but_unapplied_frames() {
        let replica = MapEngine::shared();
        let ch = ReplChannel::new(replica.clone());
        ch.ship(Lsn(1), &put(1)).unwrap();
        // Eager apply fails for LSN 2: acked but not applied — the
        // exact window promotion replay exists for.
        let guard = fault::arm_scoped("repl.apply", 1, FaultMode::Error);
        ch.ship(Lsn(2), &put(2)).unwrap();
        drop(guard);
        assert_eq!(ch.watermark(), Lsn(2));
        assert_eq!(ch.applied_lsn(), Lsn(1));
        assert_eq!(replica.get(&k(2)).unwrap(), None, "eager apply failed");
        let promoted = ch.promote().unwrap();
        assert_eq!(ch.applied_lsn(), Lsn(2));
        assert_eq!(promoted.get(&k(2)).unwrap(), Some(v(2)));
    }

    #[test]
    fn apply_gap_is_not_skipped_by_later_successful_ships() {
        // One eager apply fails mid-stream; later ships succeed. The
        // applied cursor must stall at the gap — advancing it past the
        // unapplied frame silently dropped that write from promotion
        // replay (the bug this test pins).
        let replica = MapEngine::shared();
        let ch = ReplChannel::new(replica.clone());
        ch.ship(Lsn(1), &del(8)).unwrap();
        let guard = fault::arm_scoped("repl.apply", 1, FaultMode::Error);
        ch.ship(Lsn(2), &put(8)).unwrap();
        drop(guard);
        ch.ship(Lsn(3), &put(9)).unwrap();
        assert_eq!(ch.watermark(), Lsn(3));
        assert_eq!(ch.applied_lsn(), Lsn(1), "cursor stalls at the gap");
        let promoted = ch.promote().unwrap();
        assert_eq!(promoted.get(&k(8)).unwrap(), Some(v(8)), "gap replayed");
        assert_eq!(promoted.get(&k(9)).unwrap(), Some(v(9)));
        assert_eq!(ch.applied_lsn(), Lsn(3));
    }

    #[test]
    fn errored_ship_leaves_log_parseable() {
        let replica = MapEngine::shared();
        let ch = ReplChannel::new(replica.clone());
        ch.ship(Lsn(1), &put(1)).unwrap();
        let guard = fault::arm_scoped("repl.ship", 1, FaultMode::Error);
        assert!(ch.ship(Lsn(2), &put(2)).is_err());
        drop(guard);
        // The failed frame left no garbage: the next ship lands cleanly
        // and promotion replays a consistent log.
        ch.ship(Lsn(2), &put(2)).unwrap();
        assert_eq!(ch.watermark(), Lsn(2));
        let promoted = ch.promote().unwrap();
        assert_eq!(promoted.get(&k(2)).unwrap(), Some(v(2)));
    }

    #[test]
    fn promote_discards_unacked_torn_tail() {
        let replica = MapEngine::shared();
        let ch = ReplChannel::new(replica.clone());
        ch.ship(Lsn(1), &put(1)).unwrap();
        // Tear the second frame mid-ship: header lands, payload does
        // not, the "primary" crashes.
        let guard = fault::arm_scoped("repl.ship", 1, FaultMode::Torn { keep: 10 });
        let crashed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ch.ship(Lsn(2), &put(2))));
        assert!(crashed.is_err(), "torn ship must crash");
        drop(guard);
        assert_eq!(ch.watermark(), Lsn(1), "torn frame never acked");
        let promoted = ch.promote().unwrap();
        assert_eq!(promoted.get(&k(1)).unwrap(), Some(v(1)));
        assert_eq!(promoted.get(&k(2)).unwrap(), None, "torn write discarded");
    }

    #[test]
    fn failed_promotion_is_resumable() {
        let replica = MapEngine::shared();
        let ch = ReplChannel::new(replica.clone());
        let guard = fault::arm_scoped("repl.apply", 1, FaultMode::Error);
        ch.ship(Lsn(1), &put(1)).unwrap();
        drop(guard);
        let guard = fault::arm_scoped("repl.promote", 1, FaultMode::Error);
        assert!(ch.promote().is_err(), "armed promotion must fail");
        drop(guard);
        // Retry succeeds and finishes the replay.
        let promoted = ch.promote().unwrap();
        assert_eq!(promoted.get(&k(1)).unwrap(), Some(v(1)));
        assert_eq!(ch.applied_lsn(), Lsn(1));
    }

    #[test]
    fn seeded_channel_starts_at_the_given_watermark() {
        let replica = MapEngine::shared();
        replica.put(k(1), v(1)).unwrap(); // snapshot state
        let ch = ReplChannel::seeded(replica.clone(), Lsn(7));
        assert_eq!(ch.watermark(), Lsn(7));
        ch.ship(Lsn(8), &put(8)).unwrap();
        let promoted = ch.promote().unwrap();
        assert_eq!(promoted.get(&k(1)).unwrap(), Some(v(1)));
        assert_eq!(promoted.get(&k(8)).unwrap(), Some(v(8)));
    }
}
