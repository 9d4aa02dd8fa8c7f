//! Span-style event tracing with slow-op timeline capture.
//!
//! A [`Tracer`] keeps a fixed-size ring of timestamped events. Opening
//! a span ([`Tracer::span`]) writes a `Begin` event and returns an RAII
//! [`ActiveSpan`]; dropping it writes the matching `End`. Point events
//! ([`Tracer::event`]) mark instants — a failover, a regroup. Writers
//! claim ring slots wait-free with one `fetch_add`; slot contents sit
//! behind tiny per-slot mutexes that only collide when a writer laps a
//! concurrent reader on the same slot, never writer-vs-writer.
//!
//! When a span finishes over the slow threshold, the tracer captures
//! every ring event carrying the same op id — the full timeline of the
//! slow op, including events recorded by other threads it fanned out to
//! (pass the op id via [`ActiveSpan::op`] / [`Tracer::event_for`]) —
//! into a bounded slow-op log readable via [`Tracer::slow_ops`].
//!
//! Like the metrics side, a disabled tracer costs one relaxed load per
//! site: [`Tracer::span`] returns `None` before reading a clock or
//! claiming an op id.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ring capacity. Power of two so slot selection is a mask.
const RING_SLOTS: usize = 4096;

/// Bound on the retained slow-op log (oldest evicted first).
const SLOW_LOG_CAP: usize = 64;

/// Default slow-op threshold: 100ms.
const DEFAULT_SLOW_THRESHOLD_US: u64 = 100_000;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed; `dur_us` holds its duration.
    End,
    /// An instantaneous marker.
    Point,
}

/// One entry in the trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Op id tying this event to the span(s) of one logical operation.
    pub op: u64,
    /// Where it happened, e.g. `"lsm.batch.fetch"`.
    pub site: &'static str,
    pub kind: EventKind,
    /// Microseconds since the tracer's epoch.
    pub at_us: u64,
    /// For `End` events, the span duration in microseconds.
    pub dur_us: u64,
    /// Site-defined payload (a node id, a batch size, ...).
    pub detail: u64,
}

/// A slow operation captured in full: the closing span plus every ring
/// event that carried its op id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    pub site: &'static str,
    pub op: u64,
    pub dur_us: u64,
    /// Same-op events still in the ring at capture time, seq-ordered.
    pub timeline: Vec<TraceEvent>,
}

/// Fixed-size event ring + slow-op log. Usually accessed through
/// [`crate::tracer`]; independently constructible for tests.
pub struct Tracer {
    slots: Vec<Mutex<Option<TraceEvent>>>,
    seq: AtomicU64,
    next_op: AtomicU64,
    epoch: Instant,
    slow_threshold_us: AtomicU64,
    slow: Mutex<std::collections::VecDeque<SlowOp>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            slots: (0..RING_SLOTS).map(|_| Mutex::new(None)).collect(),
            seq: AtomicU64::new(0),
            next_op: AtomicU64::new(1),
            epoch: Instant::now(),
            slow_threshold_us: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US),
            slow: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Spans ending at or over `us` microseconds capture their timeline
    /// into the slow-op log.
    pub fn set_slow_threshold(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(&self, event: TraceEvent) {
        let slot = (event.seq as usize) & (RING_SLOTS - 1);
        *self.slots[slot].lock() = Some(event);
    }

    /// Opens a span at `site` under a fresh op id. `None` (one relaxed
    /// load, no clock read) when telemetry is disabled.
    #[inline]
    pub fn span(&self, site: &'static str) -> Option<ActiveSpan<'_>> {
        if !crate::enabled() {
            return None;
        }
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        Some(self.span_for(site, op))
    }

    /// Opens a span under an existing op id — a sub-stage of an op
    /// already in flight (e.g. the pool fetch inside a batch read), so
    /// slow-op capture stitches the stages together.
    pub fn span_for(&self, site: &'static str, op: u64) -> ActiveSpan<'_> {
        let start = Instant::now();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            seq,
            op,
            site,
            kind: EventKind::Begin,
            at_us: self.now_us(),
            dur_us: 0,
            detail: 0,
        });
        ActiveSpan {
            tracer: self,
            site,
            op,
            start,
            detail: 0,
        }
    }

    /// Records a point event under a fresh op id. One relaxed load when
    /// disabled.
    #[inline]
    pub fn event(&self, site: &'static str, detail: u64) {
        if !crate::enabled() {
            return;
        }
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        self.event_for(site, op, detail);
    }

    /// Records a point event under an existing op id.
    pub fn event_for(&self, site: &'static str, op: u64, detail: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            seq,
            op,
            site,
            kind: EventKind::Point,
            at_us: self.now_us(),
            dur_us: 0,
            detail,
        });
    }

    fn finish_span(&self, site: &'static str, op: u64, start: Instant, detail: u64) {
        let dur_us = start.elapsed().as_micros() as u64;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            seq,
            op,
            site,
            kind: EventKind::End,
            at_us: self.now_us(),
            dur_us,
            detail,
        });
        if dur_us >= self.slow_threshold_us.load(Ordering::Relaxed) {
            let mut timeline: Vec<TraceEvent> = self
                .slots
                .iter()
                .filter_map(|slot| slot.lock().clone())
                .filter(|e| e.op == op)
                .collect();
            timeline.sort_by_key(|e| e.seq);
            let mut slow = self.slow.lock();
            if slow.len() == SLOW_LOG_CAP {
                slow.pop_front();
            }
            slow.push_back(SlowOp {
                site,
                op,
                dur_us,
                timeline,
            });
        }
    }

    /// The ring's current contents, seq-ordered (oldest survivor
    /// first). A debugging view — events are overwritten as the ring
    /// laps.
    pub fn recent(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Captured slow ops, oldest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.slow.lock().iter().cloned().collect()
    }

    /// Clears the ring and the slow-op log (tests, bench warm-up).
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock() = None;
        }
        self.slow.lock().clear();
    }
}

/// An open span; dropping it records the `End` event and, if the span
/// was slow, captures its timeline.
pub struct ActiveSpan<'t> {
    tracer: &'t Tracer,
    site: &'static str,
    op: u64,
    start: Instant,
    detail: u64,
}

impl ActiveSpan<'_> {
    /// The span's op id — hand it to [`Tracer::span_for`] /
    /// [`Tracer::event_for`] so sub-stage events join this op's
    /// timeline.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// Attaches a payload to the closing `End` event.
    pub fn set_detail(&mut self, detail: u64) {
        self.detail = detail;
    }
}

impl Drop for ActiveSpan<'_> {
    fn drop(&mut self) {
        self.tracer
            .finish_span(self.site, self.op, self.start, self.detail);
    }
}

impl std::fmt::Debug for ActiveSpan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSpan")
            .field("site", &self.site)
            .field("op", &self.op)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_begin_and_end() {
        let t = Tracer::new();
        let mut span = t.span_for("test.op", 7);
        span.set_detail(42);
        drop(span);
        let events = t.recent();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[1].kind, EventKind::End);
        assert_eq!(events[1].op, 7);
        assert_eq!(events[1].detail, 42);
        assert!(events[0].seq < events[1].seq);
    }

    #[test]
    fn slow_span_captures_same_op_timeline() {
        let t = Tracer::new();
        t.set_slow_threshold(0); // everything is slow
        let outer = t.span_for("outer", 99);
        t.event_for("stage.submit", 99, 1);
        drop(t.span_for("stage.fetch", 99));
        t.event_for("unrelated", 5, 0);
        drop(outer);
        let slow = t.slow_ops();
        // stage.fetch closed under threshold too, so both spans logged.
        let op99: Vec<_> = slow.iter().filter(|s| s.op == 99).collect();
        let outer_slow = op99.iter().find(|s| s.site == "outer").expect("outer slow");
        assert!(
            outer_slow.timeline.len() >= 4,
            "begin, point, sub-span, end"
        );
        assert!(outer_slow.timeline.iter().all(|e| e.op == 99));
        assert!(outer_slow.timeline.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn fast_spans_stay_out_of_slow_log() {
        let t = Tracer::new();
        t.set_slow_threshold(u64::MAX);
        drop(t.span_for("quick", 1));
        assert!(t.slow_ops().is_empty());
    }

    #[test]
    fn slow_log_is_bounded() {
        let t = Tracer::new();
        t.set_slow_threshold(0);
        for i in 0..(SLOW_LOG_CAP as u64 + 20) {
            drop(t.span_for("op", i));
        }
        let slow = t.slow_ops();
        assert_eq!(slow.len(), SLOW_LOG_CAP);
        // Oldest were evicted: the retained ops are the most recent.
        assert_eq!(slow.last().unwrap().op, SLOW_LOG_CAP as u64 + 19);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = Tracer::new();
        for i in 0..(RING_SLOTS as u64 * 2) {
            t.event_for("tick", i, i);
        }
        let events = t.recent();
        assert_eq!(events.len(), RING_SLOTS);
        assert!(events.iter().all(|e| e.seq >= RING_SLOTS as u64));
    }

    #[test]
    fn concurrent_writers_do_not_lose_sequence() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..500u64 {
                        drop(t.span_for("conc", i));
                    }
                });
            }
        });
        // 4 threads * 500 spans * 2 events = 4000 claims, ring holds
        // the last RING_SLOTS of them with unique seqs.
        let events = t.recent();
        assert_eq!(events.len(), RING_SLOTS.min(4000));
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), events.len(), "sequence numbers are unique");
    }
}
