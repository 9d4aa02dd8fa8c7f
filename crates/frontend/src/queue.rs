//! Bounded per-shard submission queue with batch drain.
//!
//! Unlike a plain channel, the consumer side takes *batches*: one lock
//! acquisition hands a worker up to `max` queued operations, which is
//! what makes write coalescing possible. The producer side never
//! blocks: `try_push` admits an item, or refuses it as full (shed the
//! load) or closed (the front-end is shutting down).
//!
//! An item carries a weight — the operations it holds: N for a burst's
//! per-shard sub-batch. Capacity and drain size count operations, but an
//! item is never split: it is enqueued under one lock with one wake-up
//! and leaves in one drain.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Why a `try_push` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushRefused {
    /// Queue at capacity: backpressure, retry later.
    Full,
    /// Queue closed: the front-end is shutting down.
    Closed,
}

struct State<T> {
    items: VecDeque<(T, usize)>,
    /// Summed weight of `items`.
    ops: usize,
    closed: bool,
    /// Batches handed out by `drain` or claimed by `claim_idle` and not
    /// yet reported done.
    in_flight: usize,
}

impl<T> State<T> {
    /// An item fits while the bound holds — or when the queue is empty,
    /// so an item heavier than the whole bound is not refused forever.
    fn admits(&self, ops: usize, capacity: usize) -> bool {
        self.items.is_empty() || self.ops + ops <= capacity
    }
}

pub(crate) struct SubmitQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> SubmitQueue<T> {
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                ops: 0,
                closed: false,
                in_flight: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues an item of `ops` operations if it is admitted; refuses
    /// with the reason and the item otherwise.
    pub fn try_push(&self, item: T, ops: usize) -> Result<(), (PushRefused, T)> {
        let mut s = self.state.lock();
        if s.closed {
            return Err((PushRefused::Closed, item));
        }
        if !s.admits(ops, self.capacity) {
            return Err((PushRefused::Full, item));
        }
        s.items.push_back((item, ops));
        s.ops += ops;
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Takes whole items up to `max` operations (always at least one
    /// item), waiting at most `wait` for the first. Returns an empty
    /// batch on timeout or when the queue is closed and drained. A
    /// non-empty batch counts as in flight until the caller reports
    /// [`SubmitQueue::drain_done`].
    pub fn drain(&self, max: usize, wait: Duration) -> Vec<T> {
        let deadline = Instant::now() + wait;
        let mut s = self.state.lock();
        while s.items.is_empty() {
            if s.closed {
                return Vec::new();
            }
            let now = Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            self.not_empty.wait_for(&mut s, deadline - now);
        }
        let mut batch = Vec::new();
        let mut taken = 0;
        while let Some(ops) = s.items.front().map(|(_, ops)| *ops) {
            if !batch.is_empty() && taken + ops > max {
                break;
            }
            let (item, _) = s.items.pop_front().expect("front exists");
            taken += ops;
            batch.push(item);
        }
        s.ops -= taken;
        s.in_flight += 1;
        batch
    }

    /// Claims the shard for a batch that never enters the queue: only
    /// when nothing is queued and no drained batch is still being
    /// processed — decided under the queue lock, so a claimed batch can
    /// never run ahead of anything submitted before it. A successful
    /// claim counts as in flight until [`SubmitQueue::drain_done`].
    pub fn claim_idle(&self) -> bool {
        let mut s = self.state.lock();
        let idle = !s.closed && s.items.is_empty() && s.in_flight == 0;
        if idle {
            s.in_flight += 1;
        }
        idle
    }

    /// Marks a previously drained (or claimed) batch as fully processed.
    pub fn drain_done(&self) {
        let mut s = self.state.lock();
        debug_assert!(s.in_flight > 0, "drain_done without a drain");
        s.in_flight -= 1;
    }

    /// Operations currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().ops
    }

    /// Closes the queue: pushes fail from now on, a waiting drain wakes.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_drain_roundtrip_in_order() {
        let q = SubmitQueue::new(16);
        for i in 0..5 {
            q.try_push(i, 1).unwrap();
        }
        assert_eq!(q.len(), 5);
        let batch = q.drain(3, Duration::from_millis(1));
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(q.drain(8, Duration::from_millis(1)), vec![3, 4]);
    }

    #[test]
    fn try_push_reports_full_then_closed() {
        let q = SubmitQueue::new(2);
        q.try_push(1, 1).unwrap();
        q.try_push(2, 1).unwrap();
        assert_eq!(q.try_push(3, 1), Err((PushRefused::Full, 3)));
        q.close();
        assert_eq!(q.try_push(4, 1), Err((PushRefused::Closed, 4)));
        // Close drains nothing: the queued items are still deliverable.
        assert_eq!(q.drain(4, Duration::from_millis(1)), vec![1, 2]);
        assert!(q.drain(4, Duration::from_secs(10)).is_empty());
    }

    #[test]
    fn drain_times_out_empty() {
        let q: SubmitQueue<u8> = SubmitQueue::new(4);
        let t0 = Instant::now();
        assert!(q.drain(4, Duration::from_millis(5)).is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn weighted_items_count_ops_and_never_split() {
        let q = SubmitQueue::new(8);
        q.try_push("a", 1).unwrap();
        q.try_push("sub", 5).unwrap();
        q.try_push("b", 1).unwrap();
        assert_eq!(q.len(), 7, "depth counts operations");
        assert_eq!(q.try_push("c", 2), Err((PushRefused::Full, "c")));
        // A drain of 4 ops takes "a", then stops before the 5-op item
        // rather than cutting it.
        assert_eq!(q.drain(4, Duration::from_millis(1)), vec!["a"]);
        // The first item always leaves whole, even over the drain size.
        assert_eq!(q.drain(4, Duration::from_millis(1)), vec!["sub"]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn oversized_item_is_admitted_once_the_queue_is_empty() {
        let q = SubmitQueue::new(4);
        q.try_push("small", 1).unwrap();
        assert_eq!(q.try_push("huge", 9), Err((PushRefused::Full, "huge")));
        assert_eq!(q.drain(4, Duration::from_millis(1)), vec!["small"]);
        // Empty now: admitted despite 9 > 4.
        q.try_push("huge", 9).unwrap();
        assert_eq!(q.len(), 9);
        assert_eq!(q.try_push("more", 1), Err((PushRefused::Full, "more")));
        assert_eq!(q.drain(1, Duration::from_millis(1)), vec!["huge"]);
    }

    #[test]
    fn claim_idle_needs_an_empty_queue_and_no_drain_in_flight() {
        let q = SubmitQueue::new(8);
        assert!(q.claim_idle());
        assert!(!q.claim_idle(), "the first claim is still in flight");
        q.drain_done();
        q.try_push(1, 1).unwrap();
        assert!(!q.claim_idle(), "queued work goes first");
        assert_eq!(q.drain(8, Duration::from_millis(1)), vec![1]);
        assert!(!q.claim_idle(), "a drained batch is still being processed");
        q.drain_done();
        assert!(q.claim_idle());
        q.drain_done();
        q.close();
        assert!(!q.claim_idle(), "a closed queue serves nothing");
    }
}
