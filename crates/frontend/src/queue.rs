//! Bounded per-shard submission queue with batch drain.
//!
//! Unlike a plain channel, the consumer side takes *batches*: one lock
//! acquisition hands a worker up to `max` queued operations, which is
//! what makes write coalescing and group commit possible. The producer
//! side offers both blocking `push` (callers stall when the shard
//! saturates — natural backpressure) and non-blocking `try_push`
//! (callers get an explicit full/closed signal to shed load).
//!
//! An item carries a weight — the operations it holds: 1 for a single
//! request, N for a burst's per-shard sub-batch. Capacity and drain
//! size count operations, but an item is never split: a sub-batch is
//! enqueued under one lock with one wake-up and leaves in one drain.

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
    /// Batches handed out by `drain` (or claimed by `claim_idle`) so far.
    drains_started: u64,
    /// Batches whose processing was reported via `drain_done`.
    drains_finished: u64,
}

impl<T> State<T> {
    /// An item fits while the bound holds — or when the queue is empty,
    /// so an item heavier than the whole bound cannot wait forever.
    fn admits(&self, ops: usize, capacity: usize) -> bool {
        self.items.is_empty() || self.ops + ops <= capacity
    }

    fn enqueue(&mut self, item: T, ops: usize) {
        self.items.push_back((item, ops));
        self.ops += ops;
    }
}

pub(crate) struct SubmitQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> SubmitQueue<T> {
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                ops: 0,
                closed: false,
                drains_started: 0,
                drains_finished: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues an item of `ops` operations, blocking while the queue
    /// is full; returns the item back when the queue has been closed.
    pub fn push(&self, item: T, ops: usize) -> Result<(), T> {
        let mut s = self.state.lock();
        loop {
            if s.closed {
                return Err(item);
            }
            if s.admits(ops, self.capacity) {
                s.enqueue(item, ops);
                drop(s);
                self.not_empty.notify_one();
                return Ok(());
            }
            self.not_full.wait(&mut s);
        }
    }

    /// Non-blocking push; refuses with the reason and the item.
    pub fn try_push(&self, item: T, ops: usize) -> Result<(), (PushRefused, T)> {
        let mut s = self.state.lock();
        if s.closed {
            return Err((PushRefused::Closed, item));
        }
        if !s.admits(ops, self.capacity) {
            return Err((PushRefused::Full, item));
        }
        s.enqueue(item, ops);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Takes whole items up to `max` operations (always at least one
    /// item), waiting at most `wait` for the first. Returns an empty
    /// batch on timeout or when the queue is closed and drained. A
    /// non-empty batch counts as an active drain until the caller
    /// reports [`SubmitQueue::drain_done`].
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
        s.drains_started += 1;
        drop(s);
        // A whole batch left: several blocked producers may fit now.
        self.not_full.notify_all();
        batch
    }

    /// Claims the shard for a batch that never enters the queue: only
    /// when nothing is queued and no drained batch is still being
    /// processed — decided under the queue lock, so a claimed batch can
    /// never run ahead of anything submitted before it. A successful
    /// claim counts as an active drain until [`SubmitQueue::drain_done`].
    pub fn claim_idle(&self) -> bool {
        let mut s = self.state.lock();
        let idle = !s.closed && s.items.is_empty() && s.drains_started == s.drains_finished;
        if idle {
            s.drains_started += 1;
        }
        idle
    }

    /// Marks a previously drained (or claimed) batch as fully processed.
    pub fn drain_done(&self) {
        let mut s = self.state.lock();
        debug_assert!(
            s.drains_finished < s.drains_started,
            "drain_done without a drain"
        );
        s.drains_finished += 1;
    }

    /// Batches handed out so far. The queue is FIFO, so once every
    /// drain numbered up to a snapshot of this value has finished,
    /// every request enqueued before the snapshot has been processed —
    /// the bounded condition a barrier waits on (global quiescence
    /// would livelock under sustained submission).
    pub fn drains_started(&self) -> u64 {
        self.state.lock().drains_started
    }

    /// Batches reported finished so far.
    pub fn drains_finished(&self) -> u64 {
        self.state.lock().drains_finished
    }

    /// Operations currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().ops
    }

    /// Closes the queue: pushes fail from now on, waiters wake.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_drain_roundtrip_in_order() {
        let q = SubmitQueue::new(16);
        for i in 0..5 {
            q.push(i, 1).unwrap();
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
    }

    #[test]
    fn drain_epochs_track_in_flight_batches() {
        let q = SubmitQueue::new(8);
        assert_eq!((q.drains_started(), q.drains_finished()), (0, 0));
        q.push(1, 1).unwrap();
        let batch = q.drain(8, Duration::from_millis(1));
        assert_eq!(batch, vec![1]);
        assert_eq!(
            (q.drains_started(), q.drains_finished()),
            (1, 0),
            "drained-but-unprocessed batch is in flight"
        );
        q.drain_done();
        assert_eq!((q.drains_started(), q.drains_finished()), (1, 1));
        // Empty drains don't consume an epoch.
        assert!(q.drain(8, Duration::from_millis(1)).is_empty());
        assert_eq!(q.drains_started(), 1);
    }

    #[test]
    fn drain_times_out_empty() {
        let q: SubmitQueue<u8> = SubmitQueue::new(4);
        let t0 = Instant::now();
        assert!(q.drain(4, Duration::from_millis(5)).is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn blocked_push_resumes_after_drain() {
        let q = std::sync::Arc::new(SubmitQueue::new(1));
        q.push(0u32, 1).unwrap();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push(1, 1).is_ok());
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(q.drain(1, Duration::from_millis(1)), vec![0]);
        assert!(h.join().unwrap());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn close_wakes_blocked_producer() {
        let q = std::sync::Arc::new(SubmitQueue::new(1));
        q.push(0u32, 1).unwrap();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push(1, 1));
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(h.join().unwrap(), Err(1));
        // Close drains nothing: the queued item is still deliverable.
        assert_eq!(q.drain(4, Duration::from_millis(1)), vec![0]);
    }

    #[test]
    fn weighted_items_count_ops_and_never_split() {
        let q = SubmitQueue::new(8);
        q.push("a", 1).unwrap();
        q.push("sub", 5).unwrap();
        q.push("b", 1).unwrap();
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
        let q = std::sync::Arc::new(SubmitQueue::new(4));
        q.push("small", 1).unwrap();
        assert_eq!(q.try_push("huge", 9), Err((PushRefused::Full, "huge")));
        let q2 = q.clone();
        let blocked = std::thread::spawn(move || q2.push("huge", 9));
        assert_eq!(q.drain(4, Duration::from_millis(100)), vec!["small"]);
        // Empty now: the blocked producer gets in despite 9 > 4.
        blocked.join().unwrap().unwrap();
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
        q.push(1, 1).unwrap();
        assert!(!q.claim_idle(), "queued work goes first");
        assert_eq!(q.drain(8, Duration::from_millis(1)), vec![1]);
        assert!(!q.claim_idle(), "a drained batch is still being processed");
        q.drain_done();
        assert!(q.claim_idle());
        q.drain_done();
        assert_eq!((q.drains_started(), q.drains_finished()), (3, 3));
        q.close();
        assert!(!q.claim_idle(), "a closed queue serves nothing");
    }
}
