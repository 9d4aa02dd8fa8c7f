//! Per-op completion handles.
//!
//! A [`Ticket`] is the caller's half of a submitted op: it blocks (or
//! polls) until the owning shard worker resolves the op. The worker
//! holds the matching [`Completer`]; dropping an uncompleted completer
//! fails the ticket, so a caller can never hang on an op the front-end
//! lost (e.g. during shutdown). A write's [`OpOutcome::Done`] arrives
//! after the group sync of the batch that applied it, carrying the
//! covering [`tb_common::Lsn`].

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_common::{Error, OpOutcome, Result};

struct Shared {
    /// `Some` once resolved; the instant is the completion time, kept
    /// for open-loop latency measurement.
    outcome: Mutex<Option<(Result<OpOutcome>, Instant)>>,
    cv: Condvar,
}

/// Caller-side handle for one submitted op.
pub struct Ticket {
    shared: Arc<Shared>,
}

/// Worker-side handle; resolves the ticket exactly once.
pub(crate) struct Completer {
    shared: Arc<Shared>,
}

/// Builds a linked ticket/completer pair.
pub(crate) fn ticket() -> (Ticket, Completer) {
    let shared = Arc::new(Shared {
        outcome: Mutex::new(None),
        cv: Condvar::new(),
    });
    (
        Ticket {
            shared: shared.clone(),
        },
        Completer { shared },
    )
}

impl Ticket {
    /// Blocks until the op resolves.
    pub fn wait(&self) -> Result<OpOutcome> {
        let mut outcome = self.shared.outcome.lock();
        while outcome.is_none() {
            self.shared.cv.wait(&mut outcome);
        }
        outcome.as_ref().expect("resolved").0.clone()
    }

    /// Blocks at most `timeout`; `None` when still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<OpOutcome>> {
        let deadline = Instant::now() + timeout;
        let mut outcome = self.shared.outcome.lock();
        while outcome.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.shared.cv.wait_for(&mut outcome, deadline - now);
        }
        Some(outcome.as_ref().expect("resolved").0.clone())
    }

    /// Non-blocking poll.
    pub fn try_get(&self) -> Option<Result<OpOutcome>> {
        self.shared.outcome.lock().as_ref().map(|(r, _)| r.clone())
    }

    /// True once the op has resolved.
    pub fn is_done(&self) -> bool {
        self.shared.outcome.lock().is_some()
    }

    /// When the op resolved (open-loop latency accounting); `None`
    /// while pending.
    pub fn completed_at(&self) -> Option<Instant> {
        self.shared.outcome.lock().as_ref().map(|(_, t)| *t)
    }
}

impl Completer {
    /// Resolves the ticket and wakes every waiter.
    pub fn complete(self, result: Result<OpOutcome>) {
        self.resolve(result);
    }

    fn resolve(&self, result: Result<OpOutcome>) {
        let mut outcome = self.shared.outcome.lock();
        if outcome.is_none() {
            *outcome = Some((result, Instant::now()));
            drop(outcome);
            self.shared.cv.notify_all();
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        // A completer dropped without resolving (worker panicked, queue
        // discarded at shutdown) must not strand its caller.
        self.resolve(Err(Error::Unavailable(
            "request dropped by front-end".into(),
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::Lsn;

    #[test]
    fn wait_sees_completion_from_another_thread() {
        let (t, c) = ticket();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            c.complete(Ok(OpOutcome::Done(Lsn(7))));
        });
        assert_eq!(t.wait().unwrap(), OpOutcome::Done(Lsn(7)));
        assert!(t.is_done());
        assert!(t.completed_at().is_some());
        h.join().unwrap();
    }

    #[test]
    fn try_get_polls() {
        let (t, c) = ticket();
        assert!(t.try_get().is_none());
        c.complete(Ok(OpOutcome::Value(None)));
        assert_eq!(t.try_get().unwrap().unwrap(), OpOutcome::Value(None));
    }

    #[test]
    fn dropped_completer_fails_ticket() {
        let (t, c) = ticket();
        drop(c);
        assert!(matches!(t.wait(), Err(Error::Unavailable(_))));
    }

    #[test]
    fn wait_timeout_expires_then_resolves() {
        let (t, c) = ticket();
        assert!(t.wait_timeout(Duration::from_millis(2)).is_none());
        c.complete(Ok(OpOutcome::Done(Lsn::NONE)));
        assert!(t.wait_timeout(Duration::from_millis(2)).is_some());
    }

    #[test]
    fn first_completion_wins() {
        let (t, c) = ticket();
        c.complete(Err(Error::CasMismatch));
        // Drop-resolution must not overwrite the explicit outcome.
        assert_eq!(t.wait(), Err(Error::CasMismatch));
    }
}
