//! Per-request completion handles.
//!
//! A [`Ticket`] is the caller's half of a submitted request: it blocks
//! (or polls) until the owning shard worker resolves the request. The
//! worker holds the matching [`Completer`]; dropping an uncompleted
//! completer fails the ticket, so a caller can never hang on a request
//! the front-end lost (e.g. during shutdown).

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_common::{Error, Key, Lsn, Result, Value};

/// What a completed request resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `Get` result.
    Value(Option<Value>),
    /// `MultiGet` results, aligned with the request's key order.
    Values(Vec<Option<Value>>),
    /// `Scan` result: live `(key, value)` pairs in ascending key order,
    /// truncated to the request's limit.
    Range(Vec<(Key, Value)>),
    /// Write acknowledged — and durable, when the front-end runs in
    /// group-commit mode (the ack is delivered after the batch `sync`).
    /// Carries the covering [`Lsn`] per the `tb_common::engine` LSN/ack
    /// contract ([`Lsn::NONE`] for LSN-less engines).
    Done(Lsn),
}

struct Shared {
    /// `Some` once resolved; the instant is the completion time, kept
    /// for open-loop latency measurement.
    outcome: Mutex<Option<(Result<Response>, Instant)>>,
    cv: Condvar,
}

/// Caller-side handle for one submitted request.
pub struct Ticket {
    inner: TicketInner,
}

enum TicketInner {
    /// One queued request, resolved by its [`Completer`].
    Single(Arc<Shared>),
    /// A scattered cross-shard `MultiGet`: each part is a per-shard
    /// sub-ticket answering the listed positions of the key-ordered
    /// response; the gather assembles them on demand.
    Gather {
        parts: Vec<(Vec<usize>, Ticket)>,
        len: usize,
    },
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
            inner: TicketInner::Single(shared.clone()),
        },
        Completer { shared },
    )
}

/// Builds a gather ticket over per-shard sub-tickets: `parts[i]` is
/// `(response positions, sub-ticket)` and `len` is the full response
/// arity. The gather resolves to [`Response::Values`] in the original
/// key order once every part has.
pub(crate) fn gather(parts: Vec<(Vec<usize>, Ticket)>, len: usize) -> Ticket {
    Ticket {
        inner: TicketInner::Gather { parts, len },
    }
}

/// Assembles a gather's parts (each already resolved or resolvable via
/// `get`) into one key-ordered `Values` response. The first part error
/// fails the whole gather.
fn assemble(
    parts: &[(Vec<usize>, Ticket)],
    len: usize,
    get: impl Fn(&Ticket) -> Result<Response>,
) -> Result<Response> {
    let mut out = vec![None; len];
    for (slots, part) in parts {
        match get(part)? {
            Response::Values(values) => {
                for (slot, v) in slots.iter().zip(values) {
                    out[*slot] = v;
                }
            }
            other => {
                return Err(Error::Internal(format!(
                    "gather part resolved to {other:?}"
                )))
            }
        }
    }
    Ok(Response::Values(out))
}

impl Ticket {
    /// Blocks until the request resolves.
    pub fn wait(&self) -> Result<Response> {
        match &self.inner {
            TicketInner::Single(shared) => {
                let mut outcome = shared.outcome.lock();
                while outcome.is_none() {
                    shared.cv.wait(&mut outcome);
                }
                outcome.as_ref().expect("resolved").0.clone()
            }
            TicketInner::Gather { parts, len } => assemble(parts, *len, |t| t.wait()),
        }
    }

    /// Blocks at most `timeout`; `None` when still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response>> {
        let deadline = Instant::now() + timeout;
        match &self.inner {
            TicketInner::Single(shared) => {
                let mut outcome = shared.outcome.lock();
                while outcome.is_none() {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    shared.cv.wait_for(&mut outcome, deadline - now);
                }
                Some(outcome.as_ref().expect("resolved").0.clone())
            }
            TicketInner::Gather { parts, len } => {
                for (_, part) in parts {
                    let remaining = deadline.checked_duration_since(Instant::now())?;
                    // Errors surface from `assemble` below; here only
                    // "resolved at all vs timed out" matters.
                    let _ = part.wait_timeout(remaining)?;
                }
                Some(assemble(parts, *len, |t| t.wait()))
            }
        }
    }

    /// Non-blocking poll.
    pub fn try_get(&self) -> Option<Result<Response>> {
        match &self.inner {
            TicketInner::Single(shared) => shared.outcome.lock().as_ref().map(|(r, _)| r.clone()),
            TicketInner::Gather { parts, len } => {
                if parts.iter().all(|(_, t)| t.is_done()) {
                    Some(assemble(parts, *len, |t| t.wait()))
                } else {
                    None
                }
            }
        }
    }

    /// True once the request has resolved.
    pub fn is_done(&self) -> bool {
        match &self.inner {
            TicketInner::Single(shared) => shared.outcome.lock().is_some(),
            TicketInner::Gather { parts, .. } => parts.iter().all(|(_, t)| t.is_done()),
        }
    }

    /// When the request resolved (open-loop latency accounting);
    /// `None` while pending. A gather resolves when its last part does.
    pub fn completed_at(&self) -> Option<Instant> {
        match &self.inner {
            TicketInner::Single(shared) => shared.outcome.lock().as_ref().map(|(_, t)| *t),
            TicketInner::Gather { parts, .. } => {
                let mut latest = None;
                for (_, part) in parts {
                    let at = part.completed_at()?;
                    latest = Some(latest.map_or(at, |l: Instant| l.max(at)));
                }
                latest
            }
        }
    }
}

impl Completer {
    /// Resolves the ticket and wakes every waiter.
    pub fn complete(self, result: Result<Response>) {
        self.resolve(result);
    }

    fn resolve(&self, result: Result<Response>) {
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

    #[test]
    fn wait_sees_completion_from_another_thread() {
        let (t, c) = ticket();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            c.complete(Ok(Response::Done(Lsn(7))));
        });
        assert_eq!(t.wait().unwrap(), Response::Done(Lsn(7)));
        assert!(t.is_done());
        assert!(t.completed_at().is_some());
        h.join().unwrap();
    }

    #[test]
    fn try_get_polls() {
        let (t, c) = ticket();
        assert!(t.try_get().is_none());
        c.complete(Ok(Response::Value(None)));
        assert_eq!(t.try_get().unwrap().unwrap(), Response::Value(None));
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
        c.complete(Ok(Response::Done(Lsn::NONE)));
        assert!(t.wait_timeout(Duration::from_millis(2)).is_some());
    }

    #[test]
    fn gather_assembles_parts_in_key_order() {
        let (t1, c1) = ticket();
        let (t2, c2) = ticket();
        let g = gather(vec![(vec![0, 2], t1), (vec![1], t2)], 3);
        assert!(!g.is_done());
        assert!(g.try_get().is_none());
        c1.complete(Ok(Response::Values(vec![
            Some(Value::from("a")),
            Some(Value::from("c")),
        ])));
        // One part still pending: the gather is too.
        assert!(g.wait_timeout(Duration::from_millis(1)).is_none());
        c2.complete(Ok(Response::Values(vec![None])));
        assert_eq!(
            g.wait().unwrap(),
            Response::Values(vec![Some(Value::from("a")), None, Some(Value::from("c"))])
        );
        assert!(g.is_done());
        assert!(g.completed_at().is_some());
        assert!(g.try_get().is_some());
    }

    #[test]
    fn gather_part_failure_fails_the_gather() {
        let (t1, c1) = ticket();
        let (t2, c2) = ticket();
        let g = gather(vec![(vec![0], t1), (vec![1], t2)], 2);
        c1.complete(Ok(Response::Values(vec![None])));
        c2.complete(Err(Error::backpressure("shard full")));
        assert!(matches!(g.wait(), Err(Error::Backpressure { .. })));
    }

    #[test]
    fn first_completion_wins() {
        let (t, c) = ticket();
        c.complete(Err(Error::CasMismatch));
        // Drop-resolution must not overwrite the explicit outcome.
        assert_eq!(t.wait(), Err(Error::CasMismatch));
    }
}
