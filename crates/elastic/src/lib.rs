//! Elastic threading (paper §4.4, Figure 6).
//!
//! A TierBase instance normally runs single-threaded — the most
//! CPU-efficient mode (no locking, no cross-core traffic), which is why
//! it is the default. Containers, however, are provisioned for *peak*
//! CPU, so idle cores usually exist next to a hot instance. The
//! [`ElasticGate`] models that allocation as permits: callers execute
//! in place once they hold one. An elastic gate starts with one permit,
//! grants more while callers queue up for it, and gives them back once
//! the burst subsides, returning to single-thread efficiency with no
//! external scaling and no extra cost.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often an elastic gate's controller samples its waiters.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(2);

/// Consecutive calm samples before an elastic gate drops a permit.
const SHRINK_PATIENCE: u32 = 5;

/// Threading mode of a TierBase instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadMode {
    /// One permit, never boosted (TierBase-s).
    Single,
    /// A fixed N permits (TierBase-m).
    Multi(usize),
    /// Start at one permit, boost up to N under load (TierBase-e).
    Elastic(usize),
}

/// Gate counters.
#[derive(Debug, Default)]
pub struct GateStats {
    /// Closures run to completion under a permit.
    pub processed: AtomicU64,
    /// Permits the elastic controller added.
    pub boosts: AtomicU64,
    /// Permits the elastic controller took back.
    pub shrinks: AtomicU64,
}

/// A concurrency gate modeling the container's CPU allocation without
/// queue hops: callers execute *in place* once they hold one of the
/// gate's permits. `Single` = 1 permit (the event loop), `Multi(n)` =
/// n permits (fixed threads), `Elastic(n)` = 1..n permits adjusted by a
/// watermark controller that watches how many callers are blocked.
pub struct ElasticGate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_permits: usize,
    shutdown: AtomicBool,
    controller: Mutex<Option<JoinHandle<()>>>,
    pub stats: GateStats,
}

struct GateState {
    /// Permits callers may hold concurrently (the boost lever).
    target: usize,
    /// Permits currently held.
    in_use: usize,
    /// Callers blocked waiting for a permit (the load signal).
    waiting: usize,
}

/// A held permit, returned when dropped — also when the closure that
/// held it unwinds.
struct Permit<'a>(&'a ElasticGate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.state.lock().in_use -= 1;
        self.0.cv.notify_one();
    }
}

impl ElasticGate {
    fn with_permits(target: usize, max: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(GateState {
                target,
                in_use: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
            max_permits: max.max(1),
            shutdown: AtomicBool::new(false),
            controller: Mutex::new(None),
            stats: GateStats::default(),
        })
    }

    /// A gate with a fixed permit count (Single = 1, Multi(n) = n).
    pub fn fixed(permits: usize) -> Arc<Self> {
        Self::with_permits(permits.max(1), permits)
    }

    /// An elastic gate: starts at one permit, boosts toward `max` while
    /// callers queue up, shrinks back when the burst subsides.
    pub fn elastic(max: usize) -> Arc<Self> {
        let gate = Self::with_permits(1, max);
        gate.spawn_controller();
        gate
    }

    /// Builds the gate matching a [`ThreadMode`].
    pub fn for_mode(mode: ThreadMode) -> Arc<Self> {
        match mode {
            ThreadMode::Single => Self::fixed(1),
            ThreadMode::Multi(n) => Self::fixed(n),
            ThreadMode::Elastic(n) => Self::elastic(n),
        }
    }

    /// Runs `f` while holding a permit. The permit is returned even if
    /// `f` panics, so one contained panic cannot wedge the gate.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let _permit = self.acquire();
        let out = f();
        self.stats.processed.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn acquire(&self) -> Permit<'_> {
        let mut s = self.state.lock();
        while s.in_use >= s.target {
            s.waiting += 1;
            self.cv.wait(&mut s);
            s.waiting -= 1;
        }
        s.in_use += 1;
        Permit(self)
    }

    /// Permits callers may currently hold.
    pub fn current_permits(&self) -> usize {
        self.state.lock().target
    }

    /// Stops the controller thread (fixed gates: no-op).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(c) = self.controller.lock().take() {
            let _ = c.join();
        }
    }

    fn spawn_controller(self: &Arc<Self>) {
        let gate = self.clone();
        let handle = std::thread::spawn(move || {
            let mut calm = 0u32;
            while !gate.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(SAMPLE_INTERVAL);
                let mut s = gate.state.lock();
                // Waiting callers = saturated permits = boost signal.
                if s.waiting >= 2 && s.target < gate.max_permits {
                    s.target += 1;
                    gate.stats.boosts.fetch_add(1, Ordering::Relaxed);
                    calm = 0;
                    drop(s);
                    gate.cv.notify_all();
                } else if s.waiting == 0 && s.target > 1 {
                    calm += 1;
                    if calm >= SHRINK_PATIENCE {
                        s.target -= 1;
                        gate.stats.shrinks.fetch_add(1, Ordering::Relaxed);
                        calm = 0;
                    }
                } else {
                    calm = 0;
                }
            }
        });
        *self.controller.lock() = Some(handle);
    }
}

impl Drop for ElasticGate {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(c) = self.controller.get_mut().take() {
            let _ = c.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    fn spin_us(us: u64) {
        let deadline = Instant::now() + Duration::from_micros(us);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn fixed_gate_limits_concurrency() {
        let gate = ElasticGate::fixed(2);
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let gate = gate.clone();
                let peak = peak.clone();
                let cur = cur.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        gate.run(|| {
                            let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            spin_us(50);
                            cur.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(gate.stats.processed.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn single_gate_serializes() {
        let gate = ElasticGate::fixed(1);
        // Four threads of 200µs work: serialized floor ≈ 4×50×200µs.
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let gate = gate.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        gate.run(|| spin_us(200));
                    }
                });
            }
        });
        assert!(
            t0.elapsed() >= Duration::from_millis(35),
            "single-permit gate failed to serialize: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn panicking_closure_returns_its_permit() {
        let gate = ElasticGate::fixed(1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gate.run(|| -> u32 { panic!("scripted engine panic") })
        }));
        assert!(panicked.is_err());
        // The next caller must get the one permit. Waited on with a
        // timeout: a leaked permit blocks it forever.
        let (tx, rx) = std::sync::mpsc::channel();
        let next = gate.clone();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(next.run(|| 7));
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)),
            Ok(7),
            "the panicked call kept its permit"
        );
        waiter.join().unwrap();
        assert_eq!(gate.current_permits(), 1);
        assert_eq!(gate.state.lock().in_use, 0);
        assert_eq!(gate.stats.processed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn elastic_gate_boosts_and_shrinks() {
        let gate = ElasticGate::elastic(4);
        assert_eq!(gate.current_permits(), 1);
        // Load: 8 threads of CPU work → waiters pile up → boost.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let gate = gate.clone();
                s.spawn(move || {
                    for _ in 0..120 {
                        gate.run(|| spin_us(300));
                    }
                });
            }
        });
        assert!(
            gate.stats.boosts.load(Ordering::Relaxed) > 0,
            "gate never boosted"
        );
        // Calm: permits shrink back to 1.
        let deadline = Instant::now() + Duration::from_secs(5);
        while gate.current_permits() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(gate.current_permits(), 1, "gate never shrank");
        assert!(gate.stats.shrinks.load(Ordering::Relaxed) > 0);
        gate.shutdown();
    }

    #[test]
    fn for_mode_builds_the_right_gate() {
        assert_eq!(
            ElasticGate::for_mode(ThreadMode::Single).current_permits(),
            1
        );
        assert_eq!(
            ElasticGate::for_mode(ThreadMode::Multi(3)).current_permits(),
            3
        );
        let e = ElasticGate::for_mode(ThreadMode::Elastic(4));
        assert_eq!(e.current_permits(), 1);
        e.shutdown();
    }
}
