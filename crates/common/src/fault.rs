//! Named fault points for crash/error injection in IO paths.
//!
//! Storage code threads calls to [`hit`] (plain sites) and [`write_all`]
//! (write sites, which can additionally tear the buffer) through every
//! place a crash or IO error could strike: WAL appends, SSTable and
//! manifest writes, fsyncs, renames. A torture harness arms one
//! injection at a time — *site X, Nth hit, fail like this* — runs a
//! workload, and verifies the durability contract after reopening.
//!
//! Fault semantics:
//!
//! * [`FaultMode::Error`]: the Nth hit returns [`Error::FaultInjected`]
//!   once, then the injection disarms — models a transient IO error the
//!   process survives.
//! * [`FaultMode::Crash`]: the Nth hit panics with a [`CrashPoint`]
//!   payload *before* the site's IO runs. From then on **every** fault
//!   point in the process returns an error, freezing the on-disk image
//!   at the crash instant — the in-process stand-in for `kill -9`. The
//!   harness catches the panic, drops the store, and reopens from disk.
//! * [`FaultMode::Torn`]: like `Crash`, but at a write site the first
//!   `keep` bytes of the buffer are written (and flushed) before the
//!   panic — a torn write, the hardest case for recovery code.
//!
//! Arming returns a [`FaultGuard`]; the injection — and the freeze a
//! crash leaves behind — lasts until the guard drops, also when the
//! arming test unwinds, so a plan cannot leak into whatever runs next
//! in the same process. Guards are independent: several may be armed at
//! once (parallel tests, each on its own thread via [`arm_scoped`]).
//! A background thread that does IO on behalf of another (an engine's
//! flush worker) [`adopt`]s that thread's [`scope`], so its hits count
//! — and freeze — as the owner's.
//!
//! Cost when disabled: a single relaxed atomic load per site. Nothing
//! else runs until [`arm`] or [`set_counting`] activates the registry,
//! so production paths pay one predictable-branch load — unmeasurable
//! next to the file IO each site guards.

use crate::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// How an armed fault point misbehaves when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Return [`Error::FaultInjected`] once, then disarm.
    Error,
    /// Panic with [`CrashPoint`] before the site's IO; all later hits
    /// error out (the disk image is frozen at the crash).
    Crash,
    /// Write the first `keep` bytes of the instrumented buffer, flush,
    /// then crash. At a non-write site this degrades to [`Crash`].
    Torn {
        /// Bytes of the buffer that make it to the file.
        keep: usize,
    },
}

/// Panic payload of an injected crash; harnesses downcast to tell an
/// injected kill from a genuine bug.
#[derive(Debug, Clone, Copy)]
pub struct CrashPoint {
    /// The fault site that fired.
    pub site: &'static str,
}

struct Injection {
    /// Identity of the owning [`FaultGuard`].
    id: u64,
    site: &'static str,
    /// 1-based hit number that fires.
    hit: u64,
    mode: FaultMode,
    /// Hits of `site` observed since arming.
    seen: u64,
    /// `Some`: only hits made under this scope count — and, after a
    /// crash, only its sites freeze (lets a unit test in a parallel test
    /// binary inject without tripping its neighbors).
    scope: Option<Scope>,
    /// True once this injection fired (any mode); a fired injection
    /// never fires again.
    fired: bool,
    /// Set once this injection crashed: every later hit it can see
    /// errors out until its guard drops.
    crashed: bool,
}

impl Injection {
    fn sees(&self, scope: Scope) -> bool {
        self.scope.is_none_or(|s| s == scope)
    }
}

#[derive(Default)]
struct Registry {
    /// One entry per live [`FaultGuard`].
    injections: Vec<Injection>,
    next_id: u64,
    /// Per-site hit counters (kept while counting or armed).
    hits: HashMap<&'static str, u64>,
    counting: bool,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn recompute_active(r: &Registry) {
    ACTIVE.store(r.counting || !r.injections.is_empty(), Ordering::Relaxed);
}

enum Checked {
    Run,
    Torn { keep: usize },
}

/// The fault-arming scope of a thread: a [`arm_scoped`] injection fires
/// only on hits made under its arming thread's scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope(std::thread::ThreadId);

thread_local! {
    static ADOPTED: std::cell::Cell<Option<Scope>> = const { std::cell::Cell::new(None) };
}

/// The calling thread's scope: the one it [`adopt`]ed, else its own.
pub fn scope() -> Scope {
    ADOPTED
        .get()
        .unwrap_or_else(|| Scope(std::thread::current().id()))
}

/// Makes every later hit on the calling thread count as `owner`'s: a
/// scoped injection armed by the owner sees it, and a crash freezes
/// this thread together with the owner. For threads spawned to do IO on
/// another thread's behalf.
pub fn adopt(owner: Scope) {
    ADOPTED.set(Some(owner));
}

fn check(site: &'static str) -> Result<Checked> {
    let me = scope();
    let mut r = registry().lock();
    if r.counting || !r.injections.is_empty() {
        *r.hits.entry(site).or_insert(0) += 1;
    }
    if let Some(at) = r.injections.iter().find(|i| i.crashed && i.sees(me)) {
        return Err(Error::FaultInjected(format!(
            "{site}: process already crashed at {}",
            at.site
        )));
    }
    let mut fire = None;
    for inj in r
        .injections
        .iter_mut()
        .filter(|i| !i.fired && i.site == site && i.sees(me))
    {
        inj.seen += 1;
        if inj.seen == inj.hit {
            inj.fired = true;
            inj.crashed = inj.mode != FaultMode::Error;
            fire = Some(inj.mode);
            break;
        }
    }
    match fire {
        None => Ok(Checked::Run),
        Some(FaultMode::Error) => Err(Error::FaultInjected(format!("{site}: injected IO error"))),
        Some(FaultMode::Crash) => {
            drop(r);
            crash(site)
        }
        Some(FaultMode::Torn { keep }) => Ok(Checked::Torn { keep }),
    }
}

/// Panics with a [`CrashPoint`] payload — the simulated kill.
fn crash(site: &'static str) -> ! {
    std::panic::panic_any(CrashPoint { site })
}

/// A plain fault point. No-op unless the registry is active.
#[inline]
pub fn hit(site: &'static str) -> Result<()> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    match check(site)? {
        Checked::Run => Ok(()),
        // A torn fault armed on a non-write site degrades to a crash.
        Checked::Torn { .. } => crash(site),
    }
}

/// A write-site fault point: writes `buf` through `w`, or — when a torn
/// fault fires — writes a prefix, flushes it, and crashes.
#[inline]
pub fn write_all<W: Write>(site: &'static str, w: &mut W, buf: &[u8]) -> Result<()> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return w.write_all(buf).map_err(Into::into);
    }
    match check(site)? {
        Checked::Run => w.write_all(buf).map_err(Into::into),
        Checked::Torn { keep } => {
            let keep = keep.min(buf.len());
            let _ = w.write_all(&buf[..keep]);
            let _ = w.flush();
            crash(site)
        }
    }
}

/// One armed injection. Dropping it — at scope end or while a failing
/// test unwinds — disarms the injection and lifts the crash freeze it
/// caused, so a plan can never outlive the test that armed it.
#[must_use = "the injection disarms when the guard drops"]
pub struct FaultGuard {
    id: u64,
}

impl FaultGuard {
    /// True once this injection has fired (any mode).
    pub fn fired(&self) -> bool {
        self.with(|i| i.fired)
    }

    /// Hits of the armed site this injection has observed.
    pub fn seen(&self) -> u64 {
        self.with(|i| i.seen)
    }

    fn with<T>(&self, f: impl FnOnce(&Injection) -> T) -> T {
        let r = registry().lock();
        f(r.injections
            .iter()
            .find(|i| i.id == self.id)
            .expect("a live guard owns its injection"))
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut r = registry().lock();
        r.injections.retain(|i| i.id != self.id);
        if r.injections.is_empty() && !r.counting {
            r.hits.clear();
        }
        recompute_active(&r);
    }
}

/// Arms one injection: the `hit`-th (1-based) hit of `site` fires `mode`,
/// from any thread, until the returned guard drops. Injections armed
/// by other guards stay in force.
pub fn arm(site: &'static str, hit: u64, mode: FaultMode) -> FaultGuard {
    arm_inner(site, hit, mode, None)
}

/// Like [`arm`], but the fault only fires on the calling thread — other
/// threads' hits neither fire nor advance the counter, and a crash
/// freezes only the calling thread's sites (threads that [`adopt`]ed
/// its scope count as the calling thread). For injections inside
/// parallel test binaries; code that hands the faulted call to another
/// thread (a front-end worker) needs [`arm`].
pub fn arm_scoped(site: &'static str, hit: u64, mode: FaultMode) -> FaultGuard {
    arm_inner(site, hit, mode, Some(scope()))
}

fn arm_inner(site: &'static str, hit: u64, mode: FaultMode, scope: Option<Scope>) -> FaultGuard {
    let mut r = registry().lock();
    r.next_id += 1;
    let id = r.next_id;
    r.injections.push(Injection {
        id,
        site,
        hit: hit.max(1),
        mode,
        seen: 0,
        scope,
        fired: false,
        crashed: false,
    });
    recompute_active(&r);
    FaultGuard { id }
}

/// Enables per-site hit counting without any injection (coverage
/// probes); turning it on or off clears the counters.
pub fn set_counting(on: bool) {
    let mut r = registry().lock();
    r.counting = on;
    r.hits.clear();
    recompute_active(&r);
}

/// Hits recorded for `site` since counting/arming started.
pub fn hit_count(site: &str) -> u64 {
    registry().lock().hits.get(site).copied().unwrap_or(0)
}

/// All recorded `(site, hits)` pairs, sorted by site name.
pub fn hit_counts() -> Vec<(&'static str, u64)> {
    let r = registry().lock();
    let mut out: Vec<_> = r.hits.iter().map(|(s, c)| (*s, *c)).collect();
    out.sort_unstable();
    out
}

/// Site of a simulated crash whose freeze covers the calling thread,
/// if one fired.
pub fn crash_fired() -> Option<&'static str> {
    let me = scope();
    registry()
        .lock()
        .injections
        .iter()
        .find(|i| i.crashed && i.sees(me))
        .map(|i| i.site)
}

#[cfg(test)]
mod tests {
    use super::*;

    // No gate: every injection is scoped to its guard, and each test
    // uses site names of its own.

    #[test]
    fn unarmed_sites_are_transparent() {
        hit("t.plain").unwrap();
        let mut sink = Vec::new();
        write_all("t.plain.write", &mut sink, b"payload").unwrap();
        assert_eq!(sink, b"payload");
    }

    #[test]
    fn error_mode_fires_once_on_nth_hit() {
        let guard = arm("t.err", 3, FaultMode::Error);
        hit("t.err").unwrap();
        hit("t.err").unwrap();
        assert!(!guard.fired());
        let e = hit("t.err").unwrap_err();
        assert!(matches!(e, Error::FaultInjected(_)), "{e}");
        assert!(guard.fired());
        assert_eq!(guard.seen(), 3);
        // One-shot: later hits run clean.
        hit("t.err").unwrap();
    }

    #[test]
    fn crash_mode_panics_then_freezes_every_site_until_the_guard_drops() {
        let guard = arm_scoped("t.crash", 1, FaultMode::Crash);
        let r = std::panic::catch_unwind(|| hit("t.crash"));
        let payload = r.expect_err("must panic");
        let point = payload
            .downcast_ref::<CrashPoint>()
            .expect("CrashPoint payload");
        assert_eq!(point.site, "t.crash");
        assert_eq!(crash_fired(), Some("t.crash"));
        // Post-crash: every site errors, freezing the disk image.
        assert!(hit("t.other").is_err());
        let mut sink = Vec::new();
        assert!(write_all("t.write", &mut sink, b"x").is_err());
        assert!(sink.is_empty());
        drop(guard);
        assert_eq!(crash_fired(), None);
        hit("t.other").unwrap();
    }

    #[test]
    fn torn_mode_writes_prefix_then_crashes() {
        let _guard = arm_scoped("t.torn", 1, FaultMode::Torn { keep: 4 });
        let mut sink = Vec::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            write_all("t.torn", &mut sink, b"abcdefgh")
        }));
        assert!(r.is_err(), "torn write must crash");
        assert_eq!(sink, b"abcd", "prefix flushed before the crash");
    }

    #[test]
    fn counting_tracks_sites_without_injection() {
        set_counting(true);
        hit("t.a").unwrap();
        hit("t.a").unwrap();
        hit("t.b").unwrap();
        assert_eq!(hit_count("t.a"), 2);
        assert_eq!(hit_count("t.b"), 1);
        assert_eq!(hit_count("t.absent"), 0);
        let counts = hit_counts();
        assert!(counts.contains(&("t.a", 2)));
        set_counting(false);
        assert_eq!(hit_count("t.a"), 0);
    }

    #[test]
    fn scoped_injection_ignores_other_threads() {
        let guard = arm_scoped("t.scoped", 1, FaultMode::Error);
        std::thread::spawn(|| {
            for _ in 0..5 {
                hit("t.scoped").unwrap();
            }
        })
        .join()
        .unwrap();
        assert!(!guard.fired(), "other threads must not trip a scoped fault");
        assert!(hit("t.scoped").is_err(), "the arming thread still fires");
    }

    #[test]
    fn adopted_scope_fires_and_freezes_with_its_owner() {
        let owner = scope();
        let guard = arm_scoped("t.adopted", 2, FaultMode::Crash);
        hit("t.adopted").unwrap();
        // A helper thread doing IO for this one: its hit is the owner's
        // second, so the scoped crash fires there and is caught there.
        let crashed = std::thread::spawn(move || {
            adopt(owner);
            let r = std::panic::catch_unwind(|| hit("t.adopted"));
            r.expect_err("must crash")
                .downcast_ref::<CrashPoint>()
                .map(|p| p.site)
        })
        .join()
        .unwrap();
        assert_eq!(crashed, Some("t.adopted"));
        assert!(guard.fired());
        // The crash froze the owner, and any thread in its scope.
        assert_eq!(crash_fired(), Some("t.adopted"));
        assert!(hit("t.adopted.after").is_err());
        let helper = std::thread::spawn(move || {
            adopt(owner);
            hit("t.adopted.after").is_err()
        });
        assert!(helper.join().unwrap(), "adopted thread frozen too");
        // A thread outside the scope is untouched.
        std::thread::spawn(|| hit("t.adopted.after").unwrap())
            .join()
            .unwrap();
    }

    #[test]
    fn wrong_site_never_fires() {
        let guard = arm("t.target", 1, FaultMode::Error);
        for _ in 0..10 {
            hit("t.bystander").unwrap();
        }
        assert!(!guard.fired());
    }

    #[test]
    fn a_plan_cannot_outlive_its_test() {
        // The leak this guard exists to stop: a test that crashed a
        // site (or failed before its cleanup line) used to leave the
        // process-global plan armed for whichever test ran next.
        let r = std::panic::catch_unwind(|| {
            let _guard = arm_scoped("t.leak", 1, FaultMode::Crash);
            let _ = hit("t.leak");
        });
        assert!(r.is_err(), "the crash unwinds through the guard");
        assert_eq!(crash_fired(), None, "unwinding disarmed the plan");
        hit("t.leak").unwrap();
    }

    #[test]
    fn guards_do_not_disturb_each_other() {
        // Two tests arming at once: one guard's crash and drop leave a
        // sibling thread's injection armed, unfired and unfrozen.
        let (armed_tx, armed_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let sibling = std::thread::spawn(move || {
            let guard = arm_scoped("t.sibling", 1, FaultMode::Error);
            armed_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            hit("t.elsewhere").unwrap();
            assert!(hit("t.sibling").is_err());
            assert!(guard.fired());
        });
        armed_rx.recv().unwrap();
        {
            let _guard = arm_scoped("t.mine", 1, FaultMode::Crash);
            assert!(std::panic::catch_unwind(|| hit("t.mine")).is_err());
            assert!(hit("t.elsewhere").is_err(), "my thread is frozen");
        }
        done_tx.send(()).unwrap();
        sibling.join().unwrap();
    }
}
