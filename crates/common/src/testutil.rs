//! Shared test helpers: temp directories ([`test_dir`]), a heap
//! allocation probe ([`AllocProbe`]), an in-memory engine
//! ([`MapEngine`]) and an engine wrapper that refuses writes on demand
//! ([`Flaky`]).
//!
//! Every crate in the workspace used to roll its own pid-keyed temp-dir
//! scheme (`tb-foo-{pid}`), which collides when two tests in one binary
//! pick the same name and leaks the directory when a test panics before
//! its trailing `remove_dir_all`. [`test_dir`] fixes both: the path is
//! unique per *call* (pid + a process-wide counter), and the returned
//! [`TestDir`] guard removes the directory on drop — including the
//! unwind of a failing assertion.

use crate::{EngineOp, Error, Key, KvEngine, Lsn, OpOutcome, Result, Value};
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// RAII temporary directory for tests and benches.
///
/// The directory itself is *not* created eagerly — most consumers
/// (`LsmConfig`, `TierBaseConfig`, ...) `create_dir_all` their data dir
/// themselves, and several tests assert on a fresh, absent path. Drop
/// removes whatever ended up on disk.
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// The directory path. `&Path` converts into everything the
    /// workspace's config builders take (`impl Into<PathBuf>`).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Convenience: a path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }

    /// Creates the directory (some tests want it present before any
    /// store opens, e.g. to plant files) and returns the path.
    pub fn create(&self) -> &Path {
        let _ = std::fs::create_dir_all(&self.path);
        &self.path
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A fresh, collision-free temp directory: `{tmp}/{tag}-{pid}-{seq}`.
/// Unique per call even when two tests share a tag, and cleaned up when
/// the guard drops (keep the guard alive across any reopen cycles).
pub fn test_dir(tag: &str) -> TestDir {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("{tag}-{}-{seq}", std::process::id()));
    // A stale run (previous pid reuse, crashed process) may have left
    // the path behind; tests expect a fresh tree.
    let _ = std::fs::remove_dir_all(&path);
    TestDir { path }
}

/// A global allocator that forwards to [`System`] and, while a closure
/// runs under [`largest_allocation`], [`net_allocation`] or
/// [`allocation_count`], records on the calling thread:
/// * the largest single allocation — how decoder tests show that no
///   length read from disk sizes a buffer beyond what the bytes
///   justify;
/// * the net requested bytes, allocated minus freed — how the cache
///   tier shows that its byte count is the heap it holds;
/// * the number of allocations — how the cache tier shows how many
///   an insert makes.
///
/// Sizes are the requested ones: the system allocator's own headers and
/// size-class rounding are not seen. A test binary installs it with
/// `#[global_allocator] static PROBE: AllocProbe = AllocProbe;`.
pub struct AllocProbe;

thread_local! {
    static PROBE_ARMED: Cell<bool> = const { Cell::new(false) };
    static PROBE_LARGEST: Cell<usize> = const { Cell::new(0) };
    static PROBE_NET: Cell<isize> = const { Cell::new(0) };
    static PROBE_COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Notes `freed` bytes given back and `allocated` bytes handed out; a
/// call that hands out memory (`alloc`, `alloc_zeroed`, `realloc`,
/// never of size 0) counts as one allocation.
fn note(freed: usize, allocated: usize) {
    if PROBE_ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = PROBE_LARGEST.try_with(|l| l.set(l.get().max(allocated)));
        let _ = PROBE_NET.try_with(|n| n.set(n.get() + allocated as isize - freed as isize));
        let _ = PROBE_COUNT.try_with(|c| c.set(c.get() + (allocated > 0) as usize));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the probe only records sizes.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for AllocProbe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(0, layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(0, layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size(), 0);
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` with the probe armed on this thread, from zeroed counts.
fn probed<T>(f: impl FnOnce() -> T) -> T {
    PROBE_LARGEST.with(|l| l.set(0));
    PROBE_NET.with(|n| n.set(0));
    PROBE_COUNT.with(|c| c.set(0));
    PROBE_ARMED.with(|a| a.set(true));
    let out = f();
    PROBE_ARMED.with(|a| a.set(false));
    out
}

/// Runs `f`, returning its result and the largest allocation it made on
/// this thread. Reads 0 unless [`AllocProbe`] is the global allocator.
pub fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let out = probed(f);
    (out, PROBE_LARGEST.with(Cell::get))
}

/// Runs `f`, returning its result and the heap bytes this thread
/// requested during it minus those it freed: what `f` left allocated,
/// its result included. Memory another thread allocates or frees is
/// not counted. Reads 0 unless [`AllocProbe`] is the global allocator.
pub fn net_allocation<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let out = probed(f);
    (out, PROBE_NET.with(Cell::get))
}

/// Runs `f`, returning its result and how many allocations (including
/// reallocations) it made on this thread. Reads 0 unless
/// [`AllocProbe`] is the global allocator.
pub fn allocation_count<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let out = probed(f);
    (out, PROBE_COUNT.with(Cell::get))
}

/// An in-memory [`KvEngine`] for tests: a `BTreeMap` under one lock. A
/// batch applies in order under the lock, so a `Cas` is atomic and a
/// `Scan` is ordered; writes ack [`Lsn::NONE`]. Engines with extra
/// behaviour (counters, hooks, scripted failures) wrap one.
#[derive(Default)]
pub struct MapEngine(Mutex<BTreeMap<Key, Value>>);

impl MapEngine {
    /// A fresh engine behind the handle cluster nodes and front-ends take.
    pub fn shared() -> Arc<dyn KvEngine> {
        Arc::new(Self::default())
    }
}

impl KvEngine for MapEngine {
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        let mut map = self.0.lock();
        let done = || Ok(OpOutcome::Done(Lsn::NONE));
        ops.into_iter()
            .map(|op| match op {
                EngineOp::Get(key) => Ok(OpOutcome::Value(map.get(&key).cloned())),
                EngineOp::MultiGet(keys) => Ok(OpOutcome::Values(
                    keys.iter().map(|k| map.get(k).cloned()).collect(),
                )),
                EngineOp::Put(key, value) => {
                    map.insert(key, value);
                    done()
                }
                EngineOp::MultiPut(pairs) => {
                    map.extend(pairs);
                    done()
                }
                EngineOp::Delete(key) => {
                    map.remove(&key);
                    done()
                }
                EngineOp::Cas { key, expected, .. } | EngineOp::CasDelete { key, expected }
                    if map.get(&key) != expected.as_ref() =>
                {
                    Err(Error::CasMismatch)
                }
                EngineOp::Cas { key, new, .. } => {
                    map.insert(key, new);
                    done()
                }
                EngineOp::CasDelete { key, .. } => {
                    map.remove(&key);
                    done()
                }
                EngineOp::Scan { start, end, limit } => {
                    let rows = match end {
                        Some(end) if end <= start => Vec::new(),
                        end => map
                            .range((
                                Bound::Included(start),
                                end.map_or(Bound::Unbounded, Bound::Excluded),
                            ))
                            .take(limit)
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect(),
                    };
                    Ok(OpOutcome::Range(rows))
                }
            })
            .collect()
    }

    fn resident_bytes(&self) -> u64 {
        self.0
            .lock()
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum()
    }

    fn label(&self) -> String {
        "map".into()
    }
}

/// A [`KvEngine`] wrapper for failure tests. It counts the
/// `apply_batch` calls made to it, and [`Flaky::refuse_writes`] makes
/// it refuse the writes of the next calls that carry one.
pub struct Flaky<E> {
    inner: E,
    calls: AtomicU64,
    refusals: AtomicU64,
}

impl<E> Flaky<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
        }
    }

    /// `apply_batch` calls made so far (every provided method is one).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Arms the next `n` calls that carry a `Put` or `MultiPut`: each
    /// such op answers [`Error::FaultInjected`] unapplied, and the
    /// call's other ops go down to the inner engine in one call, in
    /// order.
    pub fn refuse_writes(&self, n: u64) {
        self.refusals.store(n, Ordering::SeqCst);
    }
}

impl<E: KvEngine> KvEngine for Flaky<E> {
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let is_write = |op: &EngineOp| matches!(op, EngineOp::Put(..) | EngineOp::MultiPut(_));
        let armed = |n: u64| n.checked_sub(1);
        if !ops.iter().any(is_write)
            || self
                .refusals
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, armed)
                .is_err()
        {
            return self.inner.apply_batch(ops);
        }
        let refused: Vec<bool> = ops.iter().map(is_write).collect();
        let sent: Vec<EngineOp> = ops.into_iter().filter(|op| !is_write(op)).collect();
        let mut done = if sent.is_empty() {
            Vec::new().into_iter()
        } else {
            self.inner.apply_batch(sent).into_iter()
        };
        let short = || Err(Error::Internal("inner engine answered fewer ops".into()));
        refused
            .into_iter()
            .map(|refused| {
                if refused {
                    Err(Error::FaultInjected("write refused".into()))
                } else {
                    done.next().unwrap_or_else(short)
                }
            })
            .collect()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static PROBE: AllocProbe = AllocProbe;

    /// The net count is what a closure leaves allocated: a result it
    /// returns counts, a buffer it frees does not, a grown buffer
    /// counts at its new size, and another thread's heap not at all.
    #[test]
    fn net_allocation_counts_the_bytes_left_held() {
        let (kept, net) = net_allocation(|| vec![0u8; 1000]);
        assert_eq!(net, 1000);
        let ((), net) = net_allocation(|| drop(vec![0u8; 4096]));
        assert_eq!(net, 0);
        let (grown, net) = net_allocation(|| {
            let mut v: Vec<u8> = Vec::with_capacity(10);
            v.reserve_exact(100);
            v
        });
        assert_eq!(net, grown.capacity() as isize);
        let (_, net) = net_allocation(move || drop((kept, grown)));
        assert_eq!(net, -1000 - 100);
        let (held, net) = net_allocation(|| std::thread::spawn(|| vec![1u8; 1 << 20]).join());
        assert!(net < 1 << 16, "{net} bytes counted from another thread");
        drop(held);
        let ((), largest) = largest_allocation(|| drop(vec![0u8; 512]));
        assert_eq!(largest, 512);
    }

    /// Every allocation and reallocation counts once; frees, another
    /// thread's allocations and a `Vec` that never allocates do not.
    #[test]
    fn allocation_count_counts_calls_that_hand_out_memory() {
        let (boxes, n) = allocation_count(|| (0..5).map(Box::new).collect::<Vec<_>>());
        assert_eq!(n, 1 + 5, "the vector and its five boxes");
        let ((), n) = allocation_count(move || drop(boxes));
        assert_eq!(n, 0);
        let (v, n) = allocation_count(|| {
            let mut v: Vec<u8> = Vec::new();
            v.reserve_exact(10);
            v.reserve_exact(100);
            v
        });
        assert_eq!(
            (n, v.capacity()),
            (2, 100),
            "an allocation, then a reallocation"
        );
        let (held, n) = allocation_count(|| std::thread::spawn(|| vec![vec![1u8]; 100]).join());
        assert!(n < 50, "{n} allocations counted from another thread");
        drop(held);
    }

    /// An armed call refuses its writes and forwards the rest in one
    /// inner call; a call without writes neither fails nor disarms it.
    #[test]
    fn flaky_refuses_the_writes_of_armed_calls() {
        // The inner Flaky counts the calls that reach the engine.
        let flaky = Flaky::new(Flaky::new(MapEngine::default()));
        let (a, b) = (Key::from("a"), Key::from("b"));
        flaky.put(a.clone(), Value::from("1")).unwrap();
        flaky.refuse_writes(1);
        assert_eq!(flaky.get(&a).unwrap(), Some(Value::from("1")));
        let got = flaky.apply_batch(vec![
            EngineOp::Get(a.clone()),
            EngineOp::Put(a.clone(), Value::from("2")),
            EngineOp::MultiPut(vec![(b.clone(), Value::from("3"))]),
            EngineOp::Delete(b.clone()),
            EngineOp::Get(a.clone()),
        ]);
        let refused = || Err(Error::FaultInjected("write refused".into()));
        let done = Ok(OpOutcome::Done(Lsn::NONE));
        let one = Ok(OpOutcome::Value(Some(Value::from("1"))));
        assert_eq!(
            got,
            vec![one.clone(), refused(), refused(), done.clone(), one]
        );
        assert_eq!((flaky.calls(), flaky.inner.calls()), (3, 3));
        assert_eq!(flaky.multi_put(vec![(b.clone(), Value::from("4"))]), Ok(()));
        assert_eq!(flaky.get(&b).unwrap(), Some(Value::from("4")));
        flaky.refuse_writes(1);
        let refused_put = flaky.multi_put(vec![(b.clone(), Value::from("5"))]);
        assert_eq!(refused_put, refused().map(drop));
        assert_eq!(flaky.get(&b).unwrap(), Some(Value::from("4")));
        assert_eq!((flaky.calls(), flaky.inner.calls()), (7, 6));
    }

    #[test]
    fn unique_per_call_and_cleaned_on_drop() {
        let a = test_dir("tb-testutil");
        let b = test_dir("tb-testutil");
        assert_ne!(a.path(), b.path(), "same tag must still be unique");
        let file = a.join("probe.txt");
        std::fs::create_dir_all(a.path()).unwrap();
        std::fs::write(&file, b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "dropping the guard must remove the dir");
        drop(b);
    }

    #[test]
    fn cleaned_on_panic_unwind() {
        let kept = {
            let dir = test_dir("tb-testutil-panic");
            let path = dir.create().to_path_buf();
            std::fs::write(dir.join("probe"), b"x").unwrap();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _moved = dir;
                panic!("boom");
            }));
            assert!(result.is_err());
            path
        };
        assert!(!kept.exists(), "unwind must still clean the dir");
    }
}
