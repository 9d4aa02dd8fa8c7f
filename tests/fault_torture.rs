//! Crash-recovery torture suite for the LSM durability path.
//!
//! The driver enumerates every named fault site in `tb-lsm`
//! ([`tierbase::lsm::FAULT_SITES`]) and, for each `(site, hit)` pair,
//! runs a scripted workload that is killed at exactly that IO
//! operation — by an injected error, a simulated crash, or a torn
//! write — then reopens the store and checks the durability contract:
//!
//! * every write acknowledged before the kill is present, byte-exact;
//! * an unacknowledged in-flight write resolves to one of its legal
//!   states (old value or attempted value) — never a torn hybrid;
//! * the reopened store accepts new writes.
//!
//! The same enumeration runs over the raw [`LsmDb`] and over the
//! pipelined `tb-frontend` path (group commit, worker threads), where a
//! crash is contained by the executing thread and surfaces as failed
//! ops.
//!
//! Crash model: a [`FaultMode::Crash`]/[`Torn`] injection panics at the
//! fault site and freezes every later fault point with errors, so the
//! on-disk image stops changing at the kill instant. Because the "kill"
//! is in-process, data flushed to the OS counts as surviving — strictly
//! stronger than the store's contract (synced writes survive), so
//! passing here implies the contract.
//!
//! `TB_FAULT_SMOKE=1` caps the enumeration at the first
//! [`SMOKE_HITS`] hits per site (CI per-push mode); the nightly/manual
//! torture workflow runs the full enumeration.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tierbase::common::fault::{self, CrashPoint, FaultGuard, FaultMode};
use tierbase::common::{EngineOp, Error, Key, KvEngine, TestDir, Value};
use tierbase::frontend::{Frontend, FrontendConfig};
use tierbase::lsm::sstable::SstConfig;
use tierbase::lsm::wal::SyncPolicy;
use tierbase::lsm::{LsmConfig, LsmDb, FAULT_SITES, FAULT_WRITE_SITES};

/// Hits per site when `TB_FAULT_SMOKE=1`.
const SMOKE_HITS: u64 = 2;

/// Hit counters and process-wide injections ([`fault::arm`]) are seen
/// by every thread: every test that arms or counts serializes on this
/// gate.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Silences the panic messages of *injected* crashes (thousands fire in
/// a full enumeration); every other panic keeps the default report.
fn quiet_crash_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashPoint>().is_none() {
                default(info);
            }
        }));
    });
}

fn fresh_dir(tag: &str) -> TestDir {
    tierbase::common::test_dir(&format!("tb-torture-{tag}"))
}

/// Small thresholds so the scripted workload crosses several flushes
/// and at least one compaction — every fault site gets hit. Tables are
/// written compressed so the `sst.block_decode` enumeration corrupts
/// real frames.
fn torture_config(dir: &std::path::Path) -> LsmConfig {
    LsmConfig {
        dir: dir.to_path_buf(),
        memtable_bytes: 1200,
        l0_compaction_trigger: 2,
        level_base_bytes: 8 << 10,
        max_level: 3,
        sst: SstConfig {
            block_size: 512,
            bloom_bits_per_key: 10,
            codec: tierbase::compress::BlockCodec::Lz,
        },
        wal_sync: SyncPolicy::OsBuffer,
    }
}

fn frontend_config() -> FrontendConfig {
    FrontendConfig {
        shards: 2,
        queue_capacity: 64,
        max_batch: 16,
    }
}

fn key(i: u32) -> Key {
    Key::from(format!("tk{i:03}"))
}

fn val(seed: u32) -> Value {
    Value::from(format!(
        "v{seed:05}-{}",
        "x".repeat(60 + (seed as usize % 40))
    ))
}

// --- the scripted workload ---------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Put(u32, u32),
    Delete(u32),
    /// CAS from the current certain value to `val(seed)`; issued as a
    /// plain put when the key's state is indeterminate. Its read stages
    /// and completes like any lookup, so once the key is flushed it
    /// reaches the `batch.*`/`sst.block_decode` sites too.
    Cas(u32, u32),
    MultiPut(Vec<(u32, u32)>),
    /// A point read: no durability state, but it stages and completes
    /// through the same `batch.*`/`sst.block_decode` sites as a batch,
    /// and whatever it answers must be a legal state of the key.
    Get(u32),
    /// One `apply_batch` submission mixing puts and gets — drives the
    /// overlapped read path (staged block reads, completion pass) so
    /// its fault sites land in the torture matrix. Completions are
    /// per-op, so each write commits or goes indeterminate on its own.
    Batch {
        writes: Vec<(u32, u32)>,
        gets: Vec<u32>,
    },
    Sync,
}

/// Deterministic op mix: populates 16 keys, batch-writes, deletes,
/// CASes, overwrites — sized to cross ~5 memtable flushes and trigger
/// L0→L1 compaction under [`torture_config`].
fn script() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..16 {
        ops.push(Op::Put(i, 100 + i));
    }
    ops.push(Op::MultiPut((0..6).map(|i| (i, 200 + i)).collect()));
    for i in (0..16).step_by(4) {
        ops.push(Op::Delete(i));
    }
    ops.push(Op::Sync);
    // Batched reads over keys already flushed into SSTables (plus two
    // riding writes) reach the staged/deduped block-read path.
    ops.push(Op::Batch {
        writes: vec![(2, 250), (7, 257)],
        gets: (0..16).collect(),
    });
    for i in [2, 3, 7, 11] {
        ops.push(Op::Get(i));
    }
    for i in 4..12 {
        ops.push(Op::Put(i, 300 + i));
    }
    for i in [1, 5, 9] {
        ops.push(Op::Cas(i, 400 + i));
    }
    ops.push(Op::Sync);
    ops.push(Op::MultiPut((10..16).map(|i| (i, 500 + i)).collect()));
    for i in 0..8 {
        ops.push(Op::Put(i, 600 + i));
    }
    ops.push(Op::Sync);
    ops.push(Op::Batch {
        writes: (12..16).map(|i| (i, 700 + i)).collect(),
        gets: vec![0, 3, 6, 9, 12, 15],
    });
    ops.push(Op::Sync);
    for i in [1, 10, 14] {
        ops.push(Op::Get(i));
    }
    ops
}

// --- the durability model ----------------------------------------------

/// Reference state tracked op-by-op. `None` state = key absent
/// (deleted or never written).
#[derive(Default)]
struct Model {
    /// Keys whose state is certain: the op that last wrote them was
    /// acknowledged (returned `Ok`).
    committed: BTreeMap<u32, Option<u32>>,
    /// Keys with an op in flight at the kill, or an errored op: any
    /// listed state is legal after recovery.
    uncertain: BTreeMap<u32, Vec<Option<u32>>>,
}

impl Model {
    fn commit(&mut self, attempt: &[(u32, Option<u32>)]) {
        for (k, s) in attempt {
            self.committed.insert(*k, *s);
            self.uncertain.remove(k);
        }
    }

    fn indeterminate(&mut self, attempt: &[(u32, Option<u32>)]) {
        for (k, s) in attempt {
            let prior = self.committed.remove(k);
            let cands = self
                .uncertain
                .entry(*k)
                .or_insert_with(|| vec![prior.unwrap_or(None)]);
            if !cands.contains(s) {
                cands.push(*s);
            }
        }
    }

    /// Whether `got` is a state key `k` may legally hold right now.
    fn legal(&self, k: u32, got: &Option<Value>) -> bool {
        match self.uncertain.get(&k) {
            Some(cands) => cands.iter().any(|c| &c.map(val) == got),
            None => &self.committed.get(&k).copied().flatten().map(val) == got,
        }
    }

    fn certain_state(&self, k: u32) -> Option<Option<u32>> {
        if self.uncertain.contains_key(&k) {
            None
        } else {
            Some(self.committed.get(&k).copied().unwrap_or(None))
        }
    }

    /// Every certain key must read back exactly; an uncertain key must
    /// be one of its legal states (never a torn hybrid).
    fn verify(&self, db: &dyn KvEngine, ctx: &str) {
        for (k, s) in &self.committed {
            let got = db
                .get(&key(*k))
                .unwrap_or_else(|e| panic!("[{ctx}] get({k}) failed after recovery: {e}"));
            assert_eq!(
                got,
                s.map(val),
                "[{ctx}] acknowledged write to key {k} lost or mangled"
            );
        }
        for (k, cands) in &self.uncertain {
            let got = db
                .get(&key(*k))
                .unwrap_or_else(|e| panic!("[{ctx}] get({k}) failed after recovery: {e}"));
            assert!(
                cands.iter().any(|c| c.map(val) == got),
                "[{ctx}] key {k} recovered to {got:?}, not one of its \
                 legal states {cands:?}"
            );
        }
        for sentinel in [900u32, 901, 902] {
            assert_eq!(
                db.get(&key(sentinel)).unwrap(),
                None,
                "[{ctx}] phantom key {sentinel} appeared"
            );
        }
    }
}

// --- the driver --------------------------------------------------------

/// Waits for the LSM's background worker to flush and compact what is
/// queued: `resident_bytes` reads the settled tree. Ops that read settle
/// first, so whether a key is served from a memtable or staged from a
/// table — and with it every read-side `(site, hit)` — repeats exactly
/// run to run, while writes still race the worker.
fn settle(engine: &dyn KvEngine) {
    engine.resident_bytes();
}

/// Runs `ops` against `engine`, tracking the model. Returns `true` when
/// a simulated crash ended the run.
fn run_workload(engine: &dyn KvEngine, ops: &[Op], model: &mut Model) -> bool {
    for op in ops {
        if fault::crash_fired().is_some() {
            return true;
        }
        if matches!(op, Op::Get(_) | Op::Cas(..) | Op::Batch { .. }) {
            settle(engine);
        }
        // Batched submissions settle per completion slot: each write
        // commits or goes indeterminate on its own result (a batch is
        // not a transaction); the gets carry no durability state but
        // drive the staged-read fault sites.
        if let Op::Batch { writes, gets } = op {
            let attempt: Vec<(u32, Option<u32>)> =
                writes.iter().map(|(k, s)| (*k, Some(*s))).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut batch: Vec<EngineOp> = Vec::with_capacity(writes.len() + gets.len());
                batch.extend(writes.iter().map(|(k, s)| EngineOp::Put(key(*k), val(*s))));
                batch.extend(gets.iter().map(|k| EngineOp::Get(key(*k))));
                engine.apply_batch(batch)
            }));
            match outcome {
                Ok(results) => {
                    assert_eq!(
                        results.len(),
                        writes.len() + gets.len(),
                        "one completion per submitted op"
                    );
                    for (entry, result) in attempt.iter().zip(&results) {
                        match result {
                            Ok(_) => model.commit(std::slice::from_ref(entry)),
                            Err(_) => model.indeterminate(std::slice::from_ref(entry)),
                        }
                    }
                }
                Err(payload) => {
                    if payload.downcast_ref::<CrashPoint>().is_none() {
                        std::panic::resume_unwind(payload);
                    }
                    model.indeterminate(&attempt);
                    return true;
                }
            }
            continue;
        }
        if let Op::Get(k) = op {
            match catch_unwind(AssertUnwindSafe(|| engine.get(&key(*k)))) {
                Ok(Ok(got)) => assert!(
                    model.legal(*k, &got),
                    "live get({k}) answered {got:?}, not a legal state of the key"
                ),
                // A failed read changes no state.
                Ok(Err(_)) => {}
                Err(payload) => {
                    if payload.downcast_ref::<CrashPoint>().is_none() {
                        std::panic::resume_unwind(payload);
                    }
                    return true;
                }
            }
            continue;
        }
        // A CAS against an indeterminate key degrades to a put — the
        // driver cannot know which expected value the engine holds.
        let op = match op {
            Op::Cas(k, s) if model.certain_state(*k).is_none() => Op::Put(*k, *s),
            other => other.clone(),
        };
        let attempt: Vec<(u32, Option<u32>)> = match &op {
            Op::Put(k, s) | Op::Cas(k, s) => vec![(*k, Some(*s))],
            Op::Delete(k) => vec![(*k, None)],
            Op::MultiPut(pairs) => pairs.iter().map(|(k, s)| (*k, Some(*s))).collect(),
            Op::Get(_) | Op::Batch { .. } => unreachable!("handled above"),
            Op::Sync => vec![],
        };
        let result = catch_unwind(AssertUnwindSafe(|| match &op {
            Op::Put(k, s) => engine.put(key(*k), val(*s)),
            Op::Delete(k) => engine.delete(&key(*k)),
            Op::Cas(k, s) => {
                let expected = model
                    .certain_state(*k)
                    .expect("cas only issued on certain keys")
                    .map(val);
                engine.cas(key(*k), expected.as_ref(), val(*s))
            }
            Op::MultiPut(pairs) => {
                engine.multi_put(pairs.iter().map(|(k, s)| (key(*k), val(*s))).collect())
            }
            Op::Get(_) | Op::Batch { .. } => unreachable!("handled above"),
            Op::Sync => engine.sync(),
        }));
        match result {
            Ok(Ok(())) => model.commit(&attempt),
            Ok(Err(Error::CasMismatch)) => panic!(
                "CAS mismatch on a certain key ({op:?}): engine state \
                 diverged from every acknowledged write"
            ),
            Ok(Err(_)) => model.indeterminate(&attempt),
            Err(payload) => {
                // Only injected crashes may unwind; anything else is a
                // genuine bug and must fail the test.
                if payload.downcast_ref::<CrashPoint>().is_none() {
                    std::panic::resume_unwind(payload);
                }
                model.indeterminate(&attempt);
                return true;
            }
        }
    }
    settle(engine);
    fault::crash_fired().is_some()
}

/// One torture run: workload killed at `(site, hit, mode)`, then reopen
/// and verify. Returns whether the injection actually fired (exhaustion
/// signal for the enumeration).
fn run_once(site: &'static str, hit: u64, mode: FaultMode, pipelined: bool) -> bool {
    let ctx = format!(
        "{}:{site}#{hit}:{mode:?}",
        if pipelined { "pipelined" } else { "raw" }
    );
    let dir = fresh_dir(if pipelined { "pipe" } else { "raw" });
    let mut model = Model::default();
    let ops = script();

    // Armed after the store opens, disarmed after it is dropped: the
    // freeze a crash leaves behind covers everything the dying
    // "process" could still write.
    let plan;
    if pipelined {
        let db = Arc::new(LsmDb::open(torture_config(dir.path())).unwrap());
        let fe = Frontend::start(db, frontend_config());
        plan = fault::arm(site, hit, mode);
        let crashed = run_workload(&fe, &ops, &mut model);
        if !crashed && plan.fired() {
            // Transient error: earlier acks must still be readable
            // through the live front-end before any reopen.
            model.verify(&fe, &format!("{ctx}:live"));
        }
        fe.shutdown();
    } else {
        let db = LsmDb::open(torture_config(dir.path())).unwrap();
        plan = fault::arm(site, hit, mode);
        let crashed = run_workload(&db, &ops, &mut model);
        if !crashed && plan.fired() {
            model.verify(&db, &format!("{ctx}:live"));
        }
    }

    let fired = plan.fired();
    drop(plan);

    // "Reboot": recover from the frozen disk image alone.
    let db = LsmDb::open(torture_config(dir.path()))
        .unwrap_or_else(|e| panic!("[{ctx}] reopen after kill failed: {e}"));
    model.verify(&db, &ctx);
    // The recovered store must accept and serve new writes.
    db.put(key(800), val(800)).unwrap();
    assert_eq!(db.get(&key(800)).unwrap(), Some(val(800)), "[{ctx}]");
    fired
}

/// Enumerates `(site, 1..)` until the workload stops reaching the site
/// (or `cap` hits in smoke mode), asserting every listed site fires at
/// least once.
fn enumerate(sites: &[&'static str], mode_of: fn(u64) -> FaultMode, pipelined: bool, cap: u64) {
    quiet_crash_panics();
    for &site in sites {
        let mut fired_once = false;
        let mut hit = 1u64;
        loop {
            let fired = run_once(site, hit, mode_of(hit), pipelined);
            fired_once |= fired;
            if !fired || hit >= cap {
                break;
            }
            hit += 1;
        }
        assert!(
            fired_once,
            "fault site {site} was never reached by the torture workload"
        );
    }
}

fn cap_or(full: u64) -> u64 {
    // Same convention as TB_BENCH_SMOKE: unset, empty, or "0" = full.
    let smoke = std::env::var("TB_FAULT_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if smoke {
        SMOKE_HITS.min(full)
    } else {
        full
    }
}

// --- the suite ---------------------------------------------------------

/// Coverage probe: one clean scripted run must hit every registered
/// fault site — keeps `FAULT_SITES` in lockstep with the code — and
/// must exercise flushes *and* compaction.
#[test]
fn fault_sites_all_reachable() {
    let _g = gate();
    let dir = fresh_dir("probe");
    let db = LsmDb::open(torture_config(dir.path())).unwrap();
    fault::set_counting(true);
    let mut model = Model::default();
    let crashed = run_workload(&db, &script(), &mut model);
    assert!(!crashed, "no injection armed, nothing may crash");
    let flushes = db.stats.flushes.load(Ordering::Relaxed);
    let compactions = db.stats.compactions.load(Ordering::Relaxed);
    assert!(flushes >= 3, "workload too small: {flushes} flushes");
    assert!(compactions >= 1, "workload never compacts");
    assert!(
        FAULT_SITES.len() >= 12,
        "torture surface shrank to {} sites",
        FAULT_SITES.len()
    );
    for &site in FAULT_SITES {
        assert!(
            fault::hit_count(site) > 0,
            "registered fault site {site} is dead code in the workload \
             (hit counts: {:?})",
            fault::hit_counts()
        );
    }
    for &site in FAULT_WRITE_SITES {
        assert!(
            FAULT_SITES.contains(&site),
            "{site} missing from FAULT_SITES"
        );
    }
    fault::set_counting(false);
    model.verify(&db, "probe");
}

/// `LsmDb::sync` costs an `fdatasync` only when something was appended
/// since the last durability point: worker-side and burst-side syncs
/// overlap in mixed front-end traffic, and `TierBase::do_sync` syncs the
/// storage tier even when its flush found nothing dirty. Pinned by the
/// `wal.sync` site's hit count; a memtable flush (whose freeze fsyncs
/// the memtable's WAL segment) and a reopen must both leave the
/// watermark valid.
#[test]
fn redundant_sync_costs_no_fdatasync() {
    let _g = gate();
    let dir = fresh_dir("syncfree");
    let mut config = torture_config(dir.path());
    config.memtable_bytes = 1 << 20; // flush only when the test says so
    let db = LsmDb::open(config.clone()).unwrap();
    fault::set_counting(true);
    let syncs = || fault::hit_count("wal.sync");

    db.sync().unwrap();
    assert_eq!(syncs(), 0, "nothing was ever appended");
    db.put(key(1), val(1)).unwrap();
    db.sync().unwrap();
    db.sync().unwrap();
    assert_eq!(syncs(), 1, "the second sync had nothing to cover");
    db.put(key(2), val(2)).unwrap();
    db.put(key(3), val(3)).unwrap();
    db.sync().unwrap();
    assert_eq!(syncs(), 2, "one fdatasync covers both appends");

    // A failed sync advances nothing: the retry pays again.
    let plan = fault::arm("wal.sync", 1, FaultMode::Error);
    db.put(key(4), val(4)).unwrap();
    assert!(db.sync().is_err());
    drop(plan);
    db.sync().unwrap();
    db.sync().unwrap();
    assert_eq!(syncs(), 4, "failed attempt + one successful retry");

    // The flush made every write durable (its segment fsynced, then in
    // a table): nothing is left for a sync to do until the next append.
    db.put(key(5), val(5)).unwrap();
    db.flush().unwrap();
    db.sync().unwrap();
    assert_eq!(syncs(), 4, "flushed writes need no WAL sync");
    db.put(key(6), val(6)).unwrap();
    db.sync().unwrap();
    assert_eq!(syncs(), 5);

    // Reopen: replayed WAL frames count as unsynced exactly once.
    drop(db);
    let db = LsmDb::open(config).unwrap();
    db.sync().unwrap();
    db.sync().unwrap();
    assert_eq!(syncs(), 6);
    fault::set_counting(false);
    for i in 1..=6 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
    }
}

/// Two writers and a reader race the background worker on a
/// `small_for_tests` engine — a freeze every few dozen writes, a
/// compaction every few flushes, writers stalling at the frozen-queue
/// bound. Each key has one writer, which moves it through versions
/// 1, 2, 3, … by put, batched multi-put and CAS (whose read must see the
/// previous version wherever it lives). Reads — point, batched and
/// scans — must never return an older version of a key than an earlier
/// read did, and a reopen must lose no acknowledged write.
/// `torture.yml` loops this test in release.
#[test]
fn concurrent_writers_and_reader_never_go_back_in_time() {
    const KEYS: u32 = 100;
    const ROUNDS: u32 = 30;
    let _g = gate();
    let dir = fresh_dir("concurrent");
    let config = LsmConfig::small_for_tests(dir.path());
    let db = LsmDb::open(config.clone()).unwrap();
    let version = |v: &Value| -> u32 {
        std::str::from_utf8(&v.as_slice()[1..6])
            .unwrap()
            .parse()
            .unwrap()
    };
    let writing = std::sync::atomic::AtomicU32::new(2);
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        for writer in 0..2 {
            let (db, start, writing) = (&db, &start, &writing);
            s.spawn(move || {
                let mine: Vec<u32> = (writer..KEYS).step_by(2).collect();
                start.wait();
                for round in 1..=ROUNDS {
                    match round % 3 {
                        0 => db
                            .multi_put(mine.iter().map(|&k| (key(k), val(round))).collect())
                            .unwrap(),
                        1 => {
                            for &k in &mine {
                                db.put(key(k), val(round)).unwrap();
                            }
                        }
                        _ => {
                            for &k in &mine {
                                db.cas(key(k), Some(&val(round - 1)), val(round)).unwrap();
                            }
                        }
                    }
                }
                writing.fetch_sub(1, Ordering::Release);
            });
        }
        let (db, start, writing) = (&db, &start, &writing);
        s.spawn(move || {
            let mut seen = vec![0u32; KEYS as usize];
            let mut observe = |k: u32, got: Option<&Value>, how: &str| {
                let now = got.map_or(0, version);
                assert!(
                    now >= seen[k as usize],
                    "{how} read key {k} at version {now} after seeing {}",
                    seen[k as usize]
                );
                seen[k as usize] = now;
            };
            start.wait();
            let mut pass = 0u32;
            while writing.load(Ordering::Acquire) > 0 {
                pass += 1;
                let k = pass % KEYS;
                observe(k, db.get(&key(k)).unwrap().as_ref(), "point");
                let keys: Vec<Key> = (0..KEYS).map(key).collect();
                for (k, got) in db.multi_get(&keys).unwrap().iter().enumerate() {
                    observe(k as u32, got.as_ref(), "batched");
                }
                let rows = db.scan(&key(0), Some(&key(KEYS)), usize::MAX).unwrap();
                let mut present = vec![None; KEYS as usize];
                for (row_key, value) in &rows {
                    let k: u32 = std::str::from_utf8(&row_key.as_slice()[2..])
                        .unwrap()
                        .parse()
                        .unwrap();
                    present[k as usize] = Some(value);
                }
                for (k, got) in present.into_iter().enumerate() {
                    observe(k as u32, got, "scan");
                }
            }
        });
    });
    db.flush().unwrap();
    assert!(
        db.stats.flushes.load(Ordering::Relaxed) >= 10,
        "the writers barely froze a memtable"
    );
    assert!(db.stats.compactions.load(Ordering::Relaxed) >= 1);
    drop(db);
    let db = LsmDb::open(config).unwrap();
    for k in 0..KEYS {
        assert_eq!(db.get(&key(k)).unwrap(), Some(val(ROUNDS)), "key {k}");
    }
}

/// The telemetry layer must be invisible to the fault schedule: whether
/// tracer/metrics recording is on cannot shift the `(site, hit)`
/// enumeration the whole torture matrix is keyed by. Runs the scripted
/// workload with counting on under both observability settings and
/// compares the per-site hit counts.
#[test]
fn telemetry_does_not_perturb_fault_enumeration() {
    let _g = gate();
    let counts_with = |obs_on: bool| {
        tierbase::obs::set_enabled(obs_on);
        let dir = fresh_dir("obs-invariance");
        let db = LsmDb::open(torture_config(dir.path())).unwrap();
        fault::set_counting(true);
        let mut model = Model::default();
        let crashed = run_workload(&db, &script(), &mut model);
        assert!(!crashed, "no injection armed, nothing may crash");
        let counts = fault::hit_counts();
        fault::set_counting(false);
        counts
    };
    let with_obs = counts_with(true);
    let without_obs = counts_with(false);
    tierbase::obs::set_enabled(true);
    assert_eq!(
        with_obs, without_obs,
        "telemetry recording changed the fault (site, hit) enumeration"
    );
}

/// Simulated `kill -9` at every `(site, hit)` on the raw engine.
#[test]
fn crash_torture_raw() {
    let _g = gate();
    enumerate(FAULT_SITES, |_| FaultMode::Crash, false, cap_or(u64::MAX));
}

/// The same kill schedule through the pipelined group-commit front-end.
#[test]
fn crash_torture_pipelined() {
    let _g = gate();
    enumerate(FAULT_SITES, |_| FaultMode::Crash, true, cap_or(u64::MAX));
}

/// Transient IO error at every `(site, hit)`: the op fails, the store
/// keeps serving every acknowledged write, and recovery stays clean.
#[test]
fn error_torture_raw() {
    let _g = gate();
    enumerate(FAULT_SITES, |_| FaultMode::Error, false, cap_or(u64::MAX));
}

/// Transient IO errors through the front-end: failing ops resolve,
/// later batches proceed, recovery stays clean. (Per-batch containment
/// is also unit-tested in `tests/frontend_errors.rs`.)
#[test]
fn error_torture_pipelined() {
    let _g = gate();
    enumerate(FAULT_SITES, |_| FaultMode::Error, true, cap_or(u64::MAX));
}

/// Torn writes (partial buffer + crash) at every buffer-write site,
/// with a different cut point per hit.
#[test]
fn torn_write_torture_raw() {
    let _g = gate();
    enumerate(
        FAULT_WRITE_SITES,
        |hit| FaultMode::Torn {
            keep: (hit as usize * 13) % 97,
        },
        false,
        cap_or(u64::MAX),
    );
}

/// Torn writes through the pipelined path.
#[test]
fn torn_write_torture_pipelined() {
    let _g = gate();
    enumerate(
        FAULT_WRITE_SITES,
        |hit| FaultMode::Torn {
            keep: (hit as usize * 29) % 61,
        },
        true,
        cap_or(u64::MAX),
    );
}

/// Scan batches through the `batch.block_read` *and* `sst.block_decode`
/// enumerations: for every hit position either fault can land on, a
/// batch mixing range scans and point gets must fail *only* the
/// completion slots whose staged reads reference the faulted block —
/// the same slots on every run of the schedule — while every other slot
/// answers the same as a clean run (a block-read fault never fetches; a
/// decode fault fetches a frame that fails CRC/decode).
#[test]
fn scan_batch_block_read_fault_fails_only_its_slots() {
    let _g = gate();
    let dir = fresh_dir("scanfault");
    let db = LsmDb::open(torture_config(dir.path())).unwrap();
    // Two flushed generations so scans stage ranges across tables.
    for i in 0..120 {
        db.put(key(i), val(i)).unwrap();
    }
    db.flush().unwrap();
    for i in 60..180 {
        db.put(key(i), val(i + 1000)).unwrap();
    }
    db.flush().unwrap();

    let ops = || {
        vec![
            EngineOp::Scan {
                start: key(10),
                end: Some(key(50)),
                limit: usize::MAX,
            },
            EngineOp::Get(key(90)),
            EngineOp::Scan {
                start: key(100),
                end: Some(key(140)),
                limit: usize::MAX,
            },
            EngineOp::Get(key(5)),
        ]
    };
    let before = KvEngine::batch_read_stats(&db).blocks_read;
    let clean = db.apply_batch(ops());
    assert!(
        clean.iter().all(|r| r.is_ok()),
        "clean run failed: {clean:?}"
    );
    let total_fetches = KvEngine::batch_read_stats(&db).blocks_read - before;
    assert!(total_fetches >= 4, "scan batch staged too few blocks");

    for site in ["batch.block_read", "sst.block_decode"] {
        for hit in 1..=cap_or(total_fetches) {
            let mut failed = Vec::new();
            for run in ["first", "repeat"] {
                let plan = fault::arm_scoped(site, hit, FaultMode::Error);
                let outcomes = db.apply_batch(ops());
                drop(plan);
                let errs: Vec<usize> = outcomes
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.is_err().then_some(i))
                    .collect();
                assert!(
                    !errs.is_empty(),
                    "{site} hit {hit} never fired ({run}: fetches={total_fetches})"
                );
                if site == "sst.block_decode" {
                    for i in &errs {
                        assert!(
                            matches!(outcomes[*i], Err(Error::Corruption(_))),
                            "{run} {site} hit {hit}: slot {i} must fail with \
                             Corruption, got {:?}",
                            outcomes[*i]
                        );
                    }
                }
                for (i, r) in outcomes.iter().enumerate() {
                    if r.is_ok() {
                        assert_eq!(
                            r, &clean[i],
                            "{run} {site} hit {hit}: slot {i} answered differently \
                             under an unrelated block fault"
                        );
                    }
                }
                failed.push(errs);
            }
            assert_eq!(
                failed[0], failed[1],
                "{site} hit {hit}: the fault landed on different slots when repeated"
            );
        }
        // The store stays usable between and after fault rounds.
        let again = db.apply_batch(ops());
        assert_eq!(again, clean, "store must serve cleanly after {site} faults");
    }
}

// --- replication torture -----------------------------------------------

/// The same enumeration discipline over the cluster replication path:
/// every `(site, hit)` in [`tierbase::cluster::REPL_FAULT_SITES`] ×
/// {crash, error, torn} kills a scripted write workload against a
/// replicated data node — primary crash mid-ship, replica crash
/// mid-apply, promotion races — then fails the node over and checks the
/// replication contract byte-exactly:
///
/// * every write acked by the node (`Ok(lsn)` — which the channel only
///   returns once the replica acknowledged the frame) is present after
///   promotion, and its LSN sits at or below the promotion watermark;
/// * an errored or killed in-flight write resolves to one of its legal
///   states, never a torn hybrid;
/// * the promoted node serves new writes and — through its replica
///   factory — is replicated again, so a second crash is survivable.
mod replication {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use tierbase::cluster::{ClusterClient, CoordinatorGroup, NodeId, NodeStore, REPL_FAULT_SITES};
    use tierbase::common::testutil::MapEngine;
    use tierbase::common::Lsn;

    #[derive(Debug, Clone)]
    enum ROp {
        Put(u32, u32),
        Delete(u32),
        MultiPut(Vec<(u32, u32)>),
    }

    /// Deterministic write mix: ~40 shipped frames per run, with
    /// overwrites and deletes so promotion replay order matters.
    fn repl_script() -> Vec<ROp> {
        let mut ops = Vec::new();
        for i in 0..16 {
            ops.push(ROp::Put(i, 100 + i));
        }
        ops.push(ROp::MultiPut((0..6).map(|i| (i, 200 + i)).collect()));
        for i in (0..16).step_by(4) {
            ops.push(ROp::Delete(i));
        }
        for i in 4..12 {
            ops.push(ROp::Put(i, 300 + i));
        }
        ops.push(ROp::MultiPut((10..16).map(|i| (i, 500 + i)).collect()));
        for i in 0..8 {
            ops.push(ROp::Put(i, 600 + i));
        }
        ops.push(ROp::Delete(1));
        ops
    }

    /// Reference state: acked writes carry their covering LSN.
    #[derive(Default)]
    struct ReplModel {
        acked: BTreeMap<u32, (Option<u32>, u64)>,
        uncertain: BTreeMap<u32, Vec<Option<u32>>>,
    }

    impl ReplModel {
        fn ack(&mut self, attempt: &[(u32, Option<u32>)], lsn: Lsn) {
            for (k, s) in attempt {
                self.acked.insert(*k, (*s, lsn.0));
                self.uncertain.remove(k);
            }
        }

        fn indeterminate(&mut self, attempt: &[(u32, Option<u32>)]) {
            for (k, s) in attempt {
                let prior = self.acked.remove(k).map(|(s, _)| s);
                let cands = self
                    .uncertain
                    .entry(*k)
                    .or_insert_with(|| vec![prior.unwrap_or(None)]);
                if !cands.contains(s) {
                    cands.push(*s);
                }
            }
        }

        /// Byte-exact replication contract after failover.
        fn verify(&self, node: &tierbase::cluster::NodeStore, watermark: Lsn, ctx: &str) {
            for (k, (state, lsn)) in &self.acked {
                assert!(
                    *lsn <= watermark.0,
                    "[{ctx}] write acked at lsn {lsn} above the promotion \
                     watermark {watermark:?}"
                );
                let got = node
                    .get(&key(*k))
                    .unwrap_or_else(|e| panic!("[{ctx}] get({k}) failed after failover: {e}"));
                assert_eq!(
                    got,
                    state.map(val),
                    "[{ctx}] write acked at lsn {lsn} (watermark {watermark:?}) \
                     lost or mangled by failover"
                );
            }
            for (k, cands) in &self.uncertain {
                let got = node
                    .get(&key(*k))
                    .unwrap_or_else(|e| panic!("[{ctx}] get({k}) failed after failover: {e}"));
                assert!(
                    cands.iter().any(|c| c.map(val) == got),
                    "[{ctx}] key {k} failed over to {got:?}, not one of its \
                     legal states {cands:?}"
                );
            }
        }
    }

    /// Runs the scripted workload against the node, tracking acks.
    /// Returns `true` when an injected crash ended the run.
    fn run_repl_workload(
        node: &parking_lot::RwLock<NodeStore>,
        ops: &[ROp],
        model: &mut ReplModel,
    ) -> bool {
        for op in ops {
            if fault::crash_fired().is_some() {
                return true;
            }
            let attempt: Vec<(u32, Option<u32>)> = match op {
                ROp::Put(k, s) => vec![(*k, Some(*s))],
                ROp::Delete(k) => vec![(*k, None)],
                ROp::MultiPut(pairs) => pairs.iter().map(|(k, s)| (*k, Some(*s))).collect(),
            };
            let result = catch_unwind(AssertUnwindSafe(|| match op {
                ROp::Put(k, s) => node.read().put(key(*k), val(*s)),
                ROp::Delete(k) => node.read().delete(&key(*k)),
                ROp::MultiPut(pairs) => node
                    .read()
                    .multi_put(pairs.iter().map(|(k, s)| (key(*k), val(*s))).collect()),
            }));
            match result {
                Ok(Ok(lsn)) => model.ack(&attempt, lsn),
                Ok(Err(_)) => model.indeterminate(&attempt),
                Err(payload) => {
                    if payload.downcast_ref::<CrashPoint>().is_none() {
                        std::panic::resume_unwind(payload);
                    }
                    model.indeterminate(&attempt);
                    return true;
                }
            }
        }
        fault::crash_fired().is_some()
    }

    /// Drives the coordinator failover, absorbing injected promotion
    /// faults: an armed `repl.promote`/`repl.apply` error or crash fires
    /// inside `run_failover`, after which the retry must *resume* the
    /// promotion without losing acked state.
    fn failover_with_retries(
        group: &CoordinatorGroup,
        ctx: &str,
        plan: &mut Option<FaultGuard>,
    ) -> bool {
        let mut fired = false;
        for _ in 0..4 {
            let result = catch_unwind(AssertUnwindSafe(|| group.run_failover()));
            fired |= plan.as_ref().is_some_and(FaultGuard::fired);
            match result {
                Ok(Ok(ids)) => {
                    assert!(ids.contains(&NodeId(0)), "[{ctx}] node 0 not failed over");
                    return fired;
                }
                Ok(Err(_)) => *plan = None,
                Err(payload) => {
                    if payload.downcast_ref::<CrashPoint>().is_none() {
                        std::panic::resume_unwind(payload);
                    }
                    // Coordinator died mid-promotion; the next sweep
                    // (fresh process: plan disarmed) resumes it.
                    *plan = None;
                }
            }
        }
        panic!("[{ctx}] failover did not complete within its retry budget");
    }

    /// One torture run: the workload killed at `(site, hit, mode)`,
    /// then a crash + failover, then byte-exact verification.
    fn run_repl_once(site: &'static str, hit: u64, mode: FaultMode) -> bool {
        let ctx = format!("repl:{site}#{hit}:{mode:?}");
        let node =
            NodeStore::new(NodeId(0), MapEngine::shared()).with_replica_factory(MapEngine::shared);
        let group = CoordinatorGroup::bootstrap(1, vec![node]).unwrap();
        let handle = group.node(NodeId(0)).unwrap();
        let mut model = ReplModel::default();
        let mut plan = Some(fault::arm(site, hit, mode));
        run_repl_workload(&handle, &repl_script(), &mut model);
        let mut fired = plan.as_ref().is_some_and(FaultGuard::fired);

        // The primary dies; a crash injection already froze the fault
        // registry at the kill instant, so model the reboot by dropping
        // the plan. An armed-but-unreached fault (`repl.promote`) stays
        // armed and fires inside the failover below.
        handle.read().crash();
        if fault::crash_fired().is_some() {
            plan = None;
        }
        fired |= failover_with_retries(&group, &ctx, &mut plan);
        drop(plan);

        let node = handle.read();
        let watermark = node.session_lsn();
        model.verify(&node, watermark, &ctx);
        // The promoted node serves new writes and is replicated again.
        node.put(key(800), val(800)).unwrap();
        assert_eq!(node.get(&key(800)).unwrap(), Some(val(800)), "[{ctx}]");
        assert!(
            node.has_replica(),
            "[{ctx}] promotion must re-seed a replica (second crash unsurvivable)"
        );
        fired
    }

    fn enumerate_repl(sites: &[&'static str], mode_of: fn(u64) -> FaultMode, cap: u64) {
        quiet_crash_panics();
        for &site in sites {
            let mut fired_once = false;
            let mut hit = 1u64;
            loop {
                let fired = run_repl_once(site, hit, mode_of(hit));
                fired_once |= fired;
                if !fired || hit >= cap {
                    break;
                }
                hit += 1;
            }
            assert!(
                fired_once,
                "replication fault site {site} was never reached by the workload"
            );
        }
    }

    /// Coverage probe: a clean run (workload + crash + failover) must
    /// hit every registered replication fault site.
    #[test]
    fn repl_sites_all_reachable() {
        let _g = gate();
        let node =
            NodeStore::new(NodeId(0), MapEngine::shared()).with_replica_factory(MapEngine::shared);
        let group = CoordinatorGroup::bootstrap(1, vec![node]).unwrap();
        let handle = group.node(NodeId(0)).unwrap();
        fault::set_counting(true);
        let mut model = ReplModel::default();
        let crashed = run_repl_workload(&handle, &repl_script(), &mut model);
        assert!(!crashed, "no injection armed, nothing may crash");
        handle.read().crash();
        group.run_failover().unwrap();
        for &site in REPL_FAULT_SITES {
            assert!(
                fault::hit_count(site) > 0,
                "registered replication fault site {site} is dead code \
                 (hit counts: {:?})",
                fault::hit_counts()
            );
        }
        fault::set_counting(false);
        model.verify(&handle.read(), handle.read().session_lsn(), "repl-probe");
    }

    /// Simulated `kill -9` at every replication `(site, hit)`:
    /// primary dies mid-ship, replica dies mid-apply, coordinator dies
    /// mid-promotion.
    #[test]
    fn repl_crash_torture() {
        let _g = gate();
        enumerate_repl(REPL_FAULT_SITES, |_| FaultMode::Crash, cap_or(u64::MAX));
    }

    /// Transient error at every replication `(site, hit)`: the write
    /// ack goes indeterminate (never falsely covered by a watermark),
    /// the channel log stays parseable, and a faulted promotion is
    /// resumed by the next failover sweep.
    #[test]
    fn repl_error_torture() {
        let _g = gate();
        enumerate_repl(REPL_FAULT_SITES, |_| FaultMode::Error, cap_or(u64::MAX));
    }

    /// Torn frames at the ship site (the channel's only buffer write):
    /// a partially shipped frame is never acked and promotion discards
    /// the torn tail instead of replaying garbage.
    #[test]
    fn repl_torn_ship_torture() {
        let _g = gate();
        enumerate_repl(
            &["repl.ship"],
            |hit| FaultMode::Torn {
                keep: (hit as usize * 13) % 41,
            },
            cap_or(u64::MAX),
        );
    }

    /// End-to-end client story: a smart client writes through the
    /// routed path; the primary is killed mid-ship; the client's next
    /// reads transparently fail the node over and — holding LSN session
    /// tokens — still see every write it was acked, byte-exact.
    #[test]
    fn client_acked_writes_survive_primary_crash_mid_ship() {
        let _g = gate();
        quiet_crash_panics();
        let node =
            NodeStore::new(NodeId(0), MapEngine::shared()).with_replica_factory(MapEngine::shared);
        let group = Arc::new(CoordinatorGroup::bootstrap(1, vec![node]).unwrap());
        let client = ClusterClient::connect(group.clone());
        let handle = group.node(NodeId(0)).unwrap();
        let kill_at = 23;
        let plan = fault::arm("repl.ship", kill_at, FaultMode::Crash);
        let mut acked: Vec<u32> = Vec::new();
        for i in 0..64u32 {
            let result = catch_unwind(AssertUnwindSafe(|| client.put(key(i), val(i))));
            match result {
                Ok(Ok(())) => acked.push(i),
                Ok(Err(_)) => {}
                Err(payload) => {
                    if payload.downcast_ref::<CrashPoint>().is_none() {
                        std::panic::resume_unwind(payload);
                    }
                    break;
                }
            }
        }
        assert_eq!(
            acked.len() as u64,
            kill_at - 1,
            "crash hit the scripted ship"
        );
        assert!(
            client.session_token(NodeId(0)) > Lsn::NONE,
            "acked writes must have minted a session token"
        );
        handle.read().crash();
        drop(plan);
        // The first read triggers the client's transparent failover;
        // every acked write must satisfy the session token afterwards.
        for &i in &acked {
            assert_eq!(
                client.get(&key(i)).unwrap(),
                Some(val(i)),
                "client-acked write {i} lost across failover"
            );
        }
        let count = AtomicU64::new(0);
        for i in 0..64u32 {
            if client.get(&key(i)).unwrap().is_some() {
                count.fetch_add(1, Ordering::Relaxed);
            }
        }
        assert!(
            count.load(Ordering::Relaxed) >= acked.len() as u64,
            "failover lost acked keys"
        );
    }
}

// --- cache-tier torture ------------------------------------------------

/// The same enumeration over the cache tier's own files: a `TierBase`
/// with no storage tier (`InMemory`), its cache logged to `cache.wal`
/// (`PersistenceMode::Wal`) and its values compressed under trained
/// models. Every `(site, hit)` in
/// [`tierbase::store::CACHE_FAULT_SITES`] (the `cache.rdb` and
/// `cache.model.<g>` publishers) and the cache log's
/// `cache.wal.append.*` and `cache.wal.sync` × {crash, error, torn at
/// write sites} kills a script of puts, deletes, snapshots and
/// trainings, then reopens and checks:
///
/// * `open` succeeds, and no `*.tmp` file is left in the directory;
/// * every acknowledged write reads back byte-exact, and an
///   unacknowledged one resolves to a legal state;
/// * no value is coded under a model generation whose file was never
///   published: a retrain after the reopen takes the next free
///   generation, and every value still reads back the same after it.
mod cache_tier {
    use super::*;
    use tierbase::store::{
        CompressorChoice, PersistenceMode, TierBase, TierBaseConfig, CACHE_FAULT_SITES,
        CACHE_FAULT_WRITE_SITES,
    };

    /// The cache log's sites: `tb_lsm`'s `Wal` opened with
    /// `WalSites::CACHE`.
    const CACHE_WAL_SITES: [&str; 3] = [
        "cache.wal.append.header",
        "cache.wal.append.payload",
        "cache.wal.sync",
    ];

    enum Step {
        Kv(Vec<Op>),
        Snapshot,
        /// Trains the next model generation on samples of one shape.
        Train(u32),
    }

    /// Two model generations and two snapshots, with puts and deletes
    /// coded under each generation before and after each snapshot.
    fn cache_script() -> Vec<Step> {
        let puts = |keys: std::ops::Range<u32>, base: u32| keys.map(move |i| Op::Put(i, base + i));
        vec![
            Step::Train(0),
            Step::Kv(puts(0..12, 100).collect()),
            Step::Snapshot,
            Step::Kv(
                (0..12)
                    .step_by(3)
                    .map(Op::Delete)
                    .chain([Op::Sync])
                    .collect(),
            ),
            Step::Train(1),
            Step::Kv(puts(4..16, 300).chain([Op::Delete(5), Op::Sync]).collect()),
            Step::Snapshot,
            Step::Kv(puts(0..8, 600).collect()),
        ]
    }

    fn samples(shape: u32) -> Vec<Vec<u8>> {
        (0..64)
            .map(|i| val(shape * 1000 + i).as_slice().to_vec())
            .collect()
    }

    fn open(dir: &std::path::Path) -> tierbase::common::Result<TierBase> {
        TierBase::open(
            TierBaseConfig::builder(dir)
                .persistence(PersistenceMode::Wal)
                .compression(CompressorChoice::Tzstd)
                .build(),
        )
    }

    /// Runs the script against the store, tracking the model. Returns
    /// `true` when a simulated crash ended the run. A failed snapshot
    /// or training changes no key's state.
    fn run_cache_workload(store: &TierBase, steps: &[Step], model: &mut Model) -> bool {
        for step in steps {
            if fault::crash_fired().is_some() {
                return true;
            }
            let result = match step {
                Step::Kv(ops) => {
                    if run_workload(store, ops, model) {
                        return true;
                    }
                    continue;
                }
                Step::Snapshot => {
                    catch_unwind(AssertUnwindSafe(|| store.save_cache_snapshot().map(drop)))
                }
                Step::Train(shape) => catch_unwind(AssertUnwindSafe(|| {
                    store.train_compression(&samples(*shape))
                })),
            };
            if let Err(payload) = result {
                if payload.downcast_ref::<CrashPoint>().is_none() {
                    std::panic::resume_unwind(payload);
                }
                return true;
            }
        }
        fault::crash_fired().is_some()
    }

    fn tmp_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect()
    }

    fn run_cache_once(site: &'static str, hit: u64, mode: FaultMode) -> bool {
        let ctx = format!("cache:{site}#{hit}:{mode:?}");
        let dir = fresh_dir("cache");
        let mut model = Model::default();
        let plan;
        {
            let store = open(dir.path()).unwrap();
            plan = fault::arm(site, hit, mode);
            let crashed = run_cache_workload(&store, &cache_script(), &mut model);
            if !crashed && plan.fired() {
                model.verify(&store, &format!("{ctx}:live"));
            }
        }
        let fired = plan.fired();
        drop(plan);

        let store =
            open(dir.path()).unwrap_or_else(|e| panic!("[{ctx}] reopen after kill failed: {e}"));
        let left = tmp_files(dir.path());
        assert!(left.is_empty(), "[{ctx}] tmp files survived open: {left:?}");
        model.verify(&store, &ctx);
        store
            .train_compression(&samples(2))
            .unwrap_or_else(|e| panic!("[{ctx}] retrain after reopen failed: {e}"));
        model.verify(&store, &format!("{ctx}:retrained"));
        store.put(key(800), val(800)).unwrap();
        assert_eq!(store.get(&key(800)).unwrap(), Some(val(800)), "[{ctx}]");
        fired
    }

    fn enumerate_cache(sites: &[&'static str], mode_of: fn(u64) -> FaultMode, cap: u64) {
        quiet_crash_panics();
        for &site in sites {
            let mut fired_once = false;
            let mut hit = 1u64;
            loop {
                let fired = run_cache_once(site, hit, mode_of(hit));
                fired_once |= fired;
                if !fired || hit >= cap {
                    break;
                }
                hit += 1;
            }
            assert!(
                fired_once,
                "cache-tier fault site {site} was never reached by the workload"
            );
        }
    }

    fn all_sites() -> Vec<&'static str> {
        CACHE_FAULT_SITES
            .iter()
            .chain(&CACHE_WAL_SITES)
            .copied()
            .collect()
    }

    /// Coverage probe: one clean scripted run must hit every registered
    /// cache-tier fault site and the cache log's.
    #[test]
    fn cache_sites_all_reachable() {
        let _g = gate();
        let dir = fresh_dir("cache-probe");
        let store = open(dir.path()).unwrap();
        fault::set_counting(true);
        let mut model = Model::default();
        let crashed = run_cache_workload(&store, &cache_script(), &mut model);
        assert!(!crashed, "no injection armed, nothing may crash");
        for site in all_sites() {
            assert!(
                fault::hit_count(site) > 0,
                "registered cache-tier fault site {site} is dead code \
                 (hit counts: {:?})",
                fault::hit_counts()
            );
        }
        for &site in CACHE_FAULT_WRITE_SITES {
            assert!(
                CACHE_FAULT_SITES.contains(&site),
                "{site} missing from CACHE_FAULT_SITES"
            );
        }
        fault::set_counting(false);
        model.verify(&store, "cache-probe");
    }

    /// Simulated `kill -9` at every cache-tier `(site, hit)`.
    #[test]
    fn cache_crash_torture() {
        let _g = gate();
        enumerate_cache(&all_sites(), |_| FaultMode::Crash, cap_or(u64::MAX));
    }

    /// A transient error at every cache-tier `(site, hit)`: the store
    /// keeps serving every acknowledged write, and recovery stays clean.
    #[test]
    fn cache_error_torture() {
        let _g = gate();
        enumerate_cache(&all_sites(), |_| FaultMode::Error, cap_or(u64::MAX));
    }

    /// Torn writes at the snapshot's, the models' and the log's buffer
    /// writes.
    #[test]
    fn cache_torn_write_torture() {
        let _g = gate();
        let sites: Vec<_> = CACHE_FAULT_WRITE_SITES
            .iter()
            .copied()
            .chain(["cache.wal.append.payload"])
            .collect();
        enumerate_cache(
            &sites,
            |hit| FaultMode::Torn {
                keep: (hit as usize * 13) % 97,
            },
            cap_or(u64::MAX),
        );
    }
}

// --- exhaustive-schedule proptest --------------------------------------

mod schedules {
    use super::*;
    use proptest::prelude::*;

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0u32..20, any::<u32>()).prop_map(|(k, s)| Op::Put(k, s % 1000)),
            2 => (0u32..20).prop_map(Op::Delete),
            2 => (0u32..20).prop_map(Op::Get),
            2 => (0u32..20, any::<u32>()).prop_map(|(k, s)| Op::Cas(k, s % 1000)),
            1 => proptest::collection::vec((0u32..20, 0u32..1000), 1..6)
                .prop_map(Op::MultiPut),
            1 => (
                proptest::collection::vec((0u32..20, 0u32..1000), 0..4),
                proptest::collection::vec(0u32..20, 0..8),
            )
                .prop_map(|(writes, gets)| Op::Batch { writes, gets }),
            1 => Just(Op::Sync),
        ]
    }

    fn run_schedule(ops: &[Op], site: &'static str, hit: u64, mode: FaultMode) {
        let _g = gate();
        quiet_crash_panics();
        let dir = fresh_dir("sched");
        let mut model = Model::default();
        let plan;
        {
            let db = LsmDb::open(torture_config(dir.path())).unwrap();
            plan = fault::arm(site, hit, mode);
            run_workload(&db, ops, &mut model);
        }
        drop(plan);
        let db = LsmDb::open(torture_config(dir.path()))
            .unwrap_or_else(|e| panic!("[{site}#{hit}:{mode:?}] reopen failed: {e}"));
        model.verify(&db, &format!("sched:{site}#{hit}:{mode:?}"));
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 20,
            max_shrink_iters: 16,
            ..ProptestConfig::default()
        })]

        /// Arbitrary op schedules (which interleave flushes and
        /// compaction wherever the memtable threshold lands) killed at
        /// an arbitrary `(site, hit)` in an arbitrary mode must always
        /// recover to a legal state.
        #[test]
        fn arbitrary_schedule_survives_arbitrary_fault(
            ops in proptest::collection::vec(op_strategy(), 10..80),
            site_idx in 0usize..FAULT_SITES.len(),
            hit in 1u64..12,
            mode_sel in 0u8..3,
            keep in 0usize..80,
        ) {
            let mode = match mode_sel {
                0 => FaultMode::Error,
                1 => FaultMode::Crash,
                _ => FaultMode::Torn { keep },
            };
            run_schedule(&ops, FAULT_SITES[site_idx], hit, mode);
        }
    }
}
