//! One benchmark run: set-up → timed → traced → verify.

use crate::layers::{self, Metrics};
use crate::oracle::Generator;
use crate::spec::{WorkloadDef, LOAD_BURST, PER_LAYER, PIPELINE_DEPTH};
use crate::stack::{open_engine, Stack};
use crate::trace::{self, SpanSink};
use crate::{probes, sysinfo};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_common::{EngineOp, Error, KvEngine, Result};

pub struct RunOptions {
    pub seed: u64,
    /// Nominal length of the timed phase (it measures
    /// `ops_per_second * seconds` operations, see [`WorkloadDef`]).
    pub seconds: u64,
    /// Also run the traced phase and the probes, and report per-layer
    /// metrics.
    pub trace: bool,
    pub smoke: bool,
    /// How long one phase may take before the run is abandoned.
    pub patience: Duration,
    /// Parent of the run's data directory.
    pub data_root: PathBuf,
    /// Where to write the traced phase's spans as JSON lines.
    pub trace_out: Option<PathBuf>,
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub records: u64,
    pub timed_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    /// `ops_per_s`, `burst_p50_us`, `cpu_us_per_op` of the timed phase:
    /// measured by every run, declared as per-layer diagnostics.
    pub timings: Metrics,
    /// Every per-layer metric, `timings` first; empty unless the run
    /// traced.
    pub per_layer: Metrics,
}

/// A loaded, warmed-up stack and the generator that fed it.
struct Bench {
    dir: PathBuf,
    engine: Arc<dyn KvEngine>,
    stack: Stack,
    generator: Generator,
}

/// What one driven phase measured.
struct Phase {
    ops: u64,
    wall: Duration,
    cpu_s: f64,
    bursts_ns: Vec<u64>,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// Sends one burst, checks its replies, returns its round-trip time.
fn exchange(
    stack: &Stack,
    generator: &mut Generator,
    ops: Vec<EngineOp>,
    sink: Option<&SpanSink>,
) -> Duration {
    let sent = ops.clone();
    let span = sink.map(SpanSink::begin_burst);
    let start = Instant::now();
    let replies = stack.client.apply_batch(ops);
    let took = start.elapsed();
    if let (Some(sink), Some(span)) = (sink, span) {
        sink.exit(span);
    }
    generator.check(sent, replies);
    took
}

/// Closed loop, one connection, pipeline depth 16: the next burst
/// leaves when the previous one's replies are all in. Runs exactly `ops`
/// operations. A phase still short of them at `give_up` is an error, not
/// a shorter measurement: a run on a much slower machine ends, and says
/// so, instead of reporting numbers from an op count nobody planned.
fn drive(
    stack: &Stack,
    generator: &mut Generator,
    ops: u64,
    give_up: Instant,
    sink: Option<&SpanSink>,
) -> Result<Phase> {
    let mut bursts_ns = Vec::with_capacity(ops as usize / PIPELINE_DEPTH);
    let cpu0 = sysinfo::cpu_seconds();
    let start = Instant::now();
    let mut done = 0;
    while done < ops {
        if Instant::now() >= give_up {
            return Err(Error::Unavailable(format!(
                "gave up a phase after {done} of {ops} ops ({:.1} s)",
                start.elapsed().as_secs_f64()
            )));
        }
        let burst = generator.next_burst(PIPELINE_DEPTH);
        done += burst.len() as u64;
        bursts_ns.push(exchange(stack, generator, burst, sink).as_nanos() as u64);
    }
    Ok(Phase {
        ops: done,
        wall: start.elapsed(),
        cpu_s: sysinfo::cpu_seconds() - cpu0,
        bursts_ns,
    })
}

/// Forces the engine durable through the socket; a failed sync is a
/// failed op.
fn sync(stack: &Stack, generator: &mut Generator) {
    generator.attempted += 1;
    generator.failed += u64::from(stack.client.sync().is_err());
}

/// Set-up phase: open the engine, load the records through the socket
/// in bursts of 256, then run 1/20 of the timed op count as warm-up.
fn set_up(
    def: &WorkloadDef,
    records: u64,
    timed_ops: u64,
    seed: u64,
    dir: PathBuf,
    give_up: Instant,
) -> Result<(Bench, f64)> {
    let start = Instant::now();
    std::fs::create_dir_all(&dir)?;
    let engine = open_engine(def.engine, &dir.join("db"))?;
    let stack = Stack::start(engine.clone(), &dir, None)?;
    let mut generator = Generator::new(def.stream_spec(records, seed));
    for burst in generator.load_ops().chunks(LOAD_BURST) {
        exchange(&stack, &mut generator, burst.to_vec(), None);
    }
    drive(&stack, &mut generator, timed_ops / 20, give_up, None)?;
    let bench = Bench {
        dir,
        engine,
        stack,
        generator,
    };
    Ok((bench, start.elapsed().as_secs_f64()))
}

/// The traced phase: server and front-end restart over the same engine
/// with the shims in place, and the next `timed_ops / 5` operations run
/// through them. Gives every per-layer metric that is read off spans,
/// `tb-obs` deltas, the generator's bursts and `/proc`.
fn traced_phase(
    bench: Bench,
    timed: &Phase,
    obs_run_start: &tb_obs::MetricsSnapshot,
    give_up: Instant,
    trace_out: Option<&Path>,
) -> Result<(Bench, Metrics)> {
    let sink = Arc::new(SpanSink::new());
    bench.stack.stop();
    let mut bench = Bench {
        stack: Stack::start(bench.engine.clone(), &bench.dir, Some(&sink))?,
        ..bench
    };
    layers::reset_histograms(&layers::TRACED_PHASE_HISTOGRAMS);
    let obs_before = tb_obs::global().snapshot();
    let switches_before = sysinfo::context_switches();
    let traced = drive(
        &bench.stack,
        &mut bench.generator,
        timed.ops / 5,
        give_up,
        Some(&sink),
    )?;
    let switches = sysinfo::context_switches().saturating_sub(switches_before);
    let obs_after = tb_obs::global().snapshot();
    let spans = sink.spans();
    if let Some(path) = trace_out {
        trace::write_jsonl(&spans, path)?;
    }
    let mut metrics = layers::client_metrics(
        &timed.bursts_ns,
        timed.wall.as_secs_f64(),
        &traced.bursts_ns,
    );
    metrics.extend(layers::span_metrics(&spans));
    metrics.extend(layers::obs_metrics(
        obs_run_start,
        &obs_before,
        &obs_after,
        traced.ops,
        bench.generator.attempted,
        bench.generator.bytes_written,
    ));
    metrics.push((
        "proc.ctx_switches_per_kop",
        switches as f64 * 1e3 / traced.ops as f64,
    ));
    metrics.push(("proc.peak_rss_mib", sysinfo::peak_rss_mib()));
    sync(&bench.stack, &mut bench.generator);
    Ok((bench, metrics))
}

/// The verify phase: with everything synced, stop the stack, drop the
/// engine, reopen it from its directory and read every record of the
/// oracle back. Gives the metrics only this phase can see.
fn verify(bench: Bench, def: &WorkloadDef) -> Result<(Generator, Metrics)> {
    let Bench {
        dir,
        engine,
        stack,
        mut generator,
    } = bench;
    let db_dir = dir.join("db");
    let on_disk = sysinfo::dir_bytes(&db_dir) as f64 / generator.live_bytes() as f64;
    stack.stop();
    drop(engine);
    let mut reopen_ms = 0.0;
    if def.engine.survives_reopen() {
        let start = Instant::now();
        let reopened = open_engine(def.engine, &db_dir)?;
        reopen_ms = start.elapsed().as_secs_f64() * 1e3;
        generator.verify_against(reopened.as_ref());
    }
    let metrics = vec![
        ("lsm.dir_bytes_per_user_byte", on_disk),
        ("engine.reopen_ms", reopen_ms),
    ];
    Ok((generator, metrics))
}

/// One run in a data directory of its own (the pid keeps concurrent
/// runs apart), which is removed whether the run ends well or not.
pub fn run(def: &'static WorkloadDef, options: &RunOptions) -> Result<Report> {
    let dir = options.data_root.join(format!(
        "{}-{}-{}",
        def.name,
        options.seed,
        std::process::id()
    ));
    let report = measure(def, options, &dir);
    let removed = std::fs::remove_dir_all(&dir);
    let report = report?;
    removed?;
    Ok(report)
}

fn measure(def: &'static WorkloadDef, options: &RunOptions, dir: &Path) -> Result<Report> {
    let (records, timed_ops) = def.sizes(options.seconds, options.smoke);
    let patience = options.patience;
    sysinfo::reset_peak_rss();
    layers::reset_histograms(&layers::WHOLE_RUN_HISTOGRAMS);
    let obs_run_start = tb_obs::global().snapshot();

    let give_up = Instant::now() + patience;
    let (mut bench, setup_s) = set_up(
        def,
        records,
        timed_ops,
        options.seed,
        dir.to_path_buf(),
        give_up,
    )?;

    // Timed: shims absent. `space_amp` and the stack's own timings.
    let timed = drive(
        &bench.stack,
        &mut bench.generator,
        timed_ops,
        Instant::now() + patience,
        None,
    )?;
    sync(&bench.stack, &mut bench.generator);
    let resident = bench.engine.resident_bytes();
    let mut sorted = timed.bursts_ns.clone();
    sorted.sort_unstable();
    let end_to_end = vec![
        ("setup_s", setup_s),
        (
            "space_amp",
            resident as f64 / bench.generator.live_bytes() as f64,
        ),
    ];
    let timings = vec![
        ("ops_per_s", timed.ops_per_s()),
        (
            "burst_p50_us",
            layers::percentile(&sorted, 0.5) as f64 / 1e3,
        ),
        ("cpu_us_per_op", timed.cpu_s * 1e6 / timed.ops as f64),
    ];

    let mut layer_values = timings.clone();
    if options.trace {
        let traced;
        (bench, traced) = traced_phase(
            bench,
            &timed,
            &obs_run_start,
            Instant::now() + patience,
            options.trace_out.as_deref(),
        )?;
        layer_values.extend(traced);
    }
    let (generator, seen_at_restart) = verify(bench, def)?;

    let mut per_layer = Vec::new();
    if options.trace {
        layer_values.extend(seen_at_restart);
        // Probes last: they share nothing with the stack but the data dir.
        let mut sample = Generator::new(def.stream_spec(records, options.seed));
        let loaded = sample.load_ops();
        let stream = sample.next_burst(4096);
        layer_values.extend(probes::run(def.name, &loaded, &stream, dir)?);
        let mut found: HashMap<&str, f64> = layer_values.into_iter().collect();
        for metric in PER_LAYER {
            let value = found
                .remove(metric.name)
                .unwrap_or_else(|| panic!("{} was never computed", metric.name));
            per_layer.push((metric.name, value));
        }
        assert!(found.is_empty(), "undeclared metrics computed: {found:?}");
    }

    Ok(Report {
        workload: def.name,
        seed: options.seed,
        records,
        timed_ops,
        attempted: generator.attempted,
        failed: generator.failed,
        end_to_end,
        timings,
        per_layer,
    })
}
