//! Rendering: the machine header, the one-line result the driver reads,
//! the full report kept under `results/`, and the `agree` comparison.

use crate::layers::{median, Metrics};
use crate::run::Report;
use crate::spec::{Better, END_TO_END, PER_LAYER, TIMINGS};
use crate::sysinfo;
use std::path::Path;
use tb_obs::json::Value;

fn num(n: f64) -> Value {
    Value::Num(n)
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Where and on what the numbers were taken. Data fits the OS page
/// cache and the cores are shared, so every latency is this sandbox's,
/// not a device's.
pub fn header(data_root: &Path, seconds: u64) -> Value {
    Value::obj([
        ("commit".to_string(), text(sysinfo::commit())),
        ("kernel".to_string(), text(sysinfo::kernel())),
        ("nproc".to_string(), num(sysinfo::nproc() as f64)),
        ("data_dir".to_string(), text(data_root.display().to_string())),
        ("data_dir_fs".to_string(), text(sysinfo::fs_type(data_root))),
        ("seconds".to_string(), num(seconds as f64)),
        (
            "caveat".to_string(),
            text("data fits the OS page cache and cores are shared: latencies and fsync cost are this sandbox's, not a device's"),
        ),
    ])
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
        .expect("only declared metrics are reported")
}

fn metrics_object(metrics: &Metrics) -> Value {
    Value::obj(metrics.iter().map(|&(name, value)| {
        (
            name.to_string(),
            Value::obj([
                ("value".to_string(), num(value)),
                ("unit".to_string(), text(unit_of(name))),
            ]),
        )
    }))
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` — the end-to-end metrics of an untraced run, the per-layer
/// metrics of a traced one.
pub fn result_line(report: &Report) -> String {
    let metrics = if report.per_layer.is_empty() {
        &report.end_to_end
    } else {
        &report.per_layer
    };
    Value::obj([
        ("correct".to_string(), Value::Bool(report.failed == 0)),
        ("attempted".to_string(), num(report.attempted as f64)),
        ("failed".to_string(), num(report.failed as f64)),
        ("metrics".to_string(), metrics_object(metrics)),
    ])
    .to_string()
}

/// The per-layer metrics a run has: all of them if it traced, else the
/// timed phase's timings.
fn shown_layers(report: &Report) -> &Metrics {
    if report.per_layer.is_empty() {
        &report.timings
    } else {
        &report.per_layer
    }
}

/// Everything one run measured, for `--report`.
pub fn full(report: &Report) -> Value {
    Value::obj([
        ("workload".to_string(), text(report.workload)),
        ("seed".to_string(), num(report.seed as f64)),
        ("records".to_string(), num(report.records as f64)),
        ("timed_ops".to_string(), num(report.timed_ops as f64)),
        ("ops_attempted".to_string(), num(report.attempted as f64)),
        ("ops_failed".to_string(), num(report.failed as f64)),
        ("end_to_end".to_string(), metrics_object(&report.end_to_end)),
        (
            "per_layer".to_string(),
            metrics_object(shown_layers(report)),
        ),
    ])
}

/// A human-readable table of one run, for stderr.
pub fn table(report: &Report) -> String {
    let mut out = format!(
        "== {} seed={} records={} timed_ops={} attempted={} failed={}\n",
        report.workload,
        report.seed,
        report.records,
        report.timed_ops,
        report.attempted,
        report.failed
    );
    for (name, value) in report.end_to_end.iter().chain(shown_layers(report)) {
        out.push_str(&format!("  {name:<34} {value:>14.4} {}\n", unit_of(name)));
    }
    out
}

/// One row of `agree`: a metric's median in each of two sets of runs.
pub struct Agreement {
    pub workload: &'static str,
    pub metric: &'static str,
    pub medians: [f64; 2],
    /// How much worse the second set's median is than the first's, as a
    /// share of the first (negative = better).
    pub worse_by: f64,
    /// `None` for the timings, which are compared but carry no bound.
    pub bound: Option<f64>,
}

impl Agreement {
    /// Which set ran first is an accident, so better by more than the
    /// bound is a miss too.
    pub fn holds(&self) -> bool {
        self.bound.is_none_or(|bound| self.worse_by.abs() <= bound)
    }
}

/// Compares two sets of runs of one workload: every end-to-end metric
/// against its bound, then the timed phase's timings for the record.
pub fn agreement(workload: &'static str, sets: [&[Report]; 2]) -> Vec<Agreement> {
    let bounded = END_TO_END.iter().map(|m| (m.name, m.better, Some(m.bound)));
    let timings = PER_LAYER[..TIMINGS]
        .iter()
        .map(|m| (m.name, m.better, None));
    bounded
        .chain(timings)
        .map(|(metric, better, bound)| {
            let medians = sets.map(|set| {
                let mut values: Vec<f64> = set
                    .iter()
                    .flat_map(|r| r.end_to_end.iter().chain(&r.timings))
                    .filter(|(name, _)| *name == metric)
                    .map(|&(_, value)| value)
                    .collect();
                median(&mut values)
            });
            let change = (medians[1] - medians[0]) / medians[0];
            Agreement {
                workload,
                metric,
                medians,
                worse_by: match better {
                    Better::Lower => change,
                    Better::Higher => -change,
                },
                bound,
            }
        })
        .collect()
}
