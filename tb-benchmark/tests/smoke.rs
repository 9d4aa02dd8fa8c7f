//! `run --all --smoke --trace 1` end to end, and `BENCHMARK.json` held
//! equal to what the code declares and emits.

use std::path::Path;
use std::time::Duration;
use tb_benchmark::run::{run, RunOptions};
use tb_benchmark::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, TIMINGS, WORKLOADS};
use tb_obs::json::{parse, Value};

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{entry:?} has no string `{key}`"))
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no array `{key}`"))
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_does() {
    let doc = declared();
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS as f64)
    );

    let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let coded: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, coded);

    let end_to_end: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect();
    let coded: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
        .collect();
    assert_eq!(end_to_end, coded);

    let per_layer: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let coded: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .collect();
    assert_eq!(per_layer, coded);

    for name in workloads
        .iter()
        .map(|w| w.0)
        .chain(end_to_end.iter().map(|m| m.0))
        .chain(per_layer.iter().map(|m| m.0))
    {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}: names use only letters, digits, `_`, `.` and `-`"
        );
    }
}

#[test]
fn a_phase_that_runs_out_of_patience_fails_the_run() {
    let data_root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("impatient");
    let options = RunOptions {
        seed: 7,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: true,
        patience: Duration::ZERO,
        data_root: data_root.clone(),
        trace_out: None,
    };
    let error = match run(&WORKLOADS[0], &options) {
        Ok(report) => panic!(
            "a run short of its op count reported {:?}",
            report.end_to_end
        ),
        Err(error) => error.to_string(),
    };
    assert!(error.contains("gave up"), "{error}");
    let left_behind = std::fs::read_dir(&data_root).map_or(0, Iterator::count);
    assert_eq!(left_behind, 0, "a failed run removes its data directory");
}

#[test]
fn every_workload_runs_traced_without_a_failed_op() {
    for def in &WORKLOADS {
        let options = RunOptions {
            seed: 7,
            seconds: RUN_SECONDS,
            trace: true,
            smoke: true,
            patience: Duration::from_secs(60),
            data_root: Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
            trace_out: None,
        };
        let report = run(def, &options).unwrap_or_else(|e| panic!("{}: {e}", def.name));
        assert!(report.attempted > 0, "{}", def.name);
        assert_eq!(report.failed, 0, "{}: every reply checks out", def.name);

        let emitted: Vec<&str> = report.end_to_end.iter().map(|m| m.0).collect();
        let coded: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(emitted, coded, "{}", def.name);
        let emitted: Vec<&str> = report.per_layer.iter().map(|m| m.0).collect();
        let coded: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(emitted, coded, "{}", def.name);

        for (name, value) in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(value.is_finite(), "{}: {name} = {value}", def.name);
        }
        for (name, value) in report.end_to_end.iter().chain(&report.timings) {
            assert!(*value > 0.0, "{}: {name} is never 0", def.name);
        }
        assert_eq!(report.timings, report.per_layer[..TIMINGS], "{}", def.name);
        let layer = |name: &str| {
            report
                .per_layer
                .iter()
                .find(|m| m.0 == name)
                .map_or(f64::NAN, |m| m.1)
        };
        let accounted = layer("server.self_share")
            + layer("frontend.self_share")
            + layer("engine.apply_share")
            + layer("engine.sync_share");
        assert!(
            (accounted - 1.0).abs() < 0.05,
            "{}: the four layer shares account for the burst, got {accounted}",
            def.name
        );
    }
}
