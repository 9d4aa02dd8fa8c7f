//! `tb-benchmark run` and `tb-benchmark agree`; see `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use tb_benchmark::report;
use tb_benchmark::run::{run, Report, RunOptions};
use tb_benchmark::spec::{workload, WorkloadDef, RUN_SECONDS, WORKLOADS};
use tb_obs::json::Value;

const USAGE: &str = "\
usage: tb-benchmark run (--workload <name> | --all) [--seed <n>] [--seconds <n>]
                        [--trace <0|1>] [--smoke] [--data-dir <dir>]
                        [--trace-out <file.jsonl>] [--report <file.json>]
       tb-benchmark agree [--sets 2] [--runs <n>] [--seed <n>] [--seconds <n>]
                        [--data-dir <dir>]

run    prints one JSON object per workload as the last line(s) of stdout:
       the end-to-end metrics (--trace 0) or the per-layer metrics
       (--trace 1); exits non-zero if any reply was wrong.
agree  runs two sets of <n> untraced runs per workload, the sets taking
       turns, and compares their medians against each metric's bound;
       exits non-zero on a miss.
workloads: serve-hot tiered-skew lsm-ingest lsm-read lsm-scan";

struct Args {
    command: String,
    workloads: Vec<&'static WorkloadDef>,
    options: RunOptions,
    report: Option<PathBuf>,
    runs: u64,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        workloads: Vec::new(),
        options: RunOptions {
            seed: 1,
            seconds: RUN_SECONDS,
            trace: false,
            smoke: false,
            patience: Duration::ZERO,
            data_root: default_data_root()?,
            trace_out: None,
        },
        report: None,
        runs: 3,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads
                    .push(workload(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--all" => args.workloads = WORKLOADS.iter().collect(),
            "--seed" => args.options.seed = number(value()?)?,
            "--seconds" => args.options.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => args.options.trace = number(value()?)? != 0,
            "--smoke" => args.options.smoke = true,
            "--data-dir" => args.options.data_root = value()?.into(),
            "--trace-out" => args.options.trace_out = Some(value()?.into()),
            "--report" => args.report = Some(value()?.into()),
            "--runs" => args.runs = number(value()?)?.max(1),
            "--sets" => {
                if number(value()?)? != 2 {
                    return Err("agree compares exactly 2 sets".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // Fixed op counts are sized to last about --seconds; a phase that
    // takes three times that is on a machine too slow to compare with.
    args.options.patience = Duration::from_secs(args.options.seconds * 3);
    Ok(args)
}

/// `<target dir>/tb-benchmark-data`, next to the build that is running:
/// on the same filesystem as the checkout, never silently a tmpfs.
fn default_data_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    exe.parent()
        .and_then(|profile| profile.parent())
        .map(|target| target.join("tb-benchmark-data"))
        .ok_or_else(|| format!("{} has no target directory above it", exe.display()))
}

fn run_logged(def: &'static WorkloadDef, options: &RunOptions) -> Result<Report, String> {
    let report = run(def, options).map_err(|e| format!("{}: {e}", def.name))?;
    eprint!("{}", report::table(&report));
    Ok(report)
}

fn command_run(args: &Args) -> Result<bool, String> {
    if args.workloads.is_empty() {
        return Err("run needs --workload <name> or --all".into());
    }
    if args.options.trace_out.is_some() && args.workloads.len() > 1 {
        return Err("--trace-out holds one workload's spans; name one --workload".into());
    }
    let header = report::header(&args.options.data_root, args.options.seconds);
    eprintln!("# {header}");
    let mut reports = Vec::new();
    for def in &args.workloads {
        reports.push(run_logged(def, &args.options)?);
    }
    if let Some(path) = &args.report {
        let full = Value::obj([
            ("header".to_string(), header),
            (
                "runs".to_string(),
                Value::Arr(reports.iter().map(report::full).collect()),
            ),
        ]);
        std::fs::write(path, full.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for report in &reports {
        println!("{}", report::result_line(report));
    }
    Ok(reports.iter().all(|r| r.failed == 0))
}

fn command_agree(args: &Args) -> Result<bool, String> {
    let workloads: Vec<&'static WorkloadDef> = if args.workloads.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        args.workloads.clone()
    };
    println!(
        "# {}",
        report::header(&args.options.data_root, args.options.seconds)
    );
    println!(
        "# agree: 2 sets x {} runs taking turns, seeds from {}; worse_by = second set's median against the first's",
        args.runs, args.options.seed
    );
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "set1_median", "set2_median", "worse_by", "bound"
    );
    let mut all_hold = true;
    for def in workloads {
        // The sets take turns, and turns at going first: the sandbox's
        // speed drifts over minutes, and a drift must fall on both sets.
        let mut sets: [Vec<Report>; 2] = [Vec::new(), Vec::new()];
        for i in 0..args.runs {
            for turn in 0..2 {
                let set = ((i + turn) % 2) as usize;
                let options = RunOptions {
                    seed: args.options.seed + set as u64 * args.runs + i,
                    trace: false,
                    data_root: args.options.data_root.clone(),
                    trace_out: None,
                    ..args.options
                };
                sets[set].push(run_logged(def, &options)?);
            }
        }
        let failed: u64 = sets.iter().flatten().map(|r| r.failed).sum();
        all_hold &= failed == 0;
        for row in report::agreement(def.name, [&sets[0], &sets[1]]) {
            all_hold &= row.holds();
            let (bound, verdict) = match row.bound {
                None => ("-".to_string(), "no bound"),
                Some(bound) if row.holds() => (format!("{:.0}%", bound * 100.0), "ok"),
                Some(bound) => (format!("{:.0}%", bound * 100.0), "MISS"),
            };
            println!(
                "{:<12} {:<14} {:>14.4} {:>14.4} {:>+8.2}% {bound:>6}  {verdict}",
                row.workload,
                row.metric,
                row.medians[0],
                row.medians[1],
                row.worse_by * 100.0,
            );
        }
        if failed > 0 {
            println!("{:<12} {failed} ops failed  MISS", def.name);
        }
    }
    Ok(all_hold)
}

fn main() -> ExitCode {
    let outcome = parse(std::env::args().skip(1)).and_then(|args| match args.command.as_str() {
        "run" => command_run(&args),
        "agree" => command_agree(&args),
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("tb-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
