//! What the benchmark reads about its own process and machine, all from
//! `/proc` (Linux only, like the Unix-socket server it drives).

use std::path::Path;

fn read(path: impl AsRef<Path>) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU seconds the process has consumed so far, user + system, threads
/// that have exited included: `utime + stime` of `/proc/self/stat`, in
/// clock ticks of 10 ms (`USER_HZ` = 100). The kernel splits its exact
/// per-thread run times into the two, so their sum is only rounded, not
/// sampled. Panics where there is no such file: a benchmark that cannot
/// read its CPU time has no `cpu_us_per_op` to report.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields 14 and 15 of the line; the command name (field 2) may hold
    // spaces, so count from its closing parenthesis.
    let ticks: Vec<u64> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse().ok())
        .collect();
    assert!(ticks.len() == 2, "/proc/self/stat has no utime and stime");
    (ticks[0] + ticks[1]) as f64 / 100.0
}

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM") as f64 / 1024.0
}

/// Resets `VmHWM` to the current resident size, so a process that runs
/// several workloads reports each one's own peak. Best effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Voluntary + involuntary context switches of every live thread.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| {
            let status = read(task.path().join("status"));
            status_field(&status, "voluntary_ctxt_switches")
                + status_field(&status, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/self/mountinfo")
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?;
            let fs = right.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

pub fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").trim().to_string()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory;
/// "unknown" in a checkout that is not a git repository.
pub fn commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => {
            let loose = read(Path::new(".git").join(reference));
            if loose.trim().is_empty() {
                read(".git/packed-refs")
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
                    .unwrap_or_default()
            } else {
                loose.trim().to_string()
            }
        }
    };
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.chars().take(12).collect()
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) if m.is_file() => m.len(),
            _ => 0,
        })
        .sum()
}
