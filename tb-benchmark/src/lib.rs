//! `tb-benchmark`: the served-stack benchmark `BENCHMARK.json` declares.
//! See `README.md` in this directory for the metric definitions.

pub mod layers;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod run;
pub mod spec;
pub mod stack;
pub mod sysinfo;
pub mod trace;
