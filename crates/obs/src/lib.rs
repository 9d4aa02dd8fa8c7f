//! Unified telemetry for the TierBase workspace.
//!
//! One process-global [`Registry`] of named instruments — monotonic
//! [`Counter`]s, point-in-time [`Gauge`]s, and log-bucketed latency
//! [`Histo`]grams (the concurrent [`tb_common::Histogram`] underneath,
//! with p50/p95/p99/p999 extraction) — plus one process-global
//! [`Tracer`]: a fixed-size ring of timestamped begin/end events with a
//! configurable slow-op threshold that captures the full event timeline
//! of an op that crossed it.
//!
//! Every layer records into the same registry, so a single
//! [`Registry::snapshot`] call covers the whole system — front-end
//! queue waits, LSM flush/compaction/WAL-sync durations, cluster
//! fan-out latencies, and the per-layer counter structs that register
//! themselves as snapshot *sources*. The snapshot renders as
//! Prometheus-style text exposition ([`MetricsSnapshot::to_prometheus`])
//! or serde-free JSON ([`MetricsSnapshot::to_json`]).
//!
//! # Cost discipline
//!
//! The same contract `tb_common::fault` proved out: **the disabled path
//! costs one relaxed atomic load per site.** [`start`] returns `None`
//! without touching a clock when telemetry is off, recording into a
//! disabled instrument is a single load-and-branch, and [`Tracer::span`]
//! returns `None` before allocating an op id. Telemetry defaults to
//! *on*; [`set_enabled`] flips the whole subsystem with one store.
//!
//! # Instrument handles
//!
//! Hot paths cache instrument handles in per-site statics via the
//! [`counter!`], [`gauge!`], and [`histo!`] macros — the registry mutex
//! is paid once per site per process, after which a record is a couple
//! of relaxed atomic ops on the shared instrument.

#![deny(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{
    validate_exposition, Counter, Gauge, Histo, HistogramSnapshot, MetricsSnapshot, Registry,
    SnapshotBuilder, SourceGuard,
};
pub use trace::{ActiveSpan, EventKind, SlowOp, TraceEvent, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide telemetry gate. Defaults to enabled.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry is recording. One relaxed load — the only cost a
/// disabled site pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the whole telemetry subsystem on or off. Instruments keep
/// their accumulated state across a disable window; recording simply
/// stops.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Starts timing a site: `Some(now)` when telemetry is on, `None` (no
/// clock read) when off. Pair with [`Histo::record_since`], which
/// no-ops on `None` — so a disabled timed site costs exactly this one
/// relaxed load.
#[inline]
pub fn start() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// The process-global metrics registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// The process-global event tracer.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// A per-call-site cached [`Counter`] handle from the global registry.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// A per-call-site cached [`Gauge`] handle from the global registry.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Gauge>> =
            std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// A per-call-site cached [`Histo`] handle from the global registry.
#[macro_export]
macro_rules! histo {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Histo>> =
            std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}
