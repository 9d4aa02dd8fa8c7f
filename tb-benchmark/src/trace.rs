//! Spans recorded from outside the program: around the generator's
//! `ServerClient::apply_batch` and, through [`Traced`], at the two
//! `Arc<dyn KvEngine>` seams of the served stack. One burst is in
//! flight at a time, so the burst id and the open span of each layer
//! are process-global; spans stay in memory until the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tb_common::{BatchReadStats, EngineOp, Key, KvEngine, Lsn, OpOutcome, Result, Value};

/// Where a span was recorded. The caller of a layer is the layer above
/// it: client → frontend seam → engine seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The generator, around one pipelined burst on the socket.
    Client,
    /// Between `Server` and `Frontend`.
    Frontend,
    /// Between `Frontend` and the engine.
    Engine,
}

impl Layer {
    fn as_str(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Frontend => "frontend",
            Layer::Engine => "engine",
        }
    }
}

/// One finished span. `parent` is the id of the span open in the layer
/// above when this one started (0 for client spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub burst: u64,
    pub layer: Layer,
    pub method: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started but not ended (its `end_ns` and `thread` are
/// filled in by [`SpanSink::exit`]).
pub struct OpenSpan(Span);

/// In-memory span store shared by the generator and both shims.
pub struct SpanSink {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    burst: AtomicU64,
    /// Id of the span most recently opened by the client / at the
    /// front-end seam: the parent of whatever the layer below opens.
    open_client: AtomicU64,
    open_frontend: AtomicU64,
}

impl Default for SpanSink {
    fn default() -> Self {
        Self::new()
    }
}

fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ORDINAL.with(|o| *o)
}

impl SpanSink {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            burst: AtomicU64::new(0),
            open_client: AtomicU64::new(0),
            open_frontend: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next burst and opens the generator's span around it.
    pub fn begin_burst(&self) -> OpenSpan {
        self.burst.fetch_add(1, Ordering::SeqCst);
        self.enter(Layer::Client, "burst")
    }

    pub fn enter(&self, layer: Layer, method: &'static str) -> OpenSpan {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let parent = match layer {
            Layer::Client => {
                self.open_client.store(id, Ordering::SeqCst);
                0
            }
            Layer::Frontend => {
                self.open_frontend.store(id, Ordering::SeqCst);
                self.open_client.load(Ordering::SeqCst)
            }
            Layer::Engine => self.open_frontend.load(Ordering::SeqCst),
        };
        let start_ns = self.now_ns();
        OpenSpan(Span {
            id,
            parent,
            burst: self.burst.load(Ordering::SeqCst),
            layer,
            method,
            start_ns,
            end_ns: start_ns,
            thread: 0,
        })
    }

    pub fn exit(&self, OpenSpan(mut span): OpenSpan) {
        span.end_ns = self.now_ns();
        span.thread = thread_ordinal();
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .clone()
    }
}

/// Writes spans as JSON lines (`--trace-out`).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"burst\":{},\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.id,
            s.parent,
            s.burst,
            s.layer.as_str(),
            s.method,
            s.start_ns,
            s.end_ns,
            s.thread
        )?;
    }
    out.flush()
}

/// Total length covered by `intervals` (which may overlap), each first
/// clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of every span, aligned with `spans`: its duration minus
/// the part of that interval its children (spans naming it as parent,
/// on whatever thread, overlapping or not) cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            s.duration_ns() - covered
        })
        .collect()
}

/// A [`KvEngine`] that forwards every trait method to `inner` and
/// records a span around each call that does work. The provided methods
/// are forwarded too: the trait's defaults lower onto each other, so a
/// missed override would turn one inner `apply_batch` into a per-op
/// loop through this shim.
pub struct Traced<E: KvEngine + ?Sized> {
    inner: Arc<E>,
    layer: Layer,
    sink: Arc<SpanSink>,
}

impl<E: KvEngine + ?Sized> Traced<E> {
    pub fn new(inner: Arc<E>, layer: Layer, sink: Arc<SpanSink>) -> Self {
        Self { inner, layer, sink }
    }

    fn span<T>(&self, method: &'static str, call: impl FnOnce(&E) -> T) -> T {
        let open = self.sink.enter(self.layer, method);
        let out = call(&self.inner);
        self.sink.exit(open);
        out
    }
}

impl<E: KvEngine + ?Sized> KvEngine for Traced<E> {
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        self.span("get", |e| e.get(key))
    }

    fn put(&self, key: Key, value: Value) -> Result<()> {
        self.span("put", |e| e.put(key, value))
    }

    fn delete(&self, key: &Key) -> Result<()> {
        self.span("delete", |e| e.delete(key))
    }

    fn sync(&self) -> Result<()> {
        self.span("sync", |e| e.sync())
    }

    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        self.span("multi_get", |e| e.multi_get(keys))
    }

    fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<()> {
        self.span("multi_put", |e| e.multi_put(pairs))
    }

    fn scan(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<Vec<(Key, Value)>> {
        self.span("scan", |e| e.scan(start, end, limit))
    }

    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        self.span("apply_batch", |e| e.apply_batch(ops))
    }

    fn cas(&self, key: Key, expected: Option<&Value>, new: Value) -> Result<()> {
        self.span("cas", |e| e.cas(key, expected, new))
    }

    // Accessors: forwarded, no span (they do no work worth timing).

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn batch_read_stats(&self) -> BatchReadStats {
        self.inner.batch_read_stats()
    }

    fn applied_lsn(&self) -> Lsn {
        self.inner.applied_lsn()
    }
}
