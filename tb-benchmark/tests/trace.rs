//! The tracing shim forwards everything, and the span arithmetic adds up.

use std::path::Path;
use std::sync::Arc;
use tb_benchmark::layers::span_metrics;
use tb_benchmark::spec::EngineKind;
use tb_benchmark::stack::open_engine;
use tb_benchmark::trace::{covered_ns, self_times_ns, Layer, Span, SpanSink, Traced};
use tb_common::{EngineOp, Error, Key, KvEngine, Value};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn k(i: u32) -> Key {
    Key::from(format!("key{i:04}"))
}

fn v(s: &str) -> Value {
    Value::from(s)
}

/// Drives every `KvEngine` method once or more and renders each reply,
/// so two engines can be compared byte for byte.
fn mixed_schedule(engine: &dyn KvEngine) -> Vec<String> {
    let mut log = Vec::new();
    let mut say = |what: &str, reply: String| log.push(format!("{what}: {reply}"));
    for i in 0..40 {
        say(
            "put",
            format!("{:?}", engine.put(k(i), v(&format!("v{i}")))),
        );
    }
    say("get hit", format!("{:?}", engine.get(&k(7))));
    say("get miss", format!("{:?}", engine.get(&k(999))));
    say("delete", format!("{:?}", engine.delete(&k(8))));
    say(
        "multi_put",
        format!(
            "{:?}",
            engine.multi_put(vec![(k(100), v("a")), (k(101), v("b"))])
        ),
    );
    say(
        "multi_get",
        format!("{:?}", engine.multi_get(&[k(100), k(8), k(101), k(3)])),
    );
    say("scan", format!("{:?}", engine.scan(&k(5), Some(&k(12)), 4)));
    say(
        "cas ok",
        format!("{:?}", engine.cas(k(7), Some(&v("v7")), v("seven"))),
    );
    let mismatch = engine.cas(k(7), Some(&v("v7")), v("again"));
    assert_eq!(mismatch, Err(Error::CasMismatch));
    say("cas mismatch", format!("{mismatch:?}"));
    say(
        "apply_batch",
        format!(
            "{:?}",
            engine.apply_batch(vec![
                EngineOp::Get(k(7)),
                EngineOp::Put(k(7), v("batched")),
                EngineOp::Get(k(7)),
                EngineOp::MultiGet(vec![k(1), k(8)]),
                EngineOp::MultiPut(vec![(k(200), v("x")), (k(201), v("y"))]),
                EngineOp::Delete(k(1)),
                EngineOp::Cas {
                    key: k(2),
                    expected: None,
                    new: v("no"),
                },
                EngineOp::Scan {
                    start: k(0),
                    end: None,
                    limit: 5,
                },
            ])
        ),
    );
    say("sync", format!("{:?}", engine.sync()));
    say("applied_lsn", format!("{:?}", engine.applied_lsn()));
    say(
        "batch_read_stats",
        format!("{:?}", engine.batch_read_stats()),
    );
    say("resident_bytes", format!("{}", engine.resident_bytes()));
    say("label", engine.label());
    log
}

#[test]
fn traced_forwards_every_method_with_identical_replies() {
    let kinds = [
        (
            "lsm",
            EngineKind::Lsm {
                memtable_bytes: 1 << 20,
            },
        ),
        (
            "tier",
            EngineKind::TierWriteBack {
                cache_bytes: 1 << 20,
                max_dirty_bytes: 64 << 10,
            },
        ),
    ];
    for (tag, kind) in kinds {
        let plain = open_engine(kind, &scratch(&format!("shim-{tag}-plain"))).unwrap();
        let wrapped = open_engine(kind, &scratch(&format!("shim-{tag}-traced"))).unwrap();
        let sink = Arc::new(SpanSink::new());
        let traced = Traced::new(wrapped, Layer::Engine, sink.clone());

        assert_eq!(
            mixed_schedule(plain.as_ref()),
            mixed_schedule(&traced),
            "{tag}: a traced engine must answer exactly like a bare one"
        );

        // One span per call that does work and none for accessors: a
        // provided method left to the trait's default would show up as
        // a fan-out of point spans (or recurse forever).
        let mut calls: Vec<&str> = sink.spans().iter().map(|s| s.method).collect();
        calls.sort_unstable();
        let mut expected = vec!["put"; 40];
        expected.extend([
            "get",
            "get",
            "delete",
            "multi_put",
            "multi_get",
            "scan",
            "cas",
            "cas",
            "apply_batch",
            "sync",
        ]);
        expected.sort_unstable();
        assert_eq!(calls, expected, "{tag}");
    }
}

fn span(
    id: u64,
    parent: u64,
    layer: Layer,
    method: &'static str,
    at: (u64, u64),
    thread: u64,
) -> Span {
    Span {
        id,
        parent,
        burst: 1,
        layer,
        method,
        start_ns: at.0,
        end_ns: at.1,
        thread,
    }
}

#[test]
fn self_time_of_childless_threaded_and_overlapping_children() {
    let spans = [
        // A parent on thread 1 whose children ran on threads 2 and 3,
        // apart from each other.
        span(1, 0, Layer::Client, "burst", (0, 100), 1),
        span(2, 1, Layer::Frontend, "apply_batch", (10, 30), 2),
        span(3, 1, Layer::Frontend, "apply_batch", (50, 70), 3),
        // A parent whose children overlap (two shard workers): the
        // doubly covered stretch 30..50 counts once.
        span(4, 0, Layer::Client, "burst", (1000, 1100), 1),
        span(5, 4, Layer::Frontend, "apply_batch", (1010, 1050), 2),
        span(6, 4, Layer::Frontend, "apply_batch", (1030, 1080), 3),
        // A child that outlives its parent is clipped to it.
        span(7, 0, Layer::Client, "burst", (2000, 2100), 1),
        span(8, 7, Layer::Frontend, "apply_batch", (2090, 2150), 2),
    ];
    let own = self_times_ns(&spans);
    assert_eq!(own[0], 100 - 20 - 20, "children on other threads subtract");
    assert_eq!(own[1], 20, "a childless span is all self time");
    assert_eq!(own[3], 100 - 70, "overlapping children count their union");
    assert_eq!(own[4], 40);
    assert_eq!(own[6], 100 - 10, "a child is clipped to its parent");
}

#[test]
fn covered_ns_merges_nested_touching_and_disjoint_intervals() {
    assert_eq!(covered_ns(&mut [], 0, 100), 0);
    assert_eq!(covered_ns(&mut [(10, 90), (20, 30)], 0, 100), 80, "nested");
    assert_eq!(
        covered_ns(&mut [(30, 50), (10, 30)], 0, 100),
        40,
        "touching"
    );
    assert_eq!(
        covered_ns(&mut [(60, 70), (10, 20)], 0, 100),
        20,
        "disjoint"
    );
    assert_eq!(
        covered_ns(&mut [(0, 500)], 100, 200),
        100,
        "clipped both ends"
    );
}

#[test]
fn layer_shares_account_for_the_whole_burst() {
    // One burst of 1000 ns: the front-end seam holds 100..900; under it
    // two shard workers run an apply each (200..500, 300..600) and one
    // of them a sync (600..800).
    let spans = [
        span(1, 0, Layer::Client, "burst", (0, 1000), 1),
        span(2, 1, Layer::Frontend, "apply_batch", (100, 900), 2),
        span(3, 2, Layer::Engine, "apply_batch", (200, 500), 3),
        span(4, 2, Layer::Engine, "apply_batch", (300, 600), 4),
        span(5, 2, Layer::Engine, "sync", (600, 800), 4),
    ];
    let metrics: std::collections::HashMap<_, _> = span_metrics(&spans).into_iter().collect();
    assert_eq!(metrics["server.self_share"], 0.2);
    assert_eq!(metrics["frontend.self_share"], 0.2);
    assert_eq!(metrics["engine.apply_share"], 0.4);
    assert_eq!(metrics["engine.sync_share"], 0.2);
    assert_eq!(metrics["frontend.engine_calls_per_burst"], 3.0);
    assert_eq!(metrics["frontend.syncs_per_burst"], 1.0);
    assert_eq!(metrics["engine.apply_us_p50"], 0.3);
}
