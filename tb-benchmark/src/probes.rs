//! Probes: tight loops that time one layer's public functions directly,
//! on the workload's own keys and values. Each runs only in the workload
//! whose end-to-end numbers it explains (see [`run`]); everywhere else
//! its metrics report 0, meaning "not measured here".

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use tb_cache::{CacheConfig, ShardedCache};
use tb_common::{EngineOp, Result};
use tb_compress::{BlockCodec, BlockCodecState};
use tb_lsm::wal::{SyncPolicy, Wal};
use tb_server::proto::{decode_request, encode_request, FrameDecoder, Request};

/// Wall-clock budget of one probe loop.
const BUDGET: Duration = Duration::from_millis(250);
const BLOCK_BYTES: usize = 4096;

/// Every metric a probe reports, in some workload.
const NAMES: [&str; 12] = [
    "server.proto_encode_ns_per_op",
    "server.proto_decode_ns_per_op",
    "cache.get_ns",
    "cache.insert_ns",
    "lsm.wal_append_ns",
    "lsm.wal_sync_us",
    "compress.lz_encode_mb_s",
    "compress.lz_decode_mb_s",
    "compress.dict_encode_mb_s",
    "compress.dict_decode_mb_s",
    "compress.pbc_encode_mb_s",
    "compress.pbc_decode_mb_s",
];

/// Calls `pass` until [`BUDGET`] is spent; `pass` returns how many
/// units it did. Gives total units and the seconds they took.
fn repeat(mut pass: impl FnMut() -> Result<u64>) -> Result<(f64, f64)> {
    let start = Instant::now();
    let mut units = 0;
    while start.elapsed() < BUDGET {
        units += pass()?;
    }
    Ok((units as f64, start.elapsed().as_secs_f64()))
}

fn ns_per_unit((units, secs): (f64, f64)) -> f64 {
    secs * 1e9 / units.max(1.0)
}

/// `records` are the workload's loaded puts, `stream` a slice of its
/// run-phase ops; `dir` is scratch space inside the run's data dir.
/// Returns every probe metric, 0 for the probes this workload skips.
pub fn run(
    workload: &str,
    records: &[EngineOp],
    stream: &[EngineOp],
    dir: &Path,
) -> Result<Vec<(&'static str, f64)>> {
    let measured = match workload {
        "serve-hot" => {
            let mut out = proto(stream)?;
            out.extend(cache(records, stream)?);
            out
        }
        "lsm-ingest" => wal(records, dir)?,
        "lsm-read" => codecs(records)?,
        _ => Vec::new(),
    };
    Ok(NAMES
        .iter()
        .map(|&name| {
            let value = measured.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            (name, value)
        })
        .collect())
}

/// `tb-server` frame codec on pipelined bursts of the workload's ops.
fn proto(stream: &[EngineOp]) -> Result<Vec<(&'static str, f64)>> {
    let requests: Vec<Request> = stream.iter().cloned().map(Request::Op).collect();
    let bursts: Vec<&[Request]> = requests.chunks(crate::spec::PIPELINE_DEPTH).collect();
    let mut wire = Vec::new();
    let encode = repeat(|| {
        for burst in &bursts {
            wire.clear();
            for request in *burst {
                encode_request(request, &mut wire);
            }
            black_box(&wire);
        }
        Ok(requests.len() as u64)
    })?;
    let wires: Vec<Vec<u8>> = bursts
        .iter()
        .map(|burst| {
            let mut wire = Vec::new();
            for request in *burst {
                encode_request(request, &mut wire);
            }
            wire
        })
        .collect();
    let mut decoder = FrameDecoder::new();
    let decode = repeat(|| {
        for wire in &wires {
            decoder.feed(wire);
            for frame in decoder.frames()? {
                black_box(decode_request(&frame)?);
            }
        }
        Ok(requests.len() as u64)
    })?;
    Ok(vec![
        ("server.proto_encode_ns_per_op", ns_per_unit(encode)),
        ("server.proto_decode_ns_per_op", ns_per_unit(decode)),
    ])
}

/// `tb-cache` point operations: inserts of the loaded records (later
/// passes overwrite), then gets in the stream's zipfian key order.
fn cache(records: &[EngineOp], stream: &[EngineOp]) -> Result<Vec<(&'static str, f64)>> {
    let cache = ShardedCache::new(CacheConfig::with_capacity(256 << 20));
    let insert = repeat(|| {
        for op in records {
            if let EngineOp::Put(key, value) = op {
                cache.insert(key.clone(), value.clone(), false)?;
            }
        }
        Ok(records.len() as u64)
    })?;
    let get = repeat(|| {
        let mut gets = 0;
        for op in stream {
            if let EngineOp::Get(key) = op {
                black_box(cache.get(key));
                gets += 1;
            }
        }
        Ok(gets)
    })?;
    Ok(vec![
        ("cache.get_ns", ns_per_unit(get)),
        ("cache.insert_ns", ns_per_unit(insert)),
    ])
}

/// `tb-lsm` WAL: appends of the loaded records, then `fdatasync`s that
/// each cover one 16-record burst (only the sync is timed).
fn wal(records: &[EngineOp], dir: &Path) -> Result<Vec<(&'static str, f64)>> {
    let payloads: Vec<Vec<u8>> = records
        .iter()
        .filter_map(|op| match op {
            EngineOp::Put(key, value) => Some([key.as_slice(), value.as_slice()].concat()),
            _ => None,
        })
        .collect();
    let path = dir.join("probe.wal");
    let mut log = Wal::open(&path, SyncPolicy::OsBuffer)?;
    let mut lsn = 0;
    let append = repeat(|| {
        for payload in &payloads {
            lsn += 1;
            log.append(lsn, payload)?;
        }
        Ok(payloads.len() as u64)
    })?;
    let start = Instant::now();
    let (mut syncs, mut in_sync) = (0u64, Duration::ZERO);
    for burst in payloads.chunks(crate::spec::PIPELINE_DEPTH).cycle() {
        if start.elapsed() >= BUDGET {
            break;
        }
        for payload in burst {
            lsn += 1;
            log.append(lsn, payload)?;
        }
        let t0 = Instant::now();
        log.sync()?;
        in_sync += t0.elapsed();
        syncs += 1;
    }
    drop(log);
    std::fs::remove_file(&path)?;
    Ok(vec![
        ("lsm.wal_append_ns", ns_per_unit(append)),
        (
            "lsm.wal_sync_us",
            in_sync.as_secs_f64() * 1e6 / syncs.max(1) as f64,
        ),
    ])
}

/// `tb-compress` block codecs on 4 KiB blocks cut from the dataset's
/// `key ‖ value` records, trained as a table would be (first 512
/// values). MB/s of uncompressed bytes, 1 MB = 10^6 B.
fn codecs(records: &[EngineOp]) -> Result<Vec<(&'static str, f64)>> {
    let mut samples = Vec::new();
    let mut raw = Vec::new();
    for op in records {
        if let EngineOp::Put(key, value) = op {
            if samples.len() < tb_compress::block::MAX_TRAIN_SAMPLES {
                samples.push(value.as_slice().to_vec());
            }
            raw.extend_from_slice(key.as_slice());
            raw.extend_from_slice(value.as_slice());
        }
        if raw.len() >= 64 * BLOCK_BYTES {
            break;
        }
    }
    let blocks: Vec<&[u8]> = raw.chunks_exact(BLOCK_BYTES).collect();
    let bytes = (blocks.len() * BLOCK_BYTES) as u64;
    let mb_per_s = |(units, secs): (f64, f64)| units / 1e6 / secs;

    let mut out = Vec::new();
    for (codec, encode_name, decode_name) in [
        (
            BlockCodec::Lz,
            "compress.lz_encode_mb_s",
            "compress.lz_decode_mb_s",
        ),
        (
            BlockCodec::Dict,
            "compress.dict_encode_mb_s",
            "compress.dict_decode_mb_s",
        ),
        (
            BlockCodec::Pbc,
            "compress.pbc_encode_mb_s",
            "compress.pbc_decode_mb_s",
        ),
    ] {
        let state = BlockCodecState::train(codec, &samples);
        let mut frame = Vec::new();
        let encode = repeat(|| {
            for block in &blocks {
                frame.clear();
                black_box(state.encode_frame(block, &mut frame));
            }
            Ok(bytes)
        })?;
        let frames: Vec<Vec<u8>> = blocks
            .iter()
            .map(|block| {
                let mut frame = Vec::new();
                state.encode_frame(block, &mut frame);
                frame
            })
            .collect();
        let decode = repeat(|| {
            for frame in &frames {
                black_box(state.decode_frame(frame)?);
            }
            Ok(bytes)
        })?;
        out.push((encode_name, mb_per_s(encode)));
        out.push((decode_name, mb_per_s(decode)));
    }
    Ok(out)
}
