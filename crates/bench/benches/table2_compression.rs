//! Table 2, wired through the storage tier: block-compression codecs
//! (`none`, `lz`, `pbc`, `dict`) running end-to-end through the LSM
//! engine's SSTable pipeline — YCSB-A and YCSB-B throughput, on-disk
//! footprint, and the data-region compression ratio per codec.
//!
//! Unlike the earlier compressor-level microbench, every number here
//! crosses the real block path: flushes frame-encode blocks (sampling
//! a dictionary per table where the codec trains one), compactions
//! re-sample and re-encode, and every read decodes + CRC-verifies a
//! frame before the key search.
//!
//! Shape to reproduce: the LZ codecs, whose blocks parse after a table
//! dictionary (`lz` cuts it from the table's blocks, `dict` trains it
//! on sampled values), shrink the on-disk data region hardest on the
//! machine-templated values, `pbc` sits between them and `none`, and
//! read-heavy YCSB-B pays a decompression toll against raw.

use tb_bench::{bench_dir, budget, drive, print_table, BenchReport};
use tb_common::KvEngine;
use tb_compress::BlockCodec;
use tb_lsm::{LsmConfig, LsmDb};
use tb_workload::{Trace, Workload, WorkloadSpec};

/// Total bytes of SSTables currently on disk for one store.
fn sst_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "sst"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

struct CodecRun {
    qps_a: f64,
    qps_b: f64,
    data_bytes_a: u64,
    disk_bytes: u64,
}

fn main() {
    let mut report = BenchReport::new("table2_compression");
    let records = budget(20_000);
    let ops = budget(40_000);

    let mut rows = Vec::new();
    let mut baseline: Option<CodecRun> = None;
    // YCSB-A data-region bytes of the LZ codecs, `lz` and `dict`.
    let mut lz_data_bytes = Vec::new();
    for codec in BlockCodec::ALL {
        let dir = bench_dir(&format!("table2-{}", codec.name()));
        let mut config = LsmConfig::new(&dir);
        config.sst.codec = codec;
        // Small memtable: the workload must actually live in (and be
        // served from) compressed tables, with compactions re-encoding
        // along the way — not sit in memory.
        config.memtable_bytes = 64 << 10;
        let db = LsmDb::open(config).expect("open lsm");

        // --- YCSB-A: load + 50/50 read/update ------------------------
        let mut wa = Workload::new(WorkloadSpec::ycsb_a(records, ops));
        let load = Trace::new(wa.load_ops());
        let run_a = wa.run_trace();
        let a = drive(&db, &load, &run_a, 8);
        // Push the residual memtable out so the on-disk snapshot after
        // phase A covers the whole dataset for every codec.
        db.flush().expect("flush after ycsb-a");
        let after_a = KvEngine::batch_read_stats(&db);
        let disk_a = sst_bytes(&dir);

        // --- YCSB-B: 95/5 over the same resident store ---------------
        let mut wb = Workload::new(WorkloadSpec::ycsb_b(records, ops));
        let _ = wb.load_ops(); // dataset already resident from phase A
        let run_b = wb.run_trace();
        let b = drive(&db, &Trace::default(), &run_b, 8);

        let stats = KvEngine::batch_read_stats(&db);
        // Cumulative data-region ratio across every flush + compaction:
        // the same deterministic trace feeds every codec, so the raw
        // side is identical and the ratios are directly comparable.
        let ratio = stats.compressed_bytes_written as f64 / stats.uncompressed_bytes_written as f64;
        let run = CodecRun {
            qps_a: a.qps,
            qps_b: b.qps,
            data_bytes_a: after_a.compressed_bytes_written,
            disk_bytes: disk_a,
        };
        let base = baseline.as_ref().unwrap_or(&run);
        report.add_drive(format!("ycsb_a/{}", codec.name()), &a);
        report.add_drive(format!("ycsb_b/{}", codec.name()), &b);
        report.add_values(
            format!("disk/{}", codec.name()),
            &[
                ("sst_bytes", run.disk_bytes as f64),
                ("data_bytes_ycsb_a", run.data_bytes_a as f64),
                ("raw_bytes_written", stats.uncompressed_bytes_written as f64),
                ("data_bytes_written", stats.compressed_bytes_written as f64),
                ("blocks_compressed", stats.blocks_compressed as f64),
                ("blocks_decompressed", stats.blocks_decompressed as f64),
                ("ratio", ratio),
                (
                    "data_bytes_a_vs_none",
                    run.data_bytes_a as f64 / base.data_bytes_a as f64,
                ),
                ("qps_a_vs_none", run.qps_a / base.qps_a),
                ("qps_b_vs_none", run.qps_b / base.qps_b),
            ],
        );
        rows.push(vec![
            codec.name().into(),
            format!("{:.1}", a.qps / 1000.0),
            format!("{:.1}", b.qps / 1000.0),
            format!("{:.2}", run.disk_bytes as f64 / (1 << 20) as f64),
            format!("{ratio:.3}"),
            format!("{:.2}x", run.data_bytes_a as f64 / base.data_bytes_a as f64),
            format!("{}", stats.block_decode_errors),
        ]);
        assert_eq!(stats.block_decode_errors, 0, "clean bench decoded dirty");

        if codec == BlockCodec::None {
            baseline = Some(run);
        } else if matches!(codec, BlockCodec::Lz | BlockCodec::Dict) {
            lz_data_bytes.push((codec, run.data_bytes_a));
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The acceptance bar: each LZ codec must cut the YCSB-A data-region
    // footprint by ≥ 25% against raw.
    let none = baseline.expect("none ran");
    for (codec, data_bytes) in lz_data_bytes {
        let reduction = 1.0 - data_bytes as f64 / none.data_bytes_a as f64;
        assert!(
            reduction >= 0.25,
            "{} data-region reduction {:.1}% < 25% (none {} B, {} B)",
            codec.name(),
            reduction * 100.0,
            none.data_bytes_a,
            data_bytes
        );
    }

    print_table(
        "Table 2: block codecs through the LSM pipeline (YCSB-A/B)",
        &[
            "codec",
            "A kqps",
            "B kqps",
            "disk MiB",
            "data ratio",
            "A bytes vs none",
            "decode errs",
        ],
        &rows,
    );
    report.write().expect("write bench report");
}
