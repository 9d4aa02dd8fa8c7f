//! Trace persistence: record a workload once, replay it against every
//! candidate configuration (§5.3 step 1: "record a representative
//! period of workload from production instances").
//!
//! Format: the body of a `tb_common::durable::seal` frame,
//! `varint(op_count) | op*` where
//! `op := kind u8 | varint(klen) | key [| varint(vlen) | value]`.
//! The frame's CRC covers the whole body, so a truncated or corrupted
//! recording is rejected instead of silently replaying a prefix.

use crate::trace::{Op, Trace};
use std::path::Path;
use tb_common::{
    durable, read_bytes, read_varint, write_bytes, write_varint, Error, Key, Result, Value,
};

const MAGIC: u32 = 0x7b72_4563; // "{rEc"

const KIND_READ: u8 = 0;
const KIND_UPDATE: u8 = 1;
const KIND_INSERT: u8 = 2;
const KIND_DELETE: u8 = 3;
const KIND_RMW: u8 = 4;
const KIND_SCAN: u8 = 5;

/// Serializes a trace to bytes.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut body = Vec::new();
    write_varint(&mut body, trace.len() as u64);
    for op in trace.ops() {
        match op {
            Op::Read { key } => {
                body.push(KIND_READ);
                write_bytes(&mut body, key.as_slice());
            }
            Op::Update { key, value } => {
                body.push(KIND_UPDATE);
                write_bytes(&mut body, key.as_slice());
                write_bytes(&mut body, value.as_slice());
            }
            Op::Insert { key, value } => {
                body.push(KIND_INSERT);
                write_bytes(&mut body, key.as_slice());
                write_bytes(&mut body, value.as_slice());
            }
            Op::Delete { key } => {
                body.push(KIND_DELETE);
                write_bytes(&mut body, key.as_slice());
            }
            Op::ReadModifyWrite { key, value } => {
                body.push(KIND_RMW);
                write_bytes(&mut body, key.as_slice());
                write_bytes(&mut body, value.as_slice());
            }
            Op::Scan { start, end, limit } => {
                body.push(KIND_SCAN);
                write_bytes(&mut body, start.as_slice());
                write_bytes(&mut body, end.as_slice());
                write_varint(&mut body, *limit);
            }
        }
    }
    durable::seal(MAGIC, &body)
}

/// Deserializes a trace from bytes.
pub fn decode_trace(bytes: &[u8]) -> Result<Trace> {
    let body = durable::unseal(MAGIC, bytes, "trace")?;
    let mut pos = 0usize;
    let count = read_varint(body, &mut pos)? as usize;
    let mut ops = Vec::with_capacity(count.min(1 << 24));
    for _ in 0..count {
        let kind = *body
            .get(pos)
            .ok_or_else(|| Error::Corruption("trace op truncated".into()))?;
        pos += 1;
        let key = Key::from(read_bytes(body, &mut pos)?);
        let op = match kind {
            KIND_READ => Op::Read { key },
            KIND_UPDATE => Op::Update {
                key,
                value: Value::from(read_bytes(body, &mut pos)?),
            },
            KIND_INSERT => Op::Insert {
                key,
                value: Value::from(read_bytes(body, &mut pos)?),
            },
            KIND_DELETE => Op::Delete { key },
            KIND_RMW => Op::ReadModifyWrite {
                key,
                value: Value::from(read_bytes(body, &mut pos)?),
            },
            KIND_SCAN => Op::Scan {
                start: key,
                end: Key::from(read_bytes(body, &mut pos)?),
                limit: read_varint(body, &mut pos)?,
            },
            other => return Err(Error::Corruption(format!("bad op kind {other}"))),
        };
        ops.push(op);
    }
    if pos != body.len() {
        return Err(Error::Corruption("trailing bytes after trace ops".into()));
    }
    Ok(Trace::new(ops))
}

/// Writes a trace to a file ([`durable::publish`]).
pub fn save_trace(trace: &Trace, path: &Path) -> Result<()> {
    durable::publish(
        path,
        &durable::Sites {
            sync: "trace.sync",
            rename: "trace.rename",
            dir_sync: "trace.dir_sync",
        },
        &[("trace.write", &encode_trace(trace))],
    )
}

/// Loads a trace from a file.
pub fn load_trace(path: &Path) -> Result<Trace> {
    decode_trace(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{Workload, WorkloadSpec};
    use proptest::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tb-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.trace", std::process::id()))
    }

    #[test]
    fn roundtrip_generated_workload() {
        let (load, run) = Workload::new(WorkloadSpec::ycsb_a(200, 1000)).generate();
        for trace in [load, run] {
            let bytes = encode_trace(&trace);
            let back = decode_trace(&bytes).unwrap();
            assert_eq!(back.ops(), trace.ops());
        }
    }

    #[test]
    fn file_save_load() {
        let p = tmp("file");
        let mut w = Workload::new(WorkloadSpec::case2_reconciliation(100, 500));
        let _ = w.load_ops();
        let trace = w.run_trace();
        save_trace(&trace, &p).unwrap();
        let back = load_trace(&p).unwrap();
        assert_eq!(back.ops(), trace.ops());
        // Stats survive the roundtrip exactly.
        assert_eq!(back.stats(), trace.stats());
    }

    #[test]
    fn corruption_detected() {
        let (_, run) = Workload::new(WorkloadSpec::ycsb_b(50, 200)).generate();
        let bytes = encode_trace(&run);
        for i in [0usize, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            assert!(decode_trace(&bad).is_err(), "corruption at {i} accepted");
        }
        assert!(decode_trace(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_trace(&[]).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::default();
        assert_eq!(decode_trace(&encode_trace(&t)).unwrap().len(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_roundtrip_arbitrary_ops(
            ops in proptest::collection::vec(
                (0u8..6, proptest::collection::vec(any::<u8>(), 0..40),
                 proptest::collection::vec(any::<u8>(), 0..100)),
                0..100,
            )
        ) {
            let trace = Trace::new(
                ops.into_iter()
                    .map(|(kind, k, v)| {
                        let limit = v.len() as u64;
                        let key = tb_common::Key::from(k);
                        let value = tb_common::Value::from(v);
                        match kind {
                            0 => Op::Read { key },
                            1 => Op::Update { key, value },
                            2 => Op::Insert { key, value },
                            3 => Op::Delete { key },
                            4 => Op::ReadModifyWrite { key, value },
                            _ => Op::Scan {
                                start: key,
                                end: tb_common::Key::copy_from(value.as_slice()),
                                limit,
                            },
                        }
                    })
                    .collect(),
            );
            let back = decode_trace(&encode_trace(&trace)).unwrap();
            prop_assert_eq!(back.ops(), trace.ops());
        }
    }
}
