//! The load generator's op stream and the model it checks replies
//! against. One connection with submission-order batch semantics makes
//! every reply deterministic, so each get, scan and write ack is
//! compared with a `BTreeMap` that has seen the same ops.

use std::collections::BTreeMap;
use std::ops::Bound;
use tb_common::{EngineOp, Key, KvEngine, OpOutcome, Result, Value};
use tb_workload::{Op, Workload, WorkloadSpec};

pub struct Generator {
    workload: Workload,
    model: BTreeMap<Key, Value>,
    live_bytes: u64,
    /// Ops sent so far and, of those, the ones answered with an error,
    /// refused, or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Key + value bytes of every write sent (the base of write
    /// amplification).
    pub bytes_written: u64,
}

fn lower(op: Op) -> EngineOp {
    match op {
        Op::Read { key } => EngineOp::Get(key),
        Op::Update { key, value } | Op::Insert { key, value } => EngineOp::Put(key, value),
        Op::Scan { start, end, limit } => EngineOp::Scan {
            start,
            end: Some(end),
            limit: limit as usize,
        },
        Op::Delete { .. } | Op::ReadModifyWrite { .. } => {
            unreachable!("no benchmark workload mixes in deletes or read-modify-writes")
        }
    }
}

impl Generator {
    pub fn new(spec: WorkloadSpec) -> Self {
        Self {
            workload: Workload::new(spec),
            model: BTreeMap::new(),
            live_bytes: 0,
            attempted: 0,
            failed: 0,
            bytes_written: 0,
        }
    }

    /// The load phase: one insert per record, in key order.
    pub fn load_ops(&mut self) -> Vec<EngineOp> {
        self.workload.load_ops().into_iter().map(lower).collect()
    }

    /// The next `n` ops of the run-phase stream.
    pub fn next_burst(&mut self, n: usize) -> Vec<EngineOp> {
        (0..n).map(|_| lower(self.workload.next_op())).collect()
    }

    /// Applies `ops` to the model in submission order and compares each
    /// reply with what the model says it must be.
    pub fn check(&mut self, ops: Vec<EngineOp>, replies: Vec<Result<OpOutcome>>) {
        self.attempted += ops.len() as u64;
        // A short reply vector leaves the tail unanswered: all failed.
        self.failed += ops.len().saturating_sub(replies.len()) as u64;
        for (op, reply) in ops.into_iter().zip(replies) {
            let ok = match op {
                EngineOp::Get(key) => {
                    matches!(reply, Ok(OpOutcome::Value(v)) if v.as_ref() == self.model.get(&key))
                }
                EngineOp::Put(key, value) => {
                    let bytes = (key.len() + value.len()) as u64;
                    self.bytes_written += bytes;
                    self.live_bytes += bytes;
                    if let Some(old) = self.model.insert(key.clone(), value) {
                        self.live_bytes -= (key.len() + old.len()) as u64;
                    }
                    matches!(reply, Ok(OpOutcome::Done(_)))
                }
                EngineOp::Scan { start, end, limit } => {
                    let range = (
                        Bound::Included(start),
                        end.map_or(Bound::Unbounded, Bound::Excluded),
                    );
                    let want = self.model.range(range).take(limit);
                    matches!(reply, Ok(OpOutcome::Range(rows))
                        if rows.iter().map(|(k, v)| (k, v)).eq(want))
                }
                _ => unreachable!("`lower` emits only gets, puts and scans"),
            };
            self.failed += u64::from(!ok);
        }
    }

    /// Key + value bytes of the live records: what the user stored.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// The restart check: reads every key of the model back from
    /// `engine` (a freshly reopened one) and counts each record that is
    /// missing or different as a failed op.
    pub fn verify_against(&mut self, engine: &dyn KvEngine) {
        let entries: Vec<(&Key, &Value)> = self.model.iter().collect();
        let mut lost = 0;
        for chunk in entries.chunks(1024) {
            let keys: Vec<Key> = chunk.iter().map(|(k, _)| (*k).clone()).collect();
            match engine.multi_get(&keys) {
                Ok(values) => {
                    lost += chunk
                        .iter()
                        .zip(&values)
                        .filter(|((_, want), got)| got.as_ref() != Some(*want))
                        .count() as u64;
                    lost += chunk.len().saturating_sub(values.len()) as u64;
                }
                Err(_) => lost += chunk.len() as u64,
            }
        }
        self.attempted += entries.len() as u64;
        self.failed += lost;
    }
}
