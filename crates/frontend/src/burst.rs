//! One run of a burst: its plan, and its completion.
//!
//! `Frontend::apply_batch` cuts a burst into runs (the ops between two
//! scan barriers) and a run into one sub-batch per shard: [`RunPlan`]
//! collects the ops per shard and remembers, per queued op, which burst
//! op it serves ([`Part`]). Whoever executes a sub-batch — the shard's
//! worker, or the submitting thread itself — fills the result slots of
//! the [`Run`]; the submitter parks on **one** latch per run. A
//! sub-batch that is dropped unexecuted (engine panic, queue closed at
//! shutdown) still opens the latch, and its empty slots read as failed
//! ops: a caller can never hang on a burst the front-end lost.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use tb_common::{EngineOp, OpOutcome, Result};

/// One queued op of a burst's run, and where its outcome lands.
pub(crate) struct Part {
    /// The burst op this part serves.
    pub op: usize,
    /// Set for one shard's slice of a `MultiGet` that spans shards:
    /// the outcome positions its values fill, and the full key count.
    slice: Option<(Vec<usize>, usize)>,
}

impl Part {
    /// Folds this part's outcome into what earlier parts of the same op
    /// produced. A lone part *is* the outcome; the slices of a spanning
    /// `MultiGet` fill their key positions; the slices of a spanning
    /// `MultiPut` ack the max LSN; the first error wins.
    pub fn merge(
        self,
        earlier: Option<Result<OpOutcome>>,
        result: Result<OpOutcome>,
    ) -> Result<OpOutcome> {
        match (earlier, result) {
            (Some(Err(e)), _) | (_, Err(e)) => Err(e),
            (earlier, Ok(outcome)) => Ok(match (outcome, self.slice) {
                (OpOutcome::Values(values), Some((positions, len))) => {
                    let mut all = match earlier {
                        Some(Ok(OpOutcome::Values(all))) => all,
                        _ => vec![None; len],
                    };
                    for (position, value) in positions.into_iter().zip(values) {
                        all[position] = value;
                    }
                    OpOutcome::Values(all)
                }
                (OpOutcome::Done(lsn), _) => match earlier {
                    Some(Ok(OpOutcome::Done(acked))) => OpOutcome::Done(acked.max(lsn)),
                    _ => OpOutcome::Done(lsn),
                },
                (outcome, _) => outcome,
            }),
        }
    }
}

/// The run a burst is collecting: each shard's ops in submission order,
/// tagged with their index into `parts`.
pub(crate) struct RunPlan {
    pub per_shard: Vec<Vec<(EngineOp, usize)>>,
    pub parts: Vec<Part>,
}

impl RunPlan {
    pub fn new(shards: usize) -> Self {
        Self {
            per_shard: (0..shards).map(|_| Vec::new()).collect(),
            parts: Vec::new(),
        }
    }

    pub fn add(
        &mut self,
        shard: usize,
        op: EngineOp,
        burst_op: usize,
        slice: Option<(Vec<usize>, usize)>,
    ) {
        self.per_shard[shard].push((op, self.parts.len()));
        self.parts.push(Part {
            op: burst_op,
            slice,
        });
    }
}

struct State {
    /// `results[part]`: `None` until the part's op resolved.
    results: Vec<Option<Result<OpOutcome>>>,
    /// Sub-batches not yet finished (or dropped).
    open: usize,
}

/// Result slots and completion latch of one run.
pub(crate) struct Run {
    state: Mutex<State>,
    done: Condvar,
}

impl Run {
    pub fn new(parts: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(State {
                results: (0..parts).map(|_| None).collect(),
                open: 0,
            }),
            done: Condvar::new(),
        })
    }

    /// Registers one more sub-batch the latch waits for; the run stays
    /// open until the returned guard drops.
    pub fn sub_batch(self: &Arc<Self>) -> SubBatchDone {
        self.state.lock().open += 1;
        SubBatchDone(self.clone())
    }

    /// Resolves one part.
    pub fn fill(&self, part: usize, result: Result<OpOutcome>) {
        self.state.lock().results[part] = Some(result);
    }

    /// Blocks until every registered sub-batch finished, then takes the
    /// results (`None` = the part's op was dropped unresolved).
    pub fn wait(&self) -> Vec<Option<Result<OpOutcome>>> {
        let mut state = self.state.lock();
        while state.open > 0 {
            self.done.wait(&mut state);
        }
        std::mem::take(&mut state.results)
    }
}

/// Travels with a sub-batch; dropping it — after the sub-batch ran, or
/// because nobody will run it — counts the sub-batch finished.
pub(crate) struct SubBatchDone(Arc<Run>);

impl Drop for SubBatchDone {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.open -= 1;
        if state.open == 0 {
            drop(state);
            self.0.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_common::Lsn;

    #[test]
    fn wait_returns_once_every_sub_batch_is_done() {
        let run = Run::new(3);
        let (a, b) = (run.sub_batch(), run.sub_batch());
        let worker = {
            let run = run.clone();
            std::thread::spawn(move || {
                run.fill(0, Ok(OpOutcome::Done(Lsn(4))));
                run.fill(2, Ok(OpOutcome::Value(None)));
                drop(a);
            })
        };
        worker.join().unwrap();
        // One sub-batch is still out: the latch must hold. (Checked on
        // the state, since `wait` itself would park.)
        assert_eq!(run.state.lock().open, 1);
        run.fill(1, Ok(OpOutcome::Done(Lsn(5))));
        drop(b);
        assert_eq!(
            run.wait(),
            vec![
                Some(Ok(OpOutcome::Done(Lsn(4)))),
                Some(Ok(OpOutcome::Done(Lsn(5)))),
                Some(Ok(OpOutcome::Value(None))),
            ]
        );
    }

    #[test]
    fn dropped_sub_batch_opens_the_latch_with_empty_slots() {
        let run = Run::new(2);
        let done = run.sub_batch();
        run.fill(0, Ok(OpOutcome::Value(None)));
        drop(done); // the unwind of a panicked batch, or a closed queue
        assert_eq!(run.wait(), vec![Some(Ok(OpOutcome::Value(None))), None]);
    }
}
