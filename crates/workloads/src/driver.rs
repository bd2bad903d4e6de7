//! Workload representation and the execution driver.
//!
//! Issuance is cursor-based: a [`Workload`] is an immutable set of op
//! streams, and all run progress lives in an [`IssueState`] (per-processor
//! cursors + issued count). That split is what makes runs *resumable* and
//! *replayable*: an `IssueState` plus a [`wormdsm_core::DsmSystem`]
//! snapshot is a complete checkpoint ([`Workload::checkpoint`] /
//! [`Workload::resume`]).

use std::collections::VecDeque;
use wormdsm_core::{DsmSystem, InvalidationScheme, MemOp, SystemConfig, TxnProfiler};
use wormdsm_mesh::topology::NodeId;
use wormdsm_sim::snap::{SnapError, SnapReader, SnapWriter};
use wormdsm_sim::Cycle;

/// One deterministic operation stream per processor.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Per-processor operation queues (index = node id).
    pub ops: Vec<VecDeque<MemOp>>,
}

/// Issue-side progress of a run: how far into each processor's op stream
/// the driver has issued. Together with a [`DsmSystem::save_snapshot`]
/// stream this is everything needed to resume or replay a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueState {
    /// Next un-issued op per processor (index = node id).
    cursors: Vec<usize>,
    /// Operations issued so far.
    issued: u64,
}

impl IssueState {
    /// Operations issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Serialize into a snapshot stream.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.cursors.len());
        for &c in &self.cursors {
            w.put_usize(c);
        }
        w.put_u64(self.issued);
    }

    /// Rebuild from a snapshot stream.
    pub fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut cursors = Vec::with_capacity(n);
        for _ in 0..n {
            cursors.push(r.get_usize()?);
        }
        Ok(Self { cursors, issued: r.get_u64()? })
    }
}

impl Workload {
    /// Empty workload for `procs` processors.
    pub fn new(procs: usize) -> Self {
        Self { ops: vec![VecDeque::new(); procs] }
    }

    /// Append an op to processor `p`'s stream.
    pub fn push(&mut self, p: usize, op: MemOp) {
        self.ops[p].push_back(op);
    }

    /// Total operations across all processors.
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(|q| q.len()).sum()
    }

    /// Number of memory operations (reads + writes).
    pub fn mem_ops(&self) -> usize {
        self.ops
            .iter()
            .flatten()
            .filter(|op| matches!(op, MemOp::Read(_) | MemOp::Write(_)))
            .count()
    }

    /// Fresh issue state: nothing issued yet.
    pub fn start(&self) -> IssueState {
        IssueState { cursors: vec![0; self.ops.len()], issued: 0 }
    }

    /// Drive the system until the workload completes or the clock passes
    /// `stop_at` (inclusive: the issue pass at cycle `stop_at` still
    /// runs, then one step carries the clock past it).
    ///
    /// Exactly one issue pass runs per simulated cycle no matter how the
    /// run is sliced into `advance` calls — re-entering at the cycle a
    /// previous call stopped on does not re-issue — so a run chopped into
    /// windows is bit-identical to one uninterrupted call. Returns `true`
    /// when every op has issued and the system is idle.
    fn advance(
        &self,
        sys: &mut DsmSystem,
        st: &mut IssueState,
        stop_at: Cycle,
    ) -> Result<bool, String> {
        assert_eq!(self.ops.len(), sys.config().nodes(), "one op stream per node");
        assert_eq!(st.cursors.len(), self.ops.len(), "issue state matches this workload");
        // Poll only processors that still have queued ops. The set is kept
        // in ascending node order and only ever shrinks, so issue order is
        // identical to sweeping every node each cycle.
        let mut runnable: Vec<usize> =
            (0..self.ops.len()).filter(|&p| st.cursors[p] < self.ops[p].len()).collect();
        loop {
            // The promoted invariants record instead of panicking; a
            // workload run must not report numbers from a corrupted state.
            if let Some(v) = sys.invariant_violation() {
                return Err(format!("workload aborted: {v}"));
            }
            if sys.now() > stop_at {
                return Ok(false);
            }
            runnable.retain(|&p| {
                let node = NodeId(p as u16);
                if sys.proc_idle(node) {
                    let op = self.ops[p][st.cursors[p]];
                    st.cursors[p] += 1;
                    sys.issue(node, op);
                    st.issued += 1;
                }
                st.cursors[p] < self.ops[p].len()
            });
            if runnable.is_empty() && sys.idle() {
                return Ok(true);
            }
            sys.step();
        }
    }

    /// Run this workload to completion on `sys`.
    ///
    /// Every cycle, each idle processor issues its next op. Returns the
    /// completion cycle and counts, or an error if `max_cycles` pass
    /// without finishing (deadlock / lost message).
    pub fn run(&self, sys: &mut DsmSystem, max_cycles: Cycle) -> Result<RunResult, String> {
        let mut st = self.start();
        self.run_from(sys, &mut st, max_cycles)
    }

    /// Continue a run from an existing [`IssueState`] (fresh from
    /// [`Workload::start`], or restored by [`Workload::resume`]).
    ///
    /// `RunResult::cycles` counts cycles spent in *this* call;
    /// `RunResult::issued` is the state's lifetime total, so a resumed
    /// run reports the same count the uninterrupted run would.
    pub fn run_from(
        &self,
        sys: &mut DsmSystem,
        st: &mut IssueState,
        max_cycles: Cycle,
    ) -> Result<RunResult, String> {
        let start = sys.now();
        if self.advance(sys, st, start + max_cycles)? {
            Ok(RunResult { cycles: sys.now() - start, issued: st.issued })
        } else {
            let left = self.total_ops() as u64 - st.issued;
            Err(format!(
                "workload incomplete after {max_cycles} cycles: {} issued, {left} queued",
                st.issued
            ))
        }
    }

    /// Run toward completion in `every`-cycle observation windows, giving
    /// `observer` control at each window boundary — the driver hook for
    /// live telemetry (progress reporting, event draining, shutdown
    /// polling) that must not touch the issue path.
    ///
    /// At each boundary the observer sees the system *before* that
    /// cycle's issue pass — the same point [`Workload::checkpoint`]
    /// captures — and returns `true` to keep running or `false` to pause;
    /// a pause returns `Ok(None)` with `st` holding exactly the progress
    /// an uninterrupted run would have at that cycle, so the caller can
    /// checkpoint and later continue with [`Workload::run_from`] (or
    /// another `run_observed`) bit-identically. Completion returns
    /// `Ok(Some(result))` with `cycles` counting this call only and
    /// `issued` the state's lifetime total, matching
    /// [`Workload::run_from`].
    ///
    /// The observer may read anything (metrics, probes, the recorder) and
    /// may mutate pure observation layers — attach taps, drain probe
    /// windows — but must leave simulated state alone; the determinism
    /// tests pin that contract.
    pub fn run_observed(
        &self,
        sys: &mut DsmSystem,
        st: &mut IssueState,
        max_cycles: Cycle,
        every: Cycle,
        mut observer: impl FnMut(&mut DsmSystem, &IssueState) -> bool,
    ) -> Result<Option<RunResult>, String> {
        assert!(every >= 1, "observation interval must be at least one cycle");
        let start = sys.now();
        let deadline = start + max_cycles;
        loop {
            let stop = (sys.now() + every - 1).min(deadline);
            if self.advance(sys, st, stop)? {
                return Ok(Some(RunResult { cycles: sys.now() - start, issued: st.issued }));
            }
            if sys.now() > deadline {
                let left = self.total_ops() as u64 - st.issued;
                return Err(format!(
                    "workload incomplete after {max_cycles} cycles: {} issued, {left} queued",
                    st.issued
                ));
            }
            if !observer(sys, st) {
                return Ok(None);
            }
        }
    }

    /// Run to completion, handing a resumable checkpoint to `sink` every
    /// `every` cycles (the bench driver's `--snapshot-every`). The
    /// checkpoint at a boundary captures the state *before* that cycle's
    /// issue pass, so resuming it replays the remainder bit-identically.
    /// A thin wrapper over [`Workload::run_observed`] whose observer
    /// always continues.
    pub fn run_checkpointed(
        &self,
        sys: &mut DsmSystem,
        max_cycles: Cycle,
        every: Cycle,
        mut sink: impl FnMut(Cycle, Vec<u8>),
    ) -> Result<RunResult, String> {
        assert!(every >= 1, "checkpoint interval must be at least one cycle");
        let mut st = self.start();
        let r = self.run_observed(sys, &mut st, max_cycles, every, |sys, st| {
            sink(sys.now(), Self::checkpoint(sys, st));
            true
        })?;
        Ok(r.expect("observer never pauses"))
    }

    /// Serialize a resumable checkpoint: the full system snapshot plus
    /// the run's issue state, one sealed stream.
    pub fn checkpoint(sys: &DsmSystem, st: &IssueState) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let sys_bytes = sys.save_snapshot();
        w.put_usize(sys_bytes.len());
        w.put_bytes(&sys_bytes);
        st.save(&mut w);
        w.finish()
    }

    /// Rebuild a system and issue state from [`Workload::checkpoint`]
    /// bytes. `cfg` and `scheme` must match the checkpointing run (the
    /// system snapshot's fingerprint enforces it), and the checkpoint's
    /// cursors must fit this workload's op streams. Continue with
    /// [`Workload::run_from`].
    pub fn resume(
        &self,
        cfg: SystemConfig,
        scheme: Box<dyn InvalidationScheme>,
        bytes: &[u8],
    ) -> Result<(DsmSystem, IssueState), String> {
        let mut r = SnapReader::new(bytes).map_err(|e| e.to_string())?;
        let n = r.get_len().map_err(|e| e.to_string())?;
        let sys_bytes = r.get_bytes(n).map_err(|e| e.to_string())?.to_vec();
        let st = IssueState::load(&mut r).map_err(|e| e.to_string())?;
        let sys =
            DsmSystem::restore_snapshot(cfg, scheme, &sys_bytes).map_err(|e| e.to_string())?;
        if st.cursors.len() != self.ops.len() {
            return Err(format!(
                "checkpoint has {} op streams, workload has {}",
                st.cursors.len(),
                self.ops.len()
            ));
        }
        for (p, (&c, q)) in st.cursors.iter().zip(&self.ops).enumerate() {
            if c > q.len() {
                return Err(format!(
                    "checkpoint cursor {c} exceeds processor {p}'s {} ops",
                    q.len()
                ));
            }
        }
        Ok((sys, st))
    }

    /// [`Workload::run`] with latency-attribution profiling enabled for
    /// the duration of the run: attaches a record-keeping `TxnProfiler`
    /// (raising the trace level to `Flit`), runs to completion, and hands
    /// the detached profiler back alongside the result.
    ///
    /// Profiling is a pure observation layer, so the [`RunResult`] and
    /// every metric are bit-identical to an unprofiled run.
    pub fn run_profiled(
        &self,
        sys: &mut DsmSystem,
        max_cycles: Cycle,
    ) -> Result<(RunResult, TxnProfiler), String> {
        sys.enable_profiling();
        let r = self.run(sys, max_cycles)?;
        let p = sys.take_profiler().expect("profiler attached above");
        Ok((r, p))
    }
}

/// Outcome of a completed workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles from start to everything idle.
    pub cycles: Cycle,
    /// Operations issued.
    pub issued: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormdsm_coherence::Addr;
    use wormdsm_core::{SchemeKind, SystemConfig};

    fn sys() -> DsmSystem {
        DsmSystem::new(SystemConfig::for_scheme(4, SchemeKind::UiUa), SchemeKind::UiUa.build())
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let mut s = sys();
        let r = Workload::new(16).run(&mut s, 1000).unwrap();
        assert_eq!(r.issued, 0);
    }

    #[test]
    fn counts_ops() {
        let mut w = Workload::new(16);
        w.push(0, MemOp::Read(Addr(0)));
        w.push(0, MemOp::Compute(10));
        w.push(3, MemOp::Write(Addr(64)));
        assert_eq!(w.total_ops(), 3);
        assert_eq!(w.mem_ops(), 2);
    }

    fn sharing_workload() -> Workload {
        let mut w = Workload::new(16);
        // Everyone reads block 1, then node 0 writes it.
        for p in 1..16 {
            w.push(p, MemOp::Read(Addr(32)));
            w.push(p, MemOp::Barrier { id: 0, participants: 16 });
        }
        w.push(0, MemOp::Barrier { id: 0, participants: 16 });
        w.push(0, MemOp::Write(Addr(32)));
        w
    }

    #[test]
    fn runs_simple_sharing_pattern() {
        let w = sharing_workload();
        let mut s = sys();
        let r = w.run(&mut s, 500_000).unwrap();
        assert_eq!(r.issued, 15 * 2 + 2);
        assert_eq!(s.metrics().inval_txns, 1);
        // Block 32 is homed at node 1, which is itself a reader: its copy
        // is invalidated locally, leaving 14 remote sharers.
        assert_eq!(s.metrics().inval_set_size.summary().mean(), 14.0);
    }

    #[test]
    fn run_profiled_attributes_every_invalidation() {
        let w = sharing_workload();
        let mut s = sys();
        let (_, p) = w.run_profiled(&mut s, 500_000).unwrap();
        assert_eq!(p.closed(), s.metrics().inval_txns);
        assert_eq!(p.latency_total() as f64, s.metrics().inval_latency.sum());
        p.verify_exact().unwrap();
        assert!(s.profiler().is_none(), "profiler is handed back, not left attached");
    }

    /// Chopping a run into many tiny `advance` windows must not change a
    /// single result: exactly one issue pass per simulated cycle.
    #[test]
    fn sliced_run_is_bit_identical_to_uninterrupted() {
        let w = sharing_workload();
        let mut whole = sys();
        let r_whole = w.run(&mut whole, 500_000).unwrap();

        let mut sliced = sys();
        let mut st = w.start();
        let mut done = false;
        while !done {
            let stop = sliced.now() + 6; // awkward non-divisor slice width
            done = w.advance(&mut sliced, &mut st, stop).unwrap();
        }
        assert_eq!(st.issued, r_whole.issued);
        assert_eq!(sliced.now(), whole.now());
        assert_eq!(sliced.export_metrics().to_json(), whole.export_metrics().to_json());
    }

    /// A run paused by the observer and continued — in the same process
    /// or from a checkpoint taken at the pause point — must be
    /// bit-identical to the uninterrupted run. This is the farm's
    /// graceful-shutdown contract.
    #[test]
    fn observed_pause_and_resume_is_bit_identical() {
        let w = sharing_workload();
        let mut whole = sys();
        let r_whole = w.run(&mut whole, 500_000).unwrap();

        // Pause after 3 boundaries, checkpoint, then finish both the
        // live system and a system rebuilt from the checkpoint.
        let mut live = sys();
        let mut st = w.start();
        let mut boundaries = 0;
        let paused = w
            .run_observed(&mut live, &mut st, 500_000, 50, |_, _| {
                boundaries += 1;
                boundaries < 3
            })
            .unwrap();
        assert!(paused.is_none(), "observer paused the run");
        assert_eq!(boundaries, 3);
        assert!(st.issued() > 0 && st.issued() < r_whole.issued, "paused mid-run");
        let bytes = Workload::checkpoint(&live, &st);

        let r_live = w.run_from(&mut live, &mut st, 500_000).unwrap();
        assert_eq!(r_live.issued, r_whole.issued);
        assert_eq!(live.export_metrics().to_json(), whole.export_metrics().to_json());

        let cfg = SystemConfig::for_scheme(4, SchemeKind::UiUa);
        let (mut rebuilt, mut st2) = w.resume(cfg, SchemeKind::UiUa.build(), &bytes).unwrap();
        let mut observed = 0;
        let r2 = w
            .run_observed(&mut rebuilt, &mut st2, 500_000, 50, |sys, st| {
                // Observer reads are free; progress is monotone.
                assert!(st.issued() <= w.total_ops() as u64);
                assert!(sys.now() > 0);
                observed += 1;
                true
            })
            .unwrap()
            .expect("runs to completion");
        assert!(observed >= 1, "completion crossed at least one boundary");
        assert_eq!(r2.issued, r_whole.issued);
        assert_eq!(rebuilt.now(), whole.now());
        assert_eq!(rebuilt.export_metrics().to_json(), whole.export_metrics().to_json());
    }

    /// The checkpoint/resume pair must reproduce the uninterrupted run's
    /// final state bit for bit, including metrics accumulated before the
    /// checkpoint.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let w = sharing_workload();
        let mut whole = sys();
        let r_whole = w.run(&mut whole, 500_000).unwrap();

        let mut first = sys();
        let mut taken = Vec::new();
        let r = w
            .run_checkpointed(&mut first, 500_000, 100, |at, bytes| taken.push((at, bytes)))
            .unwrap();
        assert_eq!(r.cycles, r_whole.cycles);
        assert!(!taken.is_empty(), "run long enough to checkpoint");

        let (at, bytes) = &taken[taken.len() / 2];
        let cfg = SystemConfig::for_scheme(4, SchemeKind::UiUa);
        let (mut resumed, mut st) = w.resume(cfg, SchemeKind::UiUa.build(), bytes).unwrap();
        assert_eq!(resumed.now(), *at);
        let rr = w.run_from(&mut resumed, &mut st, 500_000).unwrap();
        assert_eq!(rr.issued, r_whole.issued);
        assert_eq!(resumed.now(), whole.now());
        assert_eq!(resumed.export_metrics().to_json(), whole.export_metrics().to_json());
    }

    #[test]
    fn invariant_violation_aborts_the_run() {
        use wormdsm_coherence::ProtoMsg;
        use wormdsm_mesh::TxnId;
        let mut s = sys();
        // A forged ack for a transaction that never existed trips the
        // dead-transaction invariant; the driver must refuse to report
        // numbers from the corrupted run.
        s.debug_deliver(
            NodeId(0),
            ProtoMsg::InvAck { block: wormdsm_coherence::BlockId(0), txn: TxnId(42), count: 1 },
            1,
            NodeId(5),
        );
        let mut w = Workload::new(16);
        w.push(0, MemOp::Compute(10));
        let e = w.run(&mut s, 10_000).unwrap_err();
        assert!(e.contains("workload aborted"), "{e}");
        assert!(e.contains("dead transaction"), "{e}");
    }

    #[test]
    fn timeout_reports_error() {
        let mut w = Workload::new(16);
        // A lock that is never released stalls node 1 forever.
        w.push(0, MemOp::Lock(1));
        w.push(1, MemOp::Lock(1));
        let mut s = sys();
        let e = w.run(&mut s, 10_000).unwrap_err();
        assert!(e.contains("incomplete"), "{e}");
    }
}
