//! The full DSM system model: processors, caches, directories, controllers
//! and the invalidation scheme, driven against the wormhole mesh.
//!
//! [`DsmSystem`] is the execution engine behind every experiment. Each call
//! to [`DsmSystem::step`] advances one 5 ns cycle:
//!
//! 1. the network moves flits ([`Network::tick`]);
//! 2. new deliveries enter the receiving node's controller (directory
//!    controller DC for home-bound messages, cache controller CC
//!    otherwise), which queues behind its busy time;
//! 3. due calendar events fire: message handlers run the protocol FSM,
//!    worms inject, i-acks post.
//!
//! Processors obey sequential consistency: one outstanding memory
//! operation, stalling on every miss until the protocol completes it.

use crate::config::{ConsistencyModel, SystemConfig};
use crate::metrics::Metrics;
use crate::plan::{AckAction, InvalPlan, PlannedWorm};
use crate::schemes::InvalidationScheme;
use std::collections::VecDeque;
use wormdsm_coherence::{
    Addr, BlockId, Cache, DirState, Directory, Evicted, LineState, MemGeometry, MsgTable, ProtoMsg,
    WbBuffer,
};
use wormdsm_mesh::nic::{Delivery, DeliveryKind};
use wormdsm_mesh::topology::NodeId;
use wormdsm_mesh::worm::{TxnId, VNet, WormKind, WormSpec};
use wormdsm_mesh::{ContentionProbe, LinkLoadMeter, Network};
use wormdsm_sim::profile::TxnProfiler;
use wormdsm_sim::snap::{Fnv64, Snap, SnapError, SnapReader, SnapWriter};
use wormdsm_sim::stats::BusyTime;
use wormdsm_sim::trace::{FlightRecorder, InvariantViolation, TraceClass, TraceKind, TraceLevel};
use wormdsm_sim::{trace_event, Calendar, Cycle, Registry};

/// Cycles an early fetch waits before retrying at a node whose ownership
/// grant is still in flight (window-of-vulnerability deferral).
const FETCH_RETRY_DELAY: Cycle = 16;

/// Cycles between i-ack post retries when the buffer is full.
const POST_RETRY_DELAY: Cycle = 20;

/// Cycles before the home re-examines a writeback that raced with an
/// outstanding fetch (directory entry in `Waiting`).
const WRITEBACK_RETRY_DELAY: Cycle = 16;

/// How many of the flight recorder's most recent events an
/// [`InvariantViolation`] dump snapshots.
const INVARIANT_DUMP_EVENTS: usize = 64;

/// Why a run stopped before reaching idle (or refused to start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration exceeds a hard limit of the implementation
    /// (mesh larger than `NodeId` can address, VC count beyond the
    /// occupancy bitset, a hierarchy that does not tile the mesh, ...).
    /// Rejected up front by [`DsmSystem::try_new`], before any cycle
    /// runs, so a 16k-node sweep fails in milliseconds instead of
    /// mid-simulation.
    Config(String),
    /// The cycle budget ran out with work still in flight (deadlock or
    /// lost message).
    Timeout(String),
    /// A promoted protocol invariant fired. The payload carries the
    /// flight-recorder context captured at the violation site, so the
    /// failure is diagnosable without a rerun.
    Invariant(Box<InvariantViolation>),
    /// A snapshot stream could not be restored: truncated or corrupt
    /// bytes, an integrity-hash mismatch, or a snapshot taken on a
    /// different configuration/scheme than the system restoring it.
    Snapshot(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(msg) => f.write_str(msg),
            SimError::Timeout(msg) => f.write_str(msg),
            SimError::Invariant(v) => v.fmt(f),
            SimError::Snapshot(msg) => write!(f, "snapshot restore failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Always-on protocol invariant check: the promoted form of the
/// `debug_assert!`s that used to guard these paths, so release runs audit
/// themselves too. On failure the violation is recorded with
/// flight-recorder context (first one wins, see
/// [`DsmSystem::invariant_violation`]) instead of panicking; the
/// `return;` arm additionally bails out of the handler so it cannot
/// corrupt state further. Runs then surface the violation as
/// [`SimError::Invariant`].
macro_rules! invariant {
    (return; $self:ident, $txn:expr, $cond:expr, $($fmt:tt)+) => {
        if !$cond {
            $self.invariant_failed($txn, format!($($fmt)+));
            return;
        }
    };
    ($self:ident, $txn:expr, $cond:expr, $($fmt:tt)+) => {
        if !$cond {
            $self.invariant_failed($txn, format!($($fmt)+));
        }
    };
}

/// A processor memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Local computation for the given number of cycles.
    Compute(u64),
    /// Shared-memory read.
    Read(Addr),
    /// Shared-memory write.
    Write(Addr),
    /// Barrier with the given id and participant count.
    Barrier {
        /// Barrier identifier (homed at node `id % nodes`).
        id: u16,
        /// Number of arrivals that release the barrier.
        participants: u32,
    },
    /// Acquire a queue lock.
    Lock(u16),
    /// Release a queue lock (does not stall).
    Unlock(u16),
}

/// Processor execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Idle,
    BusyUntil(Cycle),
    Stalled { kind: StallKind, since: Cycle },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    Read(BlockId),
    Write(BlockId),
    Barrier(u16),
    Lock(u16),
    /// Release consistency: the operation is deferred until the write
    /// buffer drains (sync ops), frees a slot (buffer full), or the
    /// conflicting pending write completes; retried on each completion.
    Deferred(MemOp),
}

impl StallKind {
    /// Flight-recorder label for this stall reason.
    fn label(self) -> &'static str {
        match self {
            StallKind::Read(_) => "read",
            StallKind::Write(_) => "write",
            StallKind::Barrier(_) => "barrier",
            StallKind::Lock(_) => "lock",
            StallKind::Deferred(_) => "deferred",
        }
    }
}

/// Per-node mutable state.
#[derive(Debug)]
struct NodeCtx {
    cache: Cache,
    wb: WbBuffer,
    dc: BusyTime,
    cc: BusyTime,
    mem: BusyTime,
    proc: ProcState,
    /// Release consistency: writes in flight (block -> issue cycle).
    /// A plain vector scanned linearly: the write buffer is tiny (a few
    /// entries), so the scan beats hashing and the capacity is recycled
    /// across the run instead of reallocating per write.
    pending_writes: Vec<(BlockId, Cycle)>,
    /// An invalidation arrived for the block this node's outstanding read
    /// fill targets: serve the read once but do not install the line.
    poisoned_fill: Option<BlockId>,
}

impl NodeCtx {
    /// True when a write to `block` is still in flight.
    fn write_pending(&self, block: BlockId) -> bool {
        self.pending_writes.iter().any(|&(b, _)| b == block)
    }
}

/// An in-flight invalidation transaction at its home node.
#[derive(Debug)]
struct TxnState {
    block: BlockId,
    home: NodeId,
    writer: NodeId,
    needed: u32,
    got: u32,
    plan: InvalPlan,
    with_data: bool,
    started: Cycle,
    /// Messages sent from / received at the home so far in this
    /// transaction (occupancy proxy).
    home_msgs: u32,
}

#[derive(Debug)]
struct BarrierState {
    expected: u32,
    arrived: Vec<NodeId>,
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<NodeId>,
    queue: VecDeque<NodeId>,
}

/// Slab of in-flight invalidation transactions.
///
/// Transaction ids are slot-encoded — `id = (seq << SLOT_BITS) | slot` —
/// so the home's per-ack lookup is a direct index instead of a hash probe.
/// The sequence half keeps ids unique across slot reuse (a stale id from a
/// retired transaction misses the `ids[slot]` check instead of aliasing),
/// and `seq` starts at 1 so no live id collides with the `TxnId(0)`
/// sentinel that barrier-release worms carry.
#[derive(Debug, Default)]
struct TxnSlab {
    slots: Vec<Option<TxnState>>,
    /// Full id currently occupying each slot (0 = vacant).
    ids: Vec<u64>,
    /// LIFO free list of vacated slots.
    free: Vec<u32>,
    seq: u64,
    live: usize,
}

/// Low bits of a transaction id that select the slab slot.
const TXN_SLOT_BITS: u32 = 20;

impl TxnSlab {
    /// Concurrent transactions the slab can hold. A documented hard
    /// limit, not a practical one: ids reserve [`TXN_SLOT_BITS`] low bits
    /// for the slot, and even a full 65536-node mesh with every node
    /// holding outstanding writes stays orders of magnitude below 2^20
    /// live transactions. Overflow returns `None` from
    /// [`TxnSlab::insert`]; the caller surfaces it as a recorded
    /// invariant violation ([`SimError::Invariant`]) instead of a panic.
    const CAPACITY: usize = 1 << TXN_SLOT_BITS;

    fn insert(&mut self, t: TxnState) -> Option<TxnId> {
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                if self.slots.len() >= Self::CAPACITY {
                    return None;
                }
                self.slots.push(None);
                self.ids.push(0);
                self.slots.len() - 1
            }
        };
        self.seq += 1;
        let id = (self.seq << TXN_SLOT_BITS) | slot as u64;
        self.slots[slot] = Some(t);
        self.ids[slot] = id;
        self.live += 1;
        Some(TxnId(id))
    }

    fn slot_of(&self, id: u64) -> Option<usize> {
        let slot = (id & ((1 << TXN_SLOT_BITS) - 1)) as usize;
        (self.ids.get(slot) == Some(&id)).then_some(slot)
    }

    fn get(&self, id: TxnId) -> Option<&TxnState> {
        self.slot_of(id.0).and_then(|s| self.slots[s].as_ref())
    }

    fn get_mut(&mut self, id: TxnId) -> Option<&mut TxnState> {
        self.slot_of(id.0).and_then(|s| self.slots[s].as_mut())
    }

    /// The id the next [`TxnSlab::insert`] will assign, so callers can
    /// stamp worms with it before constructing the transaction state.
    fn next_id(&self) -> TxnId {
        let slot = self.free.last().map_or(self.slots.len(), |&s| s as usize) as u64;
        TxnId(((self.seq + 1) << TXN_SLOT_BITS) | slot)
    }

    fn remove(&mut self, id: TxnId) -> Option<TxnState> {
        let slot = self.slot_of(id.0)?;
        let t = self.slots[slot].take();
        if t.is_some() {
            self.ids[slot] = 0;
            self.free.push(slot as u32);
            self.live -= 1;
        }
        t
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Calendar events.
#[derive(Debug)]
enum Ev {
    /// A message reached a controller's input; occupy the controller then
    /// handle.
    Recv { node: NodeId, key: u64, acks: u32, kind: DeliveryKind, src: NodeId },
    /// Controller finished processing; run the protocol handler.
    Handle { node: NodeId, key: u64, acks: u32, kind: DeliveryKind, src: NodeId },
    /// Hand a fully built worm to the NIC.
    Inject(WormSpec),
    /// Post an i-ack signal at `node` for `txn`; fall back to a unicast
    /// ack if the buffer is full.
    PostIack { node: NodeId, txn: TxnId },
}

/// The complete simulated DSM machine.
pub struct DsmSystem {
    cfg: SystemConfig,
    scheme: Box<dyn InvalidationScheme>,
    net: Network,
    geom: MemGeometry,
    msgs: MsgTable,
    nodes: Vec<NodeCtx>,
    dirs: Vec<Directory>,
    txns: TxnSlab,
    cal: Calendar<Ev>,
    metrics: Metrics,
    /// Barrier state, indexed by barrier id (ids are small and dense in
    /// every workload, so a lazily grown slot vector replaces hashing).
    barriers: Vec<Option<BarrierState>>,
    /// Lock state, indexed by lock id (same dense-id rationale).
    locks: Vec<Option<LockState>>,
    now: Cycle,
    /// Scratch for draining per-tick delivery worklists without
    /// reallocating (capacity persists across steps).
    delivery_scratch: Vec<NodeId>,
    /// When set (the default), [`DsmSystem::step`] fast-forwards over dead
    /// cycles: if the network is fully idle, time jumps straight to the
    /// next calendar event or processor wake-up instead of ticking empty
    /// cycles one by one. Bit-identical to per-cycle stepping.
    fast_forward: bool,
    /// Cycles elided by dead-cycle fast-forwarding (diagnostics).
    skipped_cycles: u64,
    /// First protocol invariant violation observed (sticky). Once set,
    /// handlers keep bailing out safely but the run's results are
    /// untrustworthy; drivers surface it as [`SimError::Invariant`].
    violation: Option<Box<InvariantViolation>>,
}

impl DsmSystem {
    /// Build an idle system running `scheme`.
    ///
    /// Panics on an invalid configuration or a scheme whose worms are not
    /// conformant under the configured base routing; sweep drivers that
    /// want to skip bad points instead should use [`DsmSystem::try_new`].
    pub fn new(cfg: SystemConfig, scheme: Box<dyn InvalidationScheme>) -> Self {
        match Self::try_new(cfg, scheme) {
            Ok(sys) => sys,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build an idle system running `scheme`, rejecting configurations
    /// that exceed hard limits (see [`SystemConfig::validate`]) or a
    /// scheme/routing mismatch with [`SimError::Config`] — before any
    /// state is allocated or any cycle runs.
    pub fn try_new(
        cfg: SystemConfig,
        scheme: Box<dyn InvalidationScheme>,
    ) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::Config)?;
        if !scheme.compatible_with(cfg.mesh.routing) {
            return Err(SimError::Config(format!(
                "{} is not conformant under {:?}",
                scheme.name(),
                cfg.mesh.routing
            )));
        }
        let n = cfg.nodes();
        let geom = MemGeometry::new(cfg.block_bytes, n);
        let nodes = (0..n)
            .map(|_| NodeCtx {
                cache: Cache::new(cfg.cache_sets),
                wb: WbBuffer::new(),
                dc: BusyTime::new(),
                cc: BusyTime::new(),
                mem: BusyTime::new(),
                proc: ProcState::Idle,
                pending_writes: Vec::new(),
                poisoned_fill: None,
            })
            .collect();
        let dirs = (0..n).map(|_| Directory::new(n)).collect();
        let mut net = Network::new(cfg.mesh.clone());
        // The protocol layer never re-reads a worm after its final
        // delivery, so retired worm slots can be recycled.
        net.set_worm_recycling(true);
        // Adaptive schemes consume the always-on link-load summary; attach
        // the meter before the first cycle so every plan in the run (and
        // in any snapshot-resumed continuation) sees the same committed
        // windows.
        if let Some(window) = scheme.feedback_window() {
            net.enable_link_load(window);
        }
        Ok(Self {
            cfg,
            scheme,
            net,
            geom,
            msgs: MsgTable::new(),
            nodes,
            dirs,
            txns: TxnSlab::default(),
            cal: Calendar::new(),
            metrics: Metrics::new(),
            barriers: Vec::new(),
            locks: Vec::new(),
            now: 0,
            fast_forward: true,
            skipped_cycles: 0,
            delivery_scratch: Vec::new(),
            violation: None,
        })
    }

    /// Enable or disable dead-cycle fast-forwarding (on by default).
    /// Disabling forces per-cycle stepping; results are bit-identical
    /// either way, so this exists for A/B equivalence tests and perf
    /// comparison.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Cycles elided (never individually stepped) by fast-forwarding.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Re-partition the network tick engine into `tiles` row bands at
    /// runtime (see `Network::set_tiles`). Results are bit-identical for
    /// any tile count; only wall time changes.
    pub fn set_tiles(&mut self, tiles: usize) {
        self.net.set_tiles(tiles);
    }

    /// Worker threads the parallel tick pool actually holds (0 when the
    /// engine runs serially). May be fewer than `tiles - 1` on hosts with
    /// little spare parallelism; see `WORMDSM_POOL_WORKERS`.
    pub fn effective_workers(&self) -> usize {
        self.net.effective_workers()
    }

    /// Current tile count of the network tick engine (1 = serial).
    pub fn tiles(&self) -> usize {
        self.net.tiles()
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Network statistics so far.
    pub fn net_stats(&self) -> &wormdsm_mesh::NetStats {
        self.net.stats()
    }

    // ------------------------------------------------------------------
    // Tracing and invariant auditing.
    // ------------------------------------------------------------------

    /// Set the flight recorder's runtime level. [`TraceLevel::Flit`]
    /// forces the network onto its serial tick schedule so per-hop events
    /// are never lost — results stay bit-identical, only wall time
    /// changes.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.net.set_trace_level(level);
    }

    /// The flight recorder: one time-ordered event stream shared by the
    /// mesh and the protocol layer.
    pub fn recorder(&self) -> &FlightRecorder {
        self.net.recorder()
    }

    /// Mutable flight-recorder access (capacity changes, clearing).
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        self.net.recorder_mut()
    }

    /// Attach a record-keeping [`TxnProfiler`] to the flight recorder and
    /// raise the trace level to [`TraceLevel::Flit`] (the profiler only
    /// sees events that pass the level gate, and a meaningful phase
    /// breakdown needs the per-worm events).
    ///
    /// The profiler streams from the recorder's `push` path, so its
    /// attribution is complete even when the ring overflows. It is a pure
    /// observer: results are bit-identical with profiling on or off.
    pub fn enable_profiling(&mut self) {
        self.net.set_trace_level(TraceLevel::Flit);
        let mut p = TxnProfiler::new();
        p.set_keep_records(true);
        self.net.recorder_mut().attach_profiler(p);
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&TxnProfiler> {
        self.net.recorder().profiler()
    }

    /// Detach and return the attached profiler, if any.
    pub fn take_profiler(&mut self) -> Option<TxnProfiler> {
        self.net.recorder_mut().take_profiler()
    }

    /// Enable the mesh contention probe: per-link/VC occupancy and
    /// credit-stall accounting in `window`-cycle buckets. Pure observer;
    /// forces the serial network tick schedule while enabled.
    pub fn enable_contention_probe(&mut self, window: Cycle) {
        self.net.enable_contention_probe(window);
    }

    /// The mesh contention probe, if enabled.
    pub fn contention_probe(&self) -> Option<&ContentionProbe> {
        self.net.contention_probe()
    }

    /// Detach and return the contention probe (final window flushed).
    pub fn take_contention_probe(&mut self) -> Option<ContentionProbe> {
        self.net.take_contention_probe()
    }

    /// Flush the contention probe's final partial window in place (see
    /// [`Network::finish_contention_probe`]). Call before reading
    /// [`DsmSystem::contention_probe`] windows from a run whose length is
    /// not a multiple of the probe window.
    pub fn finish_contention_probe(&mut self) {
        self.net.finish_contention_probe();
    }

    /// The link-load summary meter, if the scheme requested one (see
    /// [`InvalidationScheme::feedback_window`]).
    pub fn link_load(&self) -> Option<&LinkLoadMeter> {
        self.net.link_load()
    }

    /// The first protocol invariant violation observed so far, if any.
    ///
    /// The slot is sticky: the promoted checks record the violation and
    /// bail out of their handler instead of panicking, so the simulation
    /// keeps stepping, but any result produced after this returns `Some`
    /// is untrustworthy. [`DsmSystem::run_until_idle`] reports it as
    /// [`SimError::Invariant`].
    pub fn invariant_violation(&self) -> Option<&InvariantViolation> {
        self.violation.as_deref()
    }

    /// Export protocol metrics plus network statistics as one registry
    /// (mesh-level entries carry a `net_` prefix). Includes the flight
    /// recorder's recorded/dropped counters, so ring overflow is visible
    /// in every metrics export instead of only on direct recorder reads.
    pub fn export_metrics(&self) -> Registry {
        let rec = self.net.recorder();
        let mut r = self.metrics.export_with_trace(rec.recorded(), rec.dropped());
        r.absorb("net_", &self.net.stats().export(self.now));
        r
    }

    /// Record a failed protocol invariant: push an `InvariantFired`
    /// marker (unconditionally, so the dump is never empty even at
    /// [`TraceLevel::Off`]), snapshot the recorder, and keep the first
    /// violation.
    #[cold]
    fn invariant_failed(&mut self, txn: Option<TxnId>, what: String) {
        self.metrics.invariant_failures += 1;
        let now = self.now;
        let txn = txn.map(|t| t.0);
        let rec = self.net.recorder_mut();
        rec.push(now, TraceKind::InvariantFired { txn: txn.unwrap_or(0) });
        if self.violation.is_none() {
            self.violation = Some(Box::new(InvariantViolation::capture(
                what,
                now,
                txn,
                self.net.recorder(),
                INVARIANT_DUMP_EVENTS,
            )));
        }
    }

    /// Fold a violation the network recorded (its slot is sticky too)
    /// into the system-level slot.
    #[cold]
    fn absorb_net_violation(&mut self) {
        let what = self.net.violation().expect("caller checked").to_string();
        self.invariant_failed(None, what);
    }

    /// The scheme driving invalidations.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Geometry (block/home mapping).
    pub fn geometry(&self) -> &MemGeometry {
        &self.geom
    }

    /// Directory-controller busy cycles at `node` (home occupancy).
    pub fn dc_busy(&self, node: NodeId) -> u64 {
        self.nodes[node.idx()].dc.total()
    }

    /// True when `node`'s processor can issue a new operation.
    pub fn proc_idle(&self, node: NodeId) -> bool {
        match self.nodes[node.idx()].proc {
            ProcState::Idle => true,
            ProcState::BusyUntil(t) => t <= self.now,
            ProcState::Stalled { .. } => false,
        }
    }

    /// True when every processor is idle and no protocol or network
    /// activity remains.
    pub fn idle(&self) -> bool {
        self.txns.is_empty()
            && self.cal.is_empty()
            && self.net.quiescent()
            && (0..self.nodes.len()).all(|i| self.proc_idle(NodeId(i as u16)))
    }

    /// Advance one cycle.
    ///
    /// With fast-forwarding on (the default), a step taken while the
    /// network is fully idle first jumps the clock to just before the next
    /// scheduled wake-up (calendar event or processor busy-expiry), then
    /// performs one normal cycle. Every skipped cycle would have been a
    /// complete no-op, so runs are bit-identical with or without the jump.
    pub fn step(&mut self) {
        if self.fast_forward {
            self.skip_dead_cycles(None);
        }
        self.step_inner();
    }

    /// One cycle of work: tick the network, route fresh deliveries into
    /// controllers, fire due calendar events.
    fn step_inner(&mut self) {
        self.net.tick();
        self.now = self.net.now();
        // Drain only the nodes the network flagged this tick (ascending,
        // matching a full node sweep) instead of polling every node, and
        // reuse one scratch buffer instead of collecting per node.
        let mut flagged = std::mem::take(&mut self.delivery_scratch);
        self.net.take_delivery_nodes(&mut flagged);
        for &node in &flagged {
            while let Some(d) = self.net.pop_delivery(node) {
                self.on_delivery(d);
            }
        }
        self.delivery_scratch = flagged;
        while let Some((t, ev)) = self.cal.pop_due(self.now) {
            self.handle_event(t.max(self.now), ev);
        }
        if self.violation.is_none() && self.net.violation().is_some() {
            self.absorb_net_violation();
        }
    }

    /// If the network has no work at all, advance the clock to one cycle
    /// before the next event that could change anything: the earliest
    /// calendar entry or the earliest processor busy-expiry, clamped to
    /// `horizon` when one is given. Processors whose busy time already
    /// expired, stalled processors (they wake only via calendar-driven
    /// protocol events) and idle processors impose no boundary. With no
    /// boundary and no horizon, fall back to per-cycle stepping so
    /// `run_until_idle` timeouts still fire on genuine deadlocks.
    fn skip_dead_cycles(&mut self, horizon: Option<Cycle>) {
        if !self.net.fully_idle() {
            return;
        }
        // Non-mutating earliest-event peek: single heap peek in the
        // cancel-free common case, tombstone-aware scan otherwise.
        let mut target = self.cal.peek_next_at();
        for n in &self.nodes {
            if let ProcState::BusyUntil(t) = n.proc {
                if t > self.now {
                    target = Some(target.map_or(t, |x| x.min(t)));
                }
            }
        }
        let t = match (target, horizon) {
            (Some(t), Some(h)) => t.min(h),
            (Some(t), None) => t,
            (None, Some(h)) => h,
            (None, None) => return,
        };
        if t > self.now + 1 {
            let from = self.now;
            self.skipped_cycles += t - 1 - self.now;
            self.net.advance_to(t - 1);
            self.now = t - 1;
            trace_event!(
                self.net.recorder_mut(),
                TraceClass::Txn,
                from,
                TraceKind::FastForward { from, to: t - 1 }
            );
        }
    }

    /// Advance simulated time by exactly `n` cycles.
    ///
    /// Fast-forwarding still applies but is clamped to the `n`-cycle
    /// horizon, so the clock lands exactly on `now + n` and the state
    /// there matches per-cycle stepping bit for bit.
    pub fn run_cycles(&mut self, n: u64) {
        let deadline = self.now + n;
        while self.now < deadline {
            if self.fast_forward {
                self.skip_dead_cycles(Some(deadline));
            }
            self.step_inner();
        }
    }

    /// Run until [`DsmSystem::idle`] or `max` cycles pass.
    ///
    /// Errors are structured: [`SimError::Timeout`] for a deadlock or
    /// lost message, [`SimError::Invariant`] when a promoted protocol
    /// invariant fired mid-run (the violation carries the flight-recorder
    /// dump and offending-transaction timeline).
    pub fn run_until_idle(&mut self, max: Cycle) -> Result<Cycle, SimError> {
        let deadline = self.now + max;
        while !self.idle() {
            if let Some(v) = &self.violation {
                return Err(SimError::Invariant(v.clone()));
            }
            if self.now >= deadline {
                return Err(SimError::Timeout(format!(
                    "system not idle after {max} cycles: {} txns, {} events, {} live worms",
                    self.txns.len(),
                    self.cal.len(),
                    self.net.live_worms()
                )));
            }
            self.step();
        }
        match &self.violation {
            Some(v) => Err(SimError::Invariant(v.clone())),
            None => Ok(self.now),
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / resume.
    // ------------------------------------------------------------------

    /// FNV-1a fingerprint of everything a snapshot assumes about the
    /// machine it is restored into: the full `Debug` rendering of the
    /// configuration plus the scheme name. Restoring into a system whose
    /// fingerprint differs is rejected up front — a snapshot encodes slab
    /// geometries and routing decisions that only replay correctly on the
    /// exact configuration that produced them.
    fn config_fingerprint(cfg: &SystemConfig, scheme: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write(format!("{cfg:?}").as_bytes());
        h.write(scheme.as_bytes());
        h.finish()
    }

    /// Serialize the complete simulation state into a self-validating
    /// snapshot stream (`MAGIC | VERSION | payload | FNV-1a 64` framing,
    /// see [`wormdsm_sim::snap`]).
    ///
    /// The stream captures everything that determines future behavior:
    /// the network (routers, NICs, worms, worklists, statistics), the
    /// message table, per-node caches / write buffers / controllers /
    /// processor states, directories, the transaction slab, the event
    /// calendar, metrics, and barrier/lock state. It does **not** capture
    /// the configuration or scheme — [`DsmSystem::restore_snapshot`]
    /// takes those as inputs and verifies them against a recorded
    /// fingerprint. Pure observers (flight recorder, profiler, contention
    /// probe) are deliberately excluded: they never influence results and
    /// restart empty after a restore. The link-load meter is **not** an
    /// observer — its committed windows feed adaptive plans — so it
    /// travels inside the network state.
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(Self::config_fingerprint(&self.cfg, self.scheme.name()));
        w.put_str(self.scheme.name());
        w.put_bool(self.violation.is_some());
        w.put_u64(self.now);
        w.put_u64(self.skipped_cycles);
        w.put_bool(self.fast_forward);
        self.net.save_state(&mut w);
        self.msgs.save(&mut w);
        self.nodes.save(&mut w);
        self.dirs.save(&mut w);
        self.txns.save(&mut w);
        self.cal.save(&mut w);
        self.metrics.save(&mut w);
        self.barriers.save(&mut w);
        self.locks.save(&mut w);
        w.finish()
    }

    /// Rebuild a system from [`DsmSystem::save_snapshot`] bytes.
    ///
    /// `cfg` and `scheme` must match the snapshotting system exactly
    /// (enforced via the recorded fingerprint, checked before any state
    /// is decoded). The restored system continues **bit-identically**
    /// with the original: stepping both from the snapshot point produces
    /// the same metrics, cycle for cycle. Snapshots of runs that already
    /// tripped a protocol invariant are refused — their state is
    /// untrustworthy by definition. The tile count comes from `cfg`;
    /// observers (flight recorder, contention probe, profiler) start
    /// fresh.
    pub fn restore_snapshot(
        cfg: SystemConfig,
        scheme: Box<dyn InvalidationScheme>,
        bytes: &[u8],
    ) -> Result<Self, SimError> {
        fn snap_err(e: SnapError) -> SimError {
            SimError::Snapshot(e.to_string())
        }
        let mut sys = Self::try_new(cfg, scheme)?;
        let mut r = SnapReader::new(bytes).map_err(snap_err)?;
        let fp = r.get_u64().map_err(snap_err)?;
        let scheme_name = r.get_str().map_err(snap_err)?;
        if scheme_name != sys.scheme.name() {
            return Err(SimError::Snapshot(format!(
                "snapshot was taken under scheme {scheme_name}, restoring under {}",
                sys.scheme.name()
            )));
        }
        if fp != Self::config_fingerprint(&sys.cfg, sys.scheme.name()) {
            return Err(SimError::Snapshot(
                "snapshot configuration fingerprint does not match this system".to_string(),
            ));
        }
        if r.get_bool().map_err(snap_err)? {
            return Err(SimError::Snapshot(
                "snapshot captured a run with a protocol invariant violation".to_string(),
            ));
        }
        sys.now = r.get_u64().map_err(snap_err)?;
        sys.skipped_cycles = r.get_u64().map_err(snap_err)?;
        sys.fast_forward = r.get_bool().map_err(snap_err)?;
        sys.net = Network::load_state(sys.cfg.mesh.clone(), &mut r).map_err(snap_err)?;
        sys.msgs = Snap::load(&mut r).map_err(snap_err)?;
        let nodes: Vec<NodeCtx> = Snap::load(&mut r).map_err(snap_err)?;
        if nodes.len() != sys.cfg.nodes() {
            return Err(SimError::Snapshot(format!(
                "snapshot holds {} nodes, configuration has {}",
                nodes.len(),
                sys.cfg.nodes()
            )));
        }
        sys.nodes = nodes;
        let dirs: Vec<Directory> = Snap::load(&mut r).map_err(snap_err)?;
        if dirs.len() != sys.cfg.nodes() {
            return Err(SimError::Snapshot(format!(
                "snapshot holds {} directories, configuration has {}",
                dirs.len(),
                sys.cfg.nodes()
            )));
        }
        sys.dirs = dirs;
        sys.txns = Snap::load(&mut r).map_err(snap_err)?;
        sys.cal = Calendar::load(&mut r).map_err(snap_err)?;
        sys.metrics = Snap::load(&mut r).map_err(snap_err)?;
        sys.barriers = Snap::load(&mut r).map_err(snap_err)?;
        sys.locks = Snap::load(&mut r).map_err(snap_err)?;
        if !r.is_done() {
            return Err(SimError::Snapshot(format!(
                "{} trailing bytes after the snapshot payload",
                r.remaining()
            )));
        }
        Ok(sys)
    }

    // ------------------------------------------------------------------
    // Processor interface.
    // ------------------------------------------------------------------

    /// Issue a memory operation on `node`'s processor. Panics when the
    /// processor is not idle (callers poll [`DsmSystem::proc_idle`]).
    pub fn issue(&mut self, node: NodeId, op: MemOp) {
        assert!(self.proc_idle(node), "{node} issued {op:?} while busy");
        let now = self.now;
        let costs = self.cfg.costs;
        match op {
            MemOp::Compute(c) => {
                self.nodes[node.idx()].proc = ProcState::BusyUntil(now + c.max(1));
            }
            MemOp::Read(a) => {
                let block = self.geom.block_of(a);
                if self.nodes[node.idx()].write_pending(block)
                    || self.nodes[node.idx()].wb.contains(block)
                {
                    // Re-touching a block whose own writeback is still
                    // unacknowledged would let the stale writeback race a
                    // re-acquired copy (writeback ABA); wait for the ack.
                    self.stall(node, StallKind::Deferred(op), now);
                    return;
                }
                if self.nodes[node.idx()].cache.read_hit(block) {
                    self.metrics.read_hits += 1;
                    self.nodes[node.idx()].proc = ProcState::BusyUntil(now + costs.cache_access);
                } else {
                    self.metrics.read_misses += 1;
                    self.stall(node, StallKind::Read(block), now);
                    let home = self.geom.home_of(block);
                    let msg = ProtoMsg::ReadReq { block, requester: node };
                    self.send_cc(node, now + costs.cache_access, msg, home, VNet::Req);
                }
            }
            MemOp::Write(a) => {
                let block = self.geom.block_of(a);
                // A read or write to a block with a write already in
                // flight — or with this node's own writeback still
                // unacknowledged (writeback ABA) — waits for it.
                if self.nodes[node.idx()].write_pending(block)
                    || self.nodes[node.idx()].wb.contains(block)
                {
                    self.stall(node, StallKind::Deferred(op), now);
                    return;
                }
                if self.nodes[node.idx()].cache.write_hit(block) {
                    self.metrics.write_hits += 1;
                    self.nodes[node.idx()].proc = ProcState::BusyUntil(now + costs.cache_access);
                    return;
                }
                match self.cfg.consistency {
                    ConsistencyModel::Sequential => {
                        self.metrics.write_misses += 1;
                        self.stall(node, StallKind::Write(block), now);
                    }
                    ConsistencyModel::Release { write_buffer } => {
                        if self.nodes[node.idx()].pending_writes.len() >= write_buffer {
                            // Buffer full: retry when a write retires
                            // (deferral is not a miss yet).
                            self.stall(node, StallKind::Deferred(op), now);
                            return;
                        }
                        self.metrics.write_misses += 1;
                        self.nodes[node.idx()].pending_writes.push((block, now));
                        self.nodes[node.idx()].proc =
                            ProcState::BusyUntil(now + costs.cache_access);
                    }
                }
                let home = self.geom.home_of(block);
                // Upgrade detection must not count as a processor access:
                // probe (side-effect-free) rather than read_hit, so a
                // Shared copy upgrades and anything else is a write miss.
                let msg = if self.nodes[node.idx()].cache.probe(block).is_some() {
                    ProtoMsg::UpgradeReq { block, requester: node }
                } else {
                    ProtoMsg::WriteReq { block, requester: node }
                };
                self.send_cc(node, now + costs.cache_access, msg, home, VNet::Req);
            }
            MemOp::Barrier { id, participants } => {
                if self.release_fence_pending(node, op, now) {
                    return;
                }
                self.stall(node, StallKind::Barrier(id), now);
                let home = self.service_home(id);
                let msg = ProtoMsg::BarrierArrive { barrier: id, participants };
                self.send_cc(node, now, msg, home, VNet::Req);
            }
            MemOp::Lock(l) => {
                self.stall(node, StallKind::Lock(l), now);
                let home = self.service_home(l);
                self.send_cc(
                    node,
                    now,
                    ProtoMsg::LockReq { lock: l, requester: node },
                    home,
                    VNet::Req,
                );
            }
            MemOp::Unlock(l) => {
                if self.release_fence_pending(node, op, now) {
                    return;
                }
                let home = self.service_home(l);
                self.send_cc(node, now, ProtoMsg::LockRelease { lock: l }, home, VNet::Req);
                // Release costs the CC but does not stall the processor.
                self.nodes[node.idx()].proc = ProcState::BusyUntil(now + costs.cc_send);
            }
        }
    }

    /// Home node of a barrier/lock id.
    fn service_home(&self, id: u16) -> NodeId {
        NodeId(id % self.nodes.len() as u16)
    }

    /// Release-consistency fence: a releasing synchronization operation
    /// waits until the write buffer drains. Returns true when the op was
    /// deferred.
    fn release_fence_pending(&mut self, node: NodeId, op: MemOp, now: Cycle) -> bool {
        if !self.nodes[node.idx()].pending_writes.is_empty() {
            self.stall(node, StallKind::Deferred(op), now);
            true
        } else {
            false
        }
    }

    /// A deferred op retries whenever a pending write retires.
    fn retry_deferred(&mut self, now: Cycle, node: NodeId) {
        if let ProcState::Stalled { kind: StallKind::Deferred(op), .. } =
            self.nodes[node.idx()].proc
        {
            self.nodes[node.idx()].proc = ProcState::Idle;
            self.issue_at(node, op, now);
        }
    }

    /// Internal re-issue path used by deferred retries (bypasses the
    /// public `proc_idle` gate which compares against `self.now`).
    fn issue_at(&mut self, node: NodeId, op: MemOp, now: Cycle) {
        let saved = self.now;
        self.now = now;
        self.issue(node, op);
        self.now = saved.max(now);
    }

    // ------------------------------------------------------------------
    // Coherence invariant checking.
    // ------------------------------------------------------------------

    /// Verify the global coherence invariants. Intended to be called when
    /// the system is idle (no transient states in flight):
    ///
    /// * **SWMR** — a block in `Exclusive(o)` is cached Modified at `o`
    ///   and nowhere else; no two caches ever hold it writable.
    /// * **Shared agreement** — a block in `Shared` is held (if at all)
    ///   only in `Shared` state, and only by nodes whose presence bit is
    ///   set (silent clean eviction makes presence a superset).
    /// * **Uncached purity** — an `Uncached` block is in no cache.
    /// * **No residue** — no directory entry is left `Waiting` and no
    ///   invalidation transaction is open.
    ///
    /// Returns a diagnostic for the first violation found.
    pub fn verify_coherence(&self) -> Result<(), String> {
        if !self.txns.is_empty() {
            return Err(format!("{} invalidation transactions still open", self.txns.len()));
        }
        for (h, dir) in self.dirs.iter().enumerate() {
            let home = NodeId(h as u16);
            for block in dir.blocks() {
                let entry = dir.entry(block).expect("listed block exists");
                match entry.state {
                    DirState::Uncached => {
                        for (i, n) in self.nodes.iter().enumerate() {
                            if let Some(st) = n.cache.state(block) {
                                return Err(format!(
                                    "{block} uncached at home {home} but cached {st:?} at n{i}"
                                ));
                            }
                        }
                    }
                    DirState::Shared => {
                        for (i, n) in self.nodes.iter().enumerate() {
                            match n.cache.state(block) {
                                Some(LineState::Modified) => {
                                    return Err(format!(
                                        "{block} shared at home {home} but Modified at n{i}"
                                    ));
                                }
                                Some(LineState::Shared)
                                    if !entry.has_presence(NodeId(i as u16)) =>
                                {
                                    return Err(format!(
                                        "{block} cached at n{i} without a presence bit"
                                    ));
                                }
                                Some(LineState::Shared) => {}
                                None => {}
                            }
                        }
                    }
                    DirState::Exclusive(owner) => {
                        for (i, n) in self.nodes.iter().enumerate() {
                            let st = n.cache.state(block);
                            if NodeId(i as u16) == owner {
                                // The owner may have a writeback in flight
                                // only while the system is not idle; at
                                // idle it must hold the line Modified.
                                if st != Some(LineState::Modified) {
                                    return Err(format!(
                                        "{block} exclusive at {owner} but its cache holds {st:?}"
                                    ));
                                }
                            } else if st.is_some() {
                                return Err(format!(
                                    "{block} exclusive at {owner} but also cached {st:?} at n{i} (SWMR violation)"
                                ));
                            }
                        }
                    }
                    DirState::Waiting => {
                        return Err(format!("{block} left in Waiting at home {home}"));
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Test/bench seams.
    // ------------------------------------------------------------------

    /// Seed `block` as Shared at `sharers` (directory + caches), bypassing
    /// the protocol — used by single-transaction experiments to set up an
    /// invalidation pattern directly.
    pub fn seed_shared(&mut self, block: BlockId, sharers: &[NodeId]) {
        let home = self.geom.home_of(block);
        let entry = self.dirs[home.idx()].entry_mut(block);
        assert_eq!(entry.state, DirState::Uncached, "seed on a fresh block");
        entry.state = DirState::Shared;
        for &s in sharers {
            entry.set_presence(s);
            self.nodes[s.idx()].cache.insert(block, LineState::Shared);
        }
    }

    /// Cache state of `block` at `node` (tests).
    pub fn cache_state(&self, node: NodeId, block: BlockId) -> Option<LineState> {
        self.nodes[node.idx()].cache.state(block)
    }

    /// Directory state of `block` (tests).
    pub fn dir_state(&self, block: BlockId) -> DirState {
        let home = self.geom.home_of(block);
        self.dirs[home.idx()].state(block)
    }

    /// Deliver a forged protocol message straight into `node`'s
    /// controller, bypassing the network — used by tests to exercise the
    /// always-on invariant auditing with malformed traffic.
    #[doc(hidden)]
    pub fn debug_deliver(&mut self, node: NodeId, msg: ProtoMsg, acks: u32, src: NodeId) {
        let key = self.msgs.push(msg);
        self.recv(self.now, node, key, acks, DeliveryKind::Final, src);
    }

    /// Ids of the invalidation transactions currently open (tests).
    #[doc(hidden)]
    pub fn open_txn_ids(&self) -> Vec<TxnId> {
        self.txns.ids.iter().filter(|&&id| id != 0).map(|&id| TxnId(id)).collect()
    }

    // ------------------------------------------------------------------
    // Message plumbing.
    // ------------------------------------------------------------------

    /// Send `msg` from `node`'s cache controller at `start` (occupying it
    /// for the compose cost) to `dest`.
    fn send_cc(
        &mut self,
        node: NodeId,
        start: Cycle,
        msg: ProtoMsg,
        dest: NodeId,
        vnet: VNet,
    ) -> Cycle {
        let t = self.nodes[node.idx()].cc.occupy(start.max(self.now), self.cfg.costs.cc_send);
        self.dispatch_unicast(node, t, msg, dest, vnet);
        t
    }

    /// Send `msg` from `node`'s directory controller at `start`.
    fn send_dc(
        &mut self,
        node: NodeId,
        start: Cycle,
        msg: ProtoMsg,
        dest: NodeId,
        vnet: VNet,
    ) -> Cycle {
        let t = self.nodes[node.idx()].dc.occupy(start.max(self.now), self.cfg.costs.dc_send);
        self.dispatch_unicast(node, t, msg, dest, vnet);
        t
    }

    fn dispatch_unicast(
        &mut self,
        node: NodeId,
        t: Cycle,
        msg: ProtoMsg,
        dest: NodeId,
        vnet: VNet,
    ) {
        let key = self.msgs.push(msg);
        if dest == node {
            // Local shortcut: no network, straight to the co-located
            // controller input.
            self.cal.schedule(
                t,
                Ev::Recv { node: dest, key, acks: 0, kind: DeliveryKind::Final, src: node },
            );
        } else {
            let len = self.cfg.sizes.unicast_len(&msg);
            let spec = WormSpec::unicast(node, dest, vnet, len, key);
            self.cal.schedule(t, Ev::Inject(spec));
        }
    }

    /// Build the network worm for a planned worm of transaction `txn`.
    fn build_spec(
        &mut self,
        src: NodeId,
        w: &PlannedWorm,
        txn: TxnId,
        block: BlockId,
        home: NodeId,
    ) -> WormSpec {
        let msg = match w.kind {
            WormKind::Gather => {
                let last = *w.dests.last().expect("non-empty");
                if last == home || w.gather_deposit {
                    ProtoMsg::GatherAck { block, txn }
                } else {
                    ProtoMsg::SweepTrigger { block, txn }
                }
            }
            _ if w.relay => ProtoMsg::RelayInval { block, txn, home },
            _ => ProtoMsg::Inval { block, txn, home },
        };
        let key = self.msgs.push(msg);
        let len = match w.kind {
            WormKind::Gather => self.cfg.sizes.gather_len(),
            WormKind::Unicast => self.cfg.sizes.unicast_len(&msg),
            WormKind::Multicast => self.cfg.sizes.multicast_len(&msg, w.delivering()),
        };
        WormSpec {
            src,
            vnet: if w.kind == WormKind::Gather { VNet::Reply } else { VNet::Req },
            kind: w.kind,
            dests: w.dests.as_slice().into(),
            len_flits: len,
            payload: key,
            reserve_iack: w.reserve_iack,
            txn,
            initial_acks: w.initial_acks,
            gather_deposit: w.gather_deposit,
            deliver: w.deliver.as_deref().map(Into::into),
        }
    }

    /// Route a network delivery into the right controller.
    fn on_delivery(&mut self, d: Delivery) {
        self.recv(self.now, d.node, d.payload, d.acks, d.kind, d.src);
    }

    /// A message arrived at `node`: occupy the owning controller, then
    /// schedule the protocol handler.
    fn recv(
        &mut self,
        now: Cycle,
        node: NodeId,
        key: u64,
        acks: u32,
        kind: DeliveryKind,
        src: NodeId,
    ) {
        let msg = self.msgs.get(key);
        let costs = self.cfg.costs;
        let _ = kind;
        let is_dc = self.is_dc_message(node, &msg);
        let t = if is_dc {
            self.nodes[node.idx()].dc.occupy(now, costs.dc_proc)
        } else {
            self.nodes[node.idx()].cc.occupy(now, costs.cc_proc)
        };
        self.cal.schedule(t, Ev::Handle { node, key, acks, kind, src });
    }

    /// Directory-controller messages (home-bound protocol traffic).
    fn is_dc_message(&self, node: NodeId, msg: &ProtoMsg) -> bool {
        match msg {
            ProtoMsg::ReadReq { .. }
            | ProtoMsg::WriteReq { .. }
            | ProtoMsg::UpgradeReq { .. }
            | ProtoMsg::InvAck { .. }
            | ProtoMsg::FetchWb { .. }
            | ProtoMsg::Writeback { .. }
            | ProtoMsg::BarrierArrive { .. }
            | ProtoMsg::LockReq { .. }
            | ProtoMsg::LockRelease { .. } => true,
            ProtoMsg::GatherAck { txn, .. } => {
                debug_assert!(self.txns.get(*txn).is_none_or(|t| t.home == node));
                true
            }
            _ => false,
        }
    }

    fn handle_event(&mut self, now: Cycle, ev: Ev) {
        match ev {
            Ev::Recv { node, key, acks, kind, src } => self.recv(now, node, key, acks, kind, src),
            Ev::Handle { node, key, acks, kind, src } => {
                let msg = self.msgs.get(key);
                self.dispatch(now, node, msg, key, acks, kind, src);
            }
            Ev::Inject(spec) => {
                self.net.inject(spec);
            }
            Ev::PostIack { node, txn } => {
                if !self.net.post_iack(node, txn) {
                    // Buffer full: retry. The retry always eventually
                    // succeeds — once this post's own gather parks in an
                    // entry, the post resolves into it without needing a
                    // free slot — and falling back to a unicast ack would
                    // strand that gather forever.
                    self.metrics.iack_fallbacks += 1;
                    self.cal.schedule(now + POST_RETRY_DELAY, Ev::PostIack { node, txn });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Protocol FSM.
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        now: Cycle,
        node: NodeId,
        msg: ProtoMsg,
        key: u64,
        acks: u32,
        _kind: DeliveryKind,
        src: NodeId,
    ) {
        match msg {
            ProtoMsg::ReadReq { block, requester } => {
                self.h_read_req(now, node, block, requester, key)
            }
            ProtoMsg::WriteReq { block, requester } | ProtoMsg::UpgradeReq { block, requester } => {
                self.h_write_req(now, node, block, requester, key)
            }
            ProtoMsg::ReadReply { block } => self.h_read_reply(now, node, block),
            ProtoMsg::Inval { block, txn, home } => self.h_inval(now, node, block, txn, home),
            ProtoMsg::RelayInval { block, txn, home } => self.h_relay(now, node, block, txn, home),
            ProtoMsg::InvAck { txn, count, .. } => self.h_acks(now, node, txn, count),
            ProtoMsg::GatherAck { txn, .. } => self.h_acks(now, node, txn, acks),
            ProtoMsg::SweepTrigger { block, txn } => {
                self.h_sweep_trigger(now, node, block, txn, acks)
            }
            ProtoMsg::WriteGrant { block, with_data } => {
                self.h_write_grant(now, node, block, with_data)
            }
            ProtoMsg::Fetch { block, requester, for_write } => {
                self.h_fetch(now, node, block, requester, for_write)
            }
            ProtoMsg::OwnerData { block, exclusive } => {
                self.h_owner_data(now, node, block, exclusive)
            }
            ProtoMsg::FetchWb { block, requester, was_write } => {
                self.h_fetch_wb(now, node, block, requester, was_write, src)
            }
            ProtoMsg::Writeback { block, owner } => self.h_writeback(now, node, block, owner, key),
            ProtoMsg::WritebackAck { block } => {
                self.nodes[node.idx()].wb.release(block);
                // An access deferred behind this writeback can now retry.
                self.retry_deferred(now, node);
            }
            ProtoMsg::BarrierArrive { barrier, participants } => {
                self.h_barrier_arrive(now, node, barrier, participants, src)
            }
            ProtoMsg::BarrierRelease { barrier } => {
                self.resume_sync(now, node, StallKind::Barrier(barrier))
            }
            ProtoMsg::LockReq { lock, requester } => self.h_lock_req(now, node, lock, requester),
            ProtoMsg::LockGrant { lock } => self.resume_sync(now, node, StallKind::Lock(lock)),
            ProtoMsg::LockRelease { lock } => self.h_lock_release(now, node, lock),
        }
    }

    fn h_read_req(
        &mut self,
        now: Cycle,
        home: NodeId,
        block: BlockId,
        requester: NodeId,
        key: u64,
    ) {
        let costs = self.cfg.costs;
        match self.dirs[home.idx()].state(block) {
            DirState::Uncached | DirState::Shared => {
                let t = self.nodes[home.idx()].mem.occupy(now, costs.mem_access);
                let entry = self.dirs[home.idx()].entry_mut(block);
                entry.state = DirState::Shared;
                entry.set_presence(requester);
                self.send_dc(home, t, ProtoMsg::ReadReply { block }, requester, VNet::Reply);
            }
            DirState::Exclusive(owner) => {
                let entry = self.dirs[home.idx()].entry_mut(block);
                entry.state = DirState::Waiting;
                self.send_dc(
                    home,
                    now,
                    ProtoMsg::Fetch { block, requester, for_write: false },
                    owner,
                    VNet::Req,
                );
            }
            DirState::Waiting => {
                self.dirs[home.idx()]
                    .entry_mut(block)
                    .queue
                    .push_back(wormdsm_coherence::QueuedReq { node: requester, msg_key: key });
            }
        }
    }

    fn h_write_req(
        &mut self,
        now: Cycle,
        home: NodeId,
        block: BlockId,
        requester: NodeId,
        key: u64,
    ) {
        let costs = self.cfg.costs;
        match self.dirs[home.idx()].state(block) {
            DirState::Uncached => {
                let t = self.nodes[home.idx()].mem.occupy(now, costs.mem_access);
                let entry = self.dirs[home.idx()].entry_mut(block);
                entry.state = DirState::Exclusive(requester);
                entry.clear_all();
                self.send_dc(
                    home,
                    t,
                    ProtoMsg::WriteGrant { block, with_data: true },
                    requester,
                    VNet::Reply,
                );
            }
            DirState::Shared => self.start_invalidation(now, home, block, requester),
            DirState::Exclusive(owner) => {
                debug_assert_ne!(owner, requester, "owner write-missing its own block");
                let entry = self.dirs[home.idx()].entry_mut(block);
                entry.state = DirState::Waiting;
                self.send_dc(
                    home,
                    now,
                    ProtoMsg::Fetch { block, requester, for_write: true },
                    owner,
                    VNet::Req,
                );
            }
            DirState::Waiting => {
                self.dirs[home.idx()]
                    .entry_mut(block)
                    .queue
                    .push_back(wormdsm_coherence::QueuedReq { node: requester, msg_key: key });
            }
        }
    }

    /// The heart of the reproduction: run the configured scheme over the
    /// sharer set.
    fn start_invalidation(&mut self, now: Cycle, home: NodeId, block: BlockId, writer: NodeId) {
        let costs = self.cfg.costs;
        let with_data = !self.dirs[home.idx()].entry_mut(block).has_presence(writer);

        // Invalidate the home's own copy locally (no network message).
        if home != writer && self.dirs[home.idx()].entry_mut(block).has_presence(home) {
            self.invalidate_local(home, block);
            self.dirs[home.idx()].entry_mut(block).clear_presence(home);
        }

        let remote: Vec<NodeId> = self.dirs[home.idx()]
            .entry_mut(block)
            .sharers_except(writer)
            .into_iter()
            .filter(|&s| s != home)
            .collect();

        if remote.is_empty() {
            // Fast path: nothing remote to invalidate.
            let entry = self.dirs[home.idx()].entry_mut(block);
            entry.state = DirState::Exclusive(writer);
            entry.clear_all();
            self.send_dc(home, now, ProtoMsg::WriteGrant { block, with_data }, writer, VNet::Reply);
            return;
        }

        let mesh = self.cfg.mesh.mesh;
        // Adaptive schemes read the committed link-load summary; static
        // schemes ignore it (default `plan_with_load` forwards to `plan`).
        let plan = self.scheme.plan_with_load(&mesh, home, &remote, self.net.link_load());
        debug_assert!(
            crate::plan::validate_plan(&plan, &remote).is_ok(),
            "{:?}",
            crate::plan::validate_plan(&plan, &remote)
        );
        let needed = plan.needed;
        let txn_id = self.txns.next_id();
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::TxnOpen {
                txn: txn_id.0,
                block: block.0,
                home: home.idx() as u32,
                writer: writer.idx() as u32,
                needed,
            }
        );

        self.dirs[home.idx()].entry_mut(block).state = DirState::Waiting;

        // Inject request worms, serializing through the DC (the occupancy
        // effect the paper measures).
        let mut t = now;
        let mut home_msgs = 1; // the write request itself
        for w in &plan.request_worms {
            let spec = self.build_spec(home, w, txn_id, block, home);
            t = self.nodes[home.idx()].dc.occupy(t, costs.dc_send);
            self.cal.schedule(t, Ev::Inject(spec));
            home_msgs += 1;
        }

        let inserted = self.txns.insert(TxnState {
            block,
            home,
            writer,
            needed: plan.needed,
            got: 0,
            plan,
            with_data,
            started: now,
            home_msgs,
        });
        invariant!(
            return;
            self,
            Some(txn_id),
            inserted.is_some(),
            "transaction slab overflow: {} transactions in flight exceeds the {}-slot id space",
            self.txns.len(),
            TxnSlab::CAPACITY
        );
        debug_assert_eq!(inserted, Some(txn_id));
    }

    /// Invalidate `block` in `node`'s cache, handling the late-fill race:
    /// if the line is absent because a read fill is still in flight, the
    /// fill is *poisoned* — the read's value is still returned (it is
    /// ordered before the write under the directory's serialization), but
    /// the stale line is not installed.
    fn invalidate_local(&mut self, node: NodeId, block: BlockId) {
        if self.nodes[node.idx()].cache.invalidate(block).is_some() {
            return;
        }
        let fill_in_flight = matches!(
            self.nodes[node.idx()].proc,
            ProcState::Stalled { kind: StallKind::Read(b), .. } if b == block
        );
        if fill_in_flight {
            // Idempotent: a second transaction can invalidate the same
            // outstanding fill (its FetchWb re-set our presence bit at the
            // home before the OwnerData reached us). One outstanding read
            // means any existing poison is for this same block.
            debug_assert!(
                self.nodes[node.idx()].poisoned_fill.is_none_or(|b| b == block),
                "poison for a different block than the outstanding read"
            );
            self.nodes[node.idx()].poisoned_fill = Some(block);
            self.metrics.poisoned_fills += 1;
        } else {
            self.metrics.spurious_invals += 1;
        }
    }

    fn h_inval(&mut self, now: Cycle, node: NodeId, block: BlockId, txn: TxnId, home: NodeId) {
        let costs = self.cfg.costs;
        self.invalidate_local(node, block);
        let Some(action) = self.txns.get(txn).and_then(|t| t.plan.action_for(node)).cloned() else {
            self.invariant_failed(
                Some(txn),
                format!("invalidation of {block} delivered to {node} with no planned action"),
            );
            return;
        };
        self.perform_ack_action(now + costs.cache_access, node, block, txn, home, &action);
    }

    fn perform_ack_action(
        &mut self,
        start: Cycle,
        node: NodeId,
        block: BlockId,
        txn: TxnId,
        home: NodeId,
        action: &AckAction,
    ) {
        let costs = self.cfg.costs;
        match action {
            AckAction::Unicast => {
                self.send_cc(
                    node,
                    start,
                    ProtoMsg::InvAck { block, txn, count: 1 },
                    home,
                    VNet::Reply,
                );
            }
            AckAction::Post => {
                let t = self.nodes[node.idx()].cc.occupy(start, costs.iack_post);
                self.cal.schedule(t, Ev::PostIack { node, txn });
            }
            AckAction::InitGather(w) => {
                let spec = self.build_spec(node, w, txn, block, home);
                let t = self.nodes[node.idx()].cc.occupy(start, costs.cc_send);
                self.cal.schedule(t, Ev::Inject(spec));
            }
        }
    }

    fn h_relay(&mut self, now: Cycle, node: NodeId, block: BlockId, txn: TxnId, home: NodeId) {
        let costs = self.cfg.costs;
        let (worms, action) = {
            let t = self.txns.get(txn).expect("txn live");
            let worms: Vec<PlannedWorm> = t
                .plan
                .relays
                .iter()
                .find(|(n, _)| *n == node)
                .map(|(_, ws)| ws.clone())
                .unwrap_or_default();
            (worms, t.plan.action_for(node).cloned())
        };
        let mut t = now;
        for w in &worms {
            let spec = self.build_spec(node, w, txn, block, home);
            t = self.nodes[node.idx()].cc.occupy(t, costs.cc_send);
            self.cal.schedule(t, Ev::Inject(spec));
        }
        // A delegate that is itself a sharer invalidates and acks too.
        if let Some(action) = action {
            self.invalidate_local(node, block);
            self.perform_ack_action(t + costs.cache_access, node, block, txn, home, &action);
        }
    }

    fn h_sweep_trigger(&mut self, now: Cycle, node: NodeId, block: BlockId, txn: TxnId, acks: u32) {
        let costs = self.cfg.costs;
        let (mut sweep, home) = {
            let t = self.txns.get(txn).expect("txn live");
            (t.plan.trigger_for(node).cloned().expect("sweep trigger has a planned worm"), t.home)
        };
        sweep.initial_acks += acks;
        let spec = self.build_spec(node, &sweep, txn, block, home);
        let t = self.nodes[node.idx()].cc.occupy(now, costs.cc_send);
        self.cal.schedule(t, Ev::Inject(spec));
    }

    /// Acks arrived at the home (unicast count or gathered count).
    fn h_acks(&mut self, now: Cycle, home: NodeId, txn: TxnId, count: u32) {
        match self.txns.get(txn).map(|t| t.home) {
            None => {
                self.invariant_failed(
                    Some(txn),
                    format!("{count} ack(s) arrived at {home} for a dead transaction"),
                );
                return;
            }
            Some(h) if h != home => {
                self.invariant_failed(
                    Some(txn),
                    format!("ack(s) arrived at {home} for a transaction homed at {h}"),
                );
                return;
            }
            Some(_) => {}
        }
        let t = self.txns.get_mut(txn).expect("liveness checked above");
        t.got += count;
        t.home_msgs += 1;
        let (got, needed) = (t.got, t.needed);
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::TxnAck { txn: txn.0, count, got, needed }
        );
        if got >= needed {
            self.complete_invalidation(now, txn);
        }
    }

    fn complete_invalidation(&mut self, now: Cycle, txn: TxnId) {
        let Some(t) = self.txns.remove(txn) else {
            self.invariant_failed(Some(txn), "completing a dead transaction".to_string());
            return;
        };
        invariant!(
            self,
            Some(txn),
            t.got == t.needed,
            "over-collected acks: got {} of {} needed",
            t.got,
            t.needed
        );
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::TxnClose { txn: txn.0, latency: now - t.started, set_size: t.needed }
        );
        self.metrics.inval_txns += 1;
        self.metrics.inval_latency.record((now - t.started) as f64);
        self.metrics.inval_set_size.record(t.needed as u64);
        // +1: the grant the home is about to send.
        self.metrics.inval_home_msgs.record((t.home_msgs + 1) as f64);

        let entry = self.dirs[t.home.idx()].entry_mut(t.block);
        entry.state = DirState::Exclusive(t.writer);
        entry.clear_all();
        let queued: Vec<wormdsm_coherence::QueuedReq> = entry.queue.drain(..).collect();
        self.send_dc(
            t.home,
            now,
            ProtoMsg::WriteGrant { block: t.block, with_data: t.with_data },
            t.writer,
            VNet::Reply,
        );
        // Replay queued requests against the settled directory state.
        for q in queued {
            self.recv(now, t.home, q.msg_key, 0, DeliveryKind::Final, q.node);
        }
    }

    fn h_read_reply(&mut self, now: Cycle, node: NodeId, block: BlockId) {
        if self.take_poison(node, block) {
            // Serve the read without installing the invalidated line.
            self.resume_mem(now, node, StallKind::Read(block));
            return;
        }
        self.install_line(now, node, block, LineState::Shared);
        self.resume_mem(now, node, StallKind::Read(block));
    }

    /// Consume a pending fill poison for `block`, if set.
    fn take_poison(&mut self, node: NodeId, block: BlockId) -> bool {
        if self.nodes[node.idx()].poisoned_fill == Some(block) {
            self.nodes[node.idx()].poisoned_fill = None;
            true
        } else {
            false
        }
    }

    fn h_write_grant(&mut self, now: Cycle, node: NodeId, block: BlockId, with_data: bool) {
        if with_data {
            self.install_line(now, node, block, LineState::Modified);
        } else if !self.nodes[node.idx()].cache.upgrade(block) {
            // The copy vanished between the upgrade request and the grant
            // (conflict eviction is impossible while stalled, so this is a
            // protocol bug if it fires).
            self.install_line(now, node, block, LineState::Modified);
        }
        self.complete_write(now, node, block);
    }

    /// A write's permission arrived: resume a stalled SC writer or retire
    /// the RC write-buffer entry.
    fn complete_write(&mut self, now: Cycle, node: NodeId, block: BlockId) {
        if let ProcState::Stalled { kind: StallKind::Write(b), .. } = self.nodes[node.idx()].proc {
            invariant!(
                return; self, None, b == block,
                "{node} write completion for {block} but the processor is stalled on {b}"
            );
            self.resume_mem(now, node, StallKind::Write(block));
            return;
        }
        let Some(i) = self.nodes[node.idx()].pending_writes.iter().position(|&(b, _)| b == block)
        else {
            self.invariant_failed(
                None,
                format!("{node} write completion for {block} matches no pending write"),
            );
            return;
        };
        let (_, issued) = self.nodes[node.idx()].pending_writes.swap_remove(i);
        self.metrics.write_latency.record((now - issued) as f64);
        self.retry_deferred(now, node);
    }

    fn h_fetch(
        &mut self,
        now: Cycle,
        owner: NodeId,
        block: BlockId,
        requester: NodeId,
        for_write: bool,
    ) {
        let costs = self.cfg.costs;
        let in_cache = self.nodes[owner.idx()].cache.state(block) == Some(LineState::Modified);
        let in_wb = self.nodes[owner.idx()].wb.contains(block);
        if !in_cache && !in_wb {
            // Window of vulnerability [23]: the fetch (short, request net)
            // overtook this node's own data-carrying grant (long, reply
            // net). Defer and retry once the grant lands.
            self.metrics.fetch_retries += 1;
            let key = self.msgs.push(ProtoMsg::Fetch { block, requester, for_write });
            self.cal.schedule(
                now + FETCH_RETRY_DELAY,
                Ev::Recv { node: owner, key, acks: 0, kind: DeliveryKind::Final, src: owner },
            );
            return;
        }
        if in_cache {
            if for_write {
                self.nodes[owner.idx()].cache.invalidate(block);
            } else {
                self.nodes[owner.idx()].cache.downgrade(block);
            }
        }
        let t = self.send_cc(
            owner,
            now + costs.cache_access,
            ProtoMsg::OwnerData { block, exclusive: for_write },
            requester,
            VNet::Reply,
        );
        self.send_cc(
            owner,
            t,
            ProtoMsg::FetchWb { block, requester, was_write: for_write },
            self.geom.home_of(block),
            VNet::Reply,
        );
    }

    fn h_owner_data(&mut self, now: Cycle, node: NodeId, block: BlockId, exclusive: bool) {
        if exclusive {
            self.install_line(now, node, block, LineState::Modified);
            self.complete_write(now, node, block);
        } else {
            if self.take_poison(node, block) {
                self.resume_mem(now, node, StallKind::Read(block));
                return;
            }
            self.install_line(now, node, block, LineState::Shared);
            self.resume_mem(now, node, StallKind::Read(block));
        }
    }

    fn h_fetch_wb(
        &mut self,
        now: Cycle,
        home: NodeId,
        block: BlockId,
        requester: NodeId,
        was_write: bool,
        old_owner: NodeId,
    ) {
        let costs = self.cfg.costs;
        let _t = self.nodes[home.idx()].mem.occupy(now, costs.mem_access);
        let entry = self.dirs[home.idx()].entry_mut(block);
        entry.clear_all();
        if was_write {
            entry.state = DirState::Exclusive(requester);
        } else {
            entry.state = DirState::Shared;
            entry.set_presence(old_owner);
            entry.set_presence(requester);
        }
        let queued: Vec<wormdsm_coherence::QueuedReq> = entry.queue.drain(..).collect();
        for q in queued {
            self.recv(now, home, q.msg_key, 0, DeliveryKind::Final, q.node);
        }
    }

    fn h_writeback(&mut self, now: Cycle, home: NodeId, block: BlockId, owner: NodeId, key: u64) {
        let costs = self.cfg.costs;
        match self.dirs[home.idx()].state(block) {
            DirState::Exclusive(o) if o == owner => {
                let t = self.nodes[home.idx()].mem.occupy(now, costs.mem_access);
                let entry = self.dirs[home.idx()].entry_mut(block);
                entry.state = DirState::Uncached;
                entry.clear_all();
                self.send_dc(home, t, ProtoMsg::WritebackAck { block }, owner, VNet::Reply);
            }
            DirState::Waiting => {
                // The writeback raced with a fetch the home already sent.
                // Acknowledging now would let the owner free its writeback
                // buffer before the fetch reaches it, losing the data.
                // Defer until the fetch transaction settles the entry.
                self.metrics.wb_retries += 1;
                self.cal.schedule(
                    now + WRITEBACK_RETRY_DELAY,
                    Ev::Recv { node: home, key, acks: 0, kind: DeliveryKind::Final, src: owner },
                );
            }
            _ => {
                // Stale writeback: a fetch already transferred ownership;
                // the data was supplied by the FetchWb.
                self.send_dc(home, now, ProtoMsg::WritebackAck { block }, owner, VNet::Reply);
            }
        }
    }

    fn h_barrier_arrive(
        &mut self,
        now: Cycle,
        home: NodeId,
        barrier: u16,
        participants: u32,
        src: NodeId,
    ) {
        let idx = barrier as usize;
        if self.barriers.len() <= idx {
            self.barriers.resize_with(idx + 1, || None);
        }
        let st = self.barriers[idx]
            .get_or_insert_with(|| BarrierState { expected: participants, arrived: Vec::new() });
        st.arrived.push(src);
        if (st.arrived.len() as u32) < st.expected {
            return;
        }
        let arrived = self.barriers[idx].take().expect("barrier state present").arrived;
        self.metrics.barriers += 1;
        if self.cfg.multicast_barriers {
            self.release_barrier_multicast(now, home, barrier, arrived);
        } else {
            self.release_barrier_unicast(now, home, barrier, arrived);
        }
    }

    /// Per-participant unicast releases (the baseline used by the paper's
    /// systems).
    fn release_barrier_unicast(
        &mut self,
        now: Cycle,
        home: NodeId,
        barrier: u16,
        arrived: Vec<NodeId>,
    ) {
        let mut t = now;
        for n in arrived {
            t = self.nodes[home.idx()].dc.occupy(t, self.cfg.costs.dc_send);
            let key = self.msgs.push(ProtoMsg::BarrierRelease { barrier });
            if n == home {
                self.cal.schedule(
                    t,
                    Ev::Recv { node: n, key, acks: 0, kind: DeliveryKind::Final, src: home },
                );
            } else {
                let len = self.cfg.sizes.control;
                let spec = WormSpec::unicast(home, n, VNet::Reply, len, key);
                self.cal.schedule(t, Ev::Inject(spec));
            }
        }
    }

    /// Release with multidestination worms on the reply network: one worm
    /// per YX row group, so the barrier home sends O(rows) messages
    /// instead of O(participants) — the collective-communication variant
    /// from the group's barrier work.
    fn release_barrier_multicast(
        &mut self,
        now: Cycle,
        home: NodeId,
        barrier: u16,
        arrived: Vec<NodeId>,
    ) {
        let mesh = self.cfg.mesh.mesh;
        let remote: Vec<NodeId> = arrived.iter().copied().filter(|&n| n != home).collect();
        let mut t = now;
        if arrived.len() > remote.len() {
            // The home itself participates: local release.
            let key = self.msgs.push(ProtoMsg::BarrierRelease { barrier });
            t = self.nodes[home.idx()].dc.occupy(t, self.cfg.costs.dc_send);
            self.cal.schedule(
                t,
                Ev::Recv { node: home, key, acks: 0, kind: DeliveryKind::Final, src: home },
            );
        }
        for g in crate::schemes::grouping::row_groups(&mesh, home, &remote) {
            let key = self.msgs.push(ProtoMsg::BarrierRelease { barrier });
            let msg = ProtoMsg::BarrierRelease { barrier };
            let len = self.cfg.sizes.multicast_len(&msg, g.members.len());
            t = self.nodes[home.idx()].dc.occupy(t, self.cfg.costs.dc_send);
            let spec = WormSpec {
                src: home,
                vnet: VNet::Reply,
                kind: if g.members.len() == 1 { WormKind::Unicast } else { WormKind::Multicast },
                dests: g.members.into(),
                len_flits: len,
                payload: key,
                reserve_iack: false,
                txn: TxnId(0),
                initial_acks: 0,
                gather_deposit: false,
                deliver: None,
            };
            self.cal.schedule(t, Ev::Inject(spec));
        }
    }

    fn h_lock_req(&mut self, now: Cycle, home: NodeId, lock: u16, requester: NodeId) {
        let idx = lock as usize;
        if self.locks.len() <= idx {
            self.locks.resize_with(idx + 1, || None);
        }
        let st = self.locks[idx].get_or_insert_with(LockState::default);
        if st.holder.is_none() {
            st.holder = Some(requester);
            self.send_dc(home, now, ProtoMsg::LockGrant { lock }, requester, VNet::Reply);
        } else {
            st.queue.push_back(requester);
        }
    }

    fn h_lock_release(&mut self, now: Cycle, home: NodeId, lock: u16) {
        let st = self
            .locks
            .get_mut(lock as usize)
            .and_then(|s| s.as_mut())
            .expect("release of unknown lock");
        st.holder = None;
        if let Some(next) = st.queue.pop_front() {
            st.holder = Some(next);
            self.send_dc(home, now, ProtoMsg::LockGrant { lock }, next, VNet::Reply);
        }
    }

    // ------------------------------------------------------------------
    // Cache install / processor resume helpers.
    // ------------------------------------------------------------------

    /// Install a line, sending a writeback when a dirty victim falls out.
    fn install_line(&mut self, now: Cycle, node: NodeId, block: BlockId, state: LineState) {
        match self.nodes[node.idx()].cache.insert(block, state) {
            Evicted::None | Evicted::Clean(_) => {}
            Evicted::Dirty(victim) => {
                self.metrics.writebacks += 1;
                self.nodes[node.idx()].wb.insert(victim);
                let home = self.geom.home_of(victim);
                self.send_cc(
                    node,
                    now,
                    ProtoMsg::Writeback { block: victim, owner: node },
                    home,
                    VNet::Req,
                );
            }
        }
    }

    /// Put `node`'s processor into a stall, recording the trace event.
    fn stall(&mut self, node: NodeId, kind: StallKind, since: Cycle) {
        self.nodes[node.idx()].proc = ProcState::Stalled { kind, since };
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            since,
            TraceKind::StallEnter { node: node.idx() as u32, what: kind.label() }
        );
    }

    /// Resume a processor stalled on a memory operation.
    fn resume_mem(&mut self, now: Cycle, node: NodeId, expect: StallKind) {
        let ProcState::Stalled { kind, since } = self.nodes[node.idx()].proc else {
            self.invariant_failed(None, format!("{node} got a completion while not stalled"));
            return;
        };
        invariant!(
            return; self, None, kind == expect,
            "{node} completion for {expect:?} does not match its stall {kind:?}"
        );
        let stall = now - since;
        self.metrics.stall_cycles += stall;
        match kind {
            StallKind::Read(_) => self.metrics.read_latency.record(stall as f64),
            StallKind::Write(_) => self.metrics.write_latency.record(stall as f64),
            _ => {}
        }
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::StallExit { node: node.idx() as u32, what: kind.label(), stalled: stall }
        );
        self.nodes[node.idx()].proc = ProcState::BusyUntil(now + self.cfg.costs.cache_access);
    }

    /// Resume a processor stalled on a synchronization operation.
    fn resume_sync(&mut self, now: Cycle, node: NodeId, expect: StallKind) {
        let ProcState::Stalled { kind, since } = self.nodes[node.idx()].proc else {
            self.invariant_failed(None, format!("{node} got a sync completion while not stalled"));
            return;
        };
        invariant!(
            return; self, None, kind == expect,
            "{node} sync completion for {expect:?} does not match its stall {kind:?}"
        );
        let stall = now - since;
        self.metrics.sync_stall_cycles += stall;
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::StallExit { node: node.idx() as u32, what: kind.label(), stalled: stall }
        );
        self.nodes[node.idx()].proc = ProcState::Idle;
    }
}

mod snap_impls {
    use super::*;

    impl Snap for MemOp {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                MemOp::Compute(c) => {
                    w.put_u8(0);
                    w.put_u64(*c);
                }
                MemOp::Read(a) => {
                    w.put_u8(1);
                    a.save(w);
                }
                MemOp::Write(a) => {
                    w.put_u8(2);
                    a.save(w);
                }
                MemOp::Barrier { id, participants } => {
                    w.put_u8(3);
                    w.put_u16(*id);
                    w.put_u32(*participants);
                }
                MemOp::Lock(l) => {
                    w.put_u8(4);
                    w.put_u16(*l);
                }
                MemOp::Unlock(l) => {
                    w.put_u8(5);
                    w.put_u16(*l);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(match r.get_u8()? {
                0 => MemOp::Compute(r.get_u64()?),
                1 => MemOp::Read(Snap::load(r)?),
                2 => MemOp::Write(Snap::load(r)?),
                3 => MemOp::Barrier { id: r.get_u16()?, participants: r.get_u32()? },
                4 => MemOp::Lock(r.get_u16()?),
                5 => MemOp::Unlock(r.get_u16()?),
                t => return Err(SnapError::Corrupt(format!("MemOp tag {t}"))),
            })
        }
    }

    impl Snap for StallKind {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                StallKind::Read(b) => {
                    w.put_u8(0);
                    b.save(w);
                }
                StallKind::Write(b) => {
                    w.put_u8(1);
                    b.save(w);
                }
                StallKind::Barrier(id) => {
                    w.put_u8(2);
                    w.put_u16(*id);
                }
                StallKind::Lock(id) => {
                    w.put_u8(3);
                    w.put_u16(*id);
                }
                StallKind::Deferred(op) => {
                    w.put_u8(4);
                    op.save(w);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(match r.get_u8()? {
                0 => StallKind::Read(Snap::load(r)?),
                1 => StallKind::Write(Snap::load(r)?),
                2 => StallKind::Barrier(r.get_u16()?),
                3 => StallKind::Lock(r.get_u16()?),
                4 => StallKind::Deferred(Snap::load(r)?),
                t => return Err(SnapError::Corrupt(format!("StallKind tag {t}"))),
            })
        }
    }

    impl Snap for ProcState {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                ProcState::Idle => w.put_u8(0),
                ProcState::BusyUntil(t) => {
                    w.put_u8(1);
                    w.put_u64(*t);
                }
                ProcState::Stalled { kind, since } => {
                    w.put_u8(2);
                    kind.save(w);
                    w.put_u64(*since);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(match r.get_u8()? {
                0 => ProcState::Idle,
                1 => ProcState::BusyUntil(r.get_u64()?),
                2 => ProcState::Stalled { kind: Snap::load(r)?, since: r.get_u64()? },
                t => return Err(SnapError::Corrupt(format!("ProcState tag {t}"))),
            })
        }
    }

    impl Snap for NodeCtx {
        fn save(&self, w: &mut SnapWriter) {
            self.cache.save(w);
            self.wb.save(w);
            self.dc.save(w);
            self.cc.save(w);
            self.mem.save(w);
            self.proc.save(w);
            self.pending_writes.save(w);
            self.poisoned_fill.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Self {
                cache: Snap::load(r)?,
                wb: Snap::load(r)?,
                dc: Snap::load(r)?,
                cc: Snap::load(r)?,
                mem: Snap::load(r)?,
                proc: Snap::load(r)?,
                pending_writes: Snap::load(r)?,
                poisoned_fill: Snap::load(r)?,
            })
        }
    }

    impl Snap for TxnState {
        fn save(&self, w: &mut SnapWriter) {
            self.block.save(w);
            self.home.save(w);
            self.writer.save(w);
            w.put_u32(self.needed);
            w.put_u32(self.got);
            self.plan.save(w);
            w.put_bool(self.with_data);
            w.put_u64(self.started);
            w.put_u32(self.home_msgs);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Self {
                block: Snap::load(r)?,
                home: Snap::load(r)?,
                writer: Snap::load(r)?,
                needed: r.get_u32()?,
                got: r.get_u32()?,
                plan: Snap::load(r)?,
                with_data: r.get_bool()?,
                started: r.get_u64()?,
                home_msgs: r.get_u32()?,
            })
        }
    }

    impl Snap for BarrierState {
        fn save(&self, w: &mut SnapWriter) {
            w.put_u32(self.expected);
            self.arrived.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Self { expected: r.get_u32()?, arrived: Snap::load(r)? })
        }
    }

    impl Snap for LockState {
        fn save(&self, w: &mut SnapWriter) {
            self.holder.save(w);
            self.queue.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Self { holder: Snap::load(r)?, queue: Snap::load(r)? })
        }
    }

    impl Snap for TxnSlab {
        fn save(&self, w: &mut SnapWriter) {
            self.slots.save(w);
            self.ids.save(w);
            self.free.save(w);
            w.put_u64(self.seq);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let slots: Vec<Option<TxnState>> = Snap::load(r)?;
            let ids: Vec<u64> = Snap::load(r)?;
            let free: Vec<u32> = Snap::load(r)?;
            let seq = r.get_u64()?;
            if ids.len() != slots.len() {
                return Err(SnapError::Corrupt(format!(
                    "txn slab: {} ids for {} slots",
                    ids.len(),
                    slots.len()
                )));
            }
            for (slot, (s, &id)) in slots.iter().zip(&ids).enumerate() {
                if s.is_some() != (id != 0) {
                    return Err(SnapError::Corrupt(format!(
                        "txn slab: slot {slot} occupancy disagrees with its id"
                    )));
                }
                if id != 0 && (id & ((1 << TXN_SLOT_BITS) - 1)) as usize != slot {
                    return Err(SnapError::Corrupt(format!(
                        "txn slab: id {id:#x} stored in slot {slot}"
                    )));
                }
            }
            let mut vacant_seen = vec![false; slots.len()];
            for &f in &free {
                let f = f as usize;
                if f >= slots.len()
                    || slots[f].is_some()
                    || std::mem::replace(&mut vacant_seen[f], true)
                {
                    return Err(SnapError::Corrupt(format!("txn slab: bad free-list entry {f}")));
                }
            }
            let live = slots.iter().filter(|s| s.is_some()).count();
            if free.len() + live != slots.len() {
                return Err(SnapError::Corrupt(format!(
                    "txn slab: {} free + {live} live != {} slots",
                    free.len(),
                    slots.len()
                )));
            }
            Ok(Self { slots, ids, free, seq, live })
        }
    }

    impl Snap for Ev {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                Ev::Recv { node, key, acks, kind, src } => {
                    w.put_u8(0);
                    node.save(w);
                    w.put_u64(*key);
                    w.put_u32(*acks);
                    kind.save(w);
                    src.save(w);
                }
                Ev::Handle { node, key, acks, kind, src } => {
                    w.put_u8(1);
                    node.save(w);
                    w.put_u64(*key);
                    w.put_u32(*acks);
                    kind.save(w);
                    src.save(w);
                }
                Ev::Inject(spec) => {
                    w.put_u8(2);
                    spec.save(w);
                }
                Ev::PostIack { node, txn } => {
                    w.put_u8(3);
                    node.save(w);
                    txn.save(w);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(match r.get_u8()? {
                0 => Ev::Recv {
                    node: Snap::load(r)?,
                    key: r.get_u64()?,
                    acks: r.get_u32()?,
                    kind: Snap::load(r)?,
                    src: Snap::load(r)?,
                },
                1 => Ev::Handle {
                    node: Snap::load(r)?,
                    key: r.get_u64()?,
                    acks: r.get_u32()?,
                    kind: Snap::load(r)?,
                    src: Snap::load(r)?,
                },
                2 => Ev::Inject(Snap::load(r)?),
                3 => Ev::PostIack { node: Snap::load(r)?, txn: Snap::load(r)? },
                t => return Err(SnapError::Corrupt(format!("Ev tag {t}"))),
            })
        }
    }
}
