//! Network interface controller (router interface).
//!
//! Each node's NIC owns, per the paper's router-interface design:
//!
//! * **injection queues** (one per virtual network) feeding the router's
//!   local input port,
//! * **consumption channels** — the multiple parallel ejection channels
//!   whose count bounds deadlock for multidestination worms (4 suffice on a
//!   2D mesh \[39\]) and relieve hot-spot ejection pressure \[2\],
//! * **i-ack buffers** — the small (2-4 entry) memory-mapped buffer pool
//!   used to post invalidation acknowledgements for i-gather worms and to
//!   park gather worms under virtual cut-through + deferred delivery,
//! * the **delivered-message queue** consumed by the node model.
//!
//! Like the router, NIC state is stored field-major for all nodes at once
//! ([`NicSlab`]), with [`NicTile`] as the per-tile borrowed window of the
//! space-partitioned tick (global node ids, same invariants). The i-ack
//! buffer state machine — the trickiest part of the VCT deferred-delivery
//! protocol — is implemented once as row-level functions shared by both.

use crate::topology::NodeId;
use crate::worm::{Flit, TxnId, VNet, WormId, NUM_VNETS};
use std::collections::VecDeque;
use wormdsm_sim::{Cycle, Strided, StridedView};

/// How a gather worm behaves when it reaches a router interface whose i-ack
/// has not been posted yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IackMode {
    /// Hold the worm in the network (hold-and-wait), retrying each cycle.
    Block,
    /// Virtual cut-through + deferred delivery: swallow the worm into the
    /// i-ack buffer entry, release its channels, and re-inject it when the
    /// local ack is posted (paper section 4.3.4).
    VctDefer,
}

/// State of one i-ack buffer entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IackState {
    /// Reserved by a passing i-reserve worm; ack not yet posted.
    Reserved,
    /// Ack(s) posted and waiting for a gather worm; `count` acks worth.
    Posted {
        /// Number of acknowledgements this entry represents.
        count: u32,
    },
    /// A gather worm is parked here waiting for the local ack.
    Parked {
        /// The parked worm.
        worm: WormId,
        /// Flits drained into the buffer so far.
        drained: u16,
        /// Total flits of the worm.
        total: u16,
        /// Ack count posted while parked (None until posted).
        posted: Option<u32>,
    },
}

/// One i-ack buffer entry.
#[derive(Debug, Clone)]
pub struct IackEntry {
    /// Transaction the entry belongs to.
    pub txn: TxnId,
    /// Entry state.
    pub state: IackState,
}

/// Result of posting an i-ack at a NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOutcome {
    /// Stored into an entry (previously reserved or newly allocated).
    Stored,
    /// A parked gather worm absorbed the ack and is ready to resume; the
    /// network layer must re-inject it (the absorbed count is queued on
    /// the node's resume queue).
    ResumeParked(WormId),
    /// A parked gather worm absorbed the ack but its flits are still
    /// draining; it will resume when the tail arrives.
    ResumePending,
    /// No buffer entry available; caller must fall back to a unicast ack.
    NoSpace,
}

impl PostOutcome {
    /// True when the post found no buffer entry and must be retried.
    pub fn is_no_space(&self) -> bool {
        matches!(self, PostOutcome::NoSpace)
    }
}

/// Result a router gets when a gather head checks the local i-ack buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherCheck {
    /// Ack available; `count` acks were absorbed and the entry freed.
    Ready(u32),
    /// Not posted yet.
    NotReady,
}

/// How a worm was delivered to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// Consumed at its final destination.
    Final,
    /// Absorbed copy at an intermediate destination (forward-and-absorb).
    Absorb,
}

/// A message handed from the network to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving node.
    pub node: NodeId,
    /// The worm.
    pub worm: WormId,
    /// Source node of the worm.
    pub src: NodeId,
    /// Opaque payload from the [`crate::worm::WormSpec`].
    pub payload: u64,
    /// Final consumption vs. absorbed copy.
    pub kind: DeliveryKind,
    /// Accumulated ack count (gather worms; 0 otherwise).
    pub acks: u32,
    /// Cycle the tail drained.
    pub at: Cycle,
    /// Transaction id of the worm.
    pub txn: TxnId,
}

/// Streaming state of a worm being injected into a local input VC.
#[derive(Debug, Clone, Copy)]
pub struct StreamState {
    /// Worm being streamed.
    pub worm: WormId,
    /// Next flit sequence number to push.
    pub next_seq: u16,
    /// Total flits.
    pub len: u16,
}

// --- i-ack buffer state machine, written once over one node's entry row ---

fn find_in(iack: &[Option<IackEntry>], txn: TxnId) -> Option<usize> {
    iack.iter().position(|e| e.as_ref().is_some_and(|e| e.txn == txn))
}

fn free_in(iack: &[Option<IackEntry>]) -> Option<usize> {
    iack.iter().position(|e| e.is_none())
}

/// Reserve an entry for `txn` (i-reserve worm passing through). Idempotent
/// for retried headers; false when the buffer is full.
fn reserve_in(iack: &mut [Option<IackEntry>], txn: TxnId) -> bool {
    if find_in(iack, txn).is_some() {
        return true;
    }
    match free_in(iack) {
        Some(i) => {
            iack[i] = Some(IackEntry { txn, state: IackState::Reserved });
            true
        }
        None => false,
    }
}

/// Post `count` acks worth for `txn` (local acks and partial-count deposits
/// from first-level gather worms).
fn post_count_in(
    iack: &mut [Option<IackEntry>],
    resume_q: &mut VecDeque<(WormId, u32)>,
    txn: TxnId,
    count: u32,
) -> PostOutcome {
    if let Some(i) = find_in(iack, txn) {
        let entry = iack[i].as_mut().expect("found");
        match &mut entry.state {
            IackState::Reserved => {
                entry.state = IackState::Posted { count };
                PostOutcome::Stored
            }
            IackState::Posted { count: c } => {
                *c += count;
                PostOutcome::Stored
            }
            IackState::Parked { worm, drained, total, posted } => {
                debug_assert!(posted.is_none(), "double post on parked entry");
                *posted = Some(count);
                if drained == total {
                    let w = *worm;
                    iack[i] = None;
                    resume_q.push_back((w, count));
                    PostOutcome::ResumeParked(w)
                } else {
                    PostOutcome::ResumePending
                }
            }
        }
    } else {
        match free_in(iack) {
            Some(i) => {
                iack[i] = Some(IackEntry { txn, state: IackState::Posted { count } });
                PostOutcome::Stored
            }
            None => PostOutcome::NoSpace,
        }
    }
}

/// A gather head checks for its ack. On `Ready`, the entry is freed and the
/// count returned.
fn gather_check_in(iack: &mut [Option<IackEntry>], txn: TxnId) -> GatherCheck {
    if let Some(i) = find_in(iack, txn) {
        let entry = iack[i].as_ref().expect("found");
        if let IackState::Posted { count } = entry.state {
            iack[i] = None;
            return GatherCheck::Ready(count);
        }
    }
    GatherCheck::NotReady
}

/// Try to park gather worm `worm` (of `total` flits) for `txn`. Returns the
/// entry index, or None if no entry can hold it.
fn park_in(iack: &mut [Option<IackEntry>], txn: TxnId, worm: WormId, total: u16) -> Option<usize> {
    let idx = match find_in(iack, txn) {
        Some(i) => {
            // Entry exists (reserved); it must not already be posted —
            // gather_check would have consumed a posted entry.
            match iack[i].as_ref().expect("found").state {
                IackState::Reserved => Some(i),
                _ => None,
            }
        }
        None => free_in(iack),
    }?;
    iack[idx] =
        Some(IackEntry { txn, state: IackState::Parked { worm, drained: 0, total, posted: None } });
    Some(idx)
}

/// One flit of a parked worm drained into entry `idx`. Returns the worm
/// (and the ack count it absorbs) if the park completed *and* the ack was
/// already posted, meaning it must resume.
fn park_drain_in(
    iack: &mut [Option<IackEntry>],
    resume_q: &mut VecDeque<(WormId, u32)>,
    idx: usize,
    is_tail: bool,
) -> Option<(WormId, u32)> {
    let entry = iack[idx].as_mut().expect("parked entry");
    let IackState::Parked { worm, drained, total, posted } = &mut entry.state else {
        panic!("park_drain on non-parked entry");
    };
    *drained += 1;
    if is_tail {
        debug_assert_eq!(*drained, *total, "tail drained before all flits");
    }
    if drained == total {
        if let Some(count) = *posted {
            let w = *worm;
            iack[idx] = None;
            resume_q.push_back((w, count));
            return Some((w, count));
        }
    }
    None
}

/// Phase-3 work check over one node's queues (shared by the tick worklist
/// re-arm and the quiescence scan).
fn has_work_in(
    pending: &VecDeque<(TxnId, u32)>,
    resume: &VecDeque<(WormId, u32)>,
    streaming: &[Option<StreamState>],
    inject: &[VecDeque<WormId>],
    fifos: &[VecDeque<Flit>],
) -> bool {
    !pending.is_empty()
        || !resume.is_empty()
        || streaming.iter().any(|s| s.is_some())
        || inject.iter().any(|q| !q.is_empty())
        || fifos.iter().any(|f| !f.is_empty())
}

/// NIC state for every node, field-major. All indices are global node ids.
#[derive(Debug)]
pub struct NicSlab {
    cons_cap: usize,
    /// Worms waiting to enter the network (stride [`NUM_VNETS`]).
    inject_q: Strided<VecDeque<WormId>>,
    /// Per local-input-VC streaming state (stride `local_vcs`, indexed like
    /// router VCs).
    streaming: Strided<Option<StreamState>>,
    /// Consumption-channel owners (stride `cons_channels`; a worm reserves
    /// a channel at header time and holds it until its tail drains).
    cons_owner: Strided<Option<WormId>>,
    /// True while the channel receives absorb copies (worm continues in the
    /// network) rather than a final consumption.
    cons_absorb: Strided<bool>,
    /// Buffered flits waiting for the node to drain them.
    cons_fifo: Strided<VecDeque<Flit>>,
    /// i-ack buffer entries (None = free; stride `iack_entries`).
    iack: Strided<Option<IackEntry>>,
    /// Messages delivered to the node, awaiting pickup.
    delivered: Vec<VecDeque<Delivery>>,
    /// Worms whose parked state resolved and must be re-injected on the
    /// reply network, with the ack count each absorbed (handled by the
    /// network layer each cycle).
    resume_q: Vec<VecDeque<(WormId, u32)>>,
    /// Ack-count deposits that found the buffer full and retry each cycle
    /// (a pending deposit whose sweep has already parked resolves into the
    /// parked entry without needing a free slot, so retries always drain).
    pending_deposits: Vec<VecDeque<(TxnId, u32)>>,
    /// Deepest the injection queues (both vnets combined) have ever been —
    /// a home-NIC backlog diagnostic for the profiler's `inject_queue`
    /// phase (a pure observation, never read by the simulation).
    inject_backlog_hwm: Vec<u32>,
}

impl NicSlab {
    /// Create NICs for `nodes` nodes with `cons_channels` consumption
    /// channels of `cons_cap` flits each, `iack_entries` i-ack buffers, and
    /// `local_vcs` local input virtual channels.
    pub fn new(
        nodes: usize,
        cons_channels: usize,
        cons_cap: usize,
        iack_entries: usize,
        local_vcs: usize,
    ) -> Self {
        assert!(cons_channels >= 1 && iack_entries >= 1 && local_vcs >= NUM_VNETS);
        Self {
            cons_cap,
            inject_q: Strided::new(nodes, NUM_VNETS, VecDeque::new),
            streaming: Strided::new(nodes, local_vcs, || None),
            cons_owner: Strided::new(nodes, cons_channels, || None),
            cons_absorb: Strided::new(nodes, cons_channels, || false),
            cons_fifo: Strided::new(nodes, cons_channels, VecDeque::new),
            iack: Strided::new(nodes, iack_entries, || None),
            delivered: (0..nodes).map(|_| VecDeque::new()).collect(),
            resume_q: (0..nodes).map(|_| VecDeque::new()).collect(),
            pending_deposits: (0..nodes).map(|_| VecDeque::new()).collect(),
            inject_backlog_hwm: vec![0; nodes],
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.delivered.len()
    }

    /// Queue a worm for injection at node `n`.
    pub fn enqueue(&mut self, n: usize, vnet: VNet, worm: WormId) {
        self.inject_q.at_mut(n, vnet.index()).push_back(worm);
        let depth: usize = self.inject_q.row(n).iter().map(VecDeque::len).sum();
        if depth as u32 > self.inject_backlog_hwm[n] {
            self.inject_backlog_hwm[n] = depth as u32;
        }
    }

    /// Deepest any node's injection queues have ever been.
    pub fn max_inject_backlog(&self) -> usize {
        self.inject_backlog_hwm.iter().copied().max().unwrap_or(0) as usize
    }

    /// Index of a free consumption channel at node `n`, if any.
    pub fn free_cons(&self, n: usize) -> Option<usize> {
        (0..self.cons_owner.stride()).find(|&c| self.cons_is_free(n, c))
    }

    /// Channel `cc` of node `n` is free and able to accept a new worm.
    #[inline]
    pub fn cons_is_free(&self, n: usize, cc: usize) -> bool {
        self.cons_owner.at(n, cc).is_none() && self.cons_fifo.at(n, cc).is_empty()
    }

    /// Channel `cc` of node `n` has space for one more flit.
    #[inline]
    pub fn cons_has_space(&self, n: usize, cc: usize) -> bool {
        self.cons_fifo.at(n, cc).len() < self.cons_cap
    }

    /// Post `count` acks worth for `txn` at node `n`.
    pub fn post_iack_count(&mut self, n: usize, txn: TxnId, count: u32) -> PostOutcome {
        post_count_in(self.iack.row_mut(n), &mut self.resume_q[n], txn, count)
    }

    /// The delivered-message queue of node `n`.
    pub fn delivered(&self, n: usize) -> &VecDeque<Delivery> {
        &self.delivered[n]
    }

    /// The delivered-message queue of node `n`, mutable (node-model drain).
    pub fn delivered_mut(&mut self, n: usize) -> &mut VecDeque<Delivery> {
        &mut self.delivered[n]
    }

    /// True when node `n` has phase-3 NIC work (queued injections,
    /// streaming, consumption drain, resumes, or pending deposits).
    pub fn has_work(&self, n: usize) -> bool {
        has_work_in(
            &self.pending_deposits[n],
            &self.resume_q[n],
            self.streaming.row(n),
            self.inject_q.row(n),
            self.cons_fifo.row(n),
        )
    }

    /// Borrow the whole slab as a single tile (global indices 0..nodes).
    pub fn view_mut(&mut self) -> NicTile<'_> {
        NicTile {
            base: 0,
            cons_cap: self.cons_cap,
            inject_q: self.inject_q.view_mut(),
            streaming: self.streaming.view_mut(),
            cons_owner: self.cons_owner.view_mut(),
            cons_absorb: self.cons_absorb.view_mut(),
            cons_fifo: self.cons_fifo.view_mut(),
            iack: self.iack.view_mut(),
            delivered: &mut self.delivered,
            resume_q: &mut self.resume_q,
            pending_deposits: &mut self.pending_deposits,
            inject_backlog_hwm: &mut self.inject_backlog_hwm,
        }
    }
}

/// Reusable capture of one NIC's complete state, the NIC half of the
/// speculative tick engine's per-cycle rollback checkpoint (see
/// [`crate::router::RouterNodeCk`]). Pooled buffers: `capture_node`
/// refills in place.
#[derive(Debug, Default, Clone)]
pub struct NicNodeCk {
    inject_lens: Vec<u32>,
    inject: Vec<WormId>,
    streaming: Vec<Option<StreamState>>,
    cons_owner: Vec<Option<WormId>>,
    cons_absorb: Vec<bool>,
    cons_lens: Vec<u32>,
    cons_flits: Vec<Flit>,
    iack: Vec<Option<IackEntry>>,
    delivered: Vec<Delivery>,
    resume: Vec<(WormId, u32)>,
    pending: Vec<(TxnId, u32)>,
    hwm: u32,
}

impl NicSlab {
    /// Capture node `n`'s full NIC state into `ck` (pooled buffers).
    pub fn capture_node(&self, n: usize, ck: &mut NicNodeCk) {
        ck.inject_lens.clear();
        ck.inject.clear();
        for q in self.inject_q.row(n) {
            ck.inject_lens.push(q.len() as u32);
            ck.inject.extend(q.iter().copied());
        }
        ck.streaming.clear();
        ck.streaming.extend_from_slice(self.streaming.row(n));
        ck.cons_owner.clear();
        ck.cons_owner.extend_from_slice(self.cons_owner.row(n));
        ck.cons_absorb.clear();
        ck.cons_absorb.extend_from_slice(self.cons_absorb.row(n));
        ck.cons_lens.clear();
        ck.cons_flits.clear();
        for q in self.cons_fifo.row(n) {
            ck.cons_lens.push(q.len() as u32);
            ck.cons_flits.extend(q.iter().copied());
        }
        ck.iack.clear();
        ck.iack.extend(self.iack.row(n).iter().cloned());
        ck.delivered.clear();
        ck.delivered.extend(self.delivered[n].iter().copied());
        ck.resume.clear();
        ck.resume.extend(self.resume_q[n].iter().copied());
        ck.pending.clear();
        ck.pending.extend(self.pending_deposits[n].iter().copied());
        ck.hwm = self.inject_backlog_hwm[n];
    }

    /// Restore node `n` to the state captured in `ck`.
    pub fn restore_node(&mut self, n: usize, ck: &NicNodeCk) {
        let mut off = 0usize;
        for (q, &len) in self.inject_q.row_mut(n).iter_mut().zip(&ck.inject_lens) {
            q.clear();
            let end = off + len as usize;
            q.extend(ck.inject[off..end].iter().copied());
            off = end;
        }
        self.streaming.row_mut(n).copy_from_slice(&ck.streaming);
        self.cons_owner.row_mut(n).copy_from_slice(&ck.cons_owner);
        self.cons_absorb.row_mut(n).copy_from_slice(&ck.cons_absorb);
        let mut off = 0usize;
        for (q, &len) in self.cons_fifo.row_mut(n).iter_mut().zip(&ck.cons_lens) {
            q.clear();
            let end = off + len as usize;
            q.extend(ck.cons_flits[off..end].iter().copied());
            off = end;
        }
        self.iack.row_mut(n).clone_from_slice(&ck.iack);
        self.delivered[n].clear();
        self.delivered[n].extend(ck.delivered.iter().copied());
        self.resume_q[n].clear();
        self.resume_q[n].extend(ck.resume.iter().copied());
        self.pending_deposits[n].clear();
        self.pending_deposits[n].extend(ck.pending.iter().copied());
        self.inject_backlog_hwm[n] = ck.hwm;
    }
}

mod snap_impls {
    use super::{Delivery, DeliveryKind, IackEntry, IackState, NicSlab, StreamState, NUM_VNETS};
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for IackState {
        fn save(&self, w: &mut SnapWriter) {
            match *self {
                IackState::Reserved => w.put_u8(0),
                IackState::Posted { count } => {
                    w.put_u8(1);
                    w.put_u32(count);
                }
                IackState::Parked { worm, drained, total, posted } => {
                    w.put_u8(2);
                    worm.save(w);
                    w.put_u16(drained);
                    w.put_u16(total);
                    posted.save(w);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.get_u8()? {
                0 => Ok(IackState::Reserved),
                1 => Ok(IackState::Posted { count: r.get_u32()? }),
                2 => Ok(IackState::Parked {
                    worm: Snap::load(r)?,
                    drained: r.get_u16()?,
                    total: r.get_u16()?,
                    posted: Snap::load(r)?,
                }),
                t => Err(SnapError::Corrupt(format!("bad IackState tag {t}"))),
            }
        }
    }

    impl Snap for IackEntry {
        fn save(&self, w: &mut SnapWriter) {
            self.txn.save(w);
            self.state.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(IackEntry { txn: Snap::load(r)?, state: Snap::load(r)? })
        }
    }

    impl Snap for DeliveryKind {
        fn save(&self, w: &mut SnapWriter) {
            w.put_u8(match self {
                DeliveryKind::Final => 0,
                DeliveryKind::Absorb => 1,
            });
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.get_u8()? {
                0 => Ok(DeliveryKind::Final),
                1 => Ok(DeliveryKind::Absorb),
                t => Err(SnapError::Corrupt(format!("bad DeliveryKind tag {t}"))),
            }
        }
    }

    impl Snap for Delivery {
        fn save(&self, w: &mut SnapWriter) {
            self.node.save(w);
            self.worm.save(w);
            self.src.save(w);
            w.put_u64(self.payload);
            self.kind.save(w);
            w.put_u32(self.acks);
            w.put_u64(self.at);
            self.txn.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Delivery {
                node: Snap::load(r)?,
                worm: Snap::load(r)?,
                src: Snap::load(r)?,
                payload: r.get_u64()?,
                kind: Snap::load(r)?,
                acks: r.get_u32()?,
                at: r.get_u64()?,
                txn: Snap::load(r)?,
            })
        }
    }

    impl Snap for StreamState {
        fn save(&self, w: &mut SnapWriter) {
            self.worm.save(w);
            w.put_u16(self.next_seq);
            w.put_u16(self.len);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(StreamState { worm: Snap::load(r)?, next_seq: r.get_u16()?, len: r.get_u16()? })
        }
    }

    impl Snap for NicSlab {
        fn save(&self, w: &mut SnapWriter) {
            w.put_usize(self.cons_cap);
            self.inject_q.save(w);
            self.streaming.save(w);
            self.cons_owner.save(w);
            self.cons_absorb.save(w);
            self.cons_fifo.save(w);
            self.iack.save(w);
            self.delivered.save(w);
            self.resume_q.save(w);
            self.pending_deposits.save(w);
            self.inject_backlog_hwm.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let cons_cap = r.get_len()?;
            let s = Self {
                cons_cap,
                inject_q: Snap::load(r)?,
                streaming: Snap::load(r)?,
                cons_owner: Snap::load(r)?,
                cons_absorb: Snap::load(r)?,
                cons_fifo: Snap::load(r)?,
                iack: Snap::load(r)?,
                delivered: Snap::load(r)?,
                resume_q: Snap::load(r)?,
                pending_deposits: Snap::load(r)?,
                inject_backlog_hwm: Snap::load(r)?,
            };
            let nodes = s.delivered.len();
            let cons = s.cons_owner.stride();
            let rows_ok = s.inject_q.rows() == nodes
                && s.inject_q.stride() == NUM_VNETS
                && s.streaming.rows() == nodes
                && s.cons_owner.rows() == nodes
                && s.cons_absorb.rows() == nodes
                && s.cons_absorb.stride() == cons
                && s.cons_fifo.rows() == nodes
                && s.cons_fifo.stride() == cons
                && s.iack.rows() == nodes
                && s.resume_q.len() == nodes
                && s.pending_deposits.len() == nodes
                && s.inject_backlog_hwm.len() == nodes;
            if !rows_ok {
                return Err(SnapError::Corrupt("nic slab geometry mismatch".into()));
            }
            if s.cons_fifo.as_slice().iter().any(|q| q.len() > cons_cap) {
                return Err(SnapError::Corrupt("nic consumption FIFO exceeds cons_cap".into()));
            }
            Ok(s)
        }
    }
}

/// A contiguous-node window of a [`NicSlab`]; methods take *global* node
/// ids, and [`NicTile::split_at`] carves disjoint halves for the
/// partitioned tick.
#[derive(Debug)]
pub struct NicTile<'a> {
    base: usize,
    cons_cap: usize,
    inject_q: StridedView<'a, VecDeque<WormId>>,
    streaming: StridedView<'a, Option<StreamState>>,
    cons_owner: StridedView<'a, Option<WormId>>,
    cons_absorb: StridedView<'a, bool>,
    cons_fifo: StridedView<'a, VecDeque<Flit>>,
    iack: StridedView<'a, Option<IackEntry>>,
    delivered: &'a mut [VecDeque<Delivery>],
    resume_q: &'a mut [VecDeque<(WormId, u32)>],
    pending_deposits: &'a mut [VecDeque<(TxnId, u32)>],
    inject_backlog_hwm: &'a mut [u32],
}

impl<'a> NicTile<'a> {
    /// Split into windows of the first `nodes` nodes and the rest.
    pub fn split_at(self, nodes: usize) -> (Self, Self) {
        let (iq_l, iq_r) = self.inject_q.split_at_row(nodes);
        let (st_l, st_r) = self.streaming.split_at_row(nodes);
        let (co_l, co_r) = self.cons_owner.split_at_row(nodes);
        let (ca_l, ca_r) = self.cons_absorb.split_at_row(nodes);
        let (cf_l, cf_r) = self.cons_fifo.split_at_row(nodes);
        let (ia_l, ia_r) = self.iack.split_at_row(nodes);
        let (de_l, de_r) = self.delivered.split_at_mut(nodes);
        let (re_l, re_r) = self.resume_q.split_at_mut(nodes);
        let (pd_l, pd_r) = self.pending_deposits.split_at_mut(nodes);
        let (hw_l, hw_r) = self.inject_backlog_hwm.split_at_mut(nodes);
        (
            NicTile {
                base: self.base,
                cons_cap: self.cons_cap,
                inject_q: iq_l,
                streaming: st_l,
                cons_owner: co_l,
                cons_absorb: ca_l,
                cons_fifo: cf_l,
                iack: ia_l,
                delivered: de_l,
                resume_q: re_l,
                pending_deposits: pd_l,
                inject_backlog_hwm: hw_l,
            },
            NicTile {
                base: self.base + nodes,
                cons_cap: self.cons_cap,
                inject_q: iq_r,
                streaming: st_r,
                cons_owner: co_r,
                cons_absorb: ca_r,
                cons_fifo: cf_r,
                iack: ia_r,
                delivered: de_r,
                resume_q: re_r,
                pending_deposits: pd_r,
                inject_backlog_hwm: hw_r,
            },
        )
    }

    #[inline]
    fn local(&self, n: usize) -> usize {
        debug_assert!(n >= self.base && n - self.base < self.delivered.len());
        n - self.base
    }

    /// Queue a worm for injection at node `n`.
    pub fn enqueue(&mut self, n: usize, vnet: VNet, worm: WormId) {
        let l = self.local(n);
        self.inject_q.at_mut(l, vnet.index()).push_back(worm);
        let depth: usize = self.inject_q.row(l).iter().map(VecDeque::len).sum();
        if depth as u32 > self.inject_backlog_hwm[l] {
            self.inject_backlog_hwm[l] = depth as u32;
        }
    }

    /// Pop the next worm queued for injection on `vnet` at node `n`.
    pub fn pop_inject(&mut self, n: usize, vnet: VNet) -> Option<WormId> {
        let l = self.local(n);
        self.inject_q.at_mut(l, vnet.index()).pop_front()
    }

    /// Streaming state of local input VC `vc` at node `n`.
    #[inline]
    pub fn streaming(&self, n: usize, vc: usize) -> Option<StreamState> {
        *self.streaming.at(self.local(n), vc)
    }

    /// Set the streaming state of local input VC `vc` at node `n`.
    #[inline]
    pub fn set_streaming(&mut self, n: usize, vc: usize, st: Option<StreamState>) {
        *self.streaming.at_mut(self.local(n), vc) = st;
    }

    /// Index of a free consumption channel at node `n`, if any.
    pub fn free_cons(&self, n: usize) -> Option<usize> {
        (0..self.cons_owner.stride()).find(|&c| self.cons_is_free(n, c))
    }

    /// Number of free consumption channels at node `n`.
    pub fn free_cons_count(&self, n: usize) -> usize {
        (0..self.cons_owner.stride()).filter(|&c| self.cons_is_free(n, c)).count()
    }

    /// Channel `cc` of node `n` is free and able to accept a new worm.
    #[inline]
    pub fn cons_is_free(&self, n: usize, cc: usize) -> bool {
        let l = self.local(n);
        self.cons_owner.at(l, cc).is_none() && self.cons_fifo.at(l, cc).is_empty()
    }

    /// Channel `cc` of node `n` has space for one more flit.
    #[inline]
    pub fn cons_has_space(&self, n: usize, cc: usize) -> bool {
        self.cons_fifo.at(self.local(n), cc).len() < self.cons_cap
    }

    /// Reserve consumption channel `cc` of node `n` for `worm`.
    pub fn reserve_cons(&mut self, n: usize, cc: usize, worm: WormId, absorb: bool) {
        debug_assert!(self.cons_is_free(n, cc), "consumption channel {cc} not free");
        let l = self.local(n);
        *self.cons_owner.at_mut(l, cc) = Some(worm);
        *self.cons_absorb.at_mut(l, cc) = absorb;
    }

    /// The worm holding channel `cc` of node `n`, if any.
    #[inline]
    pub fn cons_owner(&self, n: usize, cc: usize) -> Option<WormId> {
        *self.cons_owner.at(self.local(n), cc)
    }

    /// True if channel `cc` of node `n` is receiving absorb copies.
    #[inline]
    pub fn cons_absorb(&self, n: usize, cc: usize) -> bool {
        *self.cons_absorb.at(self.local(n), cc)
    }

    /// Release channel `cc` of node `n` (tail drained to the node).
    pub fn release_cons(&mut self, n: usize, cc: usize) {
        let l = self.local(n);
        *self.cons_owner.at_mut(l, cc) = None;
        *self.cons_absorb.at_mut(l, cc) = false;
    }

    /// Buffer a flit into channel `cc` of node `n`.
    pub fn cons_push(&mut self, n: usize, cc: usize, flit: Flit) {
        let l = self.local(n);
        debug_assert!(self.cons_fifo.at(l, cc).len() < self.cons_cap, "consumption overflow");
        self.cons_fifo.at_mut(l, cc).push_back(flit);
    }

    /// Drain one flit from channel `cc` of node `n`.
    pub fn cons_pop(&mut self, n: usize, cc: usize) -> Option<Flit> {
        self.cons_fifo.at_mut(self.local(n), cc).pop_front()
    }

    /// Reserve an i-ack entry for `txn` at node `n` (see [`IackState`]).
    pub fn reserve_iack(&mut self, n: usize, txn: TxnId) -> bool {
        reserve_in(self.iack.row_mut(self.local(n)), txn)
    }

    /// Node `n` posts its local invalidation acknowledgement for `txn`.
    pub fn post_iack(&mut self, n: usize, txn: TxnId) -> PostOutcome {
        self.post_iack_count(n, txn, 1)
    }

    /// Post `count` acks worth for `txn` at node `n`.
    pub fn post_iack_count(&mut self, n: usize, txn: TxnId, count: u32) -> PostOutcome {
        let l = self.local(n);
        post_count_in(self.iack.row_mut(l), &mut self.resume_q[l], txn, count)
    }

    /// A gather head at node `n` checks for its ack.
    pub fn gather_check(&mut self, n: usize, txn: TxnId) -> GatherCheck {
        gather_check_in(self.iack.row_mut(self.local(n)), txn)
    }

    /// Try to park gather worm `worm` (of `total` flits) for `txn` at node
    /// `n`. Returns the entry index, or None if no entry can hold it.
    pub fn park(&mut self, n: usize, txn: TxnId, worm: WormId, total: u16) -> Option<usize> {
        park_in(self.iack.row_mut(self.local(n)), txn, worm, total)
    }

    /// One flit of a parked worm drained into entry `idx` of node `n`.
    pub fn park_drain(&mut self, n: usize, idx: usize, is_tail: bool) -> Option<(WormId, u32)> {
        let l = self.local(n);
        park_drain_in(self.iack.row_mut(l), &mut self.resume_q[l], idx, is_tail)
    }

    /// Number of free i-ack buffer entries at node `n`.
    pub fn count_free_iack(&self, n: usize) -> usize {
        self.iack.row(self.local(n)).iter().filter(|e| e.is_none()).count()
    }

    /// Append a delivery to node `n`'s delivered queue.
    pub fn push_delivery(&mut self, n: usize, d: Delivery) {
        let l = self.local(n);
        self.delivered[l].push_back(d);
    }

    /// Pop the next resolved parked worm awaiting re-injection at node `n`.
    pub fn pop_resume(&mut self, n: usize) -> Option<(WormId, u32)> {
        self.resume_q[self.local(n)].pop_front()
    }

    /// Number of pending ack deposits retrying at node `n`.
    pub fn pending_len(&self, n: usize) -> usize {
        self.pending_deposits[self.local(n)].len()
    }

    /// Pop the next pending ack deposit at node `n`.
    pub fn pop_pending(&mut self, n: usize) -> Option<(TxnId, u32)> {
        self.pending_deposits[self.local(n)].pop_front()
    }

    /// Requeue a pending ack deposit at node `n`.
    pub fn push_pending(&mut self, n: usize, txn: TxnId, acks: u32) {
        self.pending_deposits[self.local(n)].push_back((txn, acks));
    }

    /// True when node `n` has phase-3 NIC work.
    pub fn has_work(&self, n: usize) -> bool {
        let l = self.local(n);
        has_work_in(
            &self.pending_deposits[l],
            &self.resume_q[l],
            self.streaming.row(l),
            self.inject_q.row(l),
            self.cons_fifo.row(l),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worm::FlitKind;

    fn slab() -> NicSlab {
        NicSlab::new(2, 4, 8, 4, 2)
    }

    fn flit(seq: u16) -> Flit {
        Flit { worm: WormId(1), kind: if seq == 0 { FlitKind::Head } else { FlitKind::Body }, seq }
    }

    #[test]
    fn consumption_channel_lifecycle() {
        let mut s = slab();
        let mut n = s.view_mut();
        assert_eq!(n.free_cons_count(1), 4);
        let idx = n.free_cons(1).unwrap();
        n.reserve_cons(1, idx, WormId(1), false);
        assert_eq!(n.free_cons_count(1), 3);
        assert_eq!(n.free_cons_count(0), 4, "other nodes untouched");
        assert!(!n.cons_is_free(1, idx));
        n.cons_push(1, idx, flit(0));
        assert!(n.cons_has_space(1, idx));
        // Drain and release.
        assert_eq!(n.cons_pop(1, idx), Some(flit(0)));
        n.release_cons(1, idx);
        assert!(n.cons_is_free(1, idx));
    }

    #[test]
    fn reserve_then_post_then_gather() {
        let mut s = slab();
        let mut n = s.view_mut();
        assert!(n.reserve_iack(0, TxnId(9)));
        assert_eq!(n.gather_check(0, TxnId(9)), GatherCheck::NotReady);
        assert_eq!(n.post_iack(0, TxnId(9)), PostOutcome::Stored);
        assert_eq!(n.gather_check(0, TxnId(9)), GatherCheck::Ready(1));
        // Entry freed.
        assert_eq!(n.count_free_iack(0), 4);
        assert_eq!(n.gather_check(0, TxnId(9)), GatherCheck::NotReady);
    }

    #[test]
    fn reserve_is_idempotent() {
        let mut s = slab();
        let mut n = s.view_mut();
        assert!(n.reserve_iack(0, TxnId(1)));
        assert!(n.reserve_iack(0, TxnId(1)));
        assert_eq!(n.count_free_iack(0), 3);
    }

    #[test]
    fn post_without_reservation_allocates() {
        let mut s = slab();
        assert_eq!(s.post_iack_count(0, TxnId(5), 3), PostOutcome::Stored);
        assert_eq!(s.view_mut().gather_check(0, TxnId(5)), GatherCheck::Ready(3));
    }

    #[test]
    fn posts_accumulate() {
        let mut s = slab();
        s.post_iack_count(1, TxnId(5), 2);
        s.post_iack_count(1, TxnId(5), 3);
        assert_eq!(s.view_mut().gather_check(1, TxnId(5)), GatherCheck::Ready(5));
    }

    #[test]
    fn post_no_space_when_full() {
        let mut s = slab();
        let mut n = s.view_mut();
        for t in 0..4 {
            assert!(n.reserve_iack(0, TxnId(t)));
        }
        assert_eq!(n.post_iack(0, TxnId(99)), PostOutcome::NoSpace);
        // But posting for a reserved txn still works.
        assert_eq!(n.post_iack(0, TxnId(2)), PostOutcome::Stored);
    }

    #[test]
    fn park_then_post_resumes() {
        let mut s = slab();
        let mut n = s.view_mut();
        assert!(n.reserve_iack(0, TxnId(7)));
        let idx = n.park(0, TxnId(7), WormId(3), 2).unwrap();
        // Drain both flits, then post: resume at post time.
        assert_eq!(n.park_drain(0, idx, false), None);
        assert_eq!(n.park_drain(0, idx, true), None);
        assert_eq!(n.post_iack(0, TxnId(7)), PostOutcome::ResumeParked(WormId(3)));
        assert_eq!(n.pop_resume(0), Some((WormId(3), 1)));
        assert_eq!(n.count_free_iack(0), 4);
    }

    #[test]
    fn post_before_drain_completes_resumes_at_tail() {
        let mut s = slab();
        let mut n = s.view_mut();
        assert!(n.reserve_iack(0, TxnId(7)));
        let idx = n.park(0, TxnId(7), WormId(3), 3).unwrap();
        assert_eq!(n.park_drain(0, idx, false), None);
        assert_eq!(n.post_iack(0, TxnId(7)), PostOutcome::ResumePending);
        assert_eq!(n.park_drain(0, idx, false), None);
        assert_eq!(n.park_drain(0, idx, true), Some((WormId(3), 1)));
        assert_eq!(n.pop_resume(0), Some((WormId(3), 1)));
    }

    #[test]
    fn park_without_reservation_uses_free_entry() {
        let mut s = slab();
        let mut n = s.view_mut();
        assert!(n.park(0, TxnId(4), WormId(1), 2).is_some());
        assert_eq!(n.count_free_iack(0), 3);
    }

    #[test]
    fn park_fails_when_full_with_other_txns() {
        let mut s = slab();
        let mut n = s.view_mut();
        for t in 0..4 {
            assert!(n.reserve_iack(0, TxnId(100 + t)));
        }
        assert!(n.park(0, TxnId(4), WormId(1), 2).is_none());
        // Parking on its own reserved entry still works.
        assert!(n.park(0, TxnId(100), WormId(2), 2).is_some());
    }

    #[test]
    fn injection_queues_per_vnet_and_hwm() {
        let mut s = slab();
        s.enqueue(0, VNet::Req, WormId(1));
        s.enqueue(0, VNet::Reply, WormId(2));
        assert_eq!(s.max_inject_backlog(), 2);
        let mut n = s.view_mut();
        assert_eq!(n.pop_inject(0, VNet::Req), Some(WormId(1)));
        assert_eq!(n.pop_inject(0, VNet::Req), None);
        assert_eq!(n.pop_inject(0, VNet::Reply), Some(WormId(2)));
    }

    #[test]
    fn has_work_tracks_every_queue() {
        let mut s = slab();
        assert!(!s.has_work(0));
        s.enqueue(0, VNet::Req, WormId(1));
        assert!(s.has_work(0));
        assert!(!s.has_work(1));
        {
            let mut n = s.view_mut();
            assert_eq!(n.pop_inject(0, VNet::Req), Some(WormId(1)));
            assert!(!n.has_work(0));
            n.push_pending(1, TxnId(3), 2);
        }
        assert!(s.has_work(1));
    }

    #[test]
    fn tile_split_indexes_globally() {
        let mut s = slab();
        {
            let (mut lo, mut hi) = s.view_mut().split_at(1);
            lo.enqueue(0, VNet::Req, WormId(1));
            hi.reserve_cons(1, 2, WormId(9), true);
            assert!(hi.cons_absorb(1, 2));
        }
        assert!(s.has_work(0));
        assert!(!s.cons_is_free(1, 2));
    }
}
