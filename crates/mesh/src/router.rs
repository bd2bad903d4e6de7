//! Per-node wormhole router state, stored as structure-of-arrays slabs.
//!
//! A router has five ports (E, W, N, S, Local); each input port carries
//! `vcs_per_vnet * NUM_VNETS` virtual channels with small flit FIFOs and
//! credit-based flow control toward the upstream sender. All *behaviour*
//! (routing, arbitration, movement) lives in [`crate::network`]; this module
//! is the state container plus small invariant-preserving helpers.
//!
//! # Layout
//!
//! [`RouterSlab`] holds the state of **every** router, one field per array
//! (credits, allocations, VC modes, buffer-head ready times, occupancy
//! bitsets, flit counts), each laid out node-major and contiguous. A
//! per-cycle scan over the active worklist therefore walks dense,
//! same-typed memory instead of chasing per-node struct pointers — at a
//! 4096-node (k=64) mesh the tick-hot credit/occupancy/head state stays
//! cache-resident. [`RouterTile`] is the borrowed window the
//! space-partitioned parallel tick carves per tile; it indexes by *global*
//! node id, so the phase logic is written once for both the serial and
//! partitioned schedules.

use crate::worm::Flit;
use std::collections::VecDeque;
use wormdsm_sim::{BitSet128, Cycle, Strided, StridedView};

/// A flit sitting in a router buffer, with the cycle at which it becomes
/// eligible to move (head flits pay the router pipeline delay, body flits
/// one cycle).
#[derive(Debug, Clone, Copy)]
pub struct BufFlit {
    /// The flit.
    pub flit: Flit,
    /// First cycle at which this flit may be processed/moved.
    pub ready_at: Cycle,
}

/// Allocation state of one input virtual channel.
///
/// Field widths are deliberately narrow (`u8` indices): ports are 0..=4,
/// VC/consumption/i-ack indices are bounded far below 256 by construction
/// ([`RouterSlab::new`] and the NIC constructor reject anything larger), so
/// the whole mode array stays compact in the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcMode {
    /// No allocation; a head flit at the front awaits processing.
    Normal,
    /// Allocated a path through the switch.
    Active {
        /// Output port index (may be `Port::Local.index()` for consumption).
        out_port: u8,
        /// Output VC index (or consumption channel index when local).
        out_vc: u8,
        /// Forward-and-absorb: consumption channel receiving copies.
        absorb: Option<u8>,
    },
    /// Gather worm parked at this node: remaining flits drain into the
    /// i-ack buffer entry instead of moving through the switch.
    DrainPark {
        /// Target i-ack entry index at the local NIC.
        entry: u8,
    },
}

/// `head_ready` value of an empty input VC: never eligible.
const EMPTY_READY: Cycle = Cycle::MAX;

/// Deposit `bf` into one input VC's FIFO, maintaining the head-ready
/// mirror, occupancy bit, and flit count. Shared by the slab and tile
/// views so the invariants live in one place.
#[inline]
fn deposit_into(
    buf: &mut VecDeque<BufFlit>,
    head_ready: &mut Cycle,
    occ: &mut BitSet128,
    flits: &mut u32,
    slot: usize,
    cap: usize,
    bf: BufFlit,
) {
    assert!(buf.len() < cap, "input buffer overflow at slot {slot}");
    if buf.is_empty() {
        *head_ready = bf.ready_at;
    }
    buf.push_back(bf);
    *flits += 1;
    occ.set(slot);
}

/// Pop the front flit of one input VC, maintaining the same invariants.
#[inline]
fn pop_from(
    buf: &mut VecDeque<BufFlit>,
    head_ready: &mut Cycle,
    occ: &mut BitSet128,
    flits: &mut u32,
    slot: usize,
) -> BufFlit {
    let bf = buf.pop_front().expect("pop from empty input VC");
    debug_assert_eq!(*head_ready, bf.ready_at, "head-ready mirror out of sync");
    *head_ready = buf.front().map_or(EMPTY_READY, |f| f.ready_at);
    *flits -= 1;
    if buf.is_empty() {
        occ.clear(slot);
    }
    bf
}

/// Find a free, credited output VC on `port` within `lo..hi`, given one
/// node's credit and allocation rows (stride `vcs` per port). Returns the
/// VC with the most credits (head-of-line freedom), ties to the lowest
/// index.
#[inline]
fn best_free_out_vc_in(
    credit: &[u32],
    alloc: &[Option<(u8, u8)>],
    vcs: usize,
    port: usize,
    lo: usize,
    hi: usize,
) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for vc in lo..hi {
        let s = port * vcs + vc;
        if alloc[s].is_none() && credit[s] > 0 {
            let cr = credit[s] as usize;
            if best.is_none_or(|(_, bc)| cr > bc) {
                best = Some((vc, cr));
            }
        }
    }
    best
}

/// Router state for every node, field-major. All indices are global node
/// ids; the `(port, vc)` pair maps to slot `port * vcs + vc`, matching the
/// occupancy bitset's bit positions.
#[derive(Debug)]
pub struct RouterSlab {
    nodes: usize,
    ports: usize,
    vcs: usize,
    vc_cap: usize,
    /// Flit FIFOs, slot-strided.
    buf: Strided<VecDeque<BufFlit>>,
    /// `ready_at` of each FIFO's front flit ([`EMPTY_READY`] when empty):
    /// the "is the head eligible this cycle" scans read this dense array
    /// instead of dereferencing the FIFO.
    head_ready: Strided<Cycle>,
    /// Allocation state per input VC, slot-strided.
    mode: Strided<VcMode>,
    /// Absorb channel acquired during destination processing, consumed into
    /// [`VcMode::Active`] when the output VC is allocated.
    pending_absorb: Strided<Option<u8>>,
    /// Credits toward the downstream input buffer, slot-strided (the
    /// `Local` port row is unused).
    credit: Strided<u32>,
    /// Output VC allocations `-> (in_port, in_vc)`, slot-strided.
    alloc: Strided<Option<(u8, u8)>>,
    /// Round-robin arbitration pointer per output port (stride `ports`).
    rr: Strided<u32>,
    /// Occupancy bitset per node: bit `port * vcs + vc` set while that
    /// input VC holds at least one flit. Two words wide, so up to 128
    /// slots; the constructor rejects configurations beyond that.
    occ: Vec<BitSet128>,
    /// Flits currently buffered per node (fast-skip).
    flits: Vec<u32>,
}

impl RouterSlab {
    /// Build routers for `nodes` nodes with `ports` x `vcs` input VCs of
    /// `vc_cap` flits, and matching output credit counters initialized to
    /// the downstream capacity.
    pub fn new(nodes: usize, ports: usize, vcs: usize, vc_cap: usize) -> Self {
        assert!(
            ports * vcs <= BitSet128::CAPACITY,
            "occupancy bitset limits ports * vcs to {} (got {} * {})",
            BitSet128::CAPACITY,
            ports,
            vcs
        );
        let stride = ports * vcs;
        Self {
            nodes,
            ports,
            vcs,
            vc_cap,
            buf: Strided::new(nodes, stride, || VecDeque::with_capacity(vc_cap)),
            head_ready: Strided::new(nodes, stride, || EMPTY_READY),
            mode: Strided::new(nodes, stride, || VcMode::Normal),
            pending_absorb: Strided::new(nodes, stride, || None),
            credit: Strided::new(nodes, stride, || vc_cap as u32),
            alloc: Strided::new(nodes, stride, || None),
            rr: Strided::new(nodes, ports, || 0),
            occ: vec![BitSet128::new(); nodes],
            flits: vec![0; nodes],
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// VC count per port (the occupancy bit stride).
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    #[inline]
    fn slot(&self, port: usize, vc: usize) -> usize {
        debug_assert!(port < self.ports && vc < self.vcs);
        port * self.vcs + vc
    }

    /// Flits buffered at node `n`.
    #[inline]
    pub fn flits(&self, n: usize) -> usize {
        self.flits[n] as usize
    }

    /// Occupancy bitset of node `n`.
    #[inline]
    pub fn occ(&self, n: usize) -> BitSet128 {
        self.occ[n]
    }

    /// Front flit of input `(port, vc)` at node `n`.
    #[inline]
    pub fn front(&self, n: usize, port: usize, vc: usize) -> Option<BufFlit> {
        self.buf.at(n, self.slot(port, vc)).front().copied()
    }

    /// `ready_at` of the front flit ([`Cycle::MAX`] when empty).
    #[inline]
    pub fn front_ready(&self, n: usize, port: usize, vc: usize) -> Cycle {
        *self.head_ready.at(n, self.slot(port, vc))
    }

    /// Allocation state of input `(port, vc)`.
    #[inline]
    pub fn mode(&self, n: usize, port: usize, vc: usize) -> VcMode {
        *self.mode.at(n, self.slot(port, vc))
    }

    /// Output VC allocation `-> (in_port, in_vc)`.
    #[inline]
    pub fn alloc(&self, n: usize, port: usize, vc: usize) -> Option<(usize, usize)> {
        self.alloc.at(n, self.slot(port, vc)).map(|(p, v)| (p as usize, v as usize))
    }

    /// Credits toward the downstream buffer of output `(port, vc)`.
    #[inline]
    pub fn credit(&self, n: usize, port: usize, vc: usize) -> usize {
        *self.credit.at(n, self.slot(port, vc)) as usize
    }

    /// Free buffer slots of input `(port, vc)`.
    #[inline]
    pub fn space(&self, n: usize, port: usize, vc: usize) -> usize {
        self.vc_cap - self.buf.at(n, self.slot(port, vc)).len()
    }

    /// Round-robin arbitration pointer of output `port` at node `n`.
    #[inline]
    pub fn rr(&self, n: usize, port: usize) -> usize {
        *self.rr.at(n, port) as usize
    }

    /// Find a free, credited output VC on `port` within the VC index range
    /// `lo..hi` (the worm's virtual-network class).
    pub fn best_free_out_vc(
        &self,
        n: usize,
        port: usize,
        lo: usize,
        hi: usize,
    ) -> Option<(usize, usize)> {
        best_free_out_vc_in(self.credit.row(n), self.alloc.row(n), self.vcs, port, lo, hi)
    }

    /// True when output `(port, vc)` is credit-starved this cycle: it is
    /// allocated to an input VC whose front flit is ready to move, but
    /// the downstream buffer has returned no credits.
    pub fn credit_starved(&self, now: Cycle, n: usize, port: usize, vc: usize) -> bool {
        let Some((in_port, in_vc)) = self.alloc(n, port, vc) else { return false };
        if self.credit(n, port, vc) > 0 {
            return false;
        }
        self.front_ready(n, in_port, in_vc) <= now
    }

    /// Deposit a flit into input `(port, vc)` of node `n`. Panics on
    /// overflow (credit discipline must prevent it).
    pub fn deposit(&mut self, n: usize, port: usize, vc: usize, bf: BufFlit) {
        let s = self.slot(port, vc);
        deposit_into(
            self.buf.at_mut(n, s),
            self.head_ready.at_mut(n, s),
            &mut self.occ[n],
            &mut self.flits[n],
            s,
            self.vc_cap,
            bf,
        );
    }

    /// Pop the front flit of input `(port, vc)` of node `n`.
    pub fn pop(&mut self, n: usize, port: usize, vc: usize) -> BufFlit {
        let s = self.slot(port, vc);
        pop_from(
            self.buf.at_mut(n, s),
            self.head_ready.at_mut(n, s),
            &mut self.occ[n],
            &mut self.flits[n],
            s,
        )
    }

    /// Return one credit to output `(port, vc)` of node `n` (barrier-time
    /// cross-tile credit application).
    pub fn add_credit(&mut self, n: usize, port: usize, vc: usize) {
        let s = self.slot(port, vc);
        *self.credit.at_mut(n, s) += 1;
    }

    /// Borrow the whole slab as a single tile (global indices 0..nodes).
    pub fn view_mut(&mut self) -> RouterTile<'_> {
        RouterTile {
            base: 0,
            ports: self.ports,
            vcs: self.vcs,
            vc_cap: self.vc_cap,
            buf: self.buf.view_mut(),
            head_ready: self.head_ready.view_mut(),
            mode: self.mode.view_mut(),
            pending_absorb: self.pending_absorb.view_mut(),
            credit: self.credit.view_mut(),
            alloc: self.alloc.view_mut(),
            rr: self.rr.view_mut(),
            occ: &mut self.occ,
            flits: &mut self.flits,
        }
    }
}

/// Reusable capture of one router's complete state, used by the
/// speculative tick engine to roll a mis-speculated cycle back. All
/// buffers are pooled: [`RouterSlab::capture_node`] clears and refills
/// them in place, so a checkpoint that is reused across cycles stops
/// allocating once it has warmed up.
#[derive(Debug, Default, Clone)]
pub struct RouterNodeCk {
    buf_lens: Vec<u32>,
    buf_flits: Vec<BufFlit>,
    head_ready: Vec<Cycle>,
    mode: Vec<VcMode>,
    pending_absorb: Vec<Option<u8>>,
    credit: Vec<u32>,
    alloc: Vec<Option<(u8, u8)>>,
    rr: Vec<u32>,
    occ: BitSet128,
    flits: u32,
}

impl RouterSlab {
    /// Capture node `n`'s full router state into `ck` (pooled buffers).
    pub fn capture_node(&self, n: usize, ck: &mut RouterNodeCk) {
        ck.buf_lens.clear();
        ck.buf_flits.clear();
        for q in self.buf.row(n) {
            ck.buf_lens.push(q.len() as u32);
            ck.buf_flits.extend(q.iter().copied());
        }
        ck.head_ready.clear();
        ck.head_ready.extend_from_slice(self.head_ready.row(n));
        ck.mode.clear();
        ck.mode.extend_from_slice(self.mode.row(n));
        ck.pending_absorb.clear();
        ck.pending_absorb.extend_from_slice(self.pending_absorb.row(n));
        ck.credit.clear();
        ck.credit.extend_from_slice(self.credit.row(n));
        ck.alloc.clear();
        ck.alloc.extend_from_slice(self.alloc.row(n));
        ck.rr.clear();
        ck.rr.extend_from_slice(self.rr.row(n));
        ck.occ = self.occ[n];
        ck.flits = self.flits[n];
    }

    /// Restore node `n` to the state captured in `ck`.
    pub fn restore_node(&mut self, n: usize, ck: &RouterNodeCk) {
        let mut off = 0usize;
        for (q, &len) in self.buf.row_mut(n).iter_mut().zip(&ck.buf_lens) {
            q.clear();
            let end = off + len as usize;
            q.extend(ck.buf_flits[off..end].iter().copied());
            off = end;
        }
        self.head_ready.row_mut(n).copy_from_slice(&ck.head_ready);
        self.mode.row_mut(n).copy_from_slice(&ck.mode);
        self.pending_absorb.row_mut(n).copy_from_slice(&ck.pending_absorb);
        self.credit.row_mut(n).copy_from_slice(&ck.credit);
        self.alloc.row_mut(n).copy_from_slice(&ck.alloc);
        self.rr.row_mut(n).copy_from_slice(&ck.rr);
        self.occ[n] = ck.occ;
        self.flits[n] = ck.flits;
    }
}

mod snap_impls {
    use super::{BufFlit, RouterSlab, VcMode};
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for BufFlit {
        fn save(&self, w: &mut SnapWriter) {
            self.flit.save(w);
            w.put_u64(self.ready_at);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(BufFlit { flit: Snap::load(r)?, ready_at: r.get_u64()? })
        }
    }

    impl Snap for VcMode {
        fn save(&self, w: &mut SnapWriter) {
            match *self {
                VcMode::Normal => w.put_u8(0),
                VcMode::Active { out_port, out_vc, absorb } => {
                    w.put_u8(1);
                    w.put_u8(out_port);
                    w.put_u8(out_vc);
                    absorb.save(w);
                }
                VcMode::DrainPark { entry } => {
                    w.put_u8(2);
                    w.put_u8(entry);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.get_u8()? {
                0 => Ok(VcMode::Normal),
                1 => Ok(VcMode::Active {
                    out_port: r.get_u8()?,
                    out_vc: r.get_u8()?,
                    absorb: Snap::load(r)?,
                }),
                2 => Ok(VcMode::DrainPark { entry: r.get_u8()? }),
                t => Err(SnapError::Corrupt(format!("bad VcMode tag {t}"))),
            }
        }
    }

    impl Snap for RouterSlab {
        fn save(&self, w: &mut SnapWriter) {
            w.put_usize(self.nodes);
            w.put_usize(self.ports);
            w.put_usize(self.vcs);
            w.put_usize(self.vc_cap);
            self.buf.save(w);
            self.head_ready.save(w);
            self.mode.save(w);
            self.pending_absorb.save(w);
            self.credit.save(w);
            self.alloc.save(w);
            self.rr.save(w);
            self.occ.save(w);
            self.flits.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let nodes = r.get_len()?;
            let ports = r.get_len()?;
            let vcs = r.get_len()?;
            let vc_cap = r.get_len()?;
            let s = Self {
                nodes,
                ports,
                vcs,
                vc_cap,
                buf: Snap::load(r)?,
                head_ready: Snap::load(r)?,
                mode: Snap::load(r)?,
                pending_absorb: Snap::load(r)?,
                credit: Snap::load(r)?,
                alloc: Snap::load(r)?,
                rr: Snap::load(r)?,
                occ: Snap::load(r)?,
                flits: Snap::load(r)?,
            };
            let stride = ports * vcs;
            let slabs_ok = s.buf.rows() == nodes
                && s.buf.stride() == stride
                && s.head_ready.rows() == nodes
                && s.head_ready.stride() == stride
                && s.mode.rows() == nodes
                && s.mode.stride() == stride
                && s.pending_absorb.rows() == nodes
                && s.pending_absorb.stride() == stride
                && s.credit.rows() == nodes
                && s.credit.stride() == stride
                && s.alloc.rows() == nodes
                && s.alloc.stride() == stride
                && s.rr.rows() == nodes
                && s.rr.stride() == ports
                && s.occ.len() == nodes
                && s.flits.len() == nodes;
            if !slabs_ok {
                return Err(SnapError::Corrupt("router slab geometry mismatch".into()));
            }
            if s.buf.as_slice().iter().any(|q| q.len() > vc_cap) {
                return Err(SnapError::Corrupt("router FIFO exceeds vc_cap".into()));
            }
            Ok(s)
        }
    }
}

/// A contiguous-node window of a [`RouterSlab`]. All methods take *global*
/// node ids (`base..base + rows`); [`RouterTile::split_at`] carves the
/// window into disjoint halves for the partitioned tick.
#[derive(Debug)]
pub struct RouterTile<'a> {
    base: usize,
    ports: usize,
    vcs: usize,
    vc_cap: usize,
    buf: StridedView<'a, VecDeque<BufFlit>>,
    head_ready: StridedView<'a, Cycle>,
    mode: StridedView<'a, VcMode>,
    pending_absorb: StridedView<'a, Option<u8>>,
    credit: StridedView<'a, u32>,
    alloc: StridedView<'a, Option<(u8, u8)>>,
    rr: StridedView<'a, u32>,
    occ: &'a mut [BitSet128],
    flits: &'a mut [u32],
}

impl<'a> RouterTile<'a> {
    /// Split into windows of the first `nodes` nodes and the rest.
    pub fn split_at(self, nodes: usize) -> (Self, Self) {
        let (buf_l, buf_r) = self.buf.split_at_row(nodes);
        let (hr_l, hr_r) = self.head_ready.split_at_row(nodes);
        let (mode_l, mode_r) = self.mode.split_at_row(nodes);
        let (pa_l, pa_r) = self.pending_absorb.split_at_row(nodes);
        let (cr_l, cr_r) = self.credit.split_at_row(nodes);
        let (al_l, al_r) = self.alloc.split_at_row(nodes);
        let (rr_l, rr_r) = self.rr.split_at_row(nodes);
        let (occ_l, occ_r) = self.occ.split_at_mut(nodes);
        let (fl_l, fl_r) = self.flits.split_at_mut(nodes);
        (
            RouterTile {
                base: self.base,
                ports: self.ports,
                vcs: self.vcs,
                vc_cap: self.vc_cap,
                buf: buf_l,
                head_ready: hr_l,
                mode: mode_l,
                pending_absorb: pa_l,
                credit: cr_l,
                alloc: al_l,
                rr: rr_l,
                occ: occ_l,
                flits: fl_l,
            },
            RouterTile {
                base: self.base + nodes,
                ports: self.ports,
                vcs: self.vcs,
                vc_cap: self.vc_cap,
                buf: buf_r,
                head_ready: hr_r,
                mode: mode_r,
                pending_absorb: pa_r,
                credit: cr_r,
                alloc: al_r,
                rr: rr_r,
                occ: occ_r,
                flits: fl_r,
            },
        )
    }

    #[inline]
    fn local(&self, n: usize) -> usize {
        debug_assert!(n >= self.base && n - self.base < self.flits.len());
        n - self.base
    }

    #[inline]
    fn slot(&self, port: usize, vc: usize) -> usize {
        debug_assert!(port < self.ports && vc < self.vcs);
        port * self.vcs + vc
    }

    /// Flits buffered at node `n`.
    #[inline]
    pub fn flits(&self, n: usize) -> usize {
        self.flits[self.local(n)] as usize
    }

    /// Occupancy bitset of node `n`.
    #[inline]
    pub fn occ(&self, n: usize) -> BitSet128 {
        self.occ[self.local(n)]
    }

    /// Front flit of input `(port, vc)`.
    #[inline]
    pub fn front(&self, n: usize, port: usize, vc: usize) -> Option<BufFlit> {
        self.buf.at(self.local(n), self.slot(port, vc)).front().copied()
    }

    /// `ready_at` of the front flit ([`Cycle::MAX`] when empty).
    #[inline]
    pub fn front_ready(&self, n: usize, port: usize, vc: usize) -> Cycle {
        *self.head_ready.at(self.local(n), self.slot(port, vc))
    }

    /// Re-arm the front flit's eligibility time (header strip / i-ack
    /// check delays).
    #[inline]
    pub fn set_front_ready(&mut self, n: usize, port: usize, vc: usize, at: Cycle) {
        let (l, s) = (self.local(n), self.slot(port, vc));
        self.buf.at_mut(l, s).front_mut().expect("head present").ready_at = at;
        *self.head_ready.at_mut(l, s) = at;
    }

    /// Allocation state of input `(port, vc)`.
    #[inline]
    pub fn mode(&self, n: usize, port: usize, vc: usize) -> VcMode {
        *self.mode.at(self.local(n), self.slot(port, vc))
    }

    /// Set the allocation state of input `(port, vc)`.
    #[inline]
    pub fn set_mode(&mut self, n: usize, port: usize, vc: usize, m: VcMode) {
        *self.mode.at_mut(self.local(n), self.slot(port, vc)) = m;
    }

    /// Stash an absorb channel pending route allocation.
    #[inline]
    pub fn set_pending_absorb(&mut self, n: usize, port: usize, vc: usize, cc: usize) {
        *self.pending_absorb.at_mut(self.local(n), self.slot(port, vc)) = Some(cc as u8);
    }

    /// Take the pending absorb channel (route allocation consumes it).
    #[inline]
    pub fn take_pending_absorb(&mut self, n: usize, port: usize, vc: usize) -> Option<u8> {
        self.pending_absorb.at_mut(self.local(n), self.slot(port, vc)).take()
    }

    /// Output VC allocation `-> (in_port, in_vc)`.
    #[inline]
    pub fn alloc(&self, n: usize, port: usize, vc: usize) -> Option<(usize, usize)> {
        self.alloc.at(self.local(n), self.slot(port, vc)).map(|(p, v)| (p as usize, v as usize))
    }

    /// Set or clear an output VC allocation.
    #[inline]
    pub fn set_alloc(&mut self, n: usize, port: usize, vc: usize, a: Option<(usize, usize)>) {
        *self.alloc.at_mut(self.local(n), self.slot(port, vc)) = a.map(|(p, v)| (p as u8, v as u8));
    }

    /// Credits toward the downstream buffer of output `(port, vc)`.
    #[inline]
    pub fn credit(&self, n: usize, port: usize, vc: usize) -> usize {
        *self.credit.at(self.local(n), self.slot(port, vc)) as usize
    }

    /// Consume one downstream credit (a flit crossed the link).
    #[inline]
    pub fn take_credit(&mut self, n: usize, port: usize, vc: usize) {
        *self.credit.at_mut(self.local(n), self.slot(port, vc)) -= 1;
    }

    /// Return one credit (downstream buffer slot vacated).
    #[inline]
    pub fn add_credit(&mut self, n: usize, port: usize, vc: usize) {
        *self.credit.at_mut(self.local(n), self.slot(port, vc)) += 1;
    }

    /// Round-robin pointer of output `port`.
    #[inline]
    pub fn rr(&self, n: usize, port: usize) -> usize {
        *self.rr.at(self.local(n), port) as usize
    }

    /// Set the round-robin pointer of output `port`.
    #[inline]
    pub fn set_rr(&mut self, n: usize, port: usize, v: usize) {
        *self.rr.at_mut(self.local(n), port) = v as u32;
    }

    /// Free buffer slots of input `(port, vc)`.
    #[inline]
    pub fn space(&self, n: usize, port: usize, vc: usize) -> usize {
        self.vc_cap - self.buf.at(self.local(n), self.slot(port, vc)).len()
    }

    /// Find a free, credited output VC on `port` within `lo..hi`.
    pub fn best_free_out_vc(
        &self,
        n: usize,
        port: usize,
        lo: usize,
        hi: usize,
    ) -> Option<(usize, usize)> {
        let l = self.local(n);
        best_free_out_vc_in(self.credit.row(l), self.alloc.row(l), self.vcs, port, lo, hi)
    }

    /// See [`RouterSlab::credit_starved`].
    pub fn credit_starved(&self, now: Cycle, n: usize, port: usize, vc: usize) -> bool {
        let Some((in_port, in_vc)) = self.alloc(n, port, vc) else { return false };
        if self.credit(n, port, vc) > 0 {
            return false;
        }
        self.front_ready(n, in_port, in_vc) <= now
    }

    /// Deposit a flit into input `(port, vc)` of node `n`.
    pub fn deposit(&mut self, n: usize, port: usize, vc: usize, bf: BufFlit) {
        let (l, s) = (self.local(n), self.slot(port, vc));
        deposit_into(
            self.buf.at_mut(l, s),
            self.head_ready.at_mut(l, s),
            &mut self.occ[l],
            &mut self.flits[l],
            s,
            self.vc_cap,
            bf,
        );
    }

    /// Pop the front flit of input `(port, vc)` of node `n`.
    pub fn pop(&mut self, n: usize, port: usize, vc: usize) -> BufFlit {
        let (l, s) = (self.local(n), self.slot(port, vc));
        pop_from(
            self.buf.at_mut(l, s),
            self.head_ready.at_mut(l, s),
            &mut self.occ[l],
            &mut self.flits[l],
            s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worm::{FlitKind, WormId};

    fn bf(seq: u16) -> BufFlit {
        BufFlit {
            flit: Flit {
                worm: WormId(0),
                kind: if seq == 0 { FlitKind::Head } else { FlitKind::Body },
                seq,
            },
            ready_at: 0,
        }
    }

    fn bf_at(seq: u16, ready_at: Cycle) -> BufFlit {
        BufFlit { ready_at, ..bf(seq) }
    }

    #[test]
    fn deposit_and_pop_track_counts() {
        let mut r = RouterSlab::new(2, 5, 2, 4);
        r.deposit(1, 0, 1, bf(0));
        r.deposit(1, 0, 1, bf(1));
        assert_eq!(r.flits(1), 2);
        assert_eq!(r.flits(0), 0, "other nodes untouched");
        assert_eq!(r.space(1, 0, 1), 2);
        let f = r.pop(1, 0, 1);
        assert_eq!(f.flit.seq, 0);
        assert_eq!(r.flits(1), 1);
    }

    #[test]
    fn head_ready_mirrors_front() {
        let mut r = RouterSlab::new(1, 5, 2, 4);
        assert_eq!(r.front_ready(0, 2, 0), Cycle::MAX);
        r.deposit(0, 2, 0, bf_at(0, 7));
        r.deposit(0, 2, 0, bf_at(1, 9));
        assert_eq!(r.front_ready(0, 2, 0), 7, "front's ready, not the later deposit's");
        r.pop(0, 2, 0);
        assert_eq!(r.front_ready(0, 2, 0), 9);
        r.pop(0, 2, 0);
        assert_eq!(r.front_ready(0, 2, 0), Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn deposit_overflow_panics() {
        let mut r = RouterSlab::new(1, 5, 1, 2);
        r.deposit(0, 0, 0, bf(0));
        r.deposit(0, 0, 0, bf(1));
        r.deposit(0, 0, 0, bf(2));
    }

    /// Configurations with more than 64 `(port, vc)` slots used to alias
    /// silently in the single-word occupancy mask; they must now work up
    /// to 128 slots and be rejected loudly beyond that.
    #[test]
    fn occupancy_tracks_slots_beyond_64() {
        // 5 ports x 20 vcs = 100 slots: the high ones live in word 1.
        let mut r = RouterSlab::new(1, 5, 20, 2);
        r.deposit(0, 4, 19, bf(0)); // slot 99
        r.deposit(0, 0, 0, bf(0)); // slot 0
        assert!(r.occ(0).test(99) && r.occ(0).test(0));
        assert_eq!(r.occ(0).iter().collect::<Vec<_>>(), vec![0, 99]);
        r.pop(0, 4, 19);
        assert!(!r.occ(0).test(99), "emptying the high slot clears only its bit");
        assert!(r.occ(0).test(0));
    }

    #[test]
    #[should_panic(expected = "occupancy bitset limits ports * vcs")]
    fn too_many_vc_slots_is_rejected() {
        RouterSlab::new(1, 5, 26, 2); // 130 > 128
    }

    #[test]
    fn best_free_out_vc_prefers_credits() {
        let mut r = RouterSlab::new(1, 5, 4, 4);
        {
            let mut t = r.view_mut();
            // Drain credits: vc0 -> 1, vc1 -> 3 on port 2.
            for _ in 0..3 {
                t.take_credit(0, 2, 0);
            }
            t.take_credit(0, 2, 1);
        }
        // vcs 2..4 belong to the other vnet; restrict to 0..2.
        assert_eq!(r.best_free_out_vc(0, 2, 0, 2), Some((1, 3)));
        let mut t = r.view_mut();
        t.set_alloc(0, 2, 1, Some((0, 0)));
        assert_eq!(t.best_free_out_vc(0, 2, 0, 2), Some((0, 1)));
        t.take_credit(0, 2, 0);
        assert_eq!(t.best_free_out_vc(0, 2, 0, 2), None);
    }

    #[test]
    fn tile_split_indexes_globally() {
        let mut r = RouterSlab::new(4, 5, 2, 4);
        {
            let t = r.view_mut();
            let (mut lo, mut hi) = t.split_at(2);
            lo.deposit(1, 0, 0, bf(0));
            hi.deposit(3, 1, 1, bf_at(0, 5));
            assert_eq!(lo.flits(1), 1);
            assert_eq!(hi.flits(3), 1);
            assert_eq!(hi.front_ready(3, 1, 1), 5);
            hi.set_mode(2, 0, 0, VcMode::DrainPark { entry: 1 });
        }
        assert_eq!(r.flits(1), 1);
        assert_eq!(r.flits(3), 1);
        assert_eq!(r.mode(2, 0, 0), VcMode::DrainPark { entry: 1 });
        assert_eq!(r.front_ready(3, 1, 1), 5);
    }
}
