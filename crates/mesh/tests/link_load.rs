//! The always-on link-load summary ([`LinkLoadMeter`]) and the
//! contention-probe end-of-run flush: commit timing, fast-forward span
//! commits, snapshot round trips, and the
//! partial-window regression for
//! [`Network::finish_contention_probe`].

use wormdsm_mesh::network::{MeshConfig, Network};
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_mesh::worm::{TxnId, VNet, WormKind, WormSpec};
use wormdsm_mesh::LinkLoadMeter;
use wormdsm_sim::snap::{SnapReader, SnapWriter};

fn cfg(k: usize) -> MeshConfig {
    MeshConfig::paper_defaults(k)
}

fn multicast(src: NodeId, dests: Vec<NodeId>, txn: u64) -> WormSpec {
    WormSpec {
        src,
        vnet: VNet::Req,
        kind: WormKind::Multicast,
        dests: dests.into(),
        len_flits: 8,
        payload: 0xBEEF,
        reserve_iack: false,
        txn: TxnId(txn),
        initial_acks: 0,
        gather_deposit: false,
        deliver: None,
    }
}

/// A small deterministic traffic mix: a few unicasts and a multicast,
/// staggered so activity spans several 16-cycle windows.
fn drive(net: &mut Network, m: &Mesh2D) {
    net.inject(WormSpec::unicast(m.node_at(0, 0), m.node_at(3, 2), VNet::Req, 8, 1));
    net.inject(multicast(m.node_at(1, 3), vec![m.node_at(3, 1), m.node_at(3, 0)], 2));
    net.run_until_quiescent(10_000).unwrap();
    net.inject(WormSpec::unicast(m.node_at(3, 3), m.node_at(0, 1), VNet::Reply, 6, 3));
    net.run_until_quiescent(10_000).unwrap();
}

#[test]
fn meter_commits_only_completed_windows() {
    let m = Mesh2D::square(4);
    let mut net = Network::new(cfg(4));
    net.enable_link_load(16);
    let meter = net.link_load().expect("meter attached");
    assert_eq!(meter.commits(), 0, "nothing committed before the run");
    assert!(meter.committed_busy().iter().all(|&b| b == 0));
    assert_eq!(meter.load_milli(0), 0, "empty summary reads as idle");

    drive(&mut net, &m);
    let meter = net.link_load().unwrap();
    assert!(meter.commits() > 0, "run crossed window boundaries");
    assert_eq!(meter.window(), 16);
    // The committed summary is a delta of `link_busy`, so it can never
    // exceed the total, and some link on the unicast path must be warm.
    let busy = &net.stats().link_busy;
    let committed = meter.committed_busy();
    assert_eq!(committed.len(), busy.len());
    for (c, b) in committed.iter().zip(busy.iter()) {
        assert!(c <= b, "committed delta exceeds the running total");
    }
    assert!((0..busy.len()).any(|l| meter.load_milli(l) > 0), "traffic crossed a committed window");
    for l in 0..busy.len() {
        assert!(meter.load_milli(l) <= 1000, "utilization is a fraction");
    }
}

#[test]
fn meter_gap_commit_matches_stepped_schedule() {
    // Cycles are only elided while the network is idle, so a gapped
    // observation sequence and a stepped one must leave a consumer with
    // the same summary at every common read point. Synthetic traffic:
    // busy until cycle 30, idle afterwards.
    let nodes = 16;
    let busy_at = |t: u64| -> Vec<u64> {
        let mut v = vec![0u64; nodes * 4];
        v[5] = t.min(30) / 2; // 1 busy cycle every 2 cycles until 30.
        v[9] = t.min(30); // saturated until 30.
        v
    };
    let mut stepped = LinkLoadMeter::new(nodes, 16);
    for t in (16..=160).step_by(16) {
        stepped.observe(t, &busy_at(t));
    }
    let mut gapped = LinkLoadMeter::new(nodes, 16);
    // Ticks run while traffic is live (through cycle 30, boundaries 16
    // and 32)...
    gapped.observe(16, &busy_at(16));
    gapped.observe(32, &busy_at(32));
    // ...then the idle stretch 32..160 is jumped in one go.
    gapped.observe(160, &busy_at(160));
    // Both schedules agree: the most recent completed window was dead.
    assert_eq!(stepped.load_milli(5), gapped.load_milli(5));
    assert_eq!(stepped.load_milli(9), gapped.load_milli(9));
    assert_eq!(stepped.load_milli(5), 0, "idle tail reads as cold");
    // Everything a consumer can read converges (the commit *count* is a
    // diagnostic and legitimately differs: one gap commit replaced eight
    // stepped ones).
    assert_eq!(stepped.committed_busy(), gapped.committed_busy());
    assert_eq!(stepped.window(), gapped.window());
    // Mid-run (while traffic was live) the summary is the real window
    // delta: [16, 32) saw 30-16=14 busy cycles on the saturated link.
    let mut mid = LinkLoadMeter::new(nodes, 16);
    mid.observe(16, &busy_at(16));
    mid.observe(32, &busy_at(32));
    assert_eq!(mid.load_milli(9), 14 * 1000 / 16);
    // An observation before the next boundary commits nothing new.
    let commits = mid.commits();
    mid.observe(33, &busy_at(33));
    assert_eq!(mid.commits(), commits);
}

#[test]
fn meter_survives_snapshot_round_trip() {
    let m = Mesh2D::square(4);
    let mut net = Network::new(cfg(4));
    net.enable_link_load(16);
    drive(&mut net, &m);
    let mut w = SnapWriter::new();
    net.save_state(&mut w);
    let bytes = w.finish();
    let mut r = SnapReader::new(&bytes).unwrap();
    let restored = Network::load_state(cfg(4), &mut r).unwrap();
    assert_eq!(
        net.link_load(),
        restored.link_load(),
        "meter state travels with the network snapshot"
    );

    // A meterless network round-trips too (the optional slot stays
    // empty).
    let mut net = Network::new(cfg(4));
    drive(&mut net, &m);
    let mut w = SnapWriter::new();
    net.save_state(&mut w);
    let bytes = w.finish();
    let mut r = SnapReader::new(&bytes).unwrap();
    let restored = Network::load_state(cfg(4), &mut r).unwrap();
    assert!(restored.link_load().is_none());
}

/// Regression for the end-of-run flush: a run whose length is not a
/// multiple of the probe window used to leave the final partial window
/// invisible to `contention_probe()` readers (only
/// `take_contention_probe` flushed). `finish_contention_probe` flushes in
/// place; afterwards the windows account for every recorded flit and
/// `busy_total` matches `NetStats::link_busy` exactly.
#[test]
fn probe_partial_window_flushes_on_finish() {
    let m = Mesh2D::square(4);
    let mut net = Network::new(cfg(4));
    // Window far longer than the run: all activity lands in one
    // partial window.
    net.enable_contention_probe(10_000);
    drive(&mut net, &m);
    assert!(net.now() < 10_000, "run must end mid-window");
    let probe = net.contention_probe().unwrap();
    assert!(probe.windows().is_empty(), "partial window not yet flushed");
    let busy_total = probe.busy_total().to_vec();
    assert_eq!(busy_total, net.stats().link_busy, "probe and stats count the same forwards");

    net.finish_contention_probe();
    let probe = net.contention_probe().unwrap();
    assert_eq!(probe.windows().len(), 1, "final partial window flushed");
    assert_eq!(probe.busy_total(), &busy_total[..], "flush does not re-count");
    // Every recorded flit is now visible through the windows.
    let vcs = probe.vcs();
    let mut from_windows = vec![0u64; busy_total.len()];
    for w in probe.windows() {
        for (slot, &f) in w.flits.iter().enumerate() {
            from_windows[slot / vcs] += u64::from(f);
        }
    }
    assert_eq!(from_windows, busy_total, "windows account for every flit");
    // Idempotent.
    net.finish_contention_probe();
    assert_eq!(net.contention_probe().unwrap().windows().len(), 1);
}

/// `windows_since` is the incremental-poll API for live telemetry: a
/// consumer keeps a cursor of windows already streamed and asks only for
/// the suffix. The slice must line up with `windows()`, and a stale or
/// overshooting cursor must degrade to empty rather than panic.
#[test]
fn probe_windows_since_is_an_incremental_cursor() {
    use wormdsm_mesh::ContentionProbe;
    let mut probe = ContentionProbe::new(4, 2, 10);
    // Three activity bursts in three distinct windows.
    probe.record_forward(3, 0, 0);
    probe.record_forward(15, 1, 1);
    probe.record_forward(27, 2, 0);
    probe.finish();
    assert_eq!(probe.windows().len(), 3);
    assert_eq!(probe.windows_since(0), probe.windows());
    assert_eq!(probe.windows_since(2).len(), 1);
    assert_eq!(probe.windows_since(2)[0].start, 20);
    assert!(probe.windows_since(3).is_empty(), "caught-up cursor sees nothing");
    assert!(probe.windows_since(99).is_empty(), "overshoot clamps, no panic");
    // New activity after a poll shows up exactly once at the old cursor.
    probe.record_forward(42, 0, 1);
    probe.finish();
    assert_eq!(probe.windows_since(3).len(), 1);
    assert_eq!(probe.windows_since(3)[0].start, 40);
}
