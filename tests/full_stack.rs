//! Whole-workspace integration tests: applications across schemes,
//! analytic-vs-simulated consistency, turn-model end-to-end runs, and
//! cross-scheme invariants.

use wormdsm::analytic::{estimate_invalidation, NetParams};
use wormdsm::core::{DsmSystem, SchemeKind, SystemConfig};
use wormdsm::mesh::topology::Mesh2D;
use wormdsm::sim::Rng;
use wormdsm::workloads::apps::apsp::{self, ApspConfig};
use wormdsm::workloads::apps::barnes_hut::{self, BarnesHutConfig};
use wormdsm::workloads::apps::lu::{self, LuConfig};
use wormdsm::workloads::{gen_pattern, PatternKind, Workload};

fn run_app(scheme: SchemeKind, k: usize, w: Workload) -> (u64, DsmSystem) {
    run_app_ff(scheme, k, w, true)
}

fn run_app_ff(scheme: SchemeKind, k: usize, w: Workload, fast_forward: bool) -> (u64, DsmSystem) {
    let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    sys.set_fast_forward(fast_forward);
    let r = w.run(&mut sys, 50_000_000).unwrap_or_else(|e| panic!("{scheme}: {e}"));
    (r.cycles, sys)
}

#[test]
fn apsp_runs_under_every_scheme_and_multidestination_wins() {
    let k = 6;
    let cfg = ApspConfig { n: 36, procs: 36, relax_cost: 16 };
    let mut cycles = Vec::new();
    for scheme in SchemeKind::ALL {
        let (c, sys) = run_app(scheme, k, apsp::generate(&cfg));
        assert!(sys.metrics().inval_txns > 0, "{scheme}: APSP must invalidate");
        assert!(
            sys.metrics().inval_set_size.summary().mean() > 3.0,
            "{scheme}: APSP has wide sharing"
        );
        cycles.push((scheme, c));
    }
    let ui = cycles.iter().find(|(s, _)| *s == SchemeKind::UiUa).expect("baseline").1;
    let best_ma = cycles
        .iter()
        .filter(|(s, _)| {
            matches!(s, SchemeKind::MiMaCol | SchemeKind::MiMaTree | SchemeKind::MiMaTwoPhase)
        })
        .map(|(_, c)| *c)
        .min()
        .expect("MA schemes ran");
    assert!(
        best_ma < ui,
        "MI-MA ({best_ma}) should beat UI-UA ({ui}) on the wide-sharing workload"
    );
}

#[test]
fn barnes_hut_small_runs_everywhere() {
    let cfg = BarnesHutConfig { procs: 16, bodies: 32, steps: 2, ..Default::default() };
    for scheme in SchemeKind::ALL {
        let (_, sys) = run_app(scheme, 4, barnes_hut::generate(&cfg));
        assert_eq!(sys.metrics().barriers, 1 + 2 * 3, "{scheme}: barrier count");
        assert!(sys.metrics().inval_txns > 0, "{scheme}");
    }
}

#[test]
fn lu_small_runs_everywhere() {
    let cfg = LuConfig { n: 32, block: 8, procs: 16, flop_cost: 16 };
    for scheme in SchemeKind::ALL {
        let (_, sys) = run_app(scheme, 4, lu::generate(&cfg));
        assert!(sys.metrics().inval_txns > 0, "{scheme}");
        assert!(sys.metrics().read_hit_ratio() > 0.1, "{scheme}: some locality expected");
    }
}

/// Golden end-to-end metrics for the three small app configs on a 4x4
/// mesh, recorded on the pre-optimization tree (commit f102984). The
/// allocation-free flit path, flat directory/txn state, and occupancy
/// masks are required to be *observationally invisible*: any divergence
/// in these numbers is a behavior change, not an optimization.
#[test]
fn golden_small_config_metrics_are_bit_identical_to_pre_optimization_tree() {
    struct Golden {
        app: &'static str,
        scheme: SchemeKind,
        cycles: u64,
        flit_hops: u64,
        flits_injected: u64,
        inval_txns: u64,
        lat_count: u64,
        lat_sum: f64,
        lat_min: f64,
        lat_max: f64,
        lat_stddev: f64,
        stall: u64,
    }
    #[rustfmt::skip]
    let golden = [
        Golden { app: "bh",   scheme: SchemeKind::UiUa,    cycles: 34994, flit_hops: 221816, flits_injected: 82352, inval_txns: 78, lat_count: 78, lat_sum: 26038.0, lat_min: 158.0, lat_max: 698.0, lat_stddev: 150.6781034565921,   stall: 286673 },
        Golden { app: "bh",   scheme: SchemeKind::MiMaCol, cycles: 33714, flit_hops: 200918, flits_injected: 73289, inval_txns: 78, lat_count: 78, lat_sum: 14789.0, lat_min: 115.0, lat_max: 494.0, lat_stddev: 90.03907125464889,   stall: 272503 },
        Golden { app: "lu",   scheme: SchemeKind::UiUa,    cycles: 35911, flit_hops: 162432, flits_injected: 67080, inval_txns: 12, lat_count: 12, lat_sum: 2658.0,  lat_min: 181.0, lat_max: 262.0, lat_stddev: 28.10842103949158,   stall: 227374 },
        Golden { app: "lu",   scheme: SchemeKind::MiMaCol, cycles: 35175, flit_hops: 158898, flits_injected: 65496, inval_txns: 12, lat_count: 12, lat_sum: 1886.0,  lat_min: 126.0, lat_max: 203.0, lat_stddev: 24.569063655110856,  stall: 221887 },
        Golden { app: "apsp", scheme: SchemeKind::UiUa,    cycles: 33396, flit_hops: 140288, flits_injected: 53720, inval_txns: 47, lat_count: 47, lat_sum: 12190.0, lat_min: 160.0, lat_max: 436.0, lat_stddev: 70.33579807409441,   stall: 337359 },
        Golden { app: "apsp", scheme: SchemeKind::MiMaCol, cycles: 31978, flit_hops: 125854, flits_injected: 47403, inval_txns: 47, lat_count: 47, lat_sum: 7655.0,  lat_min: 118.0, lat_max: 327.0, lat_stddev: 46.92484576257612,   stall: 329309 },
    ];
    let gen = |app: &str| -> Workload {
        match app {
            "bh" => barnes_hut::generate(&BarnesHutConfig {
                procs: 16,
                bodies: 32,
                steps: 2,
                ..Default::default()
            }),
            "lu" => lu::generate(&LuConfig { n: 32, block: 8, procs: 16, flop_cost: 16 }),
            "apsp" => apsp::generate(&ApspConfig { n: 16, procs: 16, relax_cost: 16 }),
            other => panic!("unknown app {other}"),
        }
    };
    for g in &golden {
        let (cycles, sys) = run_app(g.scheme, 4, gen(g.app));
        let tag = format!("{}/{}", g.app, g.scheme);
        assert_eq!(cycles, g.cycles, "{tag}: cycles");
        assert_eq!(sys.net_stats().flit_hops, g.flit_hops, "{tag}: flit hops");
        assert_eq!(sys.net_stats().flits_injected, g.flits_injected, "{tag}: flits injected");
        let m = sys.metrics();
        assert_eq!(m.inval_txns, g.inval_txns, "{tag}: inval txns");
        assert_eq!(m.inval_latency.count(), g.lat_count, "{tag}: latency count");
        assert_eq!(m.inval_latency.sum(), g.lat_sum, "{tag}: latency sum");
        assert_eq!(m.inval_latency.min(), g.lat_min, "{tag}: latency min");
        assert_eq!(m.inval_latency.max(), g.lat_max, "{tag}: latency max");
        assert_eq!(m.inval_latency.stddev(), g.lat_stddev, "{tag}: latency stddev");
        assert_eq!(m.stall_cycles, g.stall, "{tag}: stall cycles");
    }
}

/// The space-partitioned tick engine must be observationally invisible:
/// running the same app with the mesh split into 4 row-band tiles (stepped
/// concurrently with deferred cross-tile exchange) must match the serial
/// T=1 schedule on every end-to-end metric, bit for bit — including the
/// f64 latency accumulators, whose value depends on accumulation *order*.
#[test]
fn partitioned_tick_is_bit_identical_to_serial_end_to_end() {
    type Gen = fn() -> Workload;
    let apps: Vec<(&str, SchemeKind, Gen)> = vec![
        (
            "bh",
            SchemeKind::MiMaCol,
            (|| {
                barnes_hut::generate(&BarnesHutConfig {
                    procs: 16,
                    bodies: 32,
                    steps: 2,
                    ..Default::default()
                })
            }) as Gen,
        ),
        ("lu", SchemeKind::UiUa, || {
            lu::generate(&LuConfig { n: 32, block: 8, procs: 16, flop_cost: 16 })
        }),
        ("apsp", SchemeKind::MiMaTwoPhase, || {
            apsp::generate(&ApspConfig { n: 16, procs: 16, relax_cost: 16 })
        }),
        // The dynamic schemes: DPM's plans depend only on geometry, but
        // MI-MA(ada)'s depend on the committed link-load windows, so this
        // test also proves the feedback loop itself is tile-invariant.
        ("apsp", SchemeKind::Dpm, || {
            apsp::generate(&ApspConfig { n: 16, procs: 16, relax_cost: 16 })
        }),
        ("apsp", SchemeKind::MiMaAdaptive, || {
            apsp::generate(&ApspConfig { n: 16, procs: 16, relax_cost: 16 })
        }),
    ];
    for (name, scheme, gen) in apps {
        let run_tiled = |tiles: usize| {
            let mut cfg = SystemConfig::for_scheme(4, scheme);
            cfg.mesh.tiles = tiles;
            let mut sys = DsmSystem::new(cfg, scheme.build());
            let r = gen().run(&mut sys, 50_000_000).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            (r.cycles, sys)
        };
        let (c1, s1) = run_tiled(1);
        let (c4, s4) = run_tiled(4);
        let tag = format!("{name}/{scheme}");
        assert_eq!(c1, c4, "{tag}: cycle count diverged");
        assert_eq!(s1.now(), s4.now(), "{tag}: clock diverged");
        let (n1, n4) = (s1.net_stats(), s4.net_stats());
        assert_eq!(n1.flit_hops, n4.flit_hops, "{tag}: flit hops diverged");
        assert_eq!(n1.flits_injected, n4.flits_injected, "{tag}: injected diverged");
        assert_eq!(n1.flits_consumed, n4.flits_consumed, "{tag}: consumed diverged");
        assert_eq!(n1.deliveries, n4.deliveries, "{tag}: deliveries diverged");
        assert_eq!(n1.parks, n4.parks, "{tag}: parks diverged");
        assert_eq!(n1.bounces, n4.bounces, "{tag}: bounces diverged");
        assert_eq!(n1.deposits, n4.deposits, "{tag}: deposits diverged");
        assert_eq!(n1.link_busy, n4.link_busy, "{tag}: per-link busy counts diverged");
        for (what, a, b) in [
            ("unicast", &n1.unicast_latency, &n4.unicast_latency),
            ("multicast", &n1.multicast_latency, &n4.multicast_latency),
            ("gather", &n1.gather_latency, &n4.gather_latency),
        ] {
            assert_eq!(a.count(), b.count(), "{tag}: {what} latency count diverged");
            assert_eq!(a.sum(), b.sum(), "{tag}: {what} latency sum diverged");
            assert_eq!(a.stddev(), b.stddev(), "{tag}: {what} latency stddev diverged");
        }
        let (m1, m4) = (s1.metrics(), s4.metrics());
        assert_eq!(m1.inval_txns, m4.inval_txns, "{tag}: inval txns diverged");
        assert_eq!(m1.inval_latency.sum(), m4.inval_latency.sum(), "{tag}: inval sum diverged");
        assert_eq!(
            m1.inval_latency.stddev(),
            m4.inval_latency.stddev(),
            "{tag}: inval stddev diverged"
        );
        assert_eq!(m1.stall_cycles, m4.stall_cycles, "{tag}: stall cycles diverged");
    }
}

#[test]
fn app_runs_are_deterministic() {
    let cfg = ApspConfig { n: 16, procs: 16, relax_cost: 16 };
    let (c1, s1) = run_app(SchemeKind::MiMaWf, 4, apsp::generate(&cfg));
    let (c2, s2) = run_app(SchemeKind::MiMaWf, 4, apsp::generate(&cfg));
    assert_eq!(c1, c2);
    assert_eq!(s1.net_stats().flit_hops, s2.net_stats().flit_hops);
    assert_eq!(s1.metrics().inval_latency.mean(), s2.metrics().inval_latency.mean());
}

/// Dead-cycle fast-forwarding must be invisible: a fast-forwarded run and
/// a per-cycle-stepped run of the same app must agree on every cycle
/// count, every flit hop, and the full invalidation-latency distribution.
#[test]
fn fast_forward_runs_are_bit_identical_to_per_cycle_stepping() {
    type Gen = fn() -> Workload;
    let apps: Vec<(&str, Gen)> = vec![
        ("bh", || {
            barnes_hut::generate(&BarnesHutConfig {
                procs: 16,
                bodies: 32,
                steps: 2,
                ..Default::default()
            })
        }),
        ("lu", || lu::generate(&LuConfig { n: 32, block: 8, procs: 16, flop_cost: 16 })),
        ("apsp", || apsp::generate(&ApspConfig { n: 16, procs: 16, relax_cost: 16 })),
    ];
    for (name, gen) in apps {
        // MI-MA(ada) is the hard case: its plans read the link-load
        // meter, whose gap commits must reproduce the stepped schedule's
        // summaries exactly for the runs to stay bit-identical.
        for scheme in [SchemeKind::UiUa, SchemeKind::MiMaCol, SchemeKind::MiMaAdaptive] {
            let (c_slow, slow) = run_app_ff(scheme, 4, gen(), false);
            let (c_fast, fast) = run_app_ff(scheme, 4, gen(), true);
            assert_eq!(c_slow, c_fast, "{name}/{scheme}: cycle count diverged");
            assert_eq!(slow.now(), fast.now(), "{name}/{scheme}: clock diverged");
            assert_eq!(
                slow.net_stats().flit_hops,
                fast.net_stats().flit_hops,
                "{name}/{scheme}: flit hops diverged"
            );
            assert_eq!(
                slow.net_stats().flits_injected,
                fast.net_stats().flits_injected,
                "{name}/{scheme}: injected flits diverged"
            );
            let (ms, mf) = (slow.metrics(), fast.metrics());
            assert_eq!(ms.inval_txns, mf.inval_txns, "{name}/{scheme}: txn count diverged");
            for (what, a, b) in [
                ("count", ms.inval_latency.count() as f64, mf.inval_latency.count() as f64),
                ("sum", ms.inval_latency.sum(), mf.inval_latency.sum()),
                ("min", ms.inval_latency.min(), mf.inval_latency.min()),
                ("max", ms.inval_latency.max(), mf.inval_latency.max()),
                ("stddev", ms.inval_latency.stddev(), mf.inval_latency.stddev()),
            ] {
                assert_eq!(a, b, "{name}/{scheme}: inval latency {what} diverged");
            }
            assert_eq!(ms.stall_cycles, mf.stall_cycles, "{name}/{scheme}: stall cycles diverged");
        }
    }
}

#[test]
fn analytic_tracks_simulation_on_idle_transactions() {
    // On an otherwise idle machine the contention-free model should land
    // within a modest factor of the simulator, and must preserve the
    // UI-UA-vs-MI-MA ordering at large d.
    let k = 8;
    let mesh = Mesh2D::square(k);
    let mut rng = Rng::new(5);
    for scheme in [SchemeKind::UiUa, SchemeKind::MiUaCol, SchemeKind::MiMaCol] {
        for d in [4usize, 16, 32] {
            let p = gen_pattern(&mesh, PatternKind::UniformRandom, d, &mut rng);
            let sim = wormdsm_bench_shim::measure(scheme, k, &p);
            let est = estimate_invalidation(
                &NetParams::default(),
                &mesh,
                scheme.natural_routing(),
                scheme.build().as_ref(),
                p.home,
                &p.sharers,
            );
            let ratio = sim / est.latency;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{scheme} d={d}: sim {sim} vs analytic {} (ratio {ratio:.2})",
                est.latency
            );
        }
    }
}

/// A snapshot written under an older format version must fail closed: a
/// checkpoint parked before a layout change comes back as a structured
/// `SimError::Snapshot` naming the version, never a panic or a misread.
#[test]
fn restore_rejects_snapshots_of_an_older_format_version() {
    use wormdsm::core::SimError;
    use wormdsm::sim::snap::{fnv64, SNAP_VERSION};

    let scheme = SchemeKind::MiMaCol;
    let cfg = SystemConfig::for_scheme(4, scheme);
    let (_, sys) = run_app(
        scheme,
        4,
        barnes_hut::generate(&BarnesHutConfig {
            procs: 16,
            bodies: 32,
            steps: 2,
            ..Default::default()
        }),
    );
    let bytes = sys.save_snapshot();
    assert!(DsmSystem::restore_snapshot(cfg.clone(), scheme.build(), &bytes).is_ok());

    // Re-stamp the header as version 2 and reseal the payload trailer, so
    // the version is the only thing wrong with the stream.
    assert_ne!(SNAP_VERSION, 2);
    let mut old = bytes;
    old[4..8].copy_from_slice(&2u32.to_le_bytes());
    let n = old.len();
    let trailer = fnv64(&old[8..n - 8]);
    old[n - 8..].copy_from_slice(&trailer.to_le_bytes());
    match DsmSystem::restore_snapshot(cfg, scheme.build(), &old) {
        Err(SimError::Snapshot(msg)) => assert!(msg.contains("version 2"), "{msg}"),
        Err(e) => panic!("expected a snapshot error, got {e}"),
        Ok(_) => panic!("a version-2 snapshot must not restore"),
    }
}

/// Farm submissions whose mesh or synthetic op stream could not be
/// allocated fail validation up front — an allocation failure inside a
/// job would abort the whole process, past the runner's panic guard.
#[test]
fn farm_rejects_job_specs_too_large_to_allocate() {
    use wormdsm_farm::JobSpec;

    let synth = JobSpec { app: "synth".into(), k: 8, ..JobSpec::default() };
    assert!(synth.validate().is_ok());
    // k = 256 is the largest mesh a u16 NodeId addresses.
    assert!(JobSpec { k: 256, ..JobSpec::default() }.validate().is_ok());
    for (what, spec) in [
        ("k=257", JobSpec { k: 257, ..JobSpec::default() }),
        ("k=usize::MAX", JobSpec { k: usize::MAX, ..JobSpec::default() }),
        ("synth k=usize::MAX", JobSpec { k: usize::MAX, ..synth.clone() }),
        ("episodes=usize::MAX", JobSpec { episodes: usize::MAX, ..synth.clone() }),
    ] {
        let err = spec.validate().expect_err(what);
        assert!(!err.is_empty(), "{what}: the error must say why");
        assert!(spec.workload().is_err(), "{what}: building the workload must refuse too");
    }
}

#[test]
fn solo_flights_match_analytic_closed_form() {
    // The analytic model's contention-free flight law must match the
    // simulator *exactly* — not within a tolerance — for solo worms on an
    // idle mesh: final consumption latency and every intermediate absorb
    // timestamp, for unicasts and the planned invalidation worms of all
    // nine grouping schemes.
    use wormdsm::analytic::solo_flight_latencies;
    use wormdsm::core::plan::PlannedWorm;
    use wormdsm::mesh::network::{MeshConfig, Network};
    use wormdsm::mesh::routing::BaseRouting;
    use wormdsm::mesh::topology::NodeId;
    use wormdsm::mesh::worm::{TxnId, VNet, WormKind, WormSpec};

    let k = 8;
    let mesh = Mesh2D::square(k);
    let p = NetParams::default();

    let check = |routing: BaseRouting, src: NodeId, w: &PlannedWorm, len: u16| {
        let model =
            solo_flight_latencies(&p, &mesh, routing.request_rule(), src, &w.dests, len as u64);
        let mut cfg = MeshConfig::paper_defaults(k);
        cfg.routing = routing;
        let mut net = Network::new(cfg);
        let id = net.inject(WormSpec {
            src,
            vnet: VNet::Req,
            kind: w.kind,
            dests: w.dests.clone().into(),
            len_flits: len,
            payload: 0,
            reserve_iack: w.reserve_iack,
            txn: TxnId(1),
            initial_acks: w.initial_acks,
            gather_deposit: w.gather_deposit,
            deliver: w.deliver.clone().map(Into::into),
        });
        net.run_until_quiescent(100_000).unwrap();
        let q = net.worm(id).queued_at;
        let lat = net.worm(id).delivered_at.expect("solo flight completes") - q;
        assert_eq!(
            lat,
            *model.last().unwrap(),
            "final latency: src {src} dests {:?} len {len}",
            w.dests
        );
        for (j, &d) in w.dests.iter().enumerate() {
            if !w.deliver.as_ref().is_none_or(|m| m[j]) {
                continue;
            }
            let ds = net.take_deliveries(d);
            assert_eq!(ds.len(), 1, "exactly one delivery at {d}");
            assert_eq!(ds[0].at - q, model[j], "delivery time at dest {j} ({d}): src {src}");
        }
    };

    // Unicasts: every direction, with and without turns, across lengths.
    for &(sx, sy, dx, dy) in
        &[(0, 0, 7, 0), (7, 7, 0, 7), (0, 0, 5, 6), (6, 1, 2, 5), (3, 3, 3, 6), (4, 4, 4, 1)]
    {
        for len in [2u16, 5, 8, 16] {
            let w = PlannedWorm::unicast(mesh.node_at(dx, dy));
            check(BaseRouting::ECube, mesh.node_at(sx, sy), &w, len);
        }
    }

    // Every scheme's planned invalidation worms — request phase plus the
    // tree scheme's relayed column worms — injected solo under the
    // scheme's natural routing.
    let home = mesh.node_at(3, 4);
    let sharers: Vec<NodeId> = [(1, 2), (1, 5), (3, 1), (5, 6), (6, 2), (6, 5)]
        .iter()
        .map(|&(x, y)| mesh.node_at(x, y))
        .collect();
    for scheme in SchemeKind::ALL {
        let routing = scheme.natural_routing();
        let plan = scheme.build().plan(&mesh, home, &sharers);
        let mut checked = 0usize;
        for w in &plan.request_worms {
            assert_ne!(w.kind, WormKind::Gather, "{scheme}: request phase has no gathers");
            check(routing, home, w, 8);
            checked += 1;
        }
        for (delegate, worms) in &plan.relays {
            for w in worms {
                check(routing, *delegate, w, 8);
                checked += 1;
            }
        }
        assert!(checked > 0, "{scheme}: plan must carry invalidation worms");
    }
}

/// Minimal local re-implementation of the bench harness's seeded
/// transaction measurement (the facade crate does not depend on
/// wormdsm-bench).
mod wormdsm_bench_shim {
    use wormdsm::coherence::Addr;
    use wormdsm::core::{DsmSystem, MemOp, SchemeKind, SystemConfig};
    use wormdsm::workloads::Pattern;

    fn run(scheme: SchemeKind, k: usize, p: &Pattern) -> DsmSystem {
        let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
        let nodes = (k * k) as u64;
        let addr = Addr((nodes + p.home.0 as u64) * 32);
        let b = sys.geometry().block_of(addr);
        sys.seed_shared(b, &p.sharers);
        sys.issue(p.writer, MemOp::Write(addr));
        sys.run_until_idle(1_000_000).expect("completes");
        sys
    }

    pub fn measure(scheme: SchemeKind, k: usize, p: &Pattern) -> f64 {
        run(scheme, k, p).metrics().inval_latency.mean()
    }

    pub fn measure_traffic(scheme: SchemeKind, k: usize, p: &Pattern) -> u64 {
        run(scheme, k, p).net_stats().flit_hops
    }
}

#[test]
fn traffic_ordering_holds_for_column_patterns() {
    // A full column of sharers: multidestination worms traverse the
    // column once; UI-UA repeats the row prefix per sharer.
    let k = 8;
    let mesh = Mesh2D::square(k);
    let mut rng = Rng::new(9);
    let p = gen_pattern(&mesh, PatternKind::SameColumn, 6, &mut rng);
    let ui = wormdsm_bench_shim::measure_traffic(SchemeKind::UiUa, k, &p);
    let mi = wormdsm_bench_shim::measure_traffic(SchemeKind::MiUaCol, k, &p);
    assert!(mi < ui, "multicast traffic {mi} >= unicast {ui}");
}

/// PR 5: profiling is a pure observer. Running with the streaming
/// profiler + contention probe attached (which forces flit-level tracing
/// and the serial tick schedule) must reproduce the unprofiled run bit
/// for bit — on a trace ring so small it is guaranteed to overflow,
/// proving the profiler's attribution does not depend on ring capacity.
#[test]
fn profiling_is_bit_identical_and_survives_ring_overflow() {
    use wormdsm::sim::profile::{chrome_trace, validate_json};
    let cfg = BarnesHutConfig { procs: 16, bodies: 32, steps: 2, ..Default::default() };
    let (off_cycles, off) = run_app(SchemeKind::MiMaCol, 4, barnes_hut::generate(&cfg));

    let mut sys = DsmSystem::new(
        SystemConfig::for_scheme(4, SchemeKind::MiMaCol),
        SchemeKind::MiMaCol.build(),
    );
    sys.set_fast_forward(true);
    sys.enable_profiling();
    sys.recorder_mut().set_capacity(64); // guaranteed to overflow at flit level
    sys.enable_contention_probe(256);
    let r = barnes_hut::generate(&cfg).run(&mut sys, 50_000_000).expect("bh completes");

    // Bit-identity off vs on.
    assert_eq!(r.cycles, off_cycles, "cycles diverged under profiling");
    assert_eq!(sys.net_stats().flit_hops, off.net_stats().flit_hops);
    assert_eq!(sys.metrics().inval_txns, off.metrics().inval_txns);
    assert_eq!(sys.metrics().inval_latency.sum(), off.metrics().inval_latency.sum());

    // The ring overflowed, yet the profiler (hooked ahead of the ring
    // write) attributed every transaction with exact phase sums.
    assert!(sys.recorder().dropped() > 0, "a 64-slot ring must overflow this run");
    let p = sys.take_profiler().expect("profiler attached");
    assert_eq!(p.closed(), sys.metrics().inval_txns);
    assert_eq!(p.open_txns(), 0);
    assert_eq!(p.latency_total() as f64, sys.metrics().inval_latency.sum());
    p.verify_exact().expect("phases sum bit-exactly to every reported latency");
    assert!(p.records().iter().all(|t| t.phase_sum() == t.latency));

    // The probe mirrors the network's link accounting, and both exported
    // JSON artifacts are well-formed.
    let probe = sys.take_contention_probe().expect("probe enabled");
    assert_eq!(
        probe.busy_total().iter().sum::<u64>(),
        off.net_stats().link_busy.iter().sum::<u64>()
    );
    validate_json(&chrome_trace::trace_json(p.records(), &[])).expect("chrome trace JSON");
    validate_json(&sys.export_metrics().to_json()).expect("metrics registry JSON");
}
