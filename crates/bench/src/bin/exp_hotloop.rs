//! Hot-loop throughput harness: cycles simulated per wall-second on the
//! three seeded applications, with dead-cycle fast-forwarding off
//! (control: per-cycle stepping) vs on (event-driven stepping).
//!
//! Verifies the two arms are bit-identical (cycles, flit hops,
//! invalidation-latency distribution) and writes the measurements to
//! `BENCH_hotloop.json`.
//!
//! At `--compute-scale 1` the workloads are communication-dominated and
//! nearly every cycle is *busy*, so fast-forwarding has nothing to elide
//! — throughput there measures the raw per-cycle simulation cost. For
//! the reference configuration (4x4, MI-MA(col)) this binary also checks
//! the run against golden pre-optimization metrics (H2: the
//! allocation-free flit path must not change results, only speed) and
//! writes a busy-cycle report to `BENCH_busycycle.json` comparing
//! against the recorded pre-optimization baseline throughput.
//!
//! With `--partick`, additionally sweeps the space-partitioned tick
//! engine (`MeshConfig::tiles`) over T ∈ {1, 2, 4, 8} at k ∈ {8, 16} in
//! the busy-cycle regime, asserts every partitioned run bit-identical to
//! the serial T=1 schedule, and writes per-T throughput rows to
//! `BENCH_partick.json`.
//!
//! With `--trace`, additionally measures flight-recorder overhead on the
//! busy arm (tracing off vs `txn` vs `flit` level, asserting all three
//! bit-identical), reconstructs one invalidation transaction's timeline,
//! checks every recorded `txn_close` latency against the metrics summary,
//! prints the metrics registry, and writes it all to `BENCH_trace.json`.
//!
//! Every arm ends with a coherence audit: `verify_coherence` plus the
//! sticky invariant-violation slot, so a bench run can no longer report
//! numbers from a corrupted machine.
//!
//! Usage: `exp_hotloop [--k 4] [--scheme "MI-MA(col)"] [--compute-scale 256]
//!                     [--out BENCH_hotloop.json] [--busy-out BENCH_busycycle.json]
//!                     [--partick] [--partick-out BENCH_partick.json]
//!                     [--trace] [--trace-out BENCH_trace.json]
//!                     [--app bh] [--snapshot-every N] [--snapshot-out FILE]
//!                     [--resume FILE]`
//!
//! `--snapshot-every N` runs one app arm (`--app`) writing a resumable
//! checkpoint every N cycles and keeps the last at `--snapshot-out`;
//! `--resume FILE` picks such a run back up and proves the rejoined run
//! bit-identical to one that was never interrupted.

use std::time::Instant;
use wormdsm_bench::{arg, assert_coherent, flag, seeded_workload, timed, warn_on_trace_drops};
use wormdsm_core::{DsmSystem, RunMeta, SchemeKind, SystemConfig, TraceLevel};
use wormdsm_sim::trace::TraceKind;

struct Arm {
    cycles: u64,
    flit_hops: u64,
    inval_lat_sum: f64,
    inval_lat_count: u64,
    wall_s: f64,
    skipped: u64,
    worm_slots_reused: u64,
    scratch_grows: u64,
    /// Speculative cycles validated and committed by the optimistic tick.
    spec_commits: u64,
    /// Cycles whose boundary-credit digest mismatched and were replayed.
    spec_rollbacks: u64,
    /// Cycles re-executed on the serial schedule by those rollbacks.
    spec_replayed_cycles: u64,
    /// Worker threads the pool actually got (0 when serial); may be less
    /// than `tiles - 1` on a small host or under `WORMDSM_POOL_WORKERS`.
    effective_workers: usize,
    /// Full metrics registry (protocol + `net_`-prefixed mesh counters)
    /// as a JSON object, embedded verbatim in the BENCH rows.
    metrics_json: String,
}

/// Golden busy-cycle reference for 4x4 MI-MA(col) at `--compute-scale 1`,
/// recorded on the pre-optimization tree (commit f102984): exact simulated
/// results (any optimized run must reproduce them bit for bit) plus the
/// baseline throughput the allocation-free flit path is measured against.
struct BusyGolden {
    app: &'static str,
    cycles: u64,
    flit_hops: u64,
    inval_lat_count: u64,
    inval_lat_sum: f64,
    baseline_cps: f64,
}

const BUSY_GOLDEN: [BusyGolden; 3] = [
    BusyGolden {
        app: "bh",
        cycles: 93_882,
        flit_hops: 347_892,
        inval_lat_count: 142,
        inval_lat_sum: 27_230.0,
        baseline_cps: 997_241.0,
    },
    BusyGolden {
        app: "lu",
        cycles: 142_273,
        flit_hops: 651_056,
        inval_lat_count: 24,
        inval_lat_sum: 3_675.0,
        baseline_cps: 776_613.0,
    },
    BusyGolden {
        app: "apsp",
        cycles: 306_859,
        flit_hops: 1_480_233,
        inval_lat_count: 881,
        inval_lat_sum: 130_394.0,
        baseline_cps: 584_421.0,
    },
];

fn run_arm(app: &str, scheme: SchemeKind, k: usize, scale: u64, fast_forward: bool) -> Arm {
    run_arm_tiled(app, scheme, k, scale, fast_forward, 1)
}

fn run_arm_tiled(
    app: &str,
    scheme: SchemeKind,
    k: usize,
    scale: u64,
    fast_forward: bool,
    tiles: usize,
) -> Arm {
    let (arm, _) = run_arm_traced(app, scheme, k, scale, fast_forward, tiles, TraceLevel::Off);
    arm
}

/// Run one arm with the flight recorder at `level`, auditing coherence at
/// the end, and hand back the finished system for trace inspection.
#[allow(clippy::too_many_arguments)]
fn run_arm_traced(
    app: &str,
    scheme: SchemeKind,
    k: usize,
    scale: u64,
    fast_forward: bool,
    tiles: usize,
    level: TraceLevel,
) -> (Arm, DsmSystem) {
    let mut cfg = SystemConfig::for_scheme(k, scheme);
    cfg.mesh.tiles = tiles;
    let mut sys = DsmSystem::new(cfg, scheme.build());
    sys.set_fast_forward(fast_forward);
    sys.set_trace_level(level);
    if level > TraceLevel::Off {
        // Large enough to keep a busy-arm run's full transaction history.
        sys.recorder_mut().set_capacity(1 << 20);
    }
    let w = seeded_workload(app, k * k, scale);
    let (r, wall_s) = timed(|| w.run(&mut sys, 500_000_000).expect("application completes"));
    assert_coherent(&sys, &format!("{app} k={k} T={tiles}"));
    (finish_arm(&sys, r.cycles, wall_s), sys)
}

/// Collect an [`Arm`] from a finished system.
fn finish_arm(sys: &DsmSystem, cycles: u64, wall_s: f64) -> Arm {
    Arm {
        cycles,
        flit_hops: sys.net_stats().flit_hops,
        inval_lat_sum: sys.metrics().inval_latency.sum(),
        inval_lat_count: sys.metrics().inval_latency.count(),
        wall_s,
        skipped: sys.skipped_cycles(),
        worm_slots_reused: sys.net_stats().worm_slots_reused,
        scratch_grows: sys.net_stats().scratch_grows,
        spec_commits: sys.net_stats().spec_commits,
        spec_rollbacks: sys.net_stats().spec_rollbacks,
        spec_replayed_cycles: sys.net_stats().spec_replayed_cycles,
        effective_workers: sys.effective_workers(),
        metrics_json: sys.export_metrics().to_json(),
    }
}

/// Sweep the space-partitioned tick engine over tile counts at busy-cycle
/// compute scale: every T must reproduce the serial T=1 run bit for bit,
/// and the JSON rows record cycles/s per T plus the speedup over T=1 (the
/// PR 2 single-thread schedule).
/// PR 2 single-thread throughput (cycles/s) at k = 8, compute scale 1,
/// recorded on the reference container (1 core) the same day as the first
/// partitioned sweep — same convention as `BusyGolden::baseline_cps`.
/// `speedup_vs_pr2_ref` in the JSON compares against these fixed numbers,
/// so it only reads as a true speedup when the sweep runs on comparable
/// hardware; `host_cores` in the header records the actual machine.
const PR2_REF_CPS: [(&str, f64); 2] = [("bh", 372_990.0), ("apsp", 306_017.0)];

fn partick_sweep(scheme: SchemeKind, out: &str) {
    let t0 = Instant::now();
    const TILE_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut rows = Vec::new();
    println!(
        "\n== partitioned tick sweep, {} (compute scale 1, {} host core{}) ==",
        scheme.name(),
        host_cores,
        if host_cores == 1 { "" } else { "s" }
    );
    println!(
        "{:>4} {:>6} {:>3} {:>12} {:>12} {:>14} {:>8} {:>9} {:>9}",
        "k", "app", "T", "cycles", "wall s", "cycles/s", "speedup", "rollback", "replayed"
    );
    // k = 16 sweeps Barnes-Hut only: APSP's smallest valid problem at 256
    // processors (n = 256) simulates an order of magnitude more cycles per
    // arm than everything else in the sweep combined — more wall time than
    // a CI run can spend on one table row.
    let sweep: [(usize, &[&str]); 2] = [(8, &["bh", "apsp"]), (16, &["bh"])];
    for (k, apps) in sweep {
        for &app in apps {
            let mut serial: Option<Arm> = None;
            for tiles in TILE_COUNTS {
                let mut best = run_arm_tiled(app, scheme, k, 1, true, tiles);
                // Best of two: parallel wall times are noisier than serial.
                let rerun = run_arm_tiled(app, scheme, k, 1, true, tiles);
                if rerun.wall_s < best.wall_s {
                    best = rerun;
                }
                if let Some(s) = &serial {
                    assert_eq!(best.cycles, s.cycles, "{app} k={k} T={tiles}: cycles diverged");
                    assert_eq!(
                        best.flit_hops, s.flit_hops,
                        "{app} k={k} T={tiles}: flit hops diverged"
                    );
                    assert_eq!(
                        best.inval_lat_sum, s.inval_lat_sum,
                        "{app} k={k} T={tiles}: inval latency diverged"
                    );
                    assert_eq!(
                        best.inval_lat_count, s.inval_lat_count,
                        "{app} k={k} T={tiles}: txn count diverged"
                    );
                }
                // The whole point of the optimistic engine: mis-speculated
                // cycles replayed serially must be a tiny fraction of the
                // 149,343 serial surrenders a pre-tick hazard scan took on
                // this workload (apsp k=8).
                if app == "apsp" && k == 8 && tiles > 1 {
                    assert!(
                        best.spec_replayed_cycles <= 15_000,
                        "apsp k=8 T={tiles}: {} replayed cycles, expected <= 15000",
                        best.spec_replayed_cycles
                    );
                }
                let cps = best.cycles as f64 / best.wall_s;
                let speedup = match &serial {
                    Some(s) => s.wall_s / best.wall_s,
                    None => 1.0,
                };
                println!(
                    "{:>4} {:>6} {:>3} {:>12} {:>12.3} {:>14.0} {:>7.2}x {:>9} {:>9}",
                    k,
                    app,
                    tiles,
                    best.cycles,
                    best.wall_s,
                    cps,
                    speedup,
                    best.spec_rollbacks,
                    best.spec_replayed_cycles
                );
                let pr2 = (k == 8)
                    .then(|| PR2_REF_CPS.iter().find(|(a, _)| *a == app))
                    .flatten()
                    .map_or(String::new(), |(_, ref_cps)| {
                        format!(", \"speedup_vs_pr2_ref\": {:.3}", cps / ref_cps)
                    });
                rows.push(format!(
                    concat!(
                        "    {{\"k\": {}, \"app\": \"{}\", \"tiles\": {}, ",
                        "\"pool_workers_requested\": {}, ",
                        "\"pool_workers_effective\": {}, \"cycles\": {}, ",
                        "\"wall_s\": {:.6}, \"cycles_per_s\": {:.0}, ",
                        "\"speedup_vs_serial\": {:.3}{}, ",
                        "\"spec_commits\": {}, \"spec_rollbacks\": {}, ",
                        "\"spec_replayed_cycles\": {}, ",
                        "\"bit_identical_to_serial\": true}}"
                    ),
                    k,
                    app,
                    tiles,
                    tiles - 1,
                    best.effective_workers,
                    best.cycles,
                    best.wall_s,
                    cps,
                    speedup,
                    pr2,
                    best.spec_commits,
                    best.spec_rollbacks,
                    best.spec_replayed_cycles
                ));
                if serial.is_none() {
                    serial = Some(best);
                }
            }
        }
    }

    let pr2_ref = PR2_REF_CPS
        .iter()
        .map(|(app, cps)| format!("\"{app}_k8_cps\": {cps:.0}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n  \"scheme\": \"{}\",\n  \"compute_scale\": 1,\n",
            "  \"host_cores\": {},\n",
            "  \"run_meta\": {},\n",
            "  \"pr2_ref\": {{{}, ",
            "\"note\": \"PR 2 binary, same reference container (1 core), ",
            "fast arm, compute scale 1\"}},\n",
            "  \"runs\": [\n{}\n  ]\n}}\n"
        ),
        scheme.name(),
        host_cores,
        RunMeta::capture(wormdsm_sim::pool::WorkerPool::sized_workers(
            TILE_COUNTS[TILE_COUNTS.len() - 1] - 1,
        ))
        .with_wall_s(t0.elapsed().as_secs_f64())
        .to_json(),
        pr2_ref,
        rows.join(",\n")
    );
    std::fs::write(out, json).expect("write partitioned-tick results");
    println!("\nwrote {out}");
}

/// H4: flight-recorder overhead and timeline reconstruction on the busy
/// arm. Tracing must be invisible in the results (every level reproduces
/// the untraced run bit for bit) and the recorded timelines must agree
/// with the metrics the run reports.
fn trace_mode(scheme: SchemeKind, k: usize, out: &str) {
    let t0 = Instant::now();
    println!(
        "\n== H4: flight-recorder overhead, {0}x{0} {1}, compute scale 1 ==",
        k,
        scheme.name()
    );
    println!(
        "{:>6} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "app", "cycles", "off s", "txn s", "flit s", "txn ovh", "flit ovh"
    );
    let mut rows = Vec::new();
    let mut timeline = None;
    for app in ["bh", "lu", "apsp"] {
        let off = run_arm(app, scheme, k, 1, true);
        let (txn_arm, tsys) = run_arm_traced(app, scheme, k, 1, true, 1, TraceLevel::Txn);
        let (flit_arm, fsys) = run_arm_traced(app, scheme, k, 1, true, 1, TraceLevel::Flit);
        for (label, arm) in [("txn", &txn_arm), ("flit", &flit_arm)] {
            assert_eq!(off.cycles, arm.cycles, "{app} {label}: cycles diverged under tracing");
            assert_eq!(
                off.flit_hops, arm.flit_hops,
                "{app} {label}: flit hops diverged under tracing"
            );
            assert_eq!(
                off.inval_lat_sum, arm.inval_lat_sum,
                "{app} {label}: inval latency diverged under tracing"
            );
            assert_eq!(
                off.inval_lat_count, arm.inval_lat_count,
                "{app} {label}: txn count diverged under tracing"
            );
        }
        // The recorded transaction closes must agree with the metrics the
        // run reported: one close per completed transaction, and the close
        // latencies summing to the latency summary. A ring overflow makes
        // those dumps incomplete: warn loudly and skip the ring-derived
        // cross-checks rather than asserting on truncated data.
        let ring_complete = warn_on_trace_drops(&format!("{app} flit arm"), &fsys);
        let closes: Vec<(u64, u64)> = fsys
            .recorder()
            .events()
            .filter_map(|e| match e.kind {
                TraceKind::TxnClose { txn, latency, .. } => Some((txn, latency)),
                _ => None,
            })
            .collect();
        if ring_complete {
            assert_eq!(
                closes.len() as u64,
                fsys.metrics().inval_txns,
                "{app}: one txn_close per completed transaction"
            );
            let lat_sum: u64 = closes.iter().map(|&(_, l)| l).sum();
            assert_eq!(
                lat_sum as f64,
                fsys.metrics().inval_latency.sum(),
                "{app}: timeline latencies disagree with the metrics summary"
            );
        }
        if app == "bh" && ring_complete {
            // Dump one reconstructed timeline and cross-check it against
            // its own close event: open-to-close distance == latency.
            let &(id, latency) = closes.last().expect("bh completes transactions");
            let tl = fsys.recorder().timeline(id);
            let open_at = tl
                .iter()
                .find_map(|e| matches!(e.kind, TraceKind::TxnOpen { .. }).then_some(e.at))
                .expect("timeline contains the open");
            let close_at = tl
                .iter()
                .find_map(|e| matches!(e.kind, TraceKind::TxnClose { .. }).then_some(e.at))
                .expect("timeline contains the close");
            assert_eq!(close_at - open_at, latency, "timeline disagrees with its close event");
            println!("\n-- metrics registry (bh, busy arm) --");
            for line in fsys.export_metrics().lines() {
                println!("{line}");
            }
            println!("\n-- txn {id} timeline: {} events, {latency} cycles --", tl.len());
            timeline =
                Some((id, wormdsm_sim::trace::events_json(tl.iter()), fsys.export_metrics()));
        }
        let t_ovh = txn_arm.wall_s / off.wall_s - 1.0;
        let f_ovh = flit_arm.wall_s / off.wall_s - 1.0;
        println!(
            "{:>6} {:>12} {:>10.3} {:>10.3} {:>10.3} {:>8.1}% {:>8.1}%",
            app,
            off.cycles,
            off.wall_s,
            txn_arm.wall_s,
            flit_arm.wall_s,
            100.0 * t_ovh,
            100.0 * f_ovh
        );
        rows.push(format!(
            concat!(
                "    {{\"app\": \"{}\", \"cycles\": {}, ",
                "\"wall_s_off\": {:.6}, \"wall_s_txn\": {:.6}, \"wall_s_flit\": {:.6}, ",
                "\"overhead_txn\": {:.4}, \"overhead_flit\": {:.4}, ",
                "\"events_txn\": {}, \"events_flit\": {}, \"bit_identical\": true}}"
            ),
            app,
            off.cycles,
            off.wall_s,
            txn_arm.wall_s,
            flit_arm.wall_s,
            t_ovh,
            f_ovh,
            tsys.recorder().recorded(),
            fsys.recorder().recorded(),
        ));
    }
    // On a bh ring overflow the reconstructed timeline is unavailable;
    // the JSON records nulls instead of truncated data.
    let (tl_txn, tl_json, metrics_json) = match timeline {
        Some((id, tl, m)) => (id.to_string(), tl, m.to_json()),
        None => ("null".into(), "null".into(), "null".into()),
    };
    let json = format!(
        concat!(
            "{{\n  \"k\": {}, \n  \"scheme\": \"{}\",\n  \"compute_scale\": 1,\n",
            "  \"run_meta\": {},\n",
            "  \"apps\": [\n{}\n  ],\n",
            "  \"timeline_txn\": {},\n  \"timeline\": {},\n  \"metrics\": {}\n}}\n"
        ),
        k,
        scheme.name(),
        RunMeta::capture(0).with_wall_s(t0.elapsed().as_secs_f64()).to_json(),
        rows.join(",\n"),
        tl_txn,
        tl_json,
        metrics_json
    );
    std::fs::write(out, json).expect("write trace results");
    println!("\nwrote {out}");
}

/// `--snapshot-every N`: run one app arm writing a resumable checkpoint
/// every N cycles, keep the last one at `path`, and verify checkpointing
/// was invisible (final state bit-identical to an uninterrupted run).
fn checkpoint_mode(app: &str, scheme: SchemeKind, k: usize, scale: u64, every: u64, path: &str) {
    println!("\n== checkpointed run: {app} on {k}x{k} {}, every {every} cycles ==", scheme.name());
    let w = seeded_workload(app, k * k, scale);
    let mut reference = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    reference.set_fast_forward(true);
    w.run(&mut reference, 500_000_000).expect("application completes");

    let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    sys.set_fast_forward(true);
    let mut last: Option<(u64, Vec<u8>)> = None;
    let mut taken = 0u64;
    w.run_checkpointed(&mut sys, 500_000_000, every, |at, bytes| {
        taken += 1;
        last = Some((at, bytes));
    })
    .expect("application completes");
    assert_coherent(&sys, &format!("{app} k={k} checkpointed"));
    assert_eq!(
        sys.export_metrics().to_json(),
        reference.export_metrics().to_json(),
        "checkpointing changed the run"
    );
    match last {
        Some((at, bytes)) => {
            std::fs::write(path, &bytes).expect("write checkpoint");
            println!(
                "{taken} checkpoints; finished at cycle {} bit-identical to the \
                 uninterrupted run; kept the cycle-{at} checkpoint at {path} ({} bytes)",
                sys.now(),
                bytes.len()
            );
            println!(
                "resume with: exp_hotloop --resume {path} --app {app} --k {k} \
                 --scheme \"{}\" --compute-scale {scale}",
                scheme.name()
            );
        }
        None => println!(
            "run finished at cycle {} before the first {every}-cycle boundary; nothing written",
            sys.now()
        ),
    }
}

/// `--resume <file>`: rebuild system + issue cursors from a
/// [`checkpoint_mode`] file, run the remainder, and verify the final
/// state is bit-identical to a run that was never interrupted.
fn resume_mode(app: &str, scheme: SchemeKind, k: usize, scale: u64, path: &str) {
    println!("\n== resumed run: {app} on {k}x{k} {}, from {path} ==", scheme.name());
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let w = seeded_workload(app, k * k, scale);
    let (mut sys, mut st) = w
        .resume(SystemConfig::for_scheme(k, scheme), scheme.build(), &bytes)
        .unwrap_or_else(|e| panic!("resume {path}: {e}"));
    let from = sys.now();
    w.run_from(&mut sys, &mut st, 500_000_000).expect("application completes");
    assert_coherent(&sys, &format!("{app} k={k} resumed"));

    let mut reference = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    reference.set_fast_forward(true);
    let r_ref = w.run(&mut reference, 500_000_000).expect("application completes");
    assert_eq!(st.issued(), r_ref.issued, "resumed run issued a different op count");
    assert_eq!(
        sys.export_metrics().to_json(),
        reference.export_metrics().to_json(),
        "resumed run diverged from the uninterrupted run"
    );
    println!(
        "resumed at cycle {from}, finished at {}; bit-identical to the uninterrupted run",
        sys.now()
    );
}

fn main() {
    let main_t0 = Instant::now();
    let k: usize = arg("--k", 4);
    let scale: u64 = arg("--compute-scale", 256);
    let scheme_name: String = arg("--scheme", "MI-MA(col)".to_string());
    let out: String = arg("--out", "BENCH_hotloop.json".to_string());
    let busy_out: String = arg("--busy-out", "BENCH_busycycle.json".to_string());
    let partick = flag("--partick");
    let partick_out: String = arg("--partick-out", "BENCH_partick.json".to_string());
    let trace = flag("--trace");
    let trace_out: String = arg("--trace-out", "BENCH_trace.json".to_string());
    let app_arg: String = arg("--app", "bh".to_string());
    let snapshot_every: u64 = arg("--snapshot-every", 0);
    let snapshot_out: String = arg("--snapshot-out", "wormdsm.ckpt".to_string());
    let resume: String = arg("--resume", String::new());
    let scheme = SchemeKind::ALL
        .into_iter()
        .find(|s| s.name() == scheme_name)
        .unwrap_or_else(|| panic!("unknown scheme {scheme_name}"));
    if !resume.is_empty() {
        resume_mode(&app_arg, scheme, k, scale, &resume);
        return;
    }
    if snapshot_every > 0 {
        checkpoint_mode(&app_arg, scheme, k, scale, snapshot_every, &snapshot_out);
        return;
    }
    // The golden busy-cycle reference applies only to its recorded config.
    let busy_ref = scale == 1 && k == 4 && scheme == SchemeKind::MiMaCol;

    println!("\n== hot-loop throughput on {0}x{0}, {1} ==", k, scheme.name());
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "app", "cycles", "control s", "fast s", "control c/s", "fast c/s", "speedup"
    );

    let mut rows = Vec::new();
    let mut busy_rows = Vec::new();
    for app in ["bh", "lu", "apsp"] {
        let control = run_arm(app, scheme, k, scale, false);
        let mut fast = run_arm(app, scheme, k, scale, true);
        assert_eq!(control.cycles, fast.cycles, "{app}: cycle count diverged");
        assert_eq!(control.flit_hops, fast.flit_hops, "{app}: flit hops diverged");
        assert_eq!(control.inval_lat_sum, fast.inval_lat_sum, "{app}: inval latency diverged");
        assert_eq!(control.inval_lat_count, fast.inval_lat_count, "{app}: txn count diverged");
        if busy_ref {
            // Two extra fast passes: report the best wall time, so the
            // busy-cycle speedup is not hostage to one noisy sample.
            for _ in 0..2 {
                let rerun = run_arm(app, scheme, k, scale, true);
                if rerun.wall_s < fast.wall_s {
                    fast = rerun;
                }
            }
            let g = BUSY_GOLDEN.iter().find(|g| g.app == app).expect("golden app");
            assert_eq!(fast.cycles, g.cycles, "{app}: cycles diverged from golden");
            assert_eq!(fast.flit_hops, g.flit_hops, "{app}: flit hops diverged from golden");
            assert_eq!(
                fast.inval_lat_count, g.inval_lat_count,
                "{app}: txn count diverged from golden"
            );
            assert_eq!(
                fast.inval_lat_sum, g.inval_lat_sum,
                "{app}: inval latency diverged from golden"
            );
            // The partitioned engine must reproduce the same golden run:
            // step the mesh as 4 concurrent row-band tiles and hold it to
            // the pre-optimization numbers bit for bit.
            let tiled = run_arm_tiled(app, scheme, k, scale, true, 4);
            assert_eq!(tiled.cycles, g.cycles, "{app} T=4: cycles diverged from golden");
            assert_eq!(tiled.flit_hops, g.flit_hops, "{app} T=4: flit hops diverged from golden");
            assert_eq!(
                tiled.inval_lat_count, g.inval_lat_count,
                "{app} T=4: txn count diverged from golden"
            );
            assert_eq!(
                tiled.inval_lat_sum, g.inval_lat_sum,
                "{app} T=4: inval latency diverged from golden"
            );
            let cps = fast.cycles as f64 / fast.wall_s;
            busy_rows.push(format!(
                concat!(
                    "    {{\"app\": \"{}\", \"cycles\": {}, \"flit_hops\": {}, ",
                    "\"baseline_cycles_per_s\": {:.0}, \"cycles_per_s\": {:.0}, ",
                    "\"speedup_vs_baseline\": {:.3}, \"worm_slots_reused\": {}, ",
                    "\"scratch_grows\": {}, \"bit_identical_to_golden\": true}}"
                ),
                app,
                fast.cycles,
                fast.flit_hops,
                g.baseline_cps,
                cps,
                cps / g.baseline_cps,
                fast.worm_slots_reused,
                fast.scratch_grows,
            ));
        }
        let control_cps = control.cycles as f64 / control.wall_s;
        let fast_cps = fast.cycles as f64 / fast.wall_s;
        let speedup = control.wall_s / fast.wall_s;
        let dead = 100.0 * fast.skipped as f64 / fast.cycles as f64;
        println!(
            "{:>6} {:>12} {:>14.3} {:>14.3} {:>14.0} {:>14.0} {:>7.2}x  ({dead:.1}% dead)",
            app, control.cycles, control.wall_s, fast.wall_s, control_cps, fast_cps, speedup
        );
        println!(
            "       worm slots reused {:>9}   scratch regrows {:>3}",
            fast.worm_slots_reused, fast.scratch_grows
        );
        rows.push(format!(
            concat!(
                "    {{\"app\": \"{}\", \"cycles\": {}, \"flit_hops\": {}, ",
                "\"dead_cycles\": {}, \"dead_fraction\": {:.4}, ",
                "\"control_wall_s\": {:.6}, \"fast_wall_s\": {:.6}, ",
                "\"control_cycles_per_s\": {:.0}, \"fast_cycles_per_s\": {:.0}, ",
                "\"speedup\": {:.3}, \"bit_identical\": true, \"metrics\": {}}}"
            ),
            app,
            control.cycles,
            control.flit_hops,
            fast.skipped,
            dead / 100.0,
            control.wall_s,
            fast.wall_s,
            control_cps,
            fast_cps,
            speedup,
            fast.metrics_json
        ));
    }

    let json = format!(
        "{{\n  \"k\": {k},\n  \"scheme\": \"{}\",\n  \"compute_scale\": {scale},\n  \"run_meta\": {},\n  \"apps\": [\n{}\n  ]\n}}\n",
        scheme.name(),
        RunMeta::capture(0).with_wall_s(main_t0.elapsed().as_secs_f64()).to_json(),
        rows.join(",\n")
    );
    std::fs::write(&out, json).expect("write results");
    println!("\nwrote {out}");

    if busy_ref {
        let json = format!(
            "{{\n  \"k\": {k},\n  \"scheme\": \"{}\",\n  \"compute_scale\": 1,\n  \"run_meta\": {},\n  \"apps\": [\n{}\n  ]\n}}\n",
            scheme.name(),
            RunMeta::capture(0).with_wall_s(main_t0.elapsed().as_secs_f64()).to_json(),
            busy_rows.join(",\n")
        );
        std::fs::write(&busy_out, json).expect("write busy-cycle results");
        println!("wrote {busy_out}");
    }

    if partick {
        partick_sweep(scheme, &partick_out);
    }

    if trace {
        trace_mode(scheme, k, &trace_out);
    }
}
