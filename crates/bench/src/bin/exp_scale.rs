//! E-scale — large-mesh scaling sweep (ROADMAP item 1).
//!
//! The paper demonstrated multidestination invalidation on the meshes
//! 1996 hardware could build (k <= 16). This sweep scales the simulator
//! two orders of magnitude past that: for each k it measures
//!
//! * **simulation throughput** (simulated cycles per wall second) and
//!   **resident memory** under a batch of concurrent invalidation
//!   transactions — the numbers that prove the O(1) route computation
//!   and SoA router/NIC slabs keep large meshes tractable, and
//! * **invalidation latency vs sharer count** per scheme — the table
//!   that shows the MI-MA advantage over UI-UA *widening* as k (and with
//!   it the reachable sharer count) grows.
//!
//! Results go to stdout and `BENCH_scale.json`. Wall-clock throughput is
//! host-dependent (CI containers are often 1-core; see EXPERIMENTS.md);
//! everything else is deterministic.
//!
//! Usage: `exp_scale [--ks 8,16,32,64,128] [--txns 64] [--trials 3]
//!                   [--seed 1] [--max-cycles 50000000]
//!                   [--out BENCH_scale.json]`

use std::time::Instant;
use wormdsm_bench::{arg, assert_coherent, measure_txn_on, row};
use wormdsm_coherence::Addr;
use wormdsm_core::{DsmSystem, MemOp, RunMeta, SchemeKind, SystemConfig};
use wormdsm_mesh::Mesh2D;
use wormdsm_sim::Rng;
use wormdsm_workloads::{gen_pattern, Pattern, PatternKind};

/// The three-way comparison the sweep is about: the unicast baseline,
/// one-phase multidestination invalidation, and the full MI-MA scheme.
const SCHEMES: [SchemeKind; 3] = [SchemeKind::UiUa, SchemeKind::MiUaCol, SchemeKind::MiMaCol];

/// Current resident set size in KiB (`/proc/self/statm`, Linux only;
/// 0 where unavailable). Deltas across a build are an upper bound on the
/// structure's footprint — the allocator may also reuse freed pages.
fn resident_kib() -> u64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/statm") else { return 0 };
    let pages: u64 = s.split_whitespace().nth(1).and_then(|f| f.parse().ok()).unwrap_or(0);
    pages * 4096 / 1024
}

/// Cache sets per node for a k x k system. The sweep measures network
/// behavior on seeded sharer sets, so cache capacity is irrelevant as
/// long as the seeded lines fit; shrinking the per-node cache keeps the
/// k=128 (16384-node) point from spending half a gigabyte on idle tags.
fn cache_sets_for(k: usize) -> usize {
    if k >= 64 {
        256
    } else {
        2048
    }
}

fn build_system(k: usize, scheme: SchemeKind) -> DsmSystem {
    let mut cfg = SystemConfig::for_scheme(k, scheme);
    cfg.cache_sets = cache_sets_for(k);
    DsmSystem::new(cfg, scheme.build())
}

/// `count` patterns with pairwise-distinct writers and homes, so the
/// whole batch can be issued concurrently (one outstanding op per
/// processor under sequential consistency).
fn distinct_patterns(mesh: &Mesh2D, d: usize, count: usize, rng: &mut Rng) -> Vec<Pattern> {
    let mut used = vec![false; mesh.nodes()];
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0;
    while out.len() < count {
        let p = gen_pattern(mesh, PatternKind::UniformRandom, d, rng);
        attempts += 1;
        assert!(attempts < count * 100, "could not find {count} disjoint writer/home pairs");
        if used[p.writer.idx()] || used[p.home.idx()] || p.writer == p.home {
            continue;
        }
        used[p.writer.idx()] = true;
        used[p.home.idx()] = true;
        out.push(p);
    }
    out
}

struct ThroughputPoint {
    k: usize,
    scheme: SchemeKind,
    txns: usize,
    cycles: u64,
    wall_s: f64,
    cycles_per_s: f64,
    flit_hops: u64,
    mean_inval_latency: f64,
    rss_build_kib: u64,
    rss_after_kib: u64,
}

/// One throughput arm: seed `txns` concurrent invalidation transactions
/// (distinct writers and homes), run the batch to idle, and report
/// simulated-cycles-per-wall-second plus memory.
fn run_throughput(
    k: usize,
    scheme: SchemeKind,
    txns: usize,
    d: usize,
    seed: u64,
    max_cycles: u64,
) -> ThroughputPoint {
    let rss0 = resident_kib();
    let mut sys = build_system(k, scheme);
    let rss_build = resident_kib().saturating_sub(rss0);

    let mesh = Mesh2D::square(k);
    let mut rng = Rng::new(seed);
    let patterns = distinct_patterns(&mesh, d, txns, &mut rng);
    for (i, p) in patterns.iter().enumerate() {
        // One block per pattern, homed at the pattern's home node
        // (blocks are home-interleaved: block % nodes == home).
        let block = (i as u64 + 1) * mesh.nodes() as u64 + p.home.0 as u64;
        let addr = Addr(block * sys.config().block_bytes);
        let b = sys.geometry().block_of(addr);
        sys.seed_shared(b, &p.sharers);
    }
    let t0 = Instant::now();
    for (i, p) in patterns.iter().enumerate() {
        let block = (i as u64 + 1) * mesh.nodes() as u64 + p.home.0 as u64;
        sys.issue(p.writer, MemOp::Write(Addr(block * sys.config().block_bytes)));
    }
    let cycles = sys.run_until_idle(max_cycles).expect("batch completes");
    let wall_s = t0.elapsed().as_secs_f64();
    assert_coherent(&sys, "scale throughput batch");
    assert_eq!(sys.metrics().inval_txns as usize, txns, "every transaction ran");

    let m = sys.metrics();
    ThroughputPoint {
        k,
        scheme,
        txns,
        cycles,
        wall_s,
        cycles_per_s: cycles as f64 / wall_s.max(1e-9),
        flit_hops: sys.net_stats().flit_hops,
        mean_inval_latency: m.inval_latency.sum() / (m.inval_txns as f64).max(1.0),
        rss_build_kib: rss_build,
        rss_after_kib: resident_kib(),
    }
}

/// Sharer counts probed at mesh size k: powers of two from 4 up to a
/// quarter of the mesh (capped at 1024 — beyond that a UI-UA point is
/// pure serialization and only inflates the run time).
fn d_values(k: usize) -> Vec<usize> {
    let cap = (k * k / 4).min(1024);
    let mut ds = Vec::new();
    let mut d = 4;
    while d <= cap {
        ds.push(d);
        d *= 2;
    }
    ds
}

fn main() {
    let main_t0 = Instant::now();
    let ks_arg: String = arg("--ks", "8,16,32,64,128".to_string());
    let txns_arg: usize = arg("--txns", 64);
    let trials: usize = arg("--trials", 3);
    let seed: u64 = arg("--seed", 1);
    let max_cycles: u64 = arg("--max-cycles", 50_000_000);
    let out: String = arg("--out", "BENCH_scale.json".to_string());
    let ks: Vec<usize> = ks_arg
        .split(',')
        .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad k in --ks: {s:?}")))
        .collect();

    // ---- Arm 1: throughput + memory vs k --------------------------------
    println!("== simulation throughput and memory vs mesh size ==");
    println!(
        "{:>6} {:>12} {:>8} {:>12} {:>10} {:>14} {:>12} {:>12}",
        "k", "scheme", "txns", "cycles", "wall s", "cycles/s", "build KiB", "rss KiB"
    );
    let mut points: Vec<ThroughputPoint> = Vec::new();
    for &k in &ks {
        let nodes = k * k;
        let txns = txns_arg.min(nodes / 4).max(1);
        let d = (2 * k).min(nodes - 2);
        for scheme in SCHEMES {
            let p = run_throughput(k, scheme, txns, d, seed, max_cycles);
            println!(
                "{:>6} {:>12} {:>8} {:>12} {:>10.3} {:>14.0} {:>12} {:>12}",
                format!("{k}x{k}"),
                scheme.name(),
                p.txns,
                p.cycles,
                p.wall_s,
                p.cycles_per_s,
                p.rss_build_kib,
                p.rss_after_kib
            );
            points.push(p);
        }
    }

    // ---- Arm 2: invalidation latency vs sharer count --------------------
    // One system per (k, scheme), reused across trials: measure_txn_on
    // runs one seeded transaction at a time on an idle system, so the
    // points are independent and the table is deterministic.
    println!("\n== invalidation latency (cycles) vs sharers ==");
    let mut lat_rows: Vec<(usize, usize, Vec<f64>)> = Vec::new(); // (k, d, per-scheme latency)
    for &k in &ks {
        let mut systems: Vec<DsmSystem> = SCHEMES.iter().map(|&s| build_system(k, s)).collect();
        let mesh = Mesh2D::square(k);
        println!("\n-- {k}x{k} --");
        wormdsm_bench::header(
            "d",
            &SCHEMES.iter().map(|s| s.name().to_string()).collect::<Vec<_>>(),
        );
        for d in d_values(k) {
            let mut rng = Rng::new(seed + d as u64);
            let patterns: Vec<Pattern> = (0..trials)
                .map(|_| gen_pattern(&mesh, PatternKind::UniformRandom, d, &mut rng))
                .collect();
            let mut cells = Vec::with_capacity(SCHEMES.len());
            for sys in systems.iter_mut() {
                let mut acc = 0.0;
                for p in &patterns {
                    acc += measure_txn_on(sys, p).inval_latency;
                }
                cells.push(acc / trials as f64);
            }
            row(&d.to_string(), &cells);
            lat_rows.push((k, d, cells));
        }
        // The headline ratio: how much the multidestination scheme saves
        // at this mesh size's largest probed sharer count.
        if let Some((_, d, cells)) = lat_rows.iter().rev().find(|(rk, _, _)| *rk == k) {
            println!("   MI-MA speedup over UI-UA at d={d}: {:.2}x", cells[0] / cells[2].max(1e-9));
        }
    }

    // ---- JSON -----------------------------------------------------------
    let throughput_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"k\": {}, \"scheme\": \"{}\", \"txns\": {}, \"cycles\": {}, ",
                    "\"wall_s\": {:.6}, \"cycles_per_s\": {:.0}, \"flit_hops\": {}, ",
                    "\"mean_inval_latency\": {:.2}, \"rss_build_kib\": {}, \"rss_after_kib\": {}}}"
                ),
                p.k,
                p.scheme.name(),
                p.txns,
                p.cycles,
                p.wall_s,
                p.cycles_per_s,
                p.flit_hops,
                p.mean_inval_latency,
                p.rss_build_kib,
                p.rss_after_kib
            )
        })
        .collect();
    let latency_json: Vec<String> = lat_rows
        .iter()
        .map(|(k, d, cells)| {
            let per: Vec<String> = SCHEMES
                .iter()
                .zip(cells)
                .map(|(s, c)| format!("\"{}\": {:.2}", s.name(), c))
                .collect();
            format!("    {{\"k\": {k}, \"d\": {d}, {}}}", per.join(", "))
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"ks\": {:?},\n  \"seed\": {},\n",
            "  \"run_meta\": {},\n",
            "  \"throughput\": [\n{}\n  ],\n",
            "  \"latency_vs_sharers\": [\n{}\n  ]\n}}\n"
        ),
        ks,
        seed,
        RunMeta::capture(0).with_wall_s(main_t0.elapsed().as_secs_f64()).to_json(),
        throughput_json.join(",\n"),
        latency_json.join(",\n")
    );
    std::fs::write(&out, json).expect("write scale results");
    println!("\nwrote {out}");
}
