//! The simulator workloads (`app-busy`, `app-sparse`) and the
//! outside-in layer trace shared with `farm-batch`.
//!
//! Everything here goes through the simulator's public API. The traced
//! run never instruments the program: it replays `Workload::run`'s issue
//! loop from `DsmSystem` calls, timing each call into the system, and
//! wraps the invalidation scheme in a forwarding [`TimedScheme`].

use crate::util::{calibration_loop_s, median, peak_rss_mib, ratio, reference_scale};
use crate::{Outcome, CALIBRATION_SAMPLES, SETUP_SAMPLES};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wormdsm_core::{DsmSystem, InvalPlan, InvalidationScheme, SchemeKind, SystemConfig};
use wormdsm_farm::{metrics_fingerprint, FarmConfig};
use wormdsm_mesh::network::LinkLoadMeter;
use wormdsm_mesh::routing::BaseRouting;
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_sim::{Cycle, Summary};
use wormdsm_workloads::apps::{self, barnes_hut};
use wormdsm_workloads::Workload;

/// Mesh side of every simulator workload: 256 processors.
const K: usize = 16;

/// Completion deadline of every run (the farm's default `max_cycles`).
pub const MAX_CYCLES: Cycle = 500_000_000;

/// Runs of the measured loop each workload makes at least: two, so the
/// cross-repeat identity check always has something to compare.
const MIN_REPEATS: usize = 2;

/// One simulator workload: Barnes-Hut as `apps::seeded("bh", 256, scale)`
/// builds it, under one invalidation scheme.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Barnes-Hut compute scale (`force_cost` = 200 × scale).
    scale: u64,
    scheme: SchemeKind,
}

impl SimSpec {
    /// The spec behind a workload name, if it is a simulator workload.
    pub fn named(name: &str) -> Option<SimSpec> {
        let (scale, scheme) = match name {
            "app-busy" => (1, SchemeKind::MiMaCol),
            "app-sparse" => (256, SchemeKind::MiMaAdaptive),
            _ => return None,
        };
        Some(SimSpec { scale, scheme })
    }

    /// Configuration record for the result line, noting the threads
    /// that measured it.
    fn config_json(&self, threads: usize) -> String {
        format!(
            "{{\"app\":\"bh\",\"bodies\":256,\"steps\":2,\"compute_scale\":{},\"k\":{K},\
             \"scheme\":\"{}\",\"max_cycles\":{MAX_CYCLES},\"caches\":\"cold\",\
             \"measuring_threads\":{threads}}}",
            self.scale,
            self.scheme.name()
        )
    }
}

/// The benchmark's seed must not move the workload off the one the
/// repository's own binaries and farm run: at the default seed the
/// generator reproduces `apps::seeded` bit for bit.
fn check_default_seed(scale: u64) -> Result<(), String> {
    let reference = apps::seeded("bh", K * K, scale)?;
    if bh(barnes_hut::BarnesHutConfig::default().seed, scale).ops != reference.ops {
        return Err(format!("bh at the default seed differs from apps::seeded (scale {scale})"));
    }
    Ok(())
}

/// Barnes-Hut exactly as `apps::seeded("bh", 256, scale)` configures it,
/// except for the interaction-list seed.
fn bh(seed: u64, scale: u64) -> Workload {
    barnes_hut::generate(&barnes_hut::BarnesHutConfig {
        procs: K * K,
        bodies: 64.max(K * K),
        steps: 2,
        force_cost: 200 * scale,
        seed,
        ..barnes_hut::BarnesHutConfig::default()
    })
}

/// Build the system a job of this `kind` runs on, with `scheme` (the
/// plain scheme or a [`TimedScheme`] around it).
pub fn system(
    k: usize,
    kind: SchemeKind,
    scheme: Box<dyn InvalidationScheme>,
) -> Result<DsmSystem, String> {
    DsmSystem::try_new(SystemConfig::for_scheme(k, kind), scheme).map_err(|e| e.to_string())
}

/// Post-run audit: no invariant fired, the caches and directories agree,
/// and every op issued.
pub fn audit(sys: &DsmSystem, wl: &Workload, issued: u64) -> Result<(), String> {
    if let Some(v) = sys.invariant_violation() {
        return Err(format!("invariant violated: {v}"));
    }
    sys.verify_coherence().map_err(|e| format!("coherence audit failed: {e}"))?;
    if issued != wl.total_ops() as u64 {
        return Err(format!("{issued} of {} ops issued", wl.total_ops()));
    }
    Ok(())
}

/// Result of one untraced run.
pub struct Plain {
    /// Host seconds of `Workload::run_observed`.
    pub wall_s: f64,
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Deterministic metric fingerprint.
    pub fingerprint: u64,
    /// Mean home-observed invalidation latency (cycles).
    pub inval_latency_mean: f64,
    /// Host seconds of each complete progress window.
    pub windows_s: Vec<f64>,
    /// Host seconds after the last window boundary.
    pub tail_s: f64,
}

/// Run `wl` untraced through `Workload::run_observed`, noting the host
/// time of each progress window (a farm job's default interval).
pub fn run_plain(wl: &Workload, sys: &mut DsmSystem) -> Result<Plain, String> {
    let every = FarmConfig::default().progress_every;
    let mut st = wl.start();
    let mut windows_s = Vec::new();
    let t0 = Instant::now();
    let mut last = t0;
    let done = wl.run_observed(sys, &mut st, MAX_CYCLES, every, |_, _| {
        let now = Instant::now();
        windows_s.push((now - last).as_secs_f64());
        last = now;
        true
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let tail_s = last.elapsed().as_secs_f64();
    let r = done.ok_or("run paused although the observer never pauses")?;
    audit(sys, wl, r.issued)?;
    Ok(Plain {
        wall_s,
        cycles: r.cycles,
        fingerprint: metrics_fingerprint(&sys.export_metrics()),
        inval_latency_mean: sys.metrics().inval_latency.mean(),
        windows_s,
        tail_s,
    })
}

/// Plan-call totals of a [`TimedScheme`].
#[derive(Debug, Default)]
pub struct PlanStats {
    calls: AtomicU64,
    ns: AtomicU64,
    sharers: AtomicU64,
    request_worms: AtomicU64,
}

/// Forwards every [`InvalidationScheme`] method to `inner`, timing the
/// two planning calls. A method this wrapper failed to forward would
/// change the plans and so the run's fingerprint, which the traced run
/// checks against the untraced one.
pub struct TimedScheme {
    inner: Box<dyn InvalidationScheme>,
    stats: Arc<PlanStats>,
}

impl TimedScheme {
    /// Wrap `inner`, counting into `stats`.
    pub fn new(inner: Box<dyn InvalidationScheme>, stats: Arc<PlanStats>) -> Self {
        Self { inner, stats }
    }

    fn timed(&self, sharers: &[NodeId], plan: impl FnOnce() -> InvalPlan) -> InvalPlan {
        let t = Instant::now();
        let p = plan();
        let ns = t.elapsed().as_nanos() as u64;
        // Statistics only: no other data is published through these.
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.ns.fetch_add(ns, Ordering::Relaxed);
        self.stats.sharers.fetch_add(sharers.len() as u64, Ordering::Relaxed);
        self.stats.request_worms.fetch_add(p.request_worms.len() as u64, Ordering::Relaxed);
        p
    }
}

impl InvalidationScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    fn compatible_with(&self, routing: BaseRouting) -> bool {
        self.inner.compatible_with(routing)
    }

    fn plan(&self, mesh: &Mesh2D, home: NodeId, sharers: &[NodeId]) -> InvalPlan {
        self.timed(sharers, || self.inner.plan(mesh, home, sharers))
    }

    fn feedback_window(&self) -> Option<Cycle> {
        self.inner.feedback_window()
    }

    fn plan_with_load(
        &self,
        mesh: &Mesh2D,
        home: NodeId,
        sharers: &[NodeId],
        load: Option<&LinkLoadMeter>,
    ) -> InvalPlan {
        self.timed(sharers, || self.inner.plan_with_load(mesh, home, sharers, load))
    }
}

/// Host-time and work totals of traced runs, summed over every run added.
#[derive(Default)]
pub struct Layers {
    /// How often the traced set of workloads ran; counts are divided by
    /// it, so they read per set.
    repeats: u64,
    gen_s: Vec<f64>,
    new_s: Vec<f64>,
    loop_ns: f64,
    issue_ns: f64,
    step_ns: f64,
    plan_ns: f64,
    untraced_wall_s: f64,
    counts: BTreeMap<&'static str, f64>,
    max_link_utilization: f64,
    unicast: Summary,
    multicast: Summary,
    gather: Summary,
    home_msgs: Summary,
}

impl Layers {
    /// Record one set-up: workload generation and `DsmSystem::new` times.
    pub fn setup(&mut self, gen_s: f64, new_s: f64) {
        self.gen_s.push(gen_s);
        self.new_s.push(new_s);
    }

    /// Record the untraced wall time of a run a traced one replicated.
    pub fn untraced(&mut self, wall_s: f64) {
        self.untraced_wall_s += wall_s;
    }

    /// Set how many times the traced set of workloads was repeated.
    pub fn set_repeats(&mut self, repeats: u64) {
        self.repeats = repeats;
    }

    /// Add to a summed count. Dotted names are reported as they are;
    /// the others are bases for ratios.
    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Replay `wl` on `sys` (built around a [`TimedScheme`] counting into
    /// `plan`) with the driver loop of `Workload::run`, timing each call
    /// into the system, and fold the run in. Returns the run's
    /// fingerprint.
    pub fn traced_run(
        &mut self,
        wl: &Workload,
        sys: &mut DsmSystem,
        plan: &PlanStats,
    ) -> Result<u64, String> {
        assert_eq!(wl.ops.len(), sys.config().nodes(), "one op stream per node");
        let start = sys.now();
        let deadline = start + MAX_CYCLES;
        let mut cursors = vec![0usize; wl.ops.len()];
        let mut runnable: Vec<usize> =
            (0..wl.ops.len()).filter(|&p| !wl.ops[p].is_empty()).collect();
        let (mut issue_ns, mut step_ns) = (0u64, 0u64);
        let (mut issue_calls, mut step_calls, mut issued) = (0u64, 0u64, 0u64);
        let t0 = Instant::now();
        loop {
            if let Some(v) = sys.invariant_violation() {
                return Err(format!("traced run aborted: {v}"));
            }
            if sys.now() > deadline {
                return Err(format!("traced run incomplete after {MAX_CYCLES} cycles"));
            }
            runnable.retain(|&p| {
                let node = NodeId(p as u16);
                if sys.proc_idle(node) {
                    let op = wl.ops[p][cursors[p]];
                    cursors[p] += 1;
                    let t = Instant::now();
                    sys.issue(node, op);
                    issue_ns += t.elapsed().as_nanos() as u64;
                    issue_calls += 1;
                    issued += 1;
                }
                cursors[p] < wl.ops[p].len()
            });
            if runnable.is_empty() && sys.idle() {
                break;
            }
            let t = Instant::now();
            sys.step();
            step_ns += t.elapsed().as_nanos() as u64;
            step_calls += 1;
        }
        let loop_ns = t0.elapsed().as_nanos() as f64;
        audit(sys, wl, issued)?;

        self.loop_ns += loop_ns;
        self.issue_ns += issue_ns as f64;
        self.step_ns += step_ns as f64;
        self.plan_ns += plan.ns.load(Ordering::Relaxed) as f64;
        self.add("core.system.issue_calls", issue_calls as f64);
        self.add("core.system.step_calls", step_calls as f64);
        self.add("core.schemes.plan_calls", plan.calls.load(Ordering::Relaxed) as f64);
        self.add("plan_sharers", plan.sharers.load(Ordering::Relaxed) as f64);
        self.add("plan_request_worms", plan.request_worms.load(Ordering::Relaxed) as f64);
        self.add("sim_cycles", (sys.now() - start) as f64);
        self.add("sim.calendar.skipped_cycles", sys.skipped_cycles() as f64);

        let net = sys.net_stats();
        self.add("mesh.flit_hops", net.flit_hops as f64);
        self.add("mesh.worms_injected_req", net.worms_injected[0] as f64);
        self.add("mesh.worms_injected_reply", net.worms_injected[1] as f64);
        self.add("mesh.deliveries", net.deliveries as f64);
        self.add("mesh.multicast_blocked_cycles", net.multicast_blocked_cycles as f64);
        self.add("mesh.gather_blocked_cycles", net.gather_blocked_cycles as f64);
        self.add("mesh.parks", net.parks as f64);
        self.add("mesh.worm_slots_reused", net.worm_slots_reused as f64);
        self.add("mesh.scratch_grows", net.scratch_grows as f64);
        self.max_link_utilization =
            self.max_link_utilization.max(net.max_link_utilization(sys.now()));
        self.unicast.merge(&net.unicast_latency);
        self.multicast.merge(&net.multicast_latency);
        self.gather.merge(&net.gather_latency);

        let m = sys.metrics();
        self.add("coherence.read_hits", m.read_hits as f64);
        self.add("coherence.read_misses", m.read_misses as f64);
        self.add("coherence.write_hits", m.write_hits as f64);
        self.add("coherence.write_misses", m.write_misses as f64);
        self.add("coherence.writebacks", m.writebacks as f64);
        self.add("coherence.spurious_invals", m.spurious_invals as f64);
        self.add("coherence.inval_txns", m.inval_txns as f64);
        self.add("coherence.stall_cycles", m.stall_cycles as f64);
        self.add("coherence.fetch_retries", m.fetch_retries as f64);
        self.add("coherence.wb_retries", m.wb_retries as f64);
        self.add("coherence.iack_fallbacks", m.iack_fallbacks as f64);
        self.home_msgs.merge(&m.inval_home_msgs);

        Ok(metrics_fingerprint(&sys.export_metrics()))
    }

    /// Every simulator-side per-layer metric.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let per = self.repeats.max(1) as f64;
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0.0);
        for (name, v) in &self.counts {
            if name.contains('.') {
                out.insert(name, v / per);
            }
        }
        let self_ns = self.loop_ns - self.issue_ns - self.step_ns;
        out.insert("workloads.gen_s", median(&self.gen_s));
        out.insert("workloads.driver_self_s", self_ns / 1e9 / per);
        out.insert("workloads.driver_share", ratio(self_ns, self.loop_ns));
        out.insert("core.system.new_s", median(&self.new_s));
        out.insert(
            "core.system.issue_ns_per_call",
            ratio(self.issue_ns, count("core.system.issue_calls")),
        );
        out.insert(
            "core.system.step_ns_per_call",
            ratio(self.step_ns, count("core.system.step_calls")),
        );
        out.insert("core.system.step_share", ratio(self.step_ns, self.loop_ns));
        out.insert(
            "core.system.step_ns_per_flit_hop",
            ratio(self.step_ns, count("mesh.flit_hops")),
        );
        let plans = count("core.schemes.plan_calls");
        out.insert("core.schemes.plan_us_per_call", ratio(self.plan_ns / 1e3, plans));
        out.insert("core.schemes.plan_share", ratio(self.plan_ns, self.loop_ns));
        out.insert("core.schemes.sharers_per_plan", ratio(count("plan_sharers"), plans));
        out.insert(
            "core.schemes.request_worms_per_plan",
            ratio(count("plan_request_worms"), plans),
        );
        let cycles = count("sim_cycles");
        out.insert("sim.calendar.skip_ratio", ratio(count("sim.calendar.skipped_cycles"), cycles));
        out.insert("sim.calendar.cycles_per_step", ratio(cycles, count("core.system.step_calls")));
        out.insert("mesh.max_link_utilization", self.max_link_utilization);
        out.insert("mesh.unicast_latency_mean", self.unicast.mean());
        out.insert("mesh.multicast_latency_mean", self.multicast.mean());
        out.insert("mesh.gather_latency_mean", self.gather.mean());
        out.insert("coherence.inval_home_msgs_mean", self.home_msgs.mean());
        out.insert("trace.overhead_ratio", ratio(self.loop_ns / 1e9, self.untraced_wall_s));
    }
}

/// One set-up: generate the workload and build its system, timing both.
fn setup(
    spec: &SimSpec,
    seed: u64,
    scheme: Box<dyn InvalidationScheme>,
) -> Result<(Workload, DsmSystem, f64, f64), String> {
    let t0 = Instant::now();
    let wl = bh(seed, spec.scale);
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let sys = system(K, spec.scheme, scheme)?;
    let new_s = t1.elapsed().as_secs_f64();
    Ok((wl, sys, gen_s, new_s))
}

/// Host time of a run with host interference filtered out. Repeats are
/// bit-identical, so progress window `i` does the same work in every
/// repeat; summing each window's fastest time across repeats keeps the
/// time least disturbed by other tenants of a shared host, whose speed
/// swings by up to 2x over seconds.
fn fastest_run_s(plain: &[Plain]) -> f64 {
    let Some(first) = plain.first() else { return 0.0 };
    let mut best = first.windows_s.clone();
    let mut tail = first.tail_s;
    for p in &plain[1..] {
        for (b, w) in best.iter_mut().zip(&p.windows_s) {
            *b = b.min(*w);
        }
        tail = tail.min(p.tail_s);
    }
    best.iter().sum::<f64>() + tail
}

/// Untraced repeats made by one thread: cold-cache runs from fresh
/// systems, each preceded by [`SETUP_SAMPLES`] timed set-ups.
#[derive(Default)]
struct Repeats {
    plain: Vec<Plain>,
    /// `(generation, DsmSystem::new)` seconds of every set-up.
    setups: Vec<(f64, f64)>,
    /// Calibration-loop times taken on this thread between repeats.
    calibration: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
}

impl Repeats {
    /// Make one repeat; true when its run succeeded.
    fn once(&mut self, spec: &SimSpec, seed: u64) -> bool {
        for _ in 0..CALIBRATION_SAMPLES {
            self.calibration.push(calibration_loop_s());
        }
        // Set-up samples spread over the run, so their median spans the
        // host's slow and fast phases alike.
        for _ in 0..SETUP_SAMPLES {
            self.attempted += 1;
            match setup(spec, seed, spec.scheme.build()) {
                Ok((_, _, g, n)) => self.setups.push((g, n)),
                Err(e) => self.errors.push(e),
            }
        }
        self.attempted += 1;
        let run = setup(spec, seed, spec.scheme.build()).and_then(|(wl, mut sys, g, n)| {
            self.setups.push((g, n));
            run_plain(&wl, &mut sys)
        });
        match run {
            Ok(p) => {
                self.plain.push(p);
                true
            }
            Err(e) => {
                self.errors.push(e);
                false
            }
        }
    }

    /// Repeat until `seconds` after `started` would be exceeded (at
    /// least once).
    fn until(mut self, spec: &SimSpec, seed: u64, started: Instant, seconds: f64) -> Self {
        loop {
            let iter_start = Instant::now();
            if !self.once(spec, seed) && self.plain.is_empty() {
                return self;
            }
            let iter = iter_start.elapsed().as_secs_f64();
            if started.elapsed().as_secs_f64() + iter > seconds {
                return self;
            }
        }
    }

    fn merge(&mut self, other: Repeats) {
        self.plain.extend(other.plain);
        self.setups.extend(other.setups);
        self.calibration.extend(other.calibration);
        self.attempted += other.attempted;
        self.errors.extend(other.errors);
    }
}

/// Run a simulator workload for about `seconds`. A first cold-cache run
/// is the reference. Untraced, every host core then repeats the workload
/// on its own thread until the time is up: the cores of a shared host
/// are disturbed independently, and the per-window fastest time
/// ([`fastest_run_s`]) takes the least disturbed one. Traced, the
/// repeats run one at a time, each followed by a traced replica that
/// must reproduce its fingerprint.
pub fn run(spec: &SimSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let threads =
        if trace { 1 } else { std::thread::available_parallelism().map_or(1, |n| n.get()) };
    let mut out = Outcome::new(spec.config_json(threads), 0);
    let started = Instant::now();
    out.attempted += 1;
    if let Err(e) = check_default_seed(spec.scale) {
        out.fail(e);
    }
    let mut layers = Layers::default();
    let mut traced = 0u64;
    let mut reps = Repeats::default();
    loop {
        let iter_start = Instant::now();
        let ok = reps.once(spec, seed);
        if reps.plain.len() == 1 && ok {
            out.metrics.insert("peak_rss_mib", peak_rss_mib());
        }
        if trace && ok {
            let p = reps.plain.last().expect("just pushed");
            out.attempted += 1;
            let stats = Arc::new(PlanStats::default());
            let timed = Box::new(TimedScheme::new(spec.scheme.build(), stats.clone()));
            let fp = setup(spec, seed, timed)
                .and_then(|(wl, mut sys, _, _)| layers.traced_run(&wl, &mut sys, &stats));
            match fp {
                Ok(fp) if fp == p.fingerprint => {
                    layers.untraced(p.wall_s);
                    traced += 1;
                }
                Ok(fp) => out.fail(format!(
                    "traced run fingerprint {fp:016x} != untraced {:016x}",
                    p.fingerprint
                )),
                Err(e) => out.fail(e),
            }
        }
        let spent = started.elapsed().as_secs_f64();
        let iter = iter_start.elapsed().as_secs_f64();
        if reps.plain.is_empty()
            || !trace
            || (reps.plain.len() >= MIN_REPEATS && spent + iter > seconds)
        {
            break;
        }
    }
    if !trace && !reps.plain.is_empty() {
        let more: Vec<Repeats> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| Repeats::default().until(spec, seed, started, seconds)))
                .collect();
            workers.into_iter().map(|w| w.join().expect("measuring thread panicked")).collect()
        });
        for r in more {
            reps.merge(r);
        }
    }

    out.attempted += reps.attempted;
    for e in std::mem::take(&mut reps.errors) {
        out.fail(e);
    }
    let plain = &reps.plain;
    if let Some(first) = plain.first() {
        for p in &plain[1..] {
            if (p.cycles, p.fingerprint, p.windows_s.len())
                != (first.cycles, first.fingerprint, first.windows_s.len())
            {
                out.fail(format!(
                    "repeat differs: {} cycles / {:016x} vs {} / {:016x}",
                    p.cycles, p.fingerprint, first.cycles, first.fingerprint
                ));
            }
        }
    }
    let setup_s: Vec<f64> = reps.setups.iter().map(|(g, n)| g + n).collect();
    for &(g, n) in &reps.setups {
        layers.setup(g, n);
    }

    // Host time in reference seconds: the host's speed drifts with its
    // other tenants for minutes at a time, and the calibration loop,
    // timed on the same threads, drifts with it.
    let scale = reference_scale(&reps.calibration);
    let host_run_s = fastest_run_s(plain);
    let host_setup_s = median(&setup_s);
    out.host.insert("run_s", host_run_s);
    out.host.insert("setup_s", host_setup_s);
    out.host.insert("reference_scale", scale);
    let run_s = host_run_s * scale;
    let cycles = plain.first().map_or(0, |p| p.cycles);
    let m = &mut out.metrics;
    m.insert("sim_cycles_per_s", ratio(cycles as f64, run_s));
    m.insert("setup_s", host_setup_s * scale);
    m.insert("sim_cycles", cycles as f64);
    m.insert("inval_latency_mean_cycles", plain.first().map_or(0.0, |p| p.inval_latency_mean));
    // A simulator workload is one job per repeat and serves no requests
    // apart from it, so every latency percentile is the run time.
    m.insert("jobs_per_s", ratio(1.0, run_s));
    m.insert("job_latency_p50_s", run_s);
    m.insert("job_latency_p90_s", run_s);
    m.insert("request_latency_p50_ms", run_s * 1e3);
    m.insert("request_latency_p90_ms", run_s * 1e3);
    out.samples.insert("setup_s", setup_s.len());
    out.samples.insert("repeats", plain.len());
    out.samples.insert("calibration", reps.calibration.len());
    if trace {
        layers.set_repeats(traced);
        layers.metrics(&mut out.layers);
        out.samples.insert("traced_runs", traced as usize);
    }
    out
}
