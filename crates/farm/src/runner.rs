//! The farm service: executor workers that drain the job queue through
//! the simulator, live telemetry taps, and checkpointed shutdown.

use crate::events::EventBus;
use crate::job::JobSpec;
use crate::queue::{JobOutcome, JobStatus, JobTable};
use crate::{metrics_fingerprint, signal};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wormdsm_core::{to_prometheus, DsmSystem, RunMeta, SystemConfig, TraceLevel};
use wormdsm_sim::snap::{SnapReader, SnapWriter};
use wormdsm_sim::trace::{EventTap, TraceKind};
use wormdsm_sim::{BoundedRing, Cycle, Phase, Registry};
use wormdsm_workloads::Workload;

/// Tunables of a farm instance.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Jobs executed concurrently (each on its own thread).
    pub workers: usize,
    /// Observation-window size in cycles: how often running jobs report
    /// progress, drain telemetry, and poll for shutdown.
    pub progress_every: Cycle,
    /// Contention-probe window in cycles; 0 disables the probe.
    pub probe_window: Cycle,
    /// Per-subscriber SSE ring capacity (frames).
    pub event_ring: usize,
    /// Publish every Nth transaction trace event (1 = all).
    pub txn_throttle: u64,
    /// Directory for pause checkpoints; lets a killed farm process
    /// resume interrupted jobs on restart. `None` keeps checkpoints
    /// in-memory only.
    pub state_dir: Option<PathBuf>,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            progress_every: 4096,
            probe_window: 0,
            event_ring: 256,
            txn_throttle: 64,
            state_dir: None,
        }
    }
}

/// Snapshot of per-link busy counters for the dashboard heatmap,
/// refreshed at every observation boundary of whichever job reported
/// last (links indexed `node * 4 + dir`, matching `NetStats::link_busy`
/// and `mesh::render::link_heatmap`).
#[derive(Debug, Clone)]
struct HeatSnapshot {
    job: u64,
    k: usize,
    at: Cycle,
    busy: Vec<u64>,
}

/// The shared farm service: job table, event bus, and shutdown flag.
/// Wrap in an [`Arc`] and share between the executor and HTTP threads.
pub struct Farm {
    cfg: FarmConfig,
    table: Mutex<JobTable>,
    bus: Arc<EventBus>,
    stop: AtomicBool,
    heat: Mutex<Option<HeatSnapshot>>,
}

impl std::fmt::Debug for Farm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Farm")
            .field("cfg", &self.cfg)
            .field("counts", &self.table.lock().expect("job table").counts())
            .field("bus", &self.bus)
            .finish()
    }
}

/// How one executed job ended.
enum RunEnd {
    Done(Box<JobOutcome>),
    Paused(Vec<u8>),
    Failed(String),
}

impl Farm {
    /// New farm with `cfg`.
    pub fn new(cfg: FarmConfig) -> Self {
        Self {
            cfg,
            table: Mutex::new(JobTable::new()),
            bus: Arc::new(EventBus::new()),
            stop: AtomicBool::new(false),
            heat: Mutex::new(None),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &FarmConfig {
        &self.cfg
    }

    /// The telemetry bus (subscribe for SSE).
    pub fn bus(&self) -> &Arc<EventBus> {
        &self.bus
    }

    /// Submit a job spec. Returns `(id, fresh)`; `fresh = false` means
    /// an identically configured job already exists and was returned
    /// instead (dedup hit). When a state dir holds a checkpoint for this
    /// config (from an interrupted previous process), the job resumes
    /// from it instead of starting over.
    pub fn submit(&self, spec: JobSpec) -> Result<(u64, bool), String> {
        spec.validate()?;
        let ckpt = self.load_state_checkpoint(&spec);
        let resumed = ckpt.is_some();
        let (id, fresh) = self.table.lock().expect("job table").submit(spec, ckpt);
        if fresh {
            self.bus.publish(
                "job",
                &format!(
                    "{{\"id\":{id},\"state\":\"{}\"}}",
                    if resumed { "queued-resume" } else { "queued" }
                ),
            );
        }
        Ok((id, fresh))
    }

    /// Ask the farm to stop: running jobs pause (with checkpoints) at
    /// their next observation boundary, the executor drains, and the
    /// HTTP accept loop exits.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// True when this instance was asked to stop or a process-wide
    /// termination signal arrived ([`signal::requested`]).
    pub fn shutdown_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || signal::requested()
    }

    /// Drop this instance's shutdown request (an in-process restart:
    /// re-arm, requeue paused jobs, call [`Farm::run_executor`] again).
    /// Does not clear the process-wide signal flag.
    pub fn clear_shutdown(&self) {
        self.stop.store(false, Ordering::Relaxed);
    }

    /// Run the executor until shutdown is requested — or, with
    /// `exit_when_settled`, until no job is queued or running (batch
    /// mode / tests). Paused jobs are requeued on entry, so a restarted
    /// executor resumes interrupted work first.
    pub fn run_executor(&self, exit_when_settled: bool) {
        self.table.lock().expect("job table").requeue_paused();
        loop {
            if self.shutdown_requested() {
                return;
            }
            let batch = self.table.lock().expect("job table").claim(self.cfg.workers.max(1));
            if batch.is_empty() {
                if exit_when_settled && self.table.lock().expect("job table").settled() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            let ends: Vec<RunEnd> = std::thread::scope(|scope| {
                let handles: Vec<_> = batch
                    .iter()
                    .map(|(id, spec, ckpt)| {
                        scope.spawn(move || execute(self, *id, spec, ckpt.clone()))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("execute catches job panics")).collect()
            });
            for ((id, spec, _), end) in batch.iter().zip(ends) {
                let mut table = self.table.lock().expect("job table");
                match end {
                    RunEnd::Done(outcome) => {
                        self.remove_state_checkpoint(spec);
                        self.bus.publish(
                            "job",
                            &format!(
                                "{{\"id\":{id},\"state\":\"done\",\"fingerprint\":\"{:016x}\"}}",
                                outcome.fingerprint
                            ),
                        );
                        table.complete(*id, *outcome);
                    }
                    RunEnd::Paused(ckpt) => {
                        self.save_state_checkpoint(spec, &ckpt);
                        self.bus.publish("job", &format!("{{\"id\":{id},\"state\":\"paused\"}}"));
                        table.pause(*id, ckpt);
                    }
                    RunEnd::Failed(e) => {
                        self.bus.publish(
                            "job",
                            &format!("{{\"id\":{id},\"state\":\"failed\",\"error\":\"{}\"}}", {
                                e.replace('"', "'")
                            }),
                        );
                        table.fail(*id, e);
                    }
                }
            }
        }
    }

    /// Snapshot of one job's current state.
    pub fn job(&self, id: u64) -> Option<crate::queue::Job> {
        self.table.lock().expect("job table").get(id).cloned()
    }

    /// `GET /jobs` payload.
    pub fn jobs_json(&self) -> String {
        self.table.lock().expect("job table").to_json()
    }

    /// Dedup hits so far.
    pub fn dedup_hits(&self) -> u64 {
        self.table.lock().expect("job table").dedup_hits()
    }

    /// `GET /heatmap` payload: the most recent per-link busy snapshot.
    pub fn heatmap_json(&self) -> String {
        match &*self.heat.lock().expect("heat snapshot") {
            None => "{}".to_string(),
            Some(h) => {
                let busy: Vec<String> = h.busy.iter().map(u64::to_string).collect();
                format!(
                    "{{\"job\":{},\"k\":{},\"at\":{},\"busy\":[{}]}}",
                    h.job,
                    h.k,
                    h.at,
                    busy.join(",")
                )
            }
        }
    }

    /// `GET /metrics` payload: farm-level gauges plus the full metric
    /// export of every completed job, labeled by job/scheme/app, in the
    /// Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        let table = self.table.lock().expect("job table");
        let (queued, running, paused, done, failed) = table.counts();
        let mut farm = Registry::new();
        farm.counter("farm_jobs_submitted", table.jobs().len() as u64);
        farm.counter("farm_jobs_queued", queued);
        farm.counter("farm_jobs_running", running);
        farm.counter("farm_jobs_paused", paused);
        farm.counter("farm_jobs_done", done);
        farm.counter("farm_jobs_failed", failed);
        farm.counter("farm_dedup_hits", table.dedup_hits());
        farm.counter("farm_events_published", self.bus.published());
        farm.counter("farm_sse_subscribers", self.bus.subscribers() as u64);
        let mut out = to_prometheus(&farm, &[]);
        for job in table.jobs() {
            if let JobStatus::Done(o) = &job.status {
                let id = job.id.to_string();
                let labels = [
                    ("job", id.as_str()),
                    ("scheme", job.spec.scheme.name()),
                    ("app", &job.spec.app),
                ];
                out.push_str(&to_prometheus(&o.registry, &labels));
            }
        }
        out
    }

    fn state_path(&self, spec: &JobSpec) -> Option<PathBuf> {
        self.cfg.state_dir.as_ref().map(|d| d.join(format!("{:016x}.ckpt", spec.config_hash())))
    }

    /// Persist a pause checkpoint, prefixed with the canonical config
    /// string so a restart can verify it resumes the same experiment.
    fn save_state_checkpoint(&self, spec: &JobSpec, ckpt: &[u8]) {
        let Some(path) = self.state_path(spec) else { return };
        let mut w = SnapWriter::new();
        w.put_str(&spec.canonical());
        w.put_usize(ckpt.len());
        w.put_bytes(ckpt);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, w.finish()) {
            eprintln!("farm: failed to persist checkpoint {}: {e}", path.display());
        }
    }

    fn load_state_checkpoint(&self, spec: &JobSpec) -> Option<Vec<u8>> {
        let path = self.state_path(spec)?;
        let bytes = std::fs::read(&path).ok()?;
        let parse = || -> Result<Vec<u8>, String> {
            let mut r = SnapReader::new(&bytes).map_err(|e| e.to_string())?;
            let canonical = r.get_str().map_err(|e| e.to_string())?;
            if canonical != spec.canonical() {
                return Err("config hash collision or stale file".to_string());
            }
            let n = r.get_len().map_err(|e| e.to_string())?;
            Ok(r.get_bytes(n).map_err(|e| e.to_string())?.to_vec())
        };
        match parse() {
            Ok(ckpt) => Some(ckpt),
            Err(e) => {
                eprintln!("farm: ignoring checkpoint {}: {e}", path.display());
                None
            }
        }
    }

    fn remove_state_checkpoint(&self, spec: &JobSpec) {
        if let Some(path) = self.state_path(spec) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Streaming tap on the flight recorder's push path: forwards every Nth
/// transaction-class event into a bounded staging ring, which the
/// observation-boundary callback drains into the [`EventBus`]. The tap
/// never takes a lock the simulation could wait on beyond the staging
/// ring's own O(1) push.
#[derive(Clone)]
struct FarmTap {
    job: u64,
    every: u64,
    seen: u64,
    staging: Arc<Mutex<BoundedRing<String>>>,
}

impl EventTap for FarmTap {
    fn observe(&mut self, at: Cycle, kind: &TraceKind) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.every) {
            return;
        }
        let txn = kind.txn().map_or("null".to_string(), |t| t.to_string());
        self.staging.lock().expect("tap staging ring").push(format!(
            "{{\"job\":{},\"at\":{at},\"kind\":\"{}\",\"txn\":{txn},\"seq\":{}}}",
            self.job,
            kind.name(),
            self.seen
        ));
    }

    fn box_clone(&self) -> Box<dyn EventTap> {
        Box::new(self.clone())
    }
}

/// Execute one job to completion, pause, or failure. Panics are caught
/// and become failures, so a panicking job never takes the executor
/// down with it.
fn execute(farm: &Farm, id: u64, spec: &JobSpec, checkpoint: Option<Vec<u8>>) -> RunEnd {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job(farm, id, spec, checkpoint)
    }));
    match run {
        Ok(Ok(end)) => end,
        Ok(Err(e)) => RunEnd::Failed(e),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            RunEnd::Failed(format!("panic: {msg}"))
        }
    }
}

fn run_job(
    farm: &Farm,
    id: u64,
    spec: &JobSpec,
    checkpoint: Option<Vec<u8>>,
) -> Result<RunEnd, String> {
    let workload = spec.workload()?;
    let sys_cfg = SystemConfig::for_scheme(spec.k, spec.scheme);
    let (mut sys, mut st) = match checkpoint {
        Some(bytes) => workload.resume(sys_cfg, spec.scheme.build(), &bytes)?,
        None => (
            DsmSystem::try_new(sys_cfg, spec.scheme.build()).map_err(|e| e.to_string())?,
            workload.start(),
        ),
    };
    if spec.profile {
        sys.enable_profiling();
    } else {
        // Txn-level tracing feeds the tap; pure observation, results are
        // bit-identical to an untraced run (fingerprints exclude the
        // recorder's lifetime counters).
        sys.set_trace_level(TraceLevel::Txn);
    }
    let staging = Arc::new(Mutex::new(BoundedRing::new(farm.cfg.event_ring)));
    let tap =
        FarmTap { job: id, every: farm.cfg.txn_throttle.max(1), seen: 0, staging: staging.clone() };
    sys.recorder_mut().attach_tap(Box::new(tap.clone()));
    if farm.cfg.probe_window > 0 {
        sys.enable_contention_probe(farm.cfg.probe_window);
    }
    let mut probe_seen = 0usize;
    let total_ops = workload.total_ops() as u64;
    let t0 = Instant::now();
    let res = workload.run_observed(
        &mut sys,
        &mut st,
        spec.max_cycles,
        farm.cfg.progress_every,
        |sys, st| {
            observe_boundary(
                farm,
                id,
                spec,
                sys,
                st.issued(),
                total_ops,
                &staging,
                &mut probe_seen,
            );
            // Snapshot restores rebuild the recorder without its taps;
            // re-attach so telemetry survives (results never depend on it).
            if sys.recorder().taps_attached() == 0 {
                sys.recorder_mut().attach_tap(Box::new(tap.clone()));
            }
            !farm.shutdown_requested()
        },
    )?;
    let wall_s = t0.elapsed().as_secs_f64();
    let Some(result) = res else {
        // Paused by shutdown: checkpoint at the boundary cycle.
        return Ok(RunEnd::Paused(Workload::checkpoint(&sys, &st)));
    };
    if farm.cfg.probe_window > 0 {
        sys.finish_contention_probe();
    }
    if let Some(v) = sys.invariant_violation() {
        return Err(format!("protocol invariant fired: {v}"));
    }
    sys.verify_coherence().map_err(|e| format!("coherence audit failed: {e}"))?;
    let mut registry = sys.export_metrics();
    let fingerprint = metrics_fingerprint(&registry);
    RunMeta::capture(farm.cfg.workers).with_wall_s(wall_s).stamp(&mut registry);
    let phases_json = spec.profile.then(|| {
        let p = sys.take_profiler().expect("profiler attached for profiled job");
        let pairs: Vec<String> = Phase::ALL
            .iter()
            .map(|ph| format!("\"{}\":{}", ph.name(), p.mean_phase(*ph)))
            .collect();
        format!("{{{}}}", pairs.join(","))
    });
    Ok(RunEnd::Done(Box::new(JobOutcome {
        fingerprint,
        cycles: result.cycles,
        issued: result.issued,
        wall_s,
        registry,
        phases_json,
    })))
}

/// Everything a running job does at an observation boundary: update the
/// table's live progress, flush staged trace events, stream new probe
/// windows, and refresh the heatmap snapshot. All reads plus pure-
/// observer drains — simulated state is never touched.
#[allow(clippy::too_many_arguments)]
fn observe_boundary(
    farm: &Farm,
    id: u64,
    spec: &JobSpec,
    sys: &mut DsmSystem,
    issued: u64,
    total_ops: u64,
    staging: &Arc<Mutex<BoundedRing<String>>>,
    probe_seen: &mut usize,
) {
    let now = sys.now();
    farm.table.lock().expect("job table").progress(id, now, issued, total_ops);
    let (events, dropped) = {
        let mut ring = staging.lock().expect("tap staging ring");
        (ring.drain(), ring.take_dropped())
    };
    if dropped > 0 {
        farm.bus.publish("dropped", &format!("{{\"job\":{id},\"count\":{dropped}}}"));
    }
    for ev in events {
        farm.bus.publish("txn", &ev);
    }
    if let Some(probe) = sys.contention_probe() {
        let windows = probe.windows();
        for w in probe.windows_since(*probe_seen) {
            let flits: u64 = w.flits.iter().map(|&v| u64::from(v)).sum();
            let stalls: u64 = w.stalls.iter().map(|&v| u64::from(v)).sum();
            farm.bus.publish(
                "window",
                &format!(
                    "{{\"job\":{id},\"start\":{},\"flits\":{flits},\"stalls\":{stalls}}}",
                    w.start
                ),
            );
        }
        *probe_seen = windows.len();
    }
    *farm.heat.lock().expect("heat snapshot") =
        Some(HeatSnapshot { job: id, k: spec.k, at: now, busy: sys.net_stats().link_busy.clone() });
    farm.bus.publish(
        "progress",
        &format!("{{\"job\":{id},\"at\":{now},\"issued\":{issued},\"total_ops\":{total_ops}}}"),
    );
}
