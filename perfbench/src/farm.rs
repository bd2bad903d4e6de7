//! The `farm-batch` workload: an in-process `Farm` serving
//! `http::serve` on an ephemeral port, driven from outside over HTTP by
//! one closed-loop submitting connection and one SSE `/events`
//! subscriber, as a sweep user drives it.
//!
//! Each batch is a backlog: the whole sweep is queued over HTTP before
//! the farm's executor starts. An executor that runs while submissions
//! still arrive claims whatever happens to be queued at each poll, so
//! its claim sequence, and with it every job's latency, follows host
//! timing: measured on a shared 2-vCPU host, one batch's median latency
//! ranged 0.20–0.31 s within a 10-s run, and across runs latency moved
//! about 3.7 times as much as throughput. On a backlog every claim takes
//! a full set of `workers` jobs in queue order, the same in every batch.

use crate::sim::{self, Layers, PlanStats, TimedScheme};
use crate::util::{
    calibration_loop_s, median, peak_rss_mib, quantile, ratio, reference_scale, Json,
};
use crate::{Outcome, CALIBRATION_SAMPLES, SETUP_SAMPLES};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wormdsm_core::SchemeKind;
use wormdsm_farm::{http, metrics_fingerprint, Farm, FarmConfig, JobSpec};
use wormdsm_sim::Rng;

/// Submissions per batch, duplicates included (21 unique jobs): short
/// batches, so a run holds enough of them for the fastest to be
/// undisturbed by other tenants of a shared host.
const SUBMISSIONS: usize = 24;
/// Every this-many-th submission repeats an earlier spec.
const DUP_EVERY: usize = 8;
/// Mesh side of every job.
const K: usize = 8;
/// Sharers per synthetic episode.
const D: usize = 16;
/// Schemes the unique jobs cycle through.
const SCHEMES: [SchemeKind; 4] =
    [SchemeKind::UiUa, SchemeKind::MiMaCol, SchemeKind::Dpm, SchemeKind::MiMaAdaptive];
/// Episode counts the unique jobs cycle through (a period prime to the
/// scheme cycle, so every scheme meets every job length). Six episodes
/// already run past one progress window, so every job reports progress.
const EPISODES: [usize; 5] = [6, 12, 18, 24, 30];
/// Unique jobs re-run standalone to check the farm's fingerprints.
const SAMPLED: usize = 4;
/// Interval of the client's `/jobs` + `/metrics` scrapes.
const SCRAPE_EVERY: Duration = Duration::from_secs(1);
/// A batch not finished by then counts its unfinished jobs as failed.
const BATCH_TIMEOUT: Duration = Duration::from_secs(120);
/// Client socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One submission of the batch.
struct Submission {
    spec: JobSpec,
    /// Index of the earlier submission this one repeats.
    dup_of: Option<usize>,
}

/// The batch for `seed`: unique `synth` jobs with distinct seeded
/// pattern streams, and every [`DUP_EVERY`]th submission a repeat of a
/// seeded earlier one.
fn batch_specs(seed: u64) -> Vec<Submission> {
    let mut rng = Rng::new(seed);
    let mut subs: Vec<Submission> = Vec::with_capacity(SUBMISSIONS);
    let mut unique = 0;
    for i in 0..SUBMISSIONS {
        if i % DUP_EVERY == DUP_EVERY - 1 {
            let mut j = rng.index(i);
            while subs[j].dup_of.is_some() {
                j = rng.index(i);
            }
            subs.push(Submission { spec: subs[j].spec.clone(), dup_of: Some(j) });
        } else {
            subs.push(Submission {
                spec: JobSpec {
                    scheme: SCHEMES[unique % SCHEMES.len()],
                    app: "synth".to_string(),
                    k: K,
                    pattern: "uniform".to_string(),
                    d: D,
                    episodes: EPISODES[unique % EPISODES.len()],
                    seed: rng.next_u64(),
                    ..JobSpec::default()
                },
                dup_of: None,
            });
            unique += 1;
        }
    }
    subs
}

/// `POST /jobs` body for `spec`.
fn form(spec: &JobSpec) -> String {
    let scheme: String = spec
        .scheme
        .name()
        .chars()
        .map(|c| match c {
            '(' => "%28".to_string(),
            ')' => "%29".to_string(),
            c => c.to_string(),
        })
        .collect();
    format!(
        "scheme={scheme}&app={}&k={}&pattern={}&d={}&episodes={}&seed={}",
        spec.app, spec.k, spec.pattern, spec.d, spec.episodes, spec.seed
    )
}

fn farm_config() -> FarmConfig {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    FarmConfig { workers, ..FarmConfig::default() }
}

/// One blocking HTTP/1.1 exchange on a fresh connection: status and body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut s = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(io)?;
    s.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    s.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n\
         Content-Type: application/x-www-form-urlencoded\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(io)?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: reply is not UTF-8"))?;
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| format!("{method} {path}: no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// A running farm: service threads plus its address.
struct Service {
    farm: Arc<Farm>,
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<()>>,
    executor: Option<JoinHandle<()>>,
}

impl Service {
    /// Start a farm's HTTP service (its executor starts later, see
    /// [`Service::run_executor`]) and wait for its first 200 reply;
    /// returns the service and the set-up time (`Farm::new` → first 200).
    fn start(cfg: &FarmConfig) -> Result<(Service, f64), String> {
        let t0 = Instant::now();
        let farm = Arc::new(Farm::new(cfg.clone()));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let f = farm.clone();
        let server = std::thread::spawn(move || http::serve(&f, listener));
        let svc = Service { farm, addr, server, executor: None };
        match request(addr, "GET", "/jobs", "") {
            Ok((200, _)) => Ok((svc, t0.elapsed().as_secs_f64())),
            other => {
                svc.stop();
                Err(format!("farm did not come up: {other:?}"))
            }
        }
    }

    /// Start the executor thread, which runs queued jobs.
    fn run_executor(&mut self) {
        let f = self.farm.clone();
        self.executor = Some(std::thread::spawn(move || f.run_executor(false)));
    }

    /// Shut the farm down and join its threads.
    fn stop(self) {
        self.farm.request_shutdown();
        let _ = self.server.join();
        if let Some(executor) = self.executor {
            let _ = executor.join();
        }
    }
}

/// What the SSE subscriber has seen.
#[derive(Default)]
struct Events {
    hello: bool,
    ended: bool,
    frames: u64,
    dropped: u64,
    first_progress: HashMap<u64, Instant>,
    done: HashMap<u64, Instant>,
    finished: usize,
}

type Shared = Arc<(Mutex<Events>, Condvar)>;

/// Subscribe to `/events` and wait for the hello frame, so no job frame
/// of the batch can be missed.
fn subscribe(addr: SocketAddr) -> Result<(JoinHandle<()>, Shared), String> {
    let mut s = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    write!(s, "GET /events HTTP/1.1\r\nHost: {addr}\r\n\r\n").map_err(|e| e.to_string())?;
    let shared: Shared = Arc::default();
    let state = shared.clone();
    let reader = std::thread::spawn(move || {
        let mut lines = BufReader::new(s).lines();
        let (mut kind, mut data) = (String::new(), String::new());
        while let Some(Ok(line)) = lines.next() {
            if let Some(k) = line.strip_prefix("event: ") {
                kind = k.to_string();
            } else if let Some(d) = line.strip_prefix("data: ") {
                data = d.to_string();
            } else if line.is_empty() && !kind.is_empty() {
                let now = Instant::now();
                let (lock, cv) = &*state;
                let mut ev = lock.lock().expect("event state");
                ev.frames += 1;
                let payload = Json::parse(&data).unwrap_or(Json::Null);
                let id = |key| payload.get(key).and_then(Json::num).map(|v| v as u64);
                match kind.as_str() {
                    "hello" => ev.hello = true,
                    "progress" => {
                        if let Some(job) = id("job") {
                            ev.first_progress.entry(job).or_insert(now);
                        }
                    }
                    "job" => match (id("id"), payload.get("state").and_then(Json::str)) {
                        (Some(job), Some("done")) => {
                            ev.done.insert(job, now);
                            ev.finished += 1;
                        }
                        (Some(_), Some("failed")) => ev.finished += 1,
                        _ => {}
                    },
                    // Ring overflow on this subscriber (the staging-ring
                    // drops a job reports carry a "count" instead).
                    "dropped" => ev.dropped += id("frames").unwrap_or(0),
                    "bye" => ev.ended = true,
                    _ => {}
                }
                let stop = ev.ended;
                drop(ev);
                cv.notify_all();
                kind.clear();
                if stop {
                    break;
                }
            }
        }
        let (lock, cv) = &*state;
        lock.lock().expect("event state").ended = true;
        cv.notify_all();
    });
    let (lock, cv) = &*shared;
    let ev = lock.lock().expect("event state");
    let (ev, _) =
        cv.wait_timeout_while(ev, IO_TIMEOUT, |e| !e.hello && !e.ended).expect("event state");
    if !ev.hello {
        return Err("no hello frame on /events".to_string());
    }
    drop(ev);
    Ok((reader, shared))
}

/// Timing samples pooled over every batch of a run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    requests_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    jobs_ms: Vec<f64>,
    metrics_ms: Vec<f64>,
    metrics_bytes: Vec<f64>,
    /// Job latencies by submission index, one list per batch.
    job_latency_s: Vec<Vec<(usize, f64)>>,
    wait_s: Vec<f64>,
    exec_s: Vec<f64>,
    jobs_per_s: Vec<f64>,
    cycles_per_s: Vec<f64>,
    busy_share: Vec<f64>,
    frames: Vec<f64>,
    dropped: Vec<f64>,
    dups_sent: u64,
    dedup_hits: u64,
}

/// A finished job as `/jobs` reports it.
#[derive(Clone)]
struct Done {
    fingerprint: String,
    cycles: f64,
    wall_s: f64,
    inval_latency_sum: f64,
    inval_latency_count: f64,
}

/// Per-job results of one batch, by submission index of unique jobs.
type BatchJobs = Vec<Option<Done>>;

/// Run one batch: start a farm, subscribe, submit everything, scrape
/// until done, verify, stop.
fn run_batch(
    cfg: &FarmConfig,
    subs: &[Submission],
    out: &mut Outcome,
    s: &mut Samples,
) -> Result<BatchJobs, String> {
    let (mut svc, setup) = Service::start(cfg)?;
    s.setup_s.push(setup);
    let result = drive(&mut svc, subs, out, s);
    svc.stop();
    result
}

fn drive(
    svc: &mut Service,
    subs: &[Submission],
    out: &mut Outcome,
    s: &mut Samples,
) -> Result<BatchJobs, String> {
    let addr = svc.addr;
    let (reader, events) = subscribe(addr)?;
    let call = |out: &mut Outcome, s: &mut Samples, method: &str, path: &str, body: &str| {
        out.attempted += 1;
        let t = Instant::now();
        let r = request(addr, method, path, body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        s.requests_ms.push(ms);
        match r {
            Ok((200, body)) => Some((ms, body)),
            Ok((status, body)) => {
                out.fail(format!("{method} {path}: HTTP {status}: {body}"));
                None
            }
            Err(e) => {
                out.fail(e);
                None
            }
        }
    };

    let start = Instant::now();
    let mut ids: Vec<Option<u64>> = vec![None; subs.len()];
    let mut replied: HashMap<u64, Instant> = HashMap::new();
    for (i, sub) in subs.iter().enumerate() {
        let Some((ms, body)) = call(out, s, "POST", "/jobs", &form(&sub.spec)) else { continue };
        s.submit_ms.push(ms);
        let reply = Json::parse(&body).unwrap_or(Json::Null);
        let id = reply.get("id").and_then(Json::num).map(|v| v as u64);
        let fresh = reply.get("fresh") == Some(&Json::Bool(true));
        match (sub.dup_of, id) {
            (None, Some(id)) if fresh => {
                replied.insert(id, Instant::now());
                ids[i] = Some(id);
            }
            (Some(j), Some(id)) => {
                s.dups_sent += 1;
                if fresh || ids[j] != Some(id) {
                    out.fail(format!("duplicate of submission {j} got {body}"));
                }
            }
            _ => out.fail(format!("submission {i} got {body}")),
        }
    }

    // The batch is queued: start executing it.
    svc.run_executor();

    // Scrape about once a second until the table shows every job over.
    // Progress is read by counting status fields; the table is parsed
    // once, after the last scrape, to keep the client's footprint small.
    let expected = replied.len();
    let mut last_jobs = String::new();
    loop {
        {
            let (lock, cv) = &*events;
            let ev = lock.lock().expect("event state");
            let _ = cv
                .wait_timeout_while(ev, SCRAPE_EVERY, |e| e.finished < expected && !e.ended)
                .expect("event state");
        }
        if let Some((ms, body)) = call(out, s, "GET", "/jobs", "") {
            s.jobs_ms.push(ms);
            last_jobs = body;
        }
        if let Some((ms, body)) = call(out, s, "GET", "/metrics", "") {
            s.metrics_ms.push(ms);
            s.metrics_bytes.push(body.len() as f64);
        }
        let over = last_jobs.matches("\"status\":\"done\"").count()
            + last_jobs.matches("\"status\":\"failed\"").count();
        if over >= expected || start.elapsed() > BATCH_TIMEOUT {
            break;
        }
    }
    let scraped = Instant::now();
    svc.farm.request_shutdown();
    let _ = reader.join();

    // Verify every job from the final table and fold in the timings.
    let table = Json::parse(&last_jobs).unwrap_or_else(|e| {
        out.fail(format!("/jobs is not JSON: {e}"));
        Json::Null
    });
    let rows: HashMap<u64, &Json> = match table.get("jobs") {
        Some(Json::Arr(rows)) => {
            rows.iter().filter_map(|r| Some((r.get("id")?.num()? as u64, r))).collect()
        }
        _ => HashMap::new(),
    };
    let (lock, _) = &*events;
    let ev = lock.lock().expect("event state");
    let mut jobs: BatchJobs = vec![None; subs.len()];
    let mut end = start;
    let (mut cycles, mut wall) = (0.0, 0.0);
    let mut latency_s = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let Some(id) = *id else { continue };
        out.attempted += 1;
        let row = rows.get(&id);
        if row.and_then(|r| r.get("status")).and_then(Json::str) != Some("done") {
            out.fail(format!("job {id} did not finish: {:?}", row.and_then(|r| r.get("error"))));
            continue;
        }
        let row = row.expect("checked above");
        let num = |key: &str| row.get(key).and_then(Json::num).unwrap_or(0.0);
        let lat = row.get("metrics").and_then(|m| m.get("inval_latency"));
        let done = Done {
            fingerprint: row.get("fingerprint").and_then(Json::str).unwrap_or("").to_string(),
            cycles: num("cycles"),
            wall_s: num("wall_s"),
            inval_latency_sum: lat.and_then(|l| l.get("sum")).and_then(Json::num).unwrap_or(0.0),
            inval_latency_count: lat
                .and_then(|l| l.get("count"))
                .and_then(Json::num)
                .unwrap_or(0.0),
        };
        cycles += done.cycles;
        wall += done.wall_s;
        jobs[i] = Some(done);
        let sent = replied[&id];
        match ev.done.get(&id) {
            Some(&t) => {
                end = end.max(t);
                latency_s.push((i, (t - sent).as_secs_f64()));
                if let Some(&p) = ev.first_progress.get(&id) {
                    s.wait_s.push((p - sent).as_secs_f64());
                    s.exec_s.push((t - p).as_secs_f64());
                }
            }
            // A lost done frame: the table shows the job over by the
            // last scrape, so the batch cannot have ended earlier.
            None => end = end.max(scraped),
        }
    }
    let makespan = (end - start).as_secs_f64();
    let done = jobs.iter().flatten().count() as f64;
    s.jobs_per_s.push(ratio(done, makespan));
    s.job_latency_s.push(latency_s);
    s.cycles_per_s.push(ratio(cycles, makespan));
    s.busy_share.push(ratio(wall, svc.farm.config().workers as f64 * makespan));
    s.dedup_hits += table.get("dedup_hits").and_then(Json::num).unwrap_or(0.0) as u64;
    s.frames.push(ev.frames as f64);
    s.dropped.push(ev.dropped as f64);
    Ok(jobs)
}

/// Standalone re-run of a farm job: `(fingerprint, wall_s)`.
fn standalone(spec: &JobSpec) -> Result<(u64, f64), String> {
    let wl = spec.workload()?;
    let mut sys = sim::system(spec.k, spec.scheme, spec.scheme.build())?;
    sys.set_tiles(spec.tiles);
    let t = Instant::now();
    let r = wl.run(&mut sys, spec.max_cycles)?;
    let wall = t.elapsed().as_secs_f64();
    sim::audit(&sys, &wl, r.issued)?;
    Ok((metrics_fingerprint(&sys.export_metrics()), wall))
}

/// Run `farm-batch` for about `seconds`: whole batches on fresh farms.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = farm_config();
    let subs = batch_specs(seed);
    let unique = subs.iter().filter(|s| s.dup_of.is_none()).count();
    let config = format!(
        "{{\"app\":\"synth\",\"k\":{K},\"pattern\":\"uniform\",\"d\":{D},\"submissions\":{SUBMISSIONS},\
         \"unique\":{unique},\"schemes\":[{}],\"episodes\":{EPISODES:?},\"workers\":{},\
         \"progress_every\":{},\"clients\":\"1 closed-loop submitter + 1 SSE subscriber\",\
         \"scrape_every_s\":{},\"caches\":\"cold\"}}",
        SCHEMES.iter().map(|k| format!("\"{}\"", k.name())).collect::<Vec<_>>().join(","),
        cfg.workers,
        cfg.progress_every,
        SCRAPE_EVERY.as_secs_f64()
    );
    let mut out = Outcome::new(config, cfg.workers);
    let started = Instant::now();
    let mut s = Samples::default();
    let mut first: Option<BatchJobs> = None;
    let mut batches = 0usize;
    let mut calibration = Vec::new();
    loop {
        let t = Instant::now();
        for _ in 0..CALIBRATION_SAMPLES {
            calibration.push(calibration_loop_s());
        }
        // Start-up samples spread over the run, so their median spans the
        // host's slow and fast phases alike.
        for _ in 0..SETUP_SAMPLES {
            out.attempted += 1;
            match Service::start(&cfg) {
                Ok((svc, setup)) => {
                    s.setup_s.push(setup);
                    svc.stop();
                }
                Err(e) => out.fail(e),
            }
        }
        match run_batch(&cfg, &subs, &mut out, &mut s) {
            Ok(jobs) => {
                batches += 1;
                match &first {
                    None => {
                        // Later batches run on fresh farms in this same
                        // process; a user's farm serves one.
                        out.metrics.insert("peak_rss_mib", peak_rss_mib());
                        first = Some(jobs);
                    }
                    Some(reference) => {
                        out.attempted += 1;
                        let differ = jobs
                            .iter()
                            .zip(reference)
                            .filter(|(a, b)| {
                                a.as_ref().map(|d| &d.fingerprint)
                                    != b.as_ref().map(|d| &d.fingerprint)
                            })
                            .count();
                        if differ > 0 {
                            out.fail(format!(
                                "{differ} job fingerprints differ from the first batch"
                            ));
                        }
                    }
                }
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
            }
        }
        let spent = started.elapsed().as_secs_f64();
        if spent + t.elapsed().as_secs_f64() > seconds || (out.failed > 0 && first.is_none()) {
            break;
        }
    }

    // Re-run a sample of the first batch's jobs standalone (and, traced,
    // through the replica loop) and compare fingerprints.
    let reference = first.unwrap_or_default();
    let mut layers = Layers::default();
    let (mut farm_wall, mut alone_wall) = (0.0, 0.0);
    let sampled: Vec<usize> =
        (0..subs.len()).filter(|&i| subs[i].dup_of.is_none()).take(SAMPLED).collect();
    for &i in &sampled {
        let spec = &subs[i].spec;
        out.attempted += 1;
        let Some(Some(job)) = reference.get(i) else {
            out.fail(format!("sampled submission {i} has no farm result"));
            continue;
        };
        match standalone(spec) {
            Ok((fp, wall)) if format!("{fp:016x}") == job.fingerprint => {
                farm_wall += job.wall_s;
                alone_wall += wall;
                if trace {
                    out.attempted += 1;
                    match traced(spec, &mut layers) {
                        Ok(tfp) if tfp == fp => layers.untraced(wall),
                        Ok(tfp) => out.fail(format!("traced fingerprint {tfp:016x} != {fp:016x}")),
                        Err(e) => out.fail(e),
                    }
                }
            }
            Ok((fp, _)) => out.fail(format!(
                "submission {i}: standalone fingerprint {fp:016x} != farm {}",
                job.fingerprint
            )),
            Err(e) => out.fail(e),
        }
    }

    // Batches are identical, so the fastest is the one least disturbed by
    // other tenants of a shared host; its throughput stands for the run.
    // Likewise each job's latency is its lowest over the batches (the job
    // at a given place in the queue sees the same queue in every batch).
    let fastest = (0..s.jobs_per_s.len())
        .max_by(|&a, &b| s.jobs_per_s[a].total_cmp(&s.jobs_per_s[b]))
        .unwrap_or(0);
    let pick = |v: &[f64]| v.get(fastest).copied().unwrap_or(0.0);
    let mut lowest: BTreeMap<usize, f64> = BTreeMap::new();
    for &(i, t) in s.job_latency_s.iter().flatten() {
        let l = lowest.entry(i).or_insert(t);
        *l = l.min(t);
    }
    let latency_s: Vec<f64> = lowest.into_values().collect();
    let (p50, p90) = (median(&latency_s), quantile(&latency_s, 0.9));
    // Start-ups, throughput and job latencies are host computation and
    // follow the host's speed, so they are in reference seconds like the
    // simulator workloads' (across two ten-seed sets on a shared host the
    // calibration loop slowed by 16% and jobs_per_s by 18%). Request
    // latency is the farm's 20 ms accept-poll sleep, which does not
    // scale, so it stays wall time.
    let scale = reference_scale(&calibration);
    let host = [
        ("reference_scale", scale),
        ("setup_s", median(&s.setup_s)),
        ("jobs_per_s", pick(&s.jobs_per_s)),
        ("job_latency_p50_s", p50),
        ("job_latency_p90_s", p90),
    ];
    out.host.extend(host);
    let done: Vec<&Done> = reference.iter().flatten().collect();
    let m = &mut out.metrics;
    m.insert("sim_cycles_per_s", pick(&s.cycles_per_s) / scale);
    m.insert("setup_s", median(&s.setup_s) * scale);
    m.insert("sim_cycles", done.iter().map(|d| d.cycles).sum());
    m.insert(
        "inval_latency_mean_cycles",
        ratio(
            done.iter().map(|d| d.inval_latency_sum).sum(),
            done.iter().map(|d| d.inval_latency_count).sum(),
        ),
    );
    m.insert("jobs_per_s", pick(&s.jobs_per_s) / scale);
    m.insert("job_latency_p50_s", p50 * scale);
    m.insert("job_latency_p90_s", p90 * scale);
    m.insert("request_latency_p50_ms", median(&s.requests_ms));
    m.insert("request_latency_p90_ms", quantile(&s.requests_ms, 0.9));
    out.samples.insert("batches", batches);
    out.samples.insert("setup_s", s.setup_s.len());
    out.samples.insert("calibration", calibration.len());
    out.samples.insert("job_latency", latency_s.len());
    out.samples.insert("request_latency", s.requests_ms.len());

    if trace {
        layers.set_repeats(1);
        layers.metrics(&mut out.layers);
        let l = &mut out.layers;
        l.insert("farm.http.submit_ms_p50", median(&s.submit_ms));
        l.insert("farm.http.jobs_ms_p50", median(&s.jobs_ms));
        l.insert("farm.http.metrics_ms_p50", median(&s.metrics_ms));
        l.insert("farm.http.metrics_bytes", s.metrics_bytes.last().copied().unwrap_or(0.0));
        l.insert("farm.queue.wait_s_p50", median(&s.wait_s));
        l.insert("farm.queue.dedup_ratio", ratio(s.dedup_hits as f64, s.dups_sent as f64));
        l.insert("farm.runner.exec_s_p50", median(&s.exec_s));
        l.insert("farm.runner.busy_share", median(&s.busy_share));
        l.insert("farm.runner.overhead_ratio", ratio(farm_wall, alone_wall));
        l.insert("farm.events.frames_received", median(&s.frames));
        l.insert("farm.events.frames_dropped", median(&s.dropped));
        out.samples.insert("submit_ms", s.submit_ms.len());
        out.samples.insert("queue_wait", s.wait_s.len());
        out.samples.insert("sampled_jobs", sampled.len());
    }
    out
}

/// Traced replica of one farm job, folded into `layers`.
fn traced(spec: &JobSpec, layers: &mut Layers) -> Result<u64, String> {
    let t = Instant::now();
    let wl = spec.workload()?;
    let gen_s = t.elapsed().as_secs_f64();
    let stats = Arc::new(PlanStats::default());
    let t = Instant::now();
    let mut sys = sim::system(
        spec.k,
        spec.scheme,
        Box::new(TimedScheme::new(spec.scheme.build(), stats.clone())),
    )?;
    layers.setup(gen_s, t.elapsed().as_secs_f64());
    sys.set_tiles(spec.tiles);
    layers.traced_run(&wl, &mut sys, &stats)
}
