//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload app-busy --seed 11587045 --seconds 20 --trace 0
//! ```
//!
//! Prints a self-describing record line, then, as the last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. See `perfbench/README.md` for the workloads and metrics.

mod farm;
mod sim;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use util::{json_num, json_str, loadavg_json};
use wormdsm_core::RunMeta;

/// Extra set-ups timed before each repeat of a workload (each repeat's
/// own set-up is timed too); `setup_s` is the median of them all.
pub const SETUP_SAMPLES: usize = 4;

/// Calibration-loop passes (`util::calibration_loop_s`, about 8 ms each
/// at reference speed) timed before each repeat or batch.
pub const CALIBRATION_SAMPLES: usize = 4;

/// Seed used when `--seed` is absent: Barnes-Hut's own default
/// interaction-list seed, so app workloads match `apps::seeded`.
const DEFAULT_SEED: u64 = 0xB0D1E5;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["app-busy", "app-sparse", "farm-batch"];

/// End-to-end metrics and units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 11] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
    ("sim_cycles", "cycles"),
    ("inval_latency_mean_cycles", "cycles"),
    ("jobs_per_s", "jobs/s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_p90_s", "s"),
    ("request_latency_p50_ms", "ms"),
    ("request_latency_p90_ms", "ms"),
];

/// Per-layer metrics and units, in `BENCHMARK.json` order. A workload
/// that never reaches a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 55] = [
    ("workloads.gen_s", "s"),
    ("workloads.driver_self_s", "s"),
    ("workloads.driver_share", "ratio"),
    ("core.system.new_s", "s"),
    ("core.system.issue_calls", "count"),
    ("core.system.issue_ns_per_call", "ns"),
    ("core.system.step_calls", "count"),
    ("core.system.step_ns_per_call", "ns"),
    ("core.system.step_share", "ratio"),
    ("core.system.step_ns_per_flit_hop", "ns"),
    ("core.schemes.plan_calls", "count"),
    ("core.schemes.plan_us_per_call", "us"),
    ("core.schemes.plan_share", "ratio"),
    ("core.schemes.sharers_per_plan", "count"),
    ("core.schemes.request_worms_per_plan", "count"),
    ("sim.calendar.skipped_cycles", "cycles"),
    ("sim.calendar.skip_ratio", "ratio"),
    ("sim.calendar.cycles_per_step", "cycles"),
    ("mesh.flit_hops", "count"),
    ("mesh.worms_injected_req", "count"),
    ("mesh.worms_injected_reply", "count"),
    ("mesh.deliveries", "count"),
    ("mesh.multicast_blocked_cycles", "cycles"),
    ("mesh.gather_blocked_cycles", "cycles"),
    ("mesh.parks", "count"),
    ("mesh.max_link_utilization", "ratio"),
    ("mesh.unicast_latency_mean", "cycles"),
    ("mesh.multicast_latency_mean", "cycles"),
    ("mesh.gather_latency_mean", "cycles"),
    ("mesh.worm_slots_reused", "count"),
    ("mesh.scratch_grows", "count"),
    ("coherence.read_hits", "count"),
    ("coherence.read_misses", "count"),
    ("coherence.write_hits", "count"),
    ("coherence.write_misses", "count"),
    ("coherence.writebacks", "count"),
    ("coherence.spurious_invals", "count"),
    ("coherence.inval_txns", "count"),
    ("coherence.inval_home_msgs_mean", "count"),
    ("coherence.stall_cycles", "cycles"),
    ("coherence.fetch_retries", "count"),
    ("coherence.wb_retries", "count"),
    ("coherence.iack_fallbacks", "count"),
    ("farm.http.submit_ms_p50", "ms"),
    ("farm.http.jobs_ms_p50", "ms"),
    ("farm.http.metrics_ms_p50", "ms"),
    ("farm.http.metrics_bytes", "bytes"),
    ("farm.queue.wait_s_p50", "s"),
    ("farm.queue.dedup_ratio", "ratio"),
    ("farm.runner.exec_s_p50", "s"),
    ("farm.runner.busy_share", "ratio"),
    ("farm.runner.overhead_ratio", "ratio"),
    ("farm.events.frames_received", "count"),
    ("farm.events.frames_dropped", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one workload run produced.
pub struct Outcome {
    /// Workload configuration, as a JSON object.
    config: String,
    /// Worker threads the workload's pool used (0 = serial).
    pool_workers: usize,
    /// Runs, jobs, requests and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// One diagnostic per failure.
    errors: Vec<String>,
    /// End-to-end metrics by name (`success_rate` is filled in by `main`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts behind the medians and percentiles.
    pub samples: BTreeMap<&'static str, usize>,
    /// Uncalibrated host-time figures behind calibrated metrics.
    pub host: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Empty outcome for a workload with `config` on `pool_workers`.
    pub fn new(config: String, pool_workers: usize) -> Self {
        Self {
            config,
            pool_workers,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: BTreeMap::new(),
            layers: BTreeMap::new(),
            samples: BTreeMap::new(),
            host: BTreeMap::new(),
        }
    }

    /// Count one failed attempt.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The record names the sources under test, so refuse to run anywhere
    // but the root of a source tree.
    if !std::path::Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }

    let load_before = loadavg_json();
    let t0 = Instant::now();
    let mut out = match sim::SimSpec::named(&args.workload) {
        Some(spec) => sim::run(&spec, args.seed, args.seconds, args.trace),
        None => farm::run(args.seed, args.seconds, args.trace),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let load_after = loadavg_json();

    let error_rate = util::ratio(out.failed as f64, out.attempted as f64);
    out.metrics.insert("success_rate", 1.0 - error_rate);
    let (table, values): (&[(&str, &str)], &BTreeMap<&str, f64>) =
        if args.trace { (&PER_LAYER, &out.layers) } else { (&END_TO_END, &out.metrics) };
    for name in values.keys() {
        assert!(table.iter().any(|(n, _)| n == name), "metric {name} missing from the table");
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(name), json_num(v), json_str(unit))
        })
        .collect();
    for (name, unit) in table {
        eprintln!("{name:>38} {:>16.6} {unit}", values.get(name).copied().unwrap_or(0.0));
    }
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }

    let samples: Vec<String> =
        out.samples.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    let host: Vec<String> =
        out.host.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v))).collect();
    let errors: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
    let git = util::git_commit().map_or("null".to_string(), |c| json_str(&c));
    println!(
        "{{\"record\":{{\"schema\":\"wormdsm-perfbench/1\",\"workload\":{},\"seed\":{},\
         \"seconds\":{},\"trace\":{},\"config\":{},\"run_meta\":{},\"loadavg_before\":{},\
         \"loadavg_after\":{},\"git_commit\":{git},\"source_fnv64\":\"{}\",\"error_rate\":{},\
         \"samples\":{{{}}},\"host_time\":{{{}}},\"errors\":[{}]}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        out.config,
        RunMeta::capture(out.pool_workers).with_wall_s(wall_s).to_json(),
        load_before,
        load_after,
        util::source_digest(),
        json_num(error_rate),
        samples.join(","),
        host.join(","),
        errors.join(",")
    );
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::Json;

    /// The metric tables here and `BENCHMARK.json` must name the same
    /// workloads and metrics, with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(rows)) = spec.get(key) else { panic!("{key} missing") };
            rows.iter()
                .map(|r| {
                    let s = |k| r.get(k).and_then(Json::str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
