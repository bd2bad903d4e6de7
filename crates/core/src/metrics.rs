//! System-level metrics: the paper's four performance measures
//! (invalidation latency, home-node occupancy via message counts and busy
//! time, message counts, network traffic) plus processor-visible latencies.

use wormdsm_sim::{Histogram, Metric, Registry, Summary};

/// Aggregated run metrics. Network-level counters (flit-hops, link
/// utilization) live in [`wormdsm_mesh::NetStats`]; this struct holds the
/// protocol-level view.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Completed invalidation transactions (>= 1 remote sharer).
    pub inval_txns: u64,
    /// Cycles from the home starting a transaction to collecting every
    /// acknowledgement.
    pub inval_latency: Summary,
    /// Messages the home sent + received per invalidation transaction
    /// (the paper's occupancy proxy: "occupancy is proportional to the
    /// number of messages sent from and received by the home node").
    pub inval_home_msgs: Summary,
    /// Remote sharers invalidated per transaction.
    pub inval_set_size: Histogram,
    /// Processor-visible write latency (issue to resume), misses only.
    pub write_latency: Summary,
    /// Processor-visible read latency (issue to resume), misses only.
    pub read_latency: Summary,
    /// Cache hits.
    pub read_hits: u64,
    /// Cache write hits (Modified line).
    pub write_hits: u64,
    /// Read misses issued.
    pub read_misses: u64,
    /// Write misses / upgrades issued.
    pub write_misses: u64,
    /// Invalidation messages that arrived for blocks the cache had already
    /// silently evicted (still acknowledged).
    pub spurious_invals: u64,
    /// Read fills poisoned by a racing invalidation (the read is served
    /// once, the stale line is not installed).
    pub poisoned_fills: u64,
    /// i-ack posts that found the buffer full and were retried.
    pub iack_fallbacks: u64,
    /// Dirty writebacks sent.
    pub writebacks: u64,
    /// Fetches deferred at a node whose ownership grant was still in
    /// flight (window-of-vulnerability retries).
    pub fetch_retries: u64,
    /// Writebacks deferred at the home because they raced with an
    /// outstanding fetch.
    pub wb_retries: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Cycles processors spent stalled on memory (sum over processors).
    pub stall_cycles: u64,
    /// Cycles processors spent stalled at barriers/locks.
    pub sync_stall_cycles: u64,
    /// Promoted protocol invariants that fired (always-on auditing; any
    /// nonzero value means the run's results are untrustworthy).
    pub invariant_failures: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh metrics.
    pub fn new() -> Self {
        Self {
            inval_txns: 0,
            inval_latency: Summary::new(),
            inval_home_msgs: Summary::new(),
            inval_set_size: Histogram::new(1, 256),
            write_latency: Summary::new(),
            read_latency: Summary::new(),
            read_hits: 0,
            write_hits: 0,
            read_misses: 0,
            write_misses: 0,
            spurious_invals: 0,
            poisoned_fills: 0,
            iack_fallbacks: 0,
            writebacks: 0,
            fetch_retries: 0,
            wb_retries: 0,
            barriers: 0,
            stall_cycles: 0,
            sync_stall_cycles: 0,
            invariant_failures: 0,
        }
    }

    /// Snapshot every metric into a [`Registry`] for export/printing.
    pub fn export(&self) -> Registry {
        let mut r = Registry::new();
        r.counter("inval_txns", self.inval_txns);
        r.summary("inval_latency", &self.inval_latency);
        r.summary("inval_home_msgs", &self.inval_home_msgs);
        r.histogram("inval_set_size", &self.inval_set_size);
        r.summary("write_latency", &self.write_latency);
        r.summary("read_latency", &self.read_latency);
        r.counter("read_hits", self.read_hits);
        r.counter("write_hits", self.write_hits);
        r.counter("read_misses", self.read_misses);
        r.counter("write_misses", self.write_misses);
        r.counter("spurious_invals", self.spurious_invals);
        r.counter("poisoned_fills", self.poisoned_fills);
        r.counter("iack_fallbacks", self.iack_fallbacks);
        r.counter("writebacks", self.writebacks);
        r.counter("fetch_retries", self.fetch_retries);
        r.counter("wb_retries", self.wb_retries);
        r.counter("barriers", self.barriers);
        r.counter("stall_cycles", self.stall_cycles);
        r.counter("sync_stall_cycles", self.sync_stall_cycles);
        r.counter("invariant_failures", self.invariant_failures);
        r
    }

    /// [`Metrics::export`] plus the flight recorder's lifetime counters.
    ///
    /// `trace_events_dropped > 0` means the recorder's ring overflowed:
    /// event dumps and `timeline()` reconstructions are *incomplete* even
    /// though they look well-formed (streaming consumers attached to the
    /// push path, like the profiler, are unaffected). Surfacing the count
    /// in every metrics export keeps that silent truncation loud.
    pub fn export_with_trace(&self, recorded: u64, dropped: u64) -> Registry {
        let mut r = self.export();
        r.counter("trace_events_recorded", recorded);
        r.counter("trace_events_dropped", dropped);
        r
    }

    /// Read hit ratio.
    pub fn read_hit_ratio(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }
}

/// Version of the run-metadata row schema stamped by [`RunMeta::stamp`].
///
/// Bump when the set or meaning of `run_*` metrics changes, so offline
/// consumers of `BENCH_*.json` / farm job records can dispatch on it.
pub const RUN_SCHEMA_VERSION: u64 = 1;

/// Provenance metadata attached to every exported metrics row: which
/// schema the row speaks, what hardware produced it, and how long it
/// took on the wall clock.
///
/// None of this affects — or is affected by — simulated results; the
/// `run_*` names it stamps are *excluded* from determinism fingerprints
/// for exactly that reason (wall-clock seconds and host core counts vary
/// run to run while the simulation stays bit-identical).
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// [`RUN_SCHEMA_VERSION`] at capture time.
    pub schema_version: u64,
    /// Logical cores the host reported (1 if unknown).
    pub host_cores: u64,
    /// Worker threads the run used concurrently (0 = serial).
    pub pool_workers: u64,
    /// Wall-clock seconds the run took (0 until measured).
    pub wall_s: f64,
}

impl RunMeta {
    /// Capture host facts now; `pool_workers` is the number of worker
    /// threads the caller runs concurrently (0 = serial).
    pub fn capture(pool_workers: usize) -> Self {
        let host_cores = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1);
        Self {
            schema_version: RUN_SCHEMA_VERSION,
            host_cores,
            pool_workers: pool_workers as u64,
            wall_s: 0.0,
        }
    }

    /// Builder-style wall-clock setter (seconds).
    pub fn with_wall_s(mut self, wall_s: f64) -> Self {
        self.wall_s = wall_s;
        self
    }

    /// Stamp the metadata into `r` under reserved `run_*` names.
    pub fn stamp(&self, r: &mut Registry) {
        r.counter("run_schema_version", self.schema_version);
        r.counter("run_host_cores", self.host_cores);
        r.counter("run_pool_workers", self.pool_workers);
        r.gauge("run_wall_s", self.wall_s);
    }

    /// Render as a small JSON object (for embedding in `BENCH_*.json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema_version\":{},\"host_cores\":{},\"pool_workers\":{},\"wall_s\":{}}}",
            self.schema_version,
            self.host_cores,
            self.pool_workers,
            if self.wall_s.is_finite() { format!("{}", self.wall_s) } else { "null".into() }
        )
    }
}

/// Metric-name prefixes that vary between otherwise bit-identical runs
/// and must be ignored by determinism fingerprints / diffs: flight-
/// recorder lifetime counters (differ by trace level), [`RunMeta`]
/// provenance (differ by host and wall clock), and the tick engine's
/// scratch-buffer growth counter, which records allocator warm-up, never
/// *what* was simulated.
pub const NONDETERMINISTIC_METRIC_PREFIXES: [&str; 3] =
    ["trace_events_", "run_", "net_scratch_grows"];

fn prom_name(name: &str) -> String {
    let mut s = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        s.push(if ok { c } else { '_' });
    }
    if s.is_empty() {
        s.push('_');
    }
    s
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

fn prom_labels(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut pairs = Vec::with_capacity(labels.len() + 1);
    for &(k, v) in labels.iter().chain(extra.as_ref()) {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
        pairs.push(format!("{}=\"{}\"", prom_name(k), escaped));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Render a [`Registry`] in the Prometheus text exposition format
/// (`text/plain; version=0.0.4`), applying `labels` to every sample.
///
/// Mapping: counters → `counter`, gauges → `gauge`, summaries →
/// `summary` (`_count`/`_sum`, plus `_mean`/`_min`/`_max` gauges, since
/// the snapshot holds moments rather than quantiles), histograms →
/// `histogram` with cumulative `_bucket{le="..."}` samples whose edges
/// are the bucket *upper* bounds and whose `+Inf` bucket equals
/// `_count`. The registry's histogram snapshot does not retain the sum
/// of observations, so `_sum` is exposed as `NaN` rather than invented.
/// Names are sanitized to the `[a-zA-Z_:][a-zA-Z0-9_:]*` charset
/// (`net.cycles` → `net_cycles`).
pub fn to_prometheus(reg: &Registry, labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    let base = prom_labels(labels, None);
    for (name, m) in reg.iter() {
        let n = prom_name(name);
        match m {
            Metric::Counter(v) => {
                out.push_str(&format!("# TYPE {n} counter\n{n}{base} {v}\n"));
            }
            Metric::Gauge(v) => {
                out.push_str(&format!("# TYPE {n} gauge\n{n}{base} {}\n", prom_f64(*v)));
            }
            Metric::Summary { count, sum, mean, min, max, .. } => {
                out.push_str(&format!("# TYPE {n} summary\n"));
                out.push_str(&format!("{n}_count{base} {count}\n"));
                out.push_str(&format!("{n}_sum{base} {}\n", prom_f64(*sum)));
                for (suffix, v) in [("mean", *mean), ("min", *min), ("max", *max)] {
                    out.push_str(&format!(
                        "# TYPE {n}_{suffix} gauge\n{n}_{suffix}{base} {}\n",
                        prom_f64(v)
                    ));
                }
            }
            Metric::Histogram { width, buckets, overflow, .. } => {
                out.push_str(&format!("# TYPE {n} histogram\n"));
                let mut cum = 0u64;
                for (lo, c) in buckets {
                    cum += c;
                    let le = format!("{}", lo + width);
                    let lbl = prom_labels(labels, Some(("le", &le)));
                    out.push_str(&format!("{n}_bucket{lbl} {cum}\n"));
                }
                cum += overflow;
                let lbl = prom_labels(labels, Some(("le", "+Inf")));
                out.push_str(&format!("{n}_bucket{lbl} {cum}\n"));
                out.push_str(&format!("{n}_count{base} {cum}\n"));
                out.push_str(&format!("{n}_sum{base} NaN\n"));
            }
        }
    }
    out
}

mod snap_impls {
    use super::*;
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for Metrics {
        fn save(&self, w: &mut SnapWriter) {
            w.put_u64(self.inval_txns);
            self.inval_latency.save(w);
            self.inval_home_msgs.save(w);
            self.inval_set_size.save(w);
            self.write_latency.save(w);
            self.read_latency.save(w);
            w.put_u64(self.read_hits);
            w.put_u64(self.write_hits);
            w.put_u64(self.read_misses);
            w.put_u64(self.write_misses);
            w.put_u64(self.spurious_invals);
            w.put_u64(self.poisoned_fills);
            w.put_u64(self.iack_fallbacks);
            w.put_u64(self.writebacks);
            w.put_u64(self.fetch_retries);
            w.put_u64(self.wb_retries);
            w.put_u64(self.barriers);
            w.put_u64(self.stall_cycles);
            w.put_u64(self.sync_stall_cycles);
            w.put_u64(self.invariant_failures);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Self {
                inval_txns: r.get_u64()?,
                inval_latency: Snap::load(r)?,
                inval_home_msgs: Snap::load(r)?,
                inval_set_size: Snap::load(r)?,
                write_latency: Snap::load(r)?,
                read_latency: Snap::load(r)?,
                read_hits: r.get_u64()?,
                write_hits: r.get_u64()?,
                read_misses: r.get_u64()?,
                write_misses: r.get_u64()?,
                spurious_invals: r.get_u64()?,
                poisoned_fills: r.get_u64()?,
                iack_fallbacks: r.get_u64()?,
                writebacks: r.get_u64()?,
                fetch_retries: r.get_u64()?,
                wb_retries: r.get_u64()?,
                barriers: r.get_u64()?,
                stall_cycles: r.get_u64()?,
                sync_stall_cycles: r.get_u64()?,
                invariant_failures: r.get_u64()?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_meta_stamps_reserved_names() {
        let meta = RunMeta::capture(6).with_wall_s(1.5);
        assert_eq!(meta.schema_version, RUN_SCHEMA_VERSION);
        assert!(meta.host_cores >= 1);
        let mut r = Registry::new();
        r.counter("inval_txns", 7);
        meta.stamp(&mut r);
        assert_eq!(r.get("run_schema_version").unwrap().as_counter(), Some(RUN_SCHEMA_VERSION));
        assert_eq!(r.get("run_pool_workers").unwrap().as_counter(), Some(6));
        assert_eq!(r.get("run_wall_s"), Some(&Metric::Gauge(1.5)));
        // Every stamped name sits behind the documented nondeterministic
        // prefix, so fingerprints that ignore the prefixes ignore all of it.
        for (name, _) in r.iter() {
            if name != "inval_txns" {
                assert!(
                    NONDETERMINISTIC_METRIC_PREFIXES.iter().any(|p| name.starts_with(p)),
                    "{name} not covered by the exclusion prefixes"
                );
            }
        }
        let j = meta.to_json();
        assert!(j.contains("\"schema_version\":1") && j.contains("\"wall_s\":1.5"));
    }

    #[test]
    fn prometheus_exposition_shapes() {
        let mut r = Registry::new();
        r.counter("net.cycles", 42);
        r.gauge("util", 0.5);
        let mut s = Summary::new();
        s.record(2.0);
        s.record(4.0);
        r.summary("lat", &s);
        let mut h = Histogram::new(10, 5);
        h.record(5);
        h.record(5);
        h.record(25);
        h.record(999); // overflow
        r.histogram("dist", &h);

        let text = to_prometheus(&r, &[("scheme", "MI-MA(tree)")]);
        // Name sanitized, labels applied.
        assert!(text.contains("# TYPE net_cycles counter\n"));
        assert!(text.contains("net_cycles{scheme=\"MI-MA(tree)\"} 42\n"));
        assert!(text.contains("util{scheme=\"MI-MA(tree)\"} 0.5\n"));
        // Summary expands to _count/_sum plus moment gauges.
        assert!(text.contains("lat_count{scheme=\"MI-MA(tree)\"} 2\n"));
        assert!(text.contains("lat_sum{scheme=\"MI-MA(tree)\"} 6\n"));
        assert!(text.contains("lat_mean{scheme=\"MI-MA(tree)\"} 3\n"));
        // Histogram buckets are cumulative with upper-bound edges and a
        // +Inf bucket equal to _count.
        assert!(text.contains("dist_bucket{scheme=\"MI-MA(tree)\",le=\"10\"} 2\n"));
        assert!(text.contains("dist_bucket{scheme=\"MI-MA(tree)\",le=\"30\"} 3\n"));
        assert!(text.contains("dist_bucket{scheme=\"MI-MA(tree)\",le=\"+Inf\"} 4\n"));
        assert!(text.contains("dist_count{scheme=\"MI-MA(tree)\"} 4\n"));
        // Every non-comment line is `name{...} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "malformed sample: {line}");
        }
    }

    #[test]
    fn prometheus_escapes_label_values_and_empty_labels() {
        let mut r = Registry::new();
        r.counter("c", 1);
        let text = to_prometheus(&r, &[("app", "a\"b\\c\nd")]);
        assert!(text.contains("c{app=\"a\\\"b\\\\c\\nd\"} 1\n"));
        let bare = to_prometheus(&r, &[]);
        assert!(bare.contains("\nc 1\n"));
    }

    #[test]
    fn hit_ratio_handles_empty() {
        let m = Metrics::new();
        assert_eq!(m.read_hit_ratio(), 0.0);
        let mut m = Metrics::new();
        m.read_hits = 3;
        m.read_misses = 1;
        assert!((m.read_hit_ratio() - 0.75).abs() < 1e-12);
    }
}
