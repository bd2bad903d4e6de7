//! Statistics collection: counters, running summaries, histograms, and
//! time-weighted averages (for occupancy / queue-length style metrics).

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::Cycle;

/// A simple monotonically increasing event counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.count += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.count
    }
}

/// Running univariate summary (count / mean / min / max / variance) using
/// Welford's numerically stable online algorithm.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// New empty summary.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record an integer observation (convenience for cycle counts).
    pub fn record_u64(&mut self, x: u64) {
        self.record(x as f64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation; 0 if fewer than 2 observations.
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Minimum observation; 0 if empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation; 0 if empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another summary into this one (parallel sweeps).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Snap for Counter {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.count);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { count: r.get_u64()? })
    }
}

impl Snap for Summary {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.n);
        // Bit patterns, not values: Welford state must restore exactly
        // (±∞ sentinels of an empty summary included) so post-restore
        // records continue the identical numeric trajectory.
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_f64(self.min);
        w.put_f64(self.max);
        w.put_f64(self.sum);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            n: r.get_u64()?,
            mean: r.get_f64()?,
            m2: r.get_f64()?,
            min: r.get_f64()?,
            max: r.get_f64()?,
            sum: r.get_f64()?,
        })
    }
}

/// Fixed-bucket histogram over `u64` values with an overflow bucket.
///
/// Bucket `i` counts values in `[i * width, (i+1) * width)`; values at or
/// beyond `buckets * width` land in the overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    width: u64,
    counts: Vec<u64>,
    overflow: u64,
    summary: Summary,
}

impl Histogram {
    /// Histogram with `buckets` buckets of `width` each.
    pub fn new(width: u64, buckets: usize) -> Self {
        assert!(width > 0 && buckets > 0);
        Self { width, counts: vec![0; buckets], overflow: 0, summary: Summary::new() }
    }

    /// Record an observation.
    pub fn record(&mut self, x: u64) {
        let b = (x / self.width) as usize;
        if b < self.counts.len() {
            self.counts[b] += 1;
        } else {
            self.overflow += 1;
        }
        self.summary.record(x as f64);
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of regular buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Bucket width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Count of values beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Underlying summary statistics.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Value below which `q` (0..=1) of observations fall, estimated from
    /// bucket midpoints. Returns 0 for an empty histogram.
    ///
    /// A quantile landing in the overflow bucket reports the observed
    /// maximum ([`Summary::max`]): the overflow bucket is unbounded above,
    /// so its lower edge could understate the true value arbitrarily.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Cover at least one observation: a raw target of 0 (q = 0.0)
        // would otherwise satisfy `acc >= target` on the first bucket
        // even when that bucket is empty.
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return i as u64 * self.width + self.width / 2;
            }
        }
        self.summary.max() as u64
    }
}

impl Snap for Histogram {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.width);
        self.counts.save(w);
        w.put_u64(self.overflow);
        self.summary.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let width = r.get_u64()?;
        let counts = Vec::load(r)?;
        if width == 0 || counts.is_empty() {
            return Err(SnapError::Corrupt("histogram with no buckets".to_string()));
        }
        Ok(Self { width, counts, overflow: r.get_u64()?, summary: Summary::load(r)? })
    }
}

/// Time-weighted value tracker: integrates `value x time` so that
/// `average()` is the time average — used for home-node occupancy, queue
/// lengths, and link utilization.
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    value: f64,
    last_change: Cycle,
    integral: f64,
    start: Cycle,
    max: f64,
}

impl TimeWeighted {
    /// Start tracking at time 0 with value 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the tracked value at time `now`.
    pub fn set(&mut self, now: Cycle, value: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        self.integral += self.value * (now - self.last_change) as f64;
        self.last_change = now;
        self.value = value;
        self.max = self.max.max(value);
    }

    /// Adjust the tracked value by `delta` at time `now`.
    pub fn add(&mut self, now: Cycle, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Current instantaneous value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Maximum value seen so far.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time average over `[start, now]`. Returns 0 over an empty interval.
    pub fn average(&self, now: Cycle) -> f64 {
        let span = now.saturating_sub(self.start);
        if span == 0 {
            return 0.0;
        }
        let integral = self.integral + self.value * (now - self.last_change) as f64;
        integral / span as f64
    }
}

impl Snap for TimeWeighted {
    fn save(&self, w: &mut SnapWriter) {
        w.put_f64(self.value);
        w.put_u64(self.last_change);
        w.put_f64(self.integral);
        w.put_u64(self.start);
        w.put_f64(self.max);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            value: r.get_f64()?,
            last_change: r.get_u64()?,
            integral: r.get_f64()?,
            start: r.get_u64()?,
            max: r.get_f64()?,
        })
    }
}

/// Busy-time accumulator: tracks the total cycles a resource was busy, for
/// utilization and occupancy metrics where the resource is either busy or
/// idle (e.g. the directory controller).
#[derive(Debug, Clone, Default)]
pub struct BusyTime {
    total_busy: u64,
    busy_until: Cycle,
}

impl BusyTime {
    /// New accumulator (idle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupy the resource for `dur` cycles starting no earlier than `now`;
    /// if the resource is still busy, the work queues behind it.
    /// Returns the cycle at which this work completes.
    pub fn occupy(&mut self, now: Cycle, dur: Cycle) -> Cycle {
        let start = self.busy_until.max(now);
        self.busy_until = start + dur;
        self.total_busy += dur;
        self.busy_until
    }

    /// Earliest cycle at which the resource is free.
    pub fn free_at(&self) -> Cycle {
        self.busy_until
    }

    /// Total busy cycles accumulated.
    pub fn total(&self) -> u64 {
        self.total_busy
    }

    /// Utilization over `[0, now]`.
    pub fn utilization(&self, now: Cycle) -> f64 {
        if now == 0 {
            0.0
        } else {
            self.total_busy as f64 / now as f64
        }
    }
}

impl Snap for BusyTime {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.total_busy);
        w.put_u64(self.busy_until);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { total_busy: r.get_u64()?, busy_until: r.get_u64()? })
    }
}

/// One exported metric value — a snapshot, detached from the live tracker.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Integer counter or gauge.
    Counter(u64),
    /// Floating-point gauge (means, utilizations, ratios).
    Gauge(f64),
    /// Snapshot of a [`Summary`].
    Summary {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Arithmetic mean.
        mean: f64,
        /// Minimum observation (0 when empty).
        min: f64,
        /// Maximum observation (0 when empty).
        max: f64,
        /// Population standard deviation.
        stddev: f64,
    },
    /// Snapshot of a [`Histogram`]: the non-empty buckets plus quantiles.
    Histogram {
        /// Bucket width.
        width: u64,
        /// `(lower_edge, count)` for each non-empty regular bucket.
        buckets: Vec<(u64, u64)>,
        /// Count of values beyond the last bucket.
        overflow: u64,
        /// Estimated median.
        p50: u64,
        /// Estimated 90th percentile.
        p90: u64,
        /// Estimated 99th percentile.
        p99: u64,
        /// Exact maximum observation.
        max: u64,
    },
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Metric {
    /// The integer value, if this is a [`Metric::Counter`].
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            Metric::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Render this metric as a JSON value.
    pub fn to_json(&self) -> String {
        match self {
            Metric::Counter(v) => format!("{v}"),
            Metric::Gauge(v) => json_f64(*v),
            Metric::Summary { count, sum, mean, min, max, stddev } => format!(
                "{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"max\":{},\"stddev\":{}}}",
                count,
                json_f64(*sum),
                json_f64(*mean),
                json_f64(*min),
                json_f64(*max),
                json_f64(*stddev)
            ),
            Metric::Histogram { width, buckets, overflow, p50, p90, p99, max } => {
                let mut s = format!("{{\"width\":{width},\"buckets\":[");
                for (i, (lo, c)) in buckets.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("[{lo},{c}]"));
                }
                s.push_str(&format!(
                    "],\"overflow\":{overflow},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"max\":{max}}}"
                ));
                s
            }
        }
    }
}

/// Ordered name → [`Metric`] registry, exported per-run into the
/// `BENCH_*.json` files and printable from `exp_hotloop --trace`.
///
/// Insertion order is preserved (deterministic output); re-registering a
/// name overwrites its value in place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<(String, Metric)>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register or overwrite a metric under `name`.
    pub fn set(&mut self, name: &str, value: Metric) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.entries.push((name.to_string(), value)),
        }
    }

    /// Register an integer counter/gauge.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.set(name, Metric::Counter(v));
    }

    /// Register a floating-point gauge.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.set(name, Metric::Gauge(v));
    }

    /// Register a snapshot of `s`.
    pub fn summary(&mut self, name: &str, s: &Summary) {
        self.set(
            name,
            Metric::Summary {
                count: s.count(),
                sum: s.sum(),
                mean: s.mean(),
                min: s.min(),
                max: s.max(),
                stddev: s.stddev(),
            },
        );
    }

    /// Register a snapshot of `h` (non-empty buckets + quantiles).
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        let buckets = h
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64 * h.width, c))
            .collect();
        self.set(
            name,
            Metric::Histogram {
                width: h.width(),
                buckets,
                overflow: h.overflow(),
                p50: h.quantile(0.5),
                p90: h.quantile(0.9),
                p99: h.quantile(0.99),
                max: h.summary().max() as u64,
            },
        );
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Iterate `(name, metric)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge another registry's entries into this one, prefixing each
    /// name with `prefix` (e.g. `"net."`).
    pub fn absorb(&mut self, prefix: &str, other: &Registry) {
        for (name, v) in other.iter() {
            self.set(&format!("{prefix}{name}"), v.clone());
        }
    }

    /// Render the registry as a single JSON object keyed by metric name.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, v)) in self.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{name}\":{}", v.to_json()));
        }
        s.push('}');
        s
    }

    /// Human-readable `name = value` lines, in insertion order.
    pub fn lines(&self) -> Vec<String> {
        self.iter().map(|(name, v)| format!("{name} = {}", v.to_json())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_mean_min_max_stddev() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10, 5);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(50); // overflow
        h.record(1000); // overflow
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(4), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 6);
    }

    /// q = 0.0 must report the bucket of the *smallest observation*, not
    /// the (possibly empty) first bucket. Regression: the old target of
    /// `ceil(0.0 * n) = 0` satisfied `acc >= target` immediately.
    #[test]
    fn histogram_quantile_zero_skips_empty_leading_buckets() {
        let mut h = Histogram::new(10, 10);
        h.record(55);
        h.record(72);
        assert_eq!(h.quantile(0.0), 55, "min lives in bucket [50,60) -> midpoint 55");
        assert_eq!(h.quantile(1.0), 75);
    }

    /// Quantiles landing in the overflow bucket must report the observed
    /// maximum, not the overflow bucket's lower edge. Regression: with
    /// every value in overflow, the old code returned `buckets * width`
    /// (50 here) while the true values were 20x larger.
    #[test]
    fn histogram_quantile_all_overflow_reports_true_max() {
        let mut h = Histogram::new(10, 5);
        for x in [900, 950, 1000] {
            h.record(x);
        }
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.quantile(0.0), 1000);
        assert_eq!(h.quantile(0.5), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(1.0), h.summary().max() as u64, "consistent with summary");
    }

    /// Mixed case: p50 resolves in a regular bucket, p99 in overflow; the
    /// overflow report must never be below the last regular midpoint.
    #[test]
    fn histogram_quantile_overflow_tail_is_monotone() {
        let mut h = Histogram::new(10, 5);
        for x in 0..49 {
            h.record(x);
        }
        h.record(777); // single overflow outlier
        assert!(h.quantile(0.5) < 50);
        assert_eq!(h.quantile(1.0), 777);
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert!(h.quantile(0.99) <= h.quantile(1.0));
    }

    #[test]
    fn histogram_quantile_empty_is_zero() {
        let h = Histogram::new(10, 5);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn registry_preserves_order_overwrites_and_renders_json() {
        let mut r = Registry::new();
        r.counter("cycles", 100);
        r.gauge("util", 0.25);
        let mut s = Summary::new();
        s.record(2.0);
        s.record(4.0);
        r.summary("lat", &s);
        let mut h = Histogram::new(10, 5);
        h.record(5);
        h.record(999);
        r.histogram("dist", &h);
        r.counter("cycles", 200); // overwrite keeps position
        assert_eq!(r.len(), 4);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["cycles", "util", "lat", "dist"]);
        assert_eq!(r.get("cycles"), Some(&Metric::Counter(200)));
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"cycles\":200"));
        assert!(j.contains("\"count\":2"));
        assert!(j.contains("\"buckets\":[[0,1]]"));
        assert!(j.contains("\"overflow\":1"));
        assert!(j.contains("\"max\":999"));
        let mut top = Registry::new();
        top.absorb("net.", &r);
        assert!(top.get("net.cycles").is_some());
        assert_eq!(top.lines()[0], "net.cycles = 200");
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new(1, 100);
        for x in 0..100 {
            h.record(x);
        }
        let q50 = h.quantile(0.5);
        let q90 = h.quantile(0.9);
        assert!(q50 <= q90);
        assert!((45..=55).contains(&q50), "median {q50}");
        assert!((85..=95).contains(&q90), "p90 {q90}");
    }

    #[test]
    fn time_weighted_average() {
        let mut t = TimeWeighted::new();
        t.set(0, 0.0);
        t.set(10, 2.0); // value 0 for [0,10)
        t.set(30, 4.0); // value 2 for [10,30)
                        // value 4 for [30,40)
        let avg = t.average(40);
        // (0*10 + 2*20 + 4*10) / 40 = 80/40 = 2
        assert!((avg - 2.0).abs() < 1e-12);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.current(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut t = TimeWeighted::new();
        t.add(0, 1.0);
        t.add(10, 1.0);
        t.add(20, -2.0);
        // 1 for [0,10), 2 for [10,20), 0 after
        assert!((t.average(20) - 1.5).abs() < 1e-12);
        assert_eq!(t.current(), 0.0);
    }

    #[test]
    fn busy_time_queues_work() {
        let mut b = BusyTime::new();
        let done1 = b.occupy(100, 10);
        assert_eq!(done1, 110);
        // Arrives while busy: queues behind.
        let done2 = b.occupy(105, 10);
        assert_eq!(done2, 120);
        // Arrives after idle period.
        let done3 = b.occupy(200, 5);
        assert_eq!(done3, 205);
        assert_eq!(b.total(), 25);
        assert!((b.utilization(250) - 0.1).abs() < 1e-12);
    }
}
