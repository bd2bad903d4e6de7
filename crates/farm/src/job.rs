//! Job specifications: what one farm experiment runs, canonically
//! serialized so identical configs deduplicate by hash.

use wormdsm_coherence::Addr;
use wormdsm_core::{MemOp, SchemeKind};
use wormdsm_mesh::topology::Mesh2D;
use wormdsm_sim::snap::fnv64;
use wormdsm_sim::{Cycle, Rng};
use wormdsm_workloads::{apps, gen_pattern, PatternKind, Workload};

/// Shared-memory region base for synthetic-pattern jobs, beyond every
/// application region (see `wormdsm_workloads::apps::layout`).
const SYNTH_BASE_BLOCK: u64 = 0x10_0000;

/// Default episode count for synthetic jobs.
const SYNTH_EPISODES: usize = 4;

/// Largest mesh a job may ask for: `NodeId` is a `u16`, the same limit
/// `SystemConfig::validate` enforces.
const MAX_NODES: usize = 1 << 16;

/// Largest synthetic op stream a job may ask for, in ops across all
/// processors — far past any useful job, well short of exhausting memory.
const MAX_SYNTH_OPS: usize = 1 << 26;

/// Complete configuration of one farm job.
///
/// The canonical string form ([`JobSpec::canonical`]) defines identity:
/// two specs with equal canonical strings are the *same experiment* and
/// the farm runs them once ([`JobSpec::config_hash`] is the dedup key).
/// Every field below participates in the hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Invalidation scheme under test.
    pub scheme: SchemeKind,
    /// Workload: `"bh"`, `"lu"`, `"apsp"` (seeded applications) or
    /// `"synth"` (seeded invalidation-pattern episodes).
    pub app: String,
    /// Mesh side (k x k processors).
    pub k: usize,
    /// Partitioned-tick tile count (1 = serial engine).
    pub tiles: usize,
    /// Synthetic pattern kind: `"uniform"`, `"col"`, `"row"`,
    /// `"cluster"`. Ignored (but still hashed) for application jobs.
    pub pattern: String,
    /// Sharers per synthetic episode. Ignored for application jobs.
    pub d: usize,
    /// Invalidation episodes for synthetic jobs — the job-length knob
    /// (each episode is one `d`-sharer invalidation round).
    pub episodes: usize,
    /// Pattern-stream seed for synthetic jobs.
    pub seed: u64,
    /// Compute-phase scale factor for application jobs.
    pub compute_scale: u64,
    /// Completion deadline in cycles.
    pub max_cycles: Cycle,
    /// Attach the latency-attribution profiler (forces flit tracing and
    /// the serial tick; results stay bit-identical).
    pub profile: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            scheme: SchemeKind::UiUa,
            app: "bh".to_string(),
            k: 4,
            tiles: 1,
            pattern: "uniform".to_string(),
            d: 4,
            episodes: SYNTH_EPISODES,
            seed: 1,
            compute_scale: 1,
            max_cycles: 500_000_000,
            profile: false,
        }
    }
}

impl JobSpec {
    /// Canonical identity string. Versioned so a future field addition
    /// re-keys the dedup space instead of silently colliding with
    /// pre-existing hashes.
    pub fn canonical(&self) -> String {
        format!(
            "v1;scheme={};app={};k={};tiles={};pattern={};d={};eps={};seed={};scale={};max={};profile={}",
            self.scheme.name(),
            self.app,
            self.k,
            self.tiles,
            self.pattern,
            self.d,
            self.episodes,
            self.seed,
            self.compute_scale,
            self.max_cycles,
            self.profile
        )
    }

    /// FNV-1a 64 hash of the canonical string — the dedup key.
    pub fn config_hash(&self) -> u64 {
        fnv64(self.canonical().as_bytes())
    }

    /// Validate ranges that would otherwise panic deep inside the
    /// simulator, so bad submissions come back as HTTP 400s.
    pub fn validate(&self) -> Result<(), String> {
        if self.k < 2 {
            return Err(format!("k={} too small (need a 2x2 mesh or larger)", self.k));
        }
        let Some(nodes) = self.k.checked_mul(self.k).filter(|&n| n <= MAX_NODES) else {
            return Err(format!("k={} too large (at most {MAX_NODES} nodes)", self.k));
        };
        if self.tiles < 1 {
            return Err("tiles must be >= 1".to_string());
        }
        if self.max_cycles < 1 {
            return Err("max_cycles must be >= 1".to_string());
        }
        match self.app.as_str() {
            "synth" => {
                let kind = self.pattern_kind()?;
                if self.episodes < 1 {
                    return Err("episodes must be >= 1".to_string());
                }
                // Worst-case candidate pool of `gen_pattern` for this
                // kind (home may consume one slot): enough room for `d`
                // sharers + writer on every episode, no seed-dependent
                // panics deep in the generator.
                let pool = match kind {
                    PatternKind::UniformRandom => nodes,
                    PatternKind::SameColumn | PatternKind::SameRow => self.k,
                    PatternKind::Cluster { radius } => nodes.min((radius + 1) * (radius + 1)),
                };
                if self.d.saturating_add(2) > pool {
                    return Err(format!(
                        "d={} does not fit pattern {:?} on a {k}x{k} mesh (need d+2 <= {pool})",
                        self.d,
                        self.pattern,
                        k = self.k
                    ));
                }
                // Each episode pushes `d` reads, one barrier per
                // processor and one write (see `synth_workload`).
                let ops = self.episodes.checked_mul(nodes + self.d + 1);
                if ops.is_none_or(|n| n > MAX_SYNTH_OPS) {
                    return Err(format!(
                        "{} episodes of {} ops exceed the {MAX_SYNTH_OPS}-op synthetic job limit",
                        self.episodes,
                        nodes + self.d + 1
                    ));
                }
                Ok(())
            }
            app if apps::APP_NAMES.contains(&app) => Ok(()),
            other => Err(format!("unknown app {other:?} (expected one of {:?} or \"synth\")", {
                apps::APP_NAMES
            })),
        }
    }

    fn pattern_kind(&self) -> Result<PatternKind, String> {
        match self.pattern.as_str() {
            "uniform" => Ok(PatternKind::UniformRandom),
            "col" => Ok(PatternKind::SameColumn),
            "row" => Ok(PatternKind::SameRow),
            "cluster" => Ok(PatternKind::Cluster { radius: 1 }),
            other => {
                Err(format!("unknown pattern {other:?} (expected uniform, col, row, or cluster)"))
            }
        }
    }

    /// Build the deterministic op-stream workload this spec describes.
    pub fn workload(&self) -> Result<Workload, String> {
        self.validate()?;
        if self.app == "synth" {
            return Ok(self.synth_workload());
        }
        apps::seeded(&self.app, self.k * self.k, self.compute_scale)
    }

    /// Synthetic job: [`SYNTH_EPISODES`] seeded invalidation episodes.
    /// Each episode has the pattern's sharers read a fresh block, every
    /// processor synchronize at a barrier, then the pattern's writer
    /// write the block — producing exactly one `d`-sharer invalidation
    /// per episode, at blocks disjoint from every application region.
    fn synth_workload(&self) -> Workload {
        let kind = self.pattern_kind().expect("validated above");
        let procs = self.k * self.k;
        let mesh = Mesh2D::square(self.k);
        let mut rng = Rng::new(self.seed);
        let mut w = Workload::new(procs);
        for ep in 0..self.episodes {
            let p = gen_pattern(&mesh, kind, self.d, &mut rng);
            let addr = Addr((SYNTH_BASE_BLOCK + ep as u64) * 32);
            for &s in &p.sharers {
                w.push(s.0 as usize, MemOp::Read(addr));
            }
            for proc in 0..procs {
                w.push(proc, MemOp::Barrier { id: ep as u16, participants: procs as u32 });
            }
            w.push(p.writer.0 as usize, MemOp::Write(addr));
        }
        w
    }

    /// Parse an `application/x-www-form-urlencoded` query string
    /// (`scheme=MI-MA(col)&app=lu&k=4`), the submission format of both
    /// `POST /jobs` bodies and `GET /submit` queries. Unknown keys are
    /// rejected — a typo'd key silently falling back to a default would
    /// run the wrong experiment under a fresh hash.
    pub fn parse_query(query: &str) -> Result<JobSpec, String> {
        let mut spec = JobSpec::default();
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').ok_or_else(|| format!("malformed pair {pair:?}"))?;
            let v = percent_decode(v)?;
            match k {
                "scheme" => {
                    spec.scheme =
                        SchemeKind::parse(&v).ok_or_else(|| format!("unknown scheme {v:?}"))?;
                }
                "app" => spec.app = v,
                "k" => spec.k = parse_num(k, &v)?,
                "tiles" => spec.tiles = parse_num(k, &v)?,
                "pattern" => spec.pattern = v,
                "d" => spec.d = parse_num(k, &v)?,
                "episodes" => spec.episodes = parse_num(k, &v)?,
                "seed" => spec.seed = parse_num(k, &v)?,
                "compute_scale" => spec.compute_scale = parse_num(k, &v)?,
                "max_cycles" => spec.max_cycles = parse_num(k, &v)?,
                "profile" => {
                    spec.profile = v.parse().map_err(|_| format!("profile={v:?} not a bool"))?;
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Render as a JSON object (embedded in `/jobs` rows).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scheme\":\"{}\",\"app\":\"{}\",\"k\":{},\"tiles\":{},\"pattern\":\"{}\",\
             \"d\":{},\"episodes\":{},\"seed\":{},\"compute_scale\":{},\"max_cycles\":{},\
             \"profile\":{}}}",
            self.scheme.name(),
            self.app,
            self.k,
            self.tiles,
            self.pattern,
            self.d,
            self.episodes,
            self.seed,
            self.compute_scale,
            self.max_cycles,
            self.profile
        )
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{key}={v:?} is not a valid number"))
}

/// Decode `%XX` escapes and `+` (space) in a query-string component.
pub fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated %-escape in {s:?}"))?;
                let hv = u8::from_str_radix(
                    std::str::from_utf8(hex).map_err(|_| format!("bad %-escape in {s:?}"))?,
                    16,
                )
                .map_err(|_| format!("bad %-escape in {s:?}"))?;
                out.push(hv);
                i += 2;
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8(out).map_err(|_| format!("query component {s:?} is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_round_trips_through_query_parse() {
        let spec = JobSpec {
            scheme: SchemeKind::MiMaTree,
            app: "synth".into(),
            k: 8,
            tiles: 2,
            pattern: "col".into(),
            d: 6,
            episodes: 5,
            seed: 42,
            compute_scale: 3,
            max_cycles: 1_000_000,
            profile: true,
        };
        let q = "scheme=MI-MA%28tree%29&app=synth&k=8&tiles=2&pattern=col&d=6&episodes=5&seed=42\
                 &compute_scale=3&max_cycles=1000000&profile=true";
        let parsed = JobSpec::parse_query(q).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.config_hash(), spec.config_hash());
    }

    #[test]
    fn every_field_perturbs_the_hash() {
        let base = JobSpec::default();
        let variants = [
            JobSpec { scheme: SchemeKind::Dpm, ..base.clone() },
            JobSpec { app: "lu".into(), ..base.clone() },
            JobSpec { k: 8, ..base.clone() },
            JobSpec { tiles: 4, ..base.clone() },
            JobSpec { pattern: "row".into(), ..base.clone() },
            JobSpec { d: 5, ..base.clone() },
            JobSpec { episodes: 9, ..base.clone() },
            JobSpec { seed: 2, ..base.clone() },
            JobSpec { compute_scale: 2, ..base.clone() },
            JobSpec { max_cycles: 7, ..base.clone() },
            JobSpec { profile: true, ..base.clone() },
        ];
        let h0 = base.config_hash();
        for v in &variants {
            assert_ne!(v.config_hash(), h0, "field change invisible to hash: {v:?}");
        }
    }

    #[test]
    fn rejects_bad_submissions() {
        assert!(JobSpec::parse_query("scheme=BOGUS").is_err());
        assert!(JobSpec::parse_query("app=quake").is_err());
        assert!(JobSpec::parse_query("k=1").is_err());
        assert!(JobSpec::parse_query("nope=1").is_err());
        assert!(JobSpec::parse_query("k=abc").is_err());
        assert!(JobSpec::parse_query("app=synth&pattern=zigzag").is_err());
        assert!(JobSpec::parse_query("app=synth&k=2&d=9").is_err(), "d+2 > k*k");
        assert!(JobSpec::parse_query("app=synth&pattern=col&d=3").is_err(), "column pool is k");
        assert!(JobSpec::parse_query("app=synth&pattern=cluster&d=4").is_err(), "corner cluster");
        assert!(JobSpec::parse_query("app=synth&episodes=0").is_err());
        assert!(JobSpec::parse_query("seed=%zz").is_err(), "bad escape");
    }

    #[test]
    fn synth_workload_is_seed_deterministic() {
        let spec = JobSpec { app: "synth".into(), seed: 9, ..JobSpec::default() };
        let a = spec.workload().unwrap();
        let b = spec.workload().unwrap();
        assert_eq!(a.total_ops(), b.total_ops());
        assert_eq!(a.mem_ops(), b.mem_ops());
        // One write + d reads per episode.
        assert_eq!(a.mem_ops(), spec.episodes * (spec.d + 1));
        let other = JobSpec { seed: 10, ..spec }.workload().unwrap();
        assert_eq!(other.mem_ops(), a.mem_ops(), "size is seed-independent");
    }
}
