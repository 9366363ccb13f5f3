//! `fig12`: sharded-manager admission scaling (the paper's §4.4 claim
//! that scheduling overhead stays flat at datacenter scale).
//!
//! Sweeps the same synthetic arrival stream over the cluster carved into
//! 1, 2, 4, and 8 cells ([`quasar_core::run_sharded`]) and reports
//! placement decisions per second per shard count. On the uncontended
//! cluster the sweep uses, *what* gets placed is invariant across shard
//! counts — the placement digest in each row must match — so the sweep
//! isolates decision throughput from placement quality.
//!
//! Determinism knobs for the CI smokes:
//!
//! * Wall-clock columns (`wall`, `decisions/s`) print `-` under
//!   [`mask_live_timings`], so the report is byte-identical across
//!   `--threads` values.
//! * `QUASAR_SHARDS=N` pins the sweep to one shard count and prints a
//!   reduced outcome block with the shard count on *stderr* — masked
//!   stdout is then byte-identical across shard counts 1 and 4 (only
//!   shard-invariant fields are printed), which the CI smoke `cmp`s.
//! * `QUASAR_SHARDS_OUT` names where the JSON artifact goes. Without
//!   it only a `--full` run writes one (`BENCH_shards.json` in the
//!   working directory), so a quick run from the repo root cannot
//!   replace the committed full-scale record. The write is best-effort
//!   (a read-only working directory downgrades it to a skipped
//!   artifact, never a failed experiment).

use std::fmt;
use std::time::Instant;

use quasar_cluster::ClusterSpec;
use quasar_core::{run_sharded, ShardedConfig, ShardedOutcome};
use quasar_workloads::generate::Generator;
use quasar_workloads::{PlatformCatalog, Priority, Workload};

use crate::report::{mask_live_timings, TextTable};
use crate::{local_history, Scale};

/// One shard count's measurement.
#[derive(Debug, Clone, Copy)]
pub struct ShardSweep {
    /// Cells the cluster was carved into.
    pub shards: usize,
    /// Servers owned by each cell (floor; remainders go to low cell ids).
    pub servers_per_cell: usize,
    /// The driver's outcome (placed, decisions, digest, ...).
    pub outcome: ShardedOutcome,
    /// Live wall-clock time of the sweep, µs.
    pub wall_us: f64,
}

impl ShardSweep {
    /// Placement decisions per live second (the figure's y-axis).
    pub fn decisions_per_sec(&self) -> f64 {
        if self.wall_us > 0.0 {
            self.outcome.decisions as f64 / (self.wall_us / 1e6)
        } else {
            0.0
        }
    }
}

/// The fig12 result set.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Jobs admitted per sweep.
    pub jobs: usize,
    /// One entry per shard count.
    pub sweeps: Vec<ShardSweep>,
    /// Whether `QUASAR_SHARDS` pinned the sweep to one shard count (the
    /// reduced, shard-count-free outcome block is printed instead).
    pub pinned: bool,
}

/// Sweep sizing per scale: `(jobs, servers per platform, job seconds)`.
fn sizing(scale: Scale) -> (usize, usize, f64) {
    match scale {
        Scale::Quick => (2_000, 4, 120.0),
        Scale::Full => (150_000, 16, 180.0),
    }
}

fn sweep_jobs(n: usize, duration_s: f64) -> Vec<Workload> {
    let mut generator = Generator::new(PlatformCatalog::local(), 0xF162);
    (0..n)
        .map(|i| generator.single_node_job(format!("s{i}"), duration_s, Priority::Guaranteed))
        .collect()
}

/// Runs the sweep for an explicit list of shard counts, without touching
/// the environment or the filesystem.
pub fn sweep_with(scale: Scale, threads: usize, shard_counts: &[usize]) -> Vec<ShardSweep> {
    let (jobs, per_platform, duration_s) = sizing(scale);
    let spec = ClusterSpec::uniform(PlatformCatalog::local(), per_platform);
    let history = local_history();
    shard_counts
        .iter()
        .map(|&shards| {
            let config = ShardedConfig {
                shards,
                threads,
                max_rounds: 20_000,
                ..ShardedConfig::default()
            };
            let started = Instant::now();
            let outcome = run_sharded(&spec, history, sweep_jobs(jobs, duration_s), &config);
            ShardSweep {
                shards,
                servers_per_cell: spec.total_servers() / shards,
                outcome,
                wall_us: started.elapsed().as_secs_f64() * 1e6,
            }
        })
        .collect()
}

/// Runs fig12 serially (equivalent to `run_with(scale, 1)`).
pub fn run(scale: Scale) -> Fig12Result {
    run_with(scale, 1)
}

/// Runs the fig12 sweep: shard counts 1/2/4/8 (or the single count
/// pinned by `QUASAR_SHARDS`), fanning each sweep's cells out over up to
/// `threads` workers. Writes the JSON artifact best-effort to
/// `QUASAR_SHARDS_OUT`, or at full scale to `BENCH_shards.json`.
pub fn run_with(scale: Scale, threads: usize) -> Fig12Result {
    let pinned = std::env::var("QUASAR_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1);
    let shard_counts: Vec<usize> = match pinned {
        Some(n) => {
            // The count must stay off stdout in pinned mode — the CI
            // smoke cmp's stdout across QUASAR_SHARDS=1 and =4.
            eprintln!("[fig12 pinned to {n} shard(s)]");
            vec![n]
        }
        None => vec![1, 2, 4, 8],
    };
    let sweeps = sweep_with(scale, threads, &shard_counts);
    let result = Fig12Result {
        scale,
        jobs: sizing(scale).0,
        sweeps,
        pinned: pinned.is_some(),
    };
    let path = std::env::var_os("QUASAR_SHARDS_OUT")
        .or_else(|| (scale == Scale::Full).then(|| "BENCH_shards.json".into()));
    if let Some(path) = path {
        // Best-effort artifact: the report on stdout is the experiment.
        let _ = std::fs::write(path, result.to_json());
    }
    result
}

impl Fig12Result {
    /// Renders the sweep as one JSON object (`quasar.bench_shards.v1`
    /// schema). Wall-clock fields are real values here even when the
    /// stdout report is masked: the JSON artifact is the perf record,
    /// the stdout report is the determinism surface.
    pub fn to_json(&self) -> String {
        let scale = match self.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        let mut out = format!(
            "{{\"schema\":\"quasar.bench_shards.v1\",\"scale\":\"{scale}\",\"jobs\":{},\"sweeps\":[",
            self.jobs
        );
        for (i, s) in self.sweeps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"shards\":{},\"servers_per_cell\":{},\"placed\":{},\"decisions\":{},\
                 \"wall_us\":{},\"decisions_per_sec\":{},\"max_queue_depth\":{},\"rebalanced\":{}}}",
                s.shards,
                s.servers_per_cell,
                s.outcome.placed,
                s.outcome.decisions,
                quasar_obs::json::number(s.wall_us.round()),
                quasar_obs::json::number((s.decisions_per_sec() * 1e3).round() / 1e3),
                s.outcome.max_queue_depth,
                s.outcome.rebalanced,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

impl fmt::Display for Fig12Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let masked = mask_live_timings();
        let live = |v: String| if masked { "-".to_string() } else { v };
        if self.pinned {
            // Reduced block: only shard-count-invariant fields (plus
            // masked live rates), so stdout cmp's clean across counts.
            let mut t =
                TextTable::new("fig12: sharded admission (pinned)").header(["metric", "value"]);
            let s = &self.sweeps[0];
            t.row(["jobs".to_string(), self.jobs.to_string()]);
            t.row(["placed".to_string(), s.outcome.placed.to_string()]);
            t.row([
                "placement digest".to_string(),
                format!("{:016x}", s.outcome.digest),
            ]);
            t.row([
                "decisions/s".to_string(),
                live(format!("{:.0}", s.decisions_per_sec())),
            ]);
            return write!(f, "{}", t.render());
        }
        let mut t = TextTable::new(format!(
            "fig12: sharded admission scaling ({:?}, {} jobs)",
            self.scale, self.jobs
        ))
        .header([
            "shards",
            "servers/cell",
            "placed",
            "decisions",
            "rounds",
            "max queue",
            "rebalanced",
            "qos eps",
            "digest",
            "wall (s)",
            "decisions/s",
        ]);
        for s in &self.sweeps {
            t.row([
                s.shards.to_string(),
                s.servers_per_cell.to_string(),
                s.outcome.placed.to_string(),
                s.outcome.decisions.to_string(),
                s.outcome.rounds.to_string(),
                s.outcome.max_queue_depth.to_string(),
                s.outcome.rebalanced.to_string(),
                s.outcome.qos_episodes.to_string(),
                format!("{:016x}", s.outcome.digest),
                live(format!("{:.2}", s.wall_us / 1e6)),
                live(format!("{:.0}", s.decisions_per_sec())),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_outcome_is_shard_count_invariant() {
        let sweeps = sweep_with(Scale::Quick, 2, &[1, 4]);
        assert_eq!(sweeps.len(), 2);
        let (one, four) = (&sweeps[0], &sweeps[1]);
        assert_eq!(one.outcome.jobs, four.outcome.jobs);
        assert_eq!(
            one.outcome.placed, four.outcome.placed,
            "uncontended capacity must admit the same set"
        );
        assert_eq!(one.outcome.digest, four.outcome.digest);
        assert_eq!(one.outcome.placed as usize, one.outcome.jobs, "all placed");
        // The JSON artifact is well-formed and carries every sweep.
        let result = Fig12Result {
            scale: Scale::Quick,
            jobs: one.outcome.jobs,
            sweeps: sweeps.clone(),
            pinned: false,
        };
        let json = result.to_json();
        quasar_obs::json::validate(&json)
            .unwrap_or_else(|at| panic!("invalid shards JSON at byte {at}: {json}"));
        assert!(json.contains("\"schema\":\"quasar.bench_shards.v1\""));
        assert!(json.contains("\"shards\":4"));
    }
}
