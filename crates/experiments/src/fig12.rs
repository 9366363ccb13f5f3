//! `fig12`: sharded-manager admission scaling (the paper's §4.4 claim
//! that scheduling overhead stays flat at datacenter scale).
//!
//! Sweeps the same synthetic arrival stream over the cluster carved into
//! 1, 2, 4, and 8 cells ([`quasar_core::run_sharded`]) and reports jobs
//! placed per second per shard count, next to how many plan computations
//! each placement cost (queued jobs are re-planned every tick until they
//! fit, so `decisions` grows with the backlog while useful work does
//! not). On the uncontended cluster the sweep uses, *what* gets placed
//! is invariant across shard counts — the placement digest in each row
//! must match — so the sweep isolates admission cost from placement
//! quality.
//!
//! Wall-clock columns (`wall`, `placed/s`) print `-` under
//! [`mask_live_timings`], so the report is byte-identical across
//! `--threads` values.

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
    /// Jobs placed per live second (the figure's y-axis).
    pub fn placed_per_sec(&self) -> f64 {
        if self.wall_us > 0.0 {
            self.outcome.placed as f64 / (self.wall_us / 1e6)
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

/// Runs fig12 serially (equivalent to `run_with(scale, 1)`).
pub fn run(scale: Scale) -> Fig12Result {
    run_with(scale, 1)
}

/// Runs the fig12 sweep over shard counts 1/2/4/8, fanning each
/// sweep's cells out over up to `threads` workers.
pub fn run_with(scale: Scale, threads: usize) -> Fig12Result {
    let (jobs, per_platform, duration_s) = sizing(scale);
    let spec = ClusterSpec::uniform(PlatformCatalog::local(), per_platform);
    let history = local_history();
    let sweeps = [1, 2, 4, 8]
        .into_iter()
        .map(|shards| {
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
        .collect();
    Fig12Result {
        scale,
        jobs,
        sweeps,
    }
}

impl fmt::Display for Fig12Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let masked = mask_live_timings();
        let live = |v: String| if masked { "-".to_string() } else { v };
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
            "decisions/placed",
            "wall (s)",
            "placed/s",
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
                // Plan computations per placed job, retries included: a
                // pure function of the seeds, unlike the two live columns.
                format!(
                    "{:.1}",
                    s.outcome.decisions as f64 / s.outcome.placed.max(1) as f64
                ),
                live(format!("{:.2}", s.wall_us / 1e6)),
                live(format!("{:.0}", s.placed_per_sec())),
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
        let sweeps = run_with(Scale::Quick, 2).sweeps;
        assert_eq!(sweeps.len(), 4, "one sweep per shard count 1/2/4/8");
        let one = &sweeps[0];
        assert_eq!(one.outcome.placed as usize, one.outcome.jobs, "all placed");
        for s in &sweeps[1..] {
            assert_eq!(one.outcome.jobs, s.outcome.jobs);
            assert_eq!(
                one.outcome.placed, s.outcome.placed,
                "uncontended capacity must admit the same set at {} shards",
                s.shards
            );
            assert_eq!(one.outcome.digest, s.outcome.digest, "{} shards", s.shards);
        }
    }
}
