//! Figure 5 / Table 3: single batch jobs — execution-time reduction when
//! Quasar allocates instead of the Hadoop scheduler, plus the parameter
//! settings chosen for job H8.

use std::fmt;

use quasar_baselines::{AllocationPolicy, AssignmentPolicy, BaselineManager, UserErrorModel};
use quasar_cluster::{ClusterSpec, JobState, SimConfig, Simulation};
use quasar_core::par::par_map;
use quasar_core::{QuasarConfig, QuasarManager};
use quasar_workloads::generate::Generator;
use quasar_workloads::{FrameworkParams, PlatformCatalog, QosTarget, Workload};

use crate::report::{mean, write_csv, TextTable};
use crate::{local_history, Scale};

/// Result of running one job under one manager.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// End-to-end execution time (including manager overheads).
    pub execution_s: f64,
    /// The framework parameters in force when the job ran.
    pub params: FrameworkParams,
    /// Number of nodes at the initial placement.
    pub nodes: usize,
}

/// One Figure 5 bar.
#[derive(Debug, Clone)]
pub struct Fig5Job {
    /// Job name (H1..H10).
    pub name: String,
    /// The submitted completion-time target (the parameter-sweep best).
    pub target_s: f64,
    /// Run under the Hadoop self-scheduler + least-loaded baseline.
    pub hadoop: JobRun,
    /// Run under Quasar.
    pub quasar: JobRun,
}

impl Fig5Job {
    /// Execution-time reduction (%) from Quasar, the Fig. 5 bar height.
    pub fn speedup_pct(&self) -> f64 {
        (self.hadoop.execution_s - self.quasar.execution_s) / self.hadoop.execution_s * 100.0
    }

    /// The yellow dot: reduction needed to exactly meet the target.
    pub fn target_speedup_pct(&self) -> f64 {
        (self.hadoop.execution_s - self.target_s) / self.hadoop.execution_s * 100.0
    }

    /// Quasar's relative distance above the target (0 = met exactly).
    pub fn quasar_target_gap(&self) -> f64 {
        (self.quasar.execution_s - self.target_s).max(0.0) / self.target_s
    }
}

/// The Figure 5 + Table 3 dataset.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// One entry per Hadoop job.
    pub jobs: Vec<Fig5Job>,
}

impl Fig5Result {
    /// Mean speedup across jobs (the paper reports 29% average, up to 58%).
    pub fn mean_speedup_pct(&self) -> f64 {
        mean(
            &self
                .jobs
                .iter()
                .map(Fig5Job::speedup_pct)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean distance of Quasar runs above their targets (paper: 5.8%).
    pub fn mean_target_gap(&self) -> f64 {
        mean(
            &self
                .jobs
                .iter()
                .map(Fig5Job::quasar_target_gap)
                .collect::<Vec<_>>(),
        )
    }

    /// The Table 3 comparison for H8 (or the last job when fewer than
    /// eight ran, at quick scale): (Quasar params, Hadoop params).
    pub fn table3(&self) -> Option<(&FrameworkParams, &FrameworkParams)> {
        self.jobs
            .get(7)
            .or_else(|| self.jobs.last())
            .map(|j| (&j.quasar.params, &j.hadoop.params))
    }
}

/// Runs one job alone on a fresh 40-server cluster under `manager`,
/// returning its run record.
fn run_single(job: Workload, manager: Box<dyn quasar_cluster::Manager>) -> JobRun {
    let catalog = PlatformCatalog::local();
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog, 4),
        manager,
        SimConfig::default(),
    );
    let id = job.id();
    let QosTarget::CompletionTime { seconds: target } = job.spec().target else {
        panic!("fig5 jobs have completion targets");
    };
    sim.submit_at(job, 0.0);

    // Step in coarse increments, capturing the placement parameters once.
    let mut params = FrameworkParams::default();
    let mut nodes = 0usize;
    let mut t = 0.0;
    let horizon = target * 6.0;
    while t < horizon {
        t += 120.0;
        sim.run_until(t);
        if nodes == 0 {
            if let Some(p) = sim.world().placement(id) {
                params = p.params;
                nodes = p.node_count();
            }
        }
        if sim.world().state(id) == JobState::Completed {
            break;
        }
    }
    let execution_s = sim.world().completions()[0]
        .execution_s()
        .unwrap_or(horizon);
    JobRun {
        execution_s,
        params,
        nodes,
    }
}

/// Runs the ten-job scenario, fanning the per-job (baseline, quasar)
/// pairs out over up to `threads` workers (bit-identical to serial for
/// any count: every job's two runs use fixed manager seeds and a fresh
/// cluster, so nothing depends on execution order).
pub fn run_with(scale: Scale, threads: usize) -> Fig5Result {
    let (n_jobs, duration_scale) = match scale {
        Scale::Quick => (4, 0.3),
        Scale::Full => (10, 1.0),
    };
    let catalog = PlatformCatalog::local();

    let suite = Generator::new(catalog.clone(), 0xF165).mahout_suite_scaled(n_jobs, duration_scale);
    let jobs = par_map(threads, suite, |_, job| {
        let name = job.spec().name.clone();
        let QosTarget::CompletionTime { seconds: target_s } = job.spec().target else {
            unreachable!("mahout jobs have completion targets");
        };
        let hadoop = run_single(
            job.clone(),
            Box::new(BaselineManager::new(
                AllocationPolicy::Reservation(UserErrorModel::exact()),
                AssignmentPolicy::LeastLoaded,
                None,
                0xBA5E,
            )),
        );
        let quasar = run_single(
            job,
            Box::new(QuasarManager::with_history(
                local_history().clone(),
                QuasarConfig::default(),
            )),
        );
        Fig5Job {
            name,
            target_s,
            hadoop,
            quasar,
        }
    });

    let rows: Vec<Vec<f64>> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            vec![
                i as f64,
                j.target_s,
                j.hadoop.execution_s,
                j.quasar.execution_s,
                j.speedup_pct(),
            ]
        })
        .collect();
    write_csv(
        "fig5",
        "speedups",
        &["job", "target_s", "hadoop_s", "quasar_s", "speedup_pct"],
        &rows,
    );

    Fig5Result { jobs }
}

impl fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t =
            TextTable::new("Fig.5 single Hadoop jobs: Quasar vs Hadoop scheduler").header([
                "job",
                "target s",
                "hadoop s",
                "quasar s",
                "speedup %",
                "target dot %",
            ]);
        for j in &self.jobs {
            t.row([
                j.name.clone(),
                format!("{:.0}", j.target_s),
                format!("{:.0}", j.hadoop.execution_s),
                format!("{:.0}", j.quasar.execution_s),
                format!("{:.1}", j.speedup_pct()),
                format!("{:.1}", j.target_speedup_pct()),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(
            f,
            "mean speedup {:.1}%; mean distance above target {:.1}%",
            self.mean_speedup_pct(),
            self.mean_target_gap() * 100.0
        )?;
        if let Some((quasar, hadoop)) = self.table3() {
            let mut t3 = TextTable::new("Table 3: parameter settings for H8").header([
                "parameter",
                "Quasar",
                "Hadoop",
            ]);
            t3.row([
                "mappers/node".to_string(),
                quasar.mappers_per_node.to_string(),
                hadoop.mappers_per_node.to_string(),
            ]);
            t3.row([
                "heap GB".to_string(),
                format!("{:.2}", quasar.heap_gb),
                format!("{:.2}", hadoop.heap_gb),
            ]);
            t3.row([
                "compression".to_string(),
                quasar.compression.to_string(),
                hadoop.compression.to_string(),
            ]);
            t3.row([
                "block MB".to_string(),
                quasar.block_size_mb.to_string(),
                hadoop.block_size_mb.to_string(),
            ]);
            t3.row([
                "replication".to_string(),
                quasar.replication.to_string(),
                hadoop.replication.to_string(),
            ]);
            write!(f, "{}", t3.render())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quasar_beats_the_hadoop_scheduler() {
        let r = run_with(Scale::Quick, 1);
        assert_eq!(r.jobs.len(), 4);
        let mean_speedup = r.mean_speedup_pct();
        assert!(
            mean_speedup > 5.0,
            "mean speedup {mean_speedup:.1}% — Quasar must clearly beat the framework scheduler"
        );
        // Quasar tracks the target reasonably closely.
        assert!(
            r.mean_target_gap() < 0.40,
            "mean target gap {:.1}%",
            r.mean_target_gap() * 100.0
        );
    }
}
