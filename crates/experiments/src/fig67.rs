//! Figures 6 and 7: a shared analytics cluster — per-job speedups for
//! Hadoop/Storm/Spark under Quasar vs the framework schedulers + least
//! loaded assignment (Fig. 6), and the cluster-utilization heatmaps of
//! the same runs (Fig. 7).

use std::collections::HashMap;
use std::fmt;

use quasar_baselines::{AllocationPolicy, AssignmentPolicy, BaselineManager, UserErrorModel};
use quasar_cluster::{ClusterSpec, HeatmapSample, SimConfig, Simulation};
use quasar_core::par::par_map;
use quasar_core::{QuasarConfig, QuasarManager};
use quasar_workloads::generate::Generator;
use quasar_workloads::{PlatformCatalog, QosTarget, WorkloadClass, WorkloadId};

use crate::qos_report::QosLedger;
use crate::report::{mean, write_csv, TextTable};
use crate::{local_history, Scale};

/// Per-job outcome under both managers.
#[derive(Debug, Clone)]
pub struct MixJob {
    /// Job name.
    pub name: String,
    /// Framework class.
    pub class: WorkloadClass,
    /// Target completion time.
    pub target_s: f64,
    /// Execution under the framework schedulers + LL.
    pub baseline_s: f64,
    /// Execution under Quasar.
    pub quasar_s: f64,
    /// QoS violation episodes charged to this job under the baseline.
    pub baseline_episodes: usize,
    /// QoS violation episodes charged to this job under Quasar.
    pub quasar_episodes: usize,
}

impl MixJob {
    /// Speedup (%) from Quasar.
    pub fn speedup_pct(&self) -> f64 {
        (self.baseline_s - self.quasar_s) / self.baseline_s * 100.0
    }
}

/// One manager's view of the shared-cluster run.
#[derive(Debug, Clone)]
pub struct MixRun {
    /// Manager name.
    pub manager: String,
    /// `(workload id, execution seconds)` of guaranteed jobs.
    pub executions: HashMap<WorkloadId, f64>,
    /// Utilization samples over the run.
    pub samples: Vec<HeatmapSample>,
    /// Mean CPU utilization during the busy phase.
    pub busy_utilization: f64,
    /// Mean profiling overhead fraction across guaranteed jobs.
    pub overhead_fraction: f64,
    /// QoS violation ledger of the run.
    pub qos: QosLedger,
}

/// The combined Fig. 6 + Fig. 7 dataset.
#[derive(Debug, Clone)]
pub struct Fig67Result {
    /// Per-job comparison.
    pub jobs: Vec<MixJob>,
    /// Quasar run details.
    pub quasar: MixRun,
    /// Baseline run details.
    pub baseline: MixRun,
}

impl Fig67Result {
    /// Mean speedup across all analytics jobs (paper: 27% average).
    pub fn mean_speedup_pct(&self) -> f64 {
        mean(
            &self
                .jobs
                .iter()
                .map(MixJob::speedup_pct)
                .collect::<Vec<_>>(),
        )
    }

    /// The Fig. 7 report: utilization under both managers.
    pub fn utilization_report(&self) -> String {
        let mut t = TextTable::new("Fig.7 cluster CPU utilization (busy phase)").header([
            "manager",
            "mean util %",
            "samples",
        ]);
        for run in [&self.quasar, &self.baseline] {
            t.row([
                run.manager.clone(),
                format!("{:.1}", run.busy_utilization * 100.0),
                run.samples.len().to_string(),
            ]);
        }
        t.render()
    }
}

fn run_mix(scale: Scale, manager: Box<dyn quasar_cluster::Manager>, manager_name: &str) -> MixRun {
    let (hadoop, storm, spark, best_effort) = match scale {
        Scale::Quick => (4, 1, 1, 20),
        Scale::Full => (16, 4, 4, 200),
    };
    let catalog = PlatformCatalog::local();
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 4),
        manager,
        SimConfig {
            metrics_interval_s: 30.0,
            ..SimConfig::default()
        },
    );

    // Same seed for both managers: identical workloads.
    let mut generator = Generator::new(catalog, 0xF166);
    let mut jobs = generator.batch_mix(hadoop, storm, spark);
    let mut guaranteed = Vec::new();
    for (i, job) in jobs.drain(..).enumerate() {
        guaranteed.push(job.id());
        sim.submit_at(job, i as f64 * 5.0);
    }
    for (i, job) in generator
        .best_effort_fill(best_effort)
        .into_iter()
        .enumerate()
    {
        sim.submit_at(job, i as f64 * 1.0);
    }

    // Run until every guaranteed job finishes (bounded horizon).
    let horizon = 40_000.0;
    let mut t = 0.0;
    while t < horizon {
        t += 600.0;
        sim.run_until(t);
        let done = guaranteed
            .iter()
            .all(|&id| sim.world().state(id) == quasar_cluster::JobState::Completed);
        if done {
            break;
        }
    }

    let qos = QosLedger::harvest(manager_name, &mut sim);

    let mut executions = HashMap::new();
    let mut overheads = Vec::new();
    let mut busy_until = 0.0_f64;
    for record in sim.world().completions() {
        if record.best_effort {
            continue;
        }
        // An unfinished job is charged the time it actually had on the
        // cluster, horizon − submitted. (Charging the full horizon
        // regardless of submit time used to inflate whichever manager
        // finished fewer jobs — mostly the baseline — and with it the
        // reported speedups.)
        let exec = record
            .finished_s
            .map(|f| f - record.submitted_s)
            .unwrap_or(horizon - record.submitted_s);
        executions.insert(record.id, exec);
        if let Some(finish) = record.finished_s {
            busy_until = busy_until.max(finish);
            overheads.push(record.profiling_s / exec.max(1.0));
        }
    }

    let samples = sim.world().metrics().samples().to_vec();
    let busy: Vec<f64> = samples
        .iter()
        .filter(|s| s.time_s <= busy_until.max(1.0))
        .map(HeatmapSample::mean_cpu)
        .collect();

    MixRun {
        manager: manager_name.to_string(),
        executions,
        samples,
        busy_utilization: mean(&busy),
        overhead_fraction: mean(&overheads),
        qos,
    }
}

/// Runs the shared-cluster scenario, fanning the two manager runs out
/// over up to `threads` workers (bit-identical to serial for any count:
/// each run owns a fresh simulation with fixed seeds).
pub fn run_with(scale: Scale, threads: usize) -> Fig67Result {
    let mut runs = par_map(threads, vec![false, true], |_, quasar| {
        if quasar {
            run_mix(
                scale,
                Box::new(QuasarManager::with_history(
                    local_history().clone(),
                    QuasarConfig::default(),
                )),
                "quasar",
            )
        } else {
            run_mix(
                scale,
                Box::new(BaselineManager::new(
                    AllocationPolicy::Reservation(UserErrorModel::exact()),
                    AssignmentPolicy::LeastLoaded,
                    None,
                    0xF1667,
                )),
                "framework+ll",
            )
        }
    });
    let quasar = runs.pop().expect("two manager runs");
    let baseline = runs.pop().expect("two manager runs");

    // Rebuild the job list (same generator seed as run_mix).
    let (hadoop, storm, spark) = match scale {
        Scale::Quick => (4, 1, 1),
        Scale::Full => (16, 4, 4),
    };
    let catalog = PlatformCatalog::local();
    let specs = Generator::new(catalog, 0xF166).batch_mix(hadoop, storm, spark);

    let jobs: Vec<MixJob> = specs
        .iter()
        .filter_map(|w| {
            let QosTarget::CompletionTime { seconds } = w.spec().target else {
                return None;
            };
            Some(MixJob {
                name: w.spec().name.clone(),
                class: w.spec().class,
                target_s: seconds,
                baseline_s: *baseline.executions.get(&w.id())?,
                quasar_s: *quasar.executions.get(&w.id())?,
                baseline_episodes: baseline.qos.episodes_for(w.id()),
                quasar_episodes: quasar.qos.episodes_for(w.id()),
            })
        })
        .collect();

    let rows: Vec<Vec<f64>> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            vec![
                i as f64,
                j.target_s,
                j.baseline_s,
                j.quasar_s,
                j.speedup_pct(),
                j.baseline_episodes as f64,
                j.quasar_episodes as f64,
            ]
        })
        .collect();
    write_csv(
        "fig6",
        "speedups",
        &[
            "job",
            "target_s",
            "baseline_s",
            "quasar_s",
            "speedup_pct",
            "baseline_episodes",
            "quasar_episodes",
        ],
        &rows,
    );

    Fig67Result {
        jobs,
        quasar,
        baseline,
    }
}

impl fmt::Display for Fig67Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t =
            TextTable::new("Fig.6 shared analytics cluster: speedup vs framework schedulers")
                .header([
                    "job",
                    "class",
                    "target s",
                    "baseline s",
                    "quasar s",
                    "speedup %",
                    "baseline eps",
                    "quasar eps",
                ]);
        for j in &self.jobs {
            t.row([
                j.name.clone(),
                j.class.to_string(),
                format!("{:.0}", j.target_s),
                format!("{:.0}", j.baseline_s),
                format!("{:.0}", j.quasar_s),
                format!("{:.1}", j.speedup_pct()),
                j.baseline_episodes.to_string(),
                j.quasar_episodes.to_string(),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(f, "mean speedup {:.1}%", self.mean_speedup_pct())?;
        writeln!(
            f,
            "manager overhead (profiling/exec): quasar {:.1}%",
            self.quasar.overhead_fraction * 100.0
        )?;
        writeln!(
            f,
            "qos episodes: quasar {} (top cause {}) / baseline {} (top cause {})",
            self.quasar.qos.episodes.len(),
            self.quasar.qos.top_cause(|_| true),
            self.baseline.qos.episodes.len(),
            self.baseline.qos.top_cause(|_| true),
        )?;
        write!(f, "{}", self.utilization_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quasar_improves_jobs_and_utilization() {
        let r = run_with(Scale::Quick, 1);
        assert!(!r.jobs.is_empty());
        assert!(
            r.mean_speedup_pct() > 0.0,
            "mean speedup {:.1}%",
            r.mean_speedup_pct()
        );
        assert!(
            r.quasar.busy_utilization > r.baseline.busy_utilization,
            "quasar util {:.2} vs baseline {:.2}",
            r.quasar.busy_utilization,
            r.baseline.busy_utilization
        );
    }
}
