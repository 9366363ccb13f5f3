//! Figure 11: the large-scale cloud-provider scenario — 1200 mixed
//! workloads on 200 dedicated EC2 servers, comparing Quasar against
//! Reservation+Paragon and Reservation+LL on (a) performance normalized
//! to target, (b/c) cluster utilization, and (d) allocated vs used vs
//! reserved resources.

use std::fmt;

use quasar_baselines::{AllocationPolicy, AssignmentPolicy, BaselineManager, UserErrorModel};
use quasar_cluster::{ClusterSpec, Observation, SimConfig, Simulation};
use quasar_core::par::par_map;
use quasar_core::{QuasarConfig, QuasarManager};
use quasar_workloads::generate::Generator;
use quasar_workloads::{PlatformCatalog, QosTarget};

use crate::report::{mean, write_csv, TextTable};
use crate::{ec2_history, Scale};

/// One manager's outcome at cloud scale.
#[derive(Debug, Clone)]
pub struct CloudRun {
    /// Manager name.
    pub manager: String,
    /// Per-workload performance normalized to target (sorted ascending,
    /// capped at 1.0), the Fig. 11a curve.
    pub normalized: Vec<f64>,
    /// Mean CPU utilization at steady state (arrival phase onward).
    pub steady_utilization: f64,
    /// `(minute, allocated, used, reserved)` aggregate CPU fractions,
    /// Fig. 11d.
    pub allocation_series: Vec<(f64, f64, f64, f64)>,
}

impl CloudRun {
    /// Mean normalized performance (paper: 0.98 Quasar, 0.83 Paragon,
    /// 0.62 LL).
    pub fn mean_normalized(&self) -> f64 {
        mean(&self.normalized)
    }
}

/// The Figure 11 dataset.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// Quasar, Reservation+Paragon, Reservation+LL.
    pub runs: Vec<CloudRun>,
}

impl Fig11Result {
    /// Lookup by manager name.
    pub fn run_named(&self, name: &str) -> Option<&CloudRun> {
        self.runs.iter().find(|r| r.manager == name)
    }
}

/// Score for a batch job still unfinished at the horizon: its projected
/// performance from partial progress, `target / (elapsed / progress)`.
///
/// The old form scored `target / (horizon - submitted)` with no
/// progress term, so a job submitted just before the horizon divided by
/// a near-zero elapsed time and clamped to a *perfect* 1.0 despite
/// having done essentially nothing. Zero progress now scores 0, and the
/// guarded denominator keeps near-horizon submissions finite.
pub fn unfinished_completion_score(
    target_s: f64,
    submitted_s: f64,
    horizon: f64,
    progress: f64,
) -> f64 {
    if progress <= 0.0 {
        return 0.0;
    }
    let elapsed = (horizon - submitted_s).max(f64::EPSILON);
    (target_s * progress / elapsed).clamp(0.0, 1.0)
}

fn run_cloud(scale: Scale, which: &str) -> CloudRun {
    let (per_platform, workloads, inter_arrival) = match scale {
        Scale::Quick => (10, 56, 2.0),
        Scale::Full => (14, 120, 8.0),
    };
    let catalog = PlatformCatalog::ec2();
    let manager: Box<dyn quasar_cluster::Manager> = match which {
        "quasar" => Box::new(QuasarManager::with_history(
            ec2_history().clone(),
            QuasarConfig::default(),
        )),
        "reservation+paragon" => Box::new(BaselineManager::new(
            AllocationPolicy::Reservation(UserErrorModel::paper()),
            AssignmentPolicy::Paragon,
            Some(ec2_history().clone()),
            0xF11D,
        )),
        "reservation+ll" => Box::new(BaselineManager::new(
            AllocationPolicy::Reservation(UserErrorModel::paper()),
            AssignmentPolicy::LeastLoaded,
            None,
            0xF11D,
        )),
        _ => unreachable!("unknown manager {which}"),
    };
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), per_platform),
        manager,
        SimConfig {
            metrics_interval_s: 60.0,
            ..SimConfig::default()
        },
    );

    let mut generator = Generator::new(catalog, 0xF11C);
    let fleet = generator.mixed_fleet(workloads);
    let mut ids = Vec::new();
    for (i, w) in fleet.into_iter().enumerate() {
        ids.push((w.id(), w.spec().target));
        sim.submit_at(w, i as f64 * inter_arrival);
    }
    let arrival_end = workloads as f64 * inter_arrival;

    // Run until most batch work drains.
    let horizon = match scale {
        Scale::Quick => arrival_end + 9_000.0,
        Scale::Full => arrival_end + 18_000.0,
    };
    sim.run_until(horizon);

    // Normalized performance per workload.
    let world = sim.world();
    let completions = world.completions();
    let qos = world.qos_records();
    let mut normalized = Vec::new();
    for (id, target) in &ids {
        let score = match target {
            QosTarget::CompletionTime { seconds } => {
                let record = completions.iter().find(|r| r.id == *id);
                match record.and_then(|r| r.execution_s()) {
                    Some(exec) => (seconds / exec).min(1.0),
                    // Unfinished: project from the progress it made.
                    None => {
                        let progress = match world.observation(*id) {
                            Some(Observation::Batch { progress, .. }) => progress,
                            _ => 0.0,
                        };
                        unfinished_completion_score(
                            *seconds,
                            record.map(|r| r.submitted_s).unwrap_or(0.0),
                            horizon,
                            progress,
                        )
                    }
                }
            }
            QosTarget::Ips { ips } => {
                // IPS targets are rate floors: score the rate achieved
                // while running (queueing shows up in batch deadlines and
                // service QoS, which do amortize waits).
                let record = completions.iter().find(|r| r.id == *id);
                match record.and_then(|r| r.achieved_rate_running()) {
                    Some(rate) => (rate / ips).min(1.0),
                    None => 0.3,
                }
            }
            QosTarget::Throughput { .. } => qos
                .iter()
                .find(|r| r.id == *id)
                .map(|r| r.qos_fraction())
                .unwrap_or(0.0),
        };
        normalized.push(score);
    }
    normalized.sort_by(f64::total_cmp);

    let samples = world.metrics().samples();
    let steady: Vec<f64> = samples
        .iter()
        .filter(|s| s.time_s >= arrival_end * 0.5 && s.time_s <= horizon * 0.9)
        .map(|s| s.mean_cpu())
        .collect();
    let allocation_series: Vec<(f64, f64, f64, f64)> = samples
        .iter()
        .map(|s| {
            (
                s.time_s / 60.0,
                s.allocated_cpu,
                s.mean_cpu(),
                s.reserved_cpu,
            )
        })
        .collect();

    CloudRun {
        manager: which.to_string(),
        normalized,
        steady_utilization: mean(&steady),
        allocation_series,
    }
}

/// Runs the scenario, fanning the three manager runs out over up to
/// `threads` workers (bit-identical to serial for any count: each run
/// owns a fresh simulation with fixed seeds, and results are assembled
/// in manager order).
pub fn run_with(scale: Scale, threads: usize) -> Fig11Result {
    let managers = vec!["quasar", "reservation+paragon", "reservation+ll"];
    let runs = par_map(threads, managers, |_, which| run_cloud(scale, which));

    let rows: Vec<Vec<f64>> = runs
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            r.normalized
                .iter()
                .enumerate()
                .map(move |(j, v)| vec![i as f64, j as f64, *v])
        })
        .collect();
    write_csv(
        "fig11",
        "normalized_perf",
        &["manager", "rank", "normalized"],
        &rows,
    );

    Fig11Result { runs }
}

impl fmt::Display for Fig11Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Fig.11 cloud-scale: performance vs target and utilization")
            .header([
                "manager",
                "mean norm perf",
                "p10 norm perf",
                "steady CPU util %",
            ]);
        for r in &self.runs {
            t.row([
                r.manager.clone(),
                format!("{:.3}", r.mean_normalized()),
                format!("{:.3}", crate::report::percentile(&r.normalized, 0.10)),
                format!("{:.1}", r.steady_utilization * 100.0),
            ]);
        }
        write!(f, "{}", t.render())?;
        // Fig. 11d summary for Quasar vs reservation.
        if let (Some(q), Some(ll)) = (self.run_named("quasar"), self.run_named("reservation+ll")) {
            let alloc = mean(
                &q.allocation_series
                    .iter()
                    .map(|(_, a, _, _)| *a)
                    .collect::<Vec<_>>(),
            );
            let used = mean(
                &q.allocation_series
                    .iter()
                    .map(|(_, _, u, _)| *u)
                    .collect::<Vec<_>>(),
            );
            let reserved = mean(
                &ll.allocation_series
                    .iter()
                    .map(|(_, _, _, r)| *r)
                    .collect::<Vec<_>>(),
            );
            writeln!(
                f,
                "Fig.11d: quasar allocated {:.1}% / used {:.1}%; reservation+ll reserved {:.1}%",
                alloc * 100.0,
                used * 100.0,
                reserved * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quasar_dominates_the_baselines() {
        let r = run_with(Scale::Quick, 1);
        let q = r.run_named("quasar").unwrap().mean_normalized();
        let p = r
            .run_named("reservation+paragon")
            .unwrap()
            .mean_normalized();
        let ll = r.run_named("reservation+ll").unwrap().mean_normalized();
        // The paper's ordering is Quasar (0.98) > Paragon (0.83) > LL
        // (0.62). Quasar must dominate both baselines on the mean and on
        // the tail (the workloads reservation sizing starves); the
        // Paragon-vs-LL order differs from the paper at this scale (our
        // over-sized reservations shelter LL more than the paper's
        // saturated scenario did).
        assert!(q > p + 0.05, "quasar {q:.2} must beat paragon {p:.2}");
        assert!(
            q > ll + 0.05,
            "quasar {q:.2} must beat reservation+ll {ll:.2}"
        );
        assert!(q > 0.85, "quasar mean normalized {q:.2}");
        let q10 = crate::report::percentile(&r.run_named("quasar").unwrap().normalized, 0.10);
        let ll10 =
            crate::report::percentile(&r.run_named("reservation+ll").unwrap().normalized, 0.10);
        assert!(
            q10 > ll10 + 0.10,
            "quasar tail p10 {q10:.2} must dominate LL {ll10:.2}"
        );
    }

    #[test]
    fn near_horizon_unfinished_jobs_do_not_score_perfectly() {
        // Regression: a job submitted 1s before the horizon with no
        // progress used to score target/1s, clamped to a perfect 1.0.
        assert_eq!(
            unfinished_completion_score(600.0, 9_999.0, 10_000.0, 0.0),
            0.0
        );
        // Even with a sliver of progress, a near-horizon job scores its
        // projection, not an automatic 1.0 — here it projects 1000s of
        // work against a 600s target.
        let s = unfinished_completion_score(600.0, 9_999.0, 10_000.0, 0.001);
        assert!((s - 0.6).abs() < 1e-12, "projected score {s}");
        // Partial progress scores partially: halfway through a run that
        // has consumed exactly the target time projects 0.5.
        let s = unfinished_completion_score(600.0, 9_400.0, 10_000.0, 0.5);
        assert!((s - 0.5).abs() < 1e-12, "halfway score {s}");
        // A submit time at (or past) the horizon must not divide by
        // zero or go negative.
        let s = unfinished_completion_score(600.0, 10_000.0, 10_000.0, 0.2);
        assert_eq!(s, 1.0, "degenerate elapsed clamps, not NaN/inf: {s}");
    }
}
