//! Figure 8: the HotCRP low-latency service under flat, fluctuating, and
//! spiking load — Quasar vs an auto-scaling manager, with best-effort
//! fill sharing the cluster.

use std::fmt;

use quasar_baselines::{AllocationPolicy, AssignmentPolicy, BaselineManager};
use quasar_cluster::{ClusterSpec, Observation, SimConfig, Simulation};
use quasar_core::par::par_map;
use quasar_core::{QuasarConfig, QuasarManager};
use quasar_interference::PressureVector;
use quasar_workloads::generate::Generator;
use quasar_workloads::{
    LoadPattern, NodeResources, PerfModel, PlatformCatalog, Priority, WorkloadClass,
};

use crate::report::{mean, write_csv, TextTable};
use crate::{local_history, Scale};

/// One sampled minute of a service run.
#[derive(Debug, Clone, Copy)]
pub struct TracePoint {
    /// Time in seconds.
    pub time_s: f64,
    /// Offered load.
    pub offered_qps: f64,
    /// Achieved load.
    pub achieved_qps: f64,
    /// Cores held by the service.
    pub service_cores: u32,
    /// Cores held by best-effort fill.
    pub best_effort_cores: u32,
}

/// One manager's run under one load pattern.
#[derive(Debug, Clone)]
pub struct ServiceTrace {
    /// Manager name.
    pub manager: String,
    /// Load pattern name.
    pub pattern: String,
    /// Per-minute samples.
    pub points: Vec<TracePoint>,
    /// Fraction of offered queries meeting the full QoS target.
    pub qos_fraction: f64,
}

impl ServiceTrace {
    /// Mean achieved/offered ratio (how closely the target QPS is tracked).
    pub fn tracking(&self) -> f64 {
        self.tracking_between(0.0, f64::INFINITY)
    }

    /// Tracking restricted to `[from_s, to_s)` — used for the
    /// around-the-spike view of Fig. 8e.
    pub fn tracking_between(&self, from_s: f64, to_s: f64) -> f64 {
        let ratios: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.offered_qps > 0.0 && p.time_s >= from_s && p.time_s < to_s)
            .map(|p| (p.achieved_qps / p.offered_qps).min(1.0))
            .collect();
        mean(&ratios)
    }
}

/// The Figure 8 dataset: traces for (pattern × manager).
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// All traces.
    pub traces: Vec<ServiceTrace>,
    /// `[start, end)` of the spike in the "spike" pattern.
    pub spike_window: (f64, f64),
}

impl Fig8Result {
    /// The trace for a pattern and manager.
    pub fn trace(&self, pattern: &str, manager: &str) -> Option<&ServiceTrace> {
        self.traces
            .iter()
            .find(|t| t.pattern == pattern && t.manager == manager)
    }
}

fn run_pattern(
    scale: Scale,
    pattern: LoadPattern,
    pattern_name: &str,
    quasar: bool,
) -> ServiceTrace {
    let horizon = match scale {
        Scale::Quick => 5_400.0,
        Scale::Full => 24_000.0,
    };
    let catalog = PlatformCatalog::local();
    let manager: Box<dyn quasar_cluster::Manager> = if quasar {
        Box::new(QuasarManager::with_history(
            local_history().clone(),
            QuasarConfig::default(),
        ))
    } else {
        Box::new(BaselineManager::new(
            AllocationPolicy::Autoscale { min: 1, max: 8 },
            AssignmentPolicy::LeastLoaded,
            None,
            0xF168,
        ))
    };
    let manager_name = if quasar { "quasar" } else { "autoscale" };
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 4),
        manager,
        SimConfig::default(),
    );

    let mut generator = Generator::new(catalog, 0x80C);
    let svc = generator.service(
        WorkloadClass::Webserver,
        "hotcrp",
        6.0,
        pattern,
        Priority::Guaranteed,
    );
    let id = svc.id();
    sim.submit_at(svc, 0.0);
    for (i, job) in generator.best_effort_fill(40).into_iter().enumerate() {
        sim.submit_at(job, 30.0 + i as f64 * 30.0);
    }

    let mut points = Vec::new();
    let mut t = 0.0;
    while t < horizon {
        t += 60.0;
        sim.run_until(t);
        let world = sim.world();
        let offered = pattern.qps_at(t);
        let achieved = match world.observation(id) {
            Some(Observation::Service(o)) => o.achieved_qps,
            _ => 0.0,
        };
        let service_cores = world.placement(id).map(|p| p.total_cores()).unwrap_or(0);
        let mut best_effort_cores = 0;
        for wid in world.ids_in_state(quasar_cluster::JobState::Running) {
            if world.spec(wid).is_best_effort() {
                if let Some(p) = world.placement(wid) {
                    best_effort_cores += p.total_cores();
                }
            }
        }
        points.push(TracePoint {
            time_s: t,
            offered_qps: offered,
            achieved_qps: achieved,
            service_cores,
            best_effort_cores,
        });
    }

    let qos_fraction = sim.world().qos_records()[0].qos_fraction();
    ServiceTrace {
        manager: manager_name.to_string(),
        pattern: pattern_name.to_string(),
        points,
        qos_fraction,
    }
}

/// The HotCRP service's single-node QPS capacity on the *fastest*
/// catalog platform, measured on the exact model `run_pattern` will
/// sample (the generator's RNG consumption does not depend on the load
/// pattern, so seed 0x80C yields the identical model).
fn best_node_qps() -> f64 {
    let catalog = PlatformCatalog::local();
    let probe = Generator::new(catalog.clone(), 0x80C).service(
        WorkloadClass::Webserver,
        "hotcrp",
        6.0,
        LoadPattern::Flat { qps: 1.0 },
        Priority::Guaranteed,
    );
    let PerfModel::Service(model) = probe.model() else {
        unreachable!("services carry a service model");
    };
    catalog
        .iter()
        .map(|p| model.node_capacity(p, NodeResources::all_of(p), &PressureVector::zero(), 1))
        .fold(0.0, f64::max)
}

/// Runs all three load scenarios, fanning the six (pattern × manager)
/// replications out over up to `threads` workers (bit-identical to
/// serial for any count: each replication owns a fresh simulation with
/// fixed seeds, and traces are assembled in configuration order).
pub fn run_with(scale: Scale, threads: usize) -> Fig8Result {
    // Size the load relative to the sampled service's real capacity
    // rather than a fixed QPS: the flat load needs ~4.5 of the best
    // nodes, so the spike (2x) needs ~9 — structurally beyond the
    // autoscale baseline's 8-node ceiling on *any* platform mix, while
    // staying well inside what Quasar can allocate from the 40-node
    // cluster. (A fixed constant here once landed below the ceiling
    // whenever the sampled model happened to be fast, making the
    // Quasar-vs-autoscale comparison a coin flip.)
    let base = 4.5 * best_node_qps();
    let horizon = match scale {
        Scale::Quick => 5_400.0,
        Scale::Full => 24_000.0,
    };
    let patterns = [
        ("flat", LoadPattern::Flat { qps: base }),
        (
            "fluctuating",
            LoadPattern::Fluctuating {
                base_qps: base,
                amplitude_qps: base * 0.5,
                period_s: horizon / 4.0,
            },
        ),
        (
            "spike",
            LoadPattern::Spike {
                base_qps: base * 0.5,
                spike_qps: base * 2.0,
                start_s: horizon * 0.5,
                duration_s: horizon * 0.15,
            },
        ),
    ];

    let spike_window = (horizon * 0.5, horizon * 0.5 + horizon * 0.15 + 120.0);
    let configs: Vec<(&str, LoadPattern, bool)> = patterns
        .iter()
        .flat_map(|&(name, pattern)| [(name, pattern, false), (name, pattern, true)])
        .collect();
    let traces = par_map(threads, configs, |_, (name, pattern, quasar)| {
        run_pattern(scale, pattern, name, quasar)
    });

    let rows: Vec<Vec<f64>> = traces
        .iter()
        .enumerate()
        .flat_map(|(i, tr)| {
            tr.points.iter().map(move |p| {
                vec![
                    i as f64,
                    p.time_s,
                    p.offered_qps,
                    p.achieved_qps,
                    p.service_cores as f64,
                    p.best_effort_cores as f64,
                ]
            })
        })
        .collect();
    write_csv(
        "fig8",
        "traces",
        &[
            "trace",
            "time_s",
            "offered",
            "achieved",
            "svc_cores",
            "be_cores",
        ],
        &rows,
    );

    Fig8Result {
        traces,
        spike_window,
    }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Fig.8 HotCRP: QPS tracking and QoS under three load shapes")
            .header([
                "pattern",
                "manager",
                "tracking %",
                "around spike %",
                "queries meeting QoS %",
            ]);
        for tr in &self.traces {
            let around_spike = if tr.pattern == "spike" {
                format!(
                    "{:.1}",
                    tr.tracking_between(self.spike_window.0, self.spike_window.1) * 100.0
                )
            } else {
                "-".to_string()
            };
            t.row([
                tr.pattern.clone(),
                tr.manager.clone(),
                format!("{:.1}", tr.tracking() * 100.0),
                around_spike,
                format!("{:.1}", tr.qos_fraction * 100.0),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quasar_tracks_load_at_least_as_well_as_autoscale() {
        let r = run_with(Scale::Quick, 1);
        assert_eq!(r.traces.len(), 6);
        for pattern in ["flat", "fluctuating", "spike"] {
            let q = r.trace(pattern, "quasar").unwrap();
            let a = r.trace(pattern, "autoscale").unwrap();
            assert!(
                q.tracking() >= a.tracking() - 0.02,
                "{pattern}: quasar {:.2} vs autoscale {:.2}",
                q.tracking(),
                a.tracking()
            );
        }
        // The spike scenario is where autoscale visibly fails QoS.
        let q = r.trace("spike", "quasar").unwrap();
        let a = r.trace("spike", "autoscale").unwrap();
        assert!(
            q.qos_fraction > a.qos_fraction,
            "spike QoS: quasar {:.2} vs autoscale {:.2}",
            q.qos_fraction,
            a.qos_fraction
        );
    }
}
