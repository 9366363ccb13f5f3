//! Paragon-style assignment: heterogeneity- and interference-aware server
//! ranking via collaborative filtering, with allocation fixed externally.
//!
//! Paragon (ASPLOS'13) is the paper's strongest baseline: it classifies
//! incoming workloads against heterogeneity and interference (the same CF
//! machinery Quasar extends) but takes the resource *allocation* as given.
//! Comparing Reservation+Paragon against Quasar isolates the value of
//! performing allocation and assignment jointly (Fig. 11a).

use std::collections::HashMap;

use quasar_cluster::{ProfileConfig, ServerId, World};
use quasar_core::{Axes, Classifier, GoalKind, HistorySet, ProfilingData};
use quasar_interference::{penalty_for, PressureVector};
use quasar_workloads::WorkloadId;

/// Per-workload Paragon classification: heterogeneity scores plus
/// interference caused/tolerated.
#[derive(Debug, Clone)]
pub struct ParagonClass {
    /// Estimated speed per platform column.
    pub hetero_speed: Vec<f64>,
    /// Estimated tolerated pressure.
    pub tolerated: PressureVector,
    /// Estimated caused pressure.
    pub caused: PressureVector,
    /// Profiling wall-clock cost.
    pub wall_seconds: f64,
}

/// The Paragon classification/ranking engine.
#[derive(Debug)]
pub struct ParagonEngine {
    history: HistorySet,
    classifier: Classifier,
    classes: HashMap<WorkloadId, ParagonClass>,
}

impl ParagonEngine {
    /// Builds an engine over an offline history (shared with Quasar —
    /// both systems draw on the same previously-scheduled workloads).
    pub fn new(history: HistorySet) -> ParagonEngine {
        ParagonEngine {
            history,
            classifier: Classifier::new(),
            classes: HashMap::new(),
        }
    }

    /// The shared axes.
    pub fn axes(&self) -> &Axes {
        self.history.axes()
    }

    /// The classification of a workload, if present.
    pub fn class(&self, id: WorkloadId) -> Option<&ParagonClass> {
        self.classes.get(&id)
    }

    /// Forgets a completed workload.
    pub fn remove(&mut self, id: WorkloadId) {
        self.classes.remove(&id);
    }

    /// Profiles and classifies a workload for heterogeneity and
    /// interference only (Paragon's two classifications), using two
    /// platform runs and two microbenchmark ramps per direction.
    pub fn classify(&mut self, world: &mut World, id: WorkloadId) -> &ParagonClass {
        let axes = self.history.axes().clone();
        let spec = world.spec(id);
        let kind = GoalKind::of(&spec.target);
        let class_kind = spec.class;

        let ref_idx = axes.ref_platform_index();
        let other_idx = (ref_idx + 1) % axes.platforms.len();
        let anchor = axes.anchor();

        let ref_run = world.profile_config(id, &ProfileConfig::single(axes.ref_platform, anchor));
        let other_run = world.profile_config(
            id,
            &ProfileConfig::single(axes.platforms[other_idx], anchor),
        );

        let mut tolerated = Vec::new();
        let mut caused = Vec::new();
        for (i, &resource) in axes.resources.iter().enumerate().take(2) {
            tolerated.push((i, world.probe_sensitivity(id, resource, 0.05).value));
            caused.push((i, world.probe_caused(id, resource).value));
        }

        let data = ProfilingData {
            kind,
            scale_up: vec![(axes.anchor_config, ref_run.value)],
            scale_out: vec![],
            hetero: vec![(ref_idx, ref_run.value), (other_idx, other_run.value)],
            params: vec![],
            tolerated,
            caused,
            wall_seconds: class_kind.setup_seconds() + ref_run.seconds + other_run.seconds + 8.0,
            total_seconds: ref_run.seconds + other_run.seconds + 8.0,
        };
        let full = self.classifier.classify(&self.history, &data);
        self.classes.insert(
            id,
            ParagonClass {
                hetero_speed: full.hetero_speed,
                tolerated: full.tolerated,
                caused: full.caused,
                wall_seconds: data.wall_seconds,
            },
        );
        self.classes.get(&id).expect("just inserted")
    }

    /// Estimated pressure on a server from the caused vectors of the
    /// workloads this engine classified.
    pub fn estimated_pressure(
        &self,
        world: &World,
        server: ServerId,
        exclude: Option<WorkloadId>,
    ) -> PressureVector {
        let total_cores = world.server(server).total_cores() as f64;
        let mut pressure = PressureVector::zero();
        for &wid in world.workloads_on(server) {
            if Some(wid) == exclude {
                continue;
            }
            let Some(class) = self.classes.get(&wid) else {
                continue;
            };
            let Some(node) = world.placement(wid).and_then(|p| p.node_on(server)) else {
                continue;
            };
            let share = (node.resources.cores as f64 / total_cores).min(1.0);
            pressure += class.caused.scaled(share);
        }
        pressure
    }

    /// Ranks servers for a classified workload: best platform × least
    /// interference first. Only servers passing `fits` are returned.
    /// `slice_cores` is the instance size being placed: servers too small
    /// to host the full slice are scored down proportionally (their
    /// capped container runs on fewer cores).
    pub fn rank_servers(
        &self,
        world: &World,
        id: WorkloadId,
        slice_cores: u32,
        fits: impl Fn(&quasar_cluster::Server) -> bool,
    ) -> Vec<ServerId> {
        let Some(class) = self.classes.get(&id) else {
            return Vec::new();
        };
        let axes = self.history.axes();
        let mut scored: Vec<(ServerId, f64)> = world
            .servers()
            .iter()
            .filter(|s| fits(s))
            .map(|s| {
                let platform_index = axes.platform_index(s.platform());
                let pressure = self.estimated_pressure(world, s.id(), Some(id));
                // Both interference directions (Paragon scores caused and
                // tolerated): penalize servers whose tenants our pressure
                // would push past their classified tolerance.
                let added = class.caused.scaled(0.5);
                let mut victim_factor = 1.0_f64;
                for &tenant in world.workloads_on(s.id()) {
                    if tenant == id {
                        continue;
                    }
                    let Some(tclass) = self.classes.get(&tenant) else {
                        continue;
                    };
                    let tpressure = self.estimated_pressure(world, s.id(), Some(tenant)) + added;
                    let pen = penalty_for(&tclass.tolerated, &tpressure);
                    if pen < 0.95 {
                        victim_factor = victim_factor.min(pen.max(0.05));
                    }
                }
                let truncation =
                    s.total_cores().min(slice_cores) as f64 / slice_cores.max(1) as f64;
                let score = class.hetero_speed[platform_index].max(0.0)
                    * penalty_for(&class.tolerated, &pressure)
                    * victim_factor
                    * truncation;
                (s.id(), score)
            })
            .collect();
        // A NaN score (corrupted estimate) must rank last, never first.
        scored.sort_by(|a, b| {
            quasar_core::ordering::desirability(b.1)
                .total_cmp(&quasar_core::ordering::desirability(a.1))
        });
        scored.into_iter().map(|(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_cluster::{managers::NullManager, ClusterSpec, SimConfig, Simulation};
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{Dataset, PlatformCatalog, Priority, WorkloadClass};

    fn setup() -> (Simulation, ParagonEngine, WorkloadId) {
        let catalog = PlatformCatalog::local();
        let history = HistorySet::bootstrap(&catalog, 6, 9);
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(NullManager),
            SimConfig::default(),
        );
        let mut generator = Generator::new(catalog, 17);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "h",
            Dataset::new("d", 8.0, 1.0),
            2,
            900.0,
            Priority::Guaranteed,
        );
        let id = job.id();
        sim.submit_at(job, 0.0);
        sim.run_until(5.0);
        (sim, ParagonEngine::new(history), id)
    }

    #[test]
    fn classify_produces_full_hetero_row() {
        let (mut sim, mut engine, id) = setup();
        let class = engine.classify(sim.world_mut(), id).clone();
        assert_eq!(class.hetero_speed.len(), 10);
        assert!(class.hetero_speed.iter().all(|s| *s > 0.0));
        assert!(class.wall_seconds > 0.0);
    }

    #[test]
    fn ranking_orders_all_fitting_servers() {
        let (mut sim, mut engine, id) = setup();
        engine.classify(sim.world_mut(), id);
        let ranked = engine.rank_servers(sim.world(), id, 4, |_| true);
        assert_eq!(ranked.len(), 10);
        // Scores must be non-increasing along the ranking.
        let axes = engine.axes().clone();
        let class = engine.class(id).unwrap().clone();
        let mut last = f64::INFINITY;
        for sid in ranked {
            let p = axes.platform_index(sim.world().server(sid).platform());
            let score = class.hetero_speed[p];
            assert!(score <= last + 1e-9);
            last = score;
        }
    }

    #[test]
    fn remove_forgets_state() {
        let (mut sim, mut engine, id) = setup();
        engine.classify(sim.world_mut(), id);
        assert!(engine.class(id).is_some());
        engine.remove(id);
        assert!(engine.class(id).is_none());
    }
}
