//! Online profiling of incoming workloads.
//!
//! Upon admission, Quasar profiles the incoming workload (with its actual
//! dataset) briefly in sandboxes — a couple of scale-up allocations, one
//! scale-out point, one other platform, and two interference
//! microbenchmark ramps — producing the sparse rows that classification
//! completes (paper §3.2, §3.4).

use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::SeedableRng;

use quasar_cluster::{ProfileConfig, World};
use quasar_workloads::WorkloadId;

use crate::axes::{Axes, GoalKind};

/// The sparse profiling signal for one workload: `(column, goal value)`
/// pairs per axis, plus the wall-clock cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilingData {
    /// Goal kind of the workload.
    pub kind: GoalKind,
    /// Observed scale-up entries (column, goal value).
    pub scale_up: Vec<(usize, f64)>,
    /// Observed scale-out entries (column, goal value); empty for
    /// single-node workloads.
    pub scale_out: Vec<(usize, f64)>,
    /// Observed heterogeneity entries (column, goal value).
    pub hetero: Vec<(usize, f64)>,
    /// Observed framework-parameter entries (column, goal value).
    pub params: Vec<(usize, f64)>,
    /// Observed tolerated-pressure points (column, pressure).
    pub tolerated: Vec<(usize, f64)>,
    /// Observed caused-pressure points (column, pressure).
    pub caused: Vec<(usize, f64)>,
    /// Wall-clock seconds of profiling on the critical path: the four
    /// classifications profile in parallel sandboxes (§3.4), so this is
    /// the maximum over the groups plus workload setup.
    pub wall_seconds: f64,
    /// Total sandbox-seconds consumed (resource cost).
    pub total_seconds: f64,
}

/// Runs the online profiling campaign for incoming workloads.
#[derive(Debug, Clone)]
pub struct Profiler {
    entries_per_axis: usize,
    rng: StdRng,
}

impl Profiler {
    /// A profiler taking `entries_per_axis` measurements per
    /// classification row (the density knob of Fig. 3; the paper uses 2).
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_axis` is zero.
    pub fn new(entries_per_axis: usize, seed: u64) -> Profiler {
        assert!(entries_per_axis >= 1, "need at least one profiling entry");
        Profiler {
            entries_per_axis,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Profiles workload `id` through the world's sandbox API.
    pub fn profile(&mut self, world: &mut World, axes: &Axes, id: WorkloadId) -> ProfilingData {
        let spec = world.spec(id);
        let class = spec.class;
        let kind = GoalKind::of(&spec.target);
        let distributed = class.is_distributed();
        let framework = class.has_framework_params();
        let d = self.entries_per_axis;

        let mut data = ProfilingData {
            kind,
            scale_up: Vec::new(),
            scale_out: Vec::new(),
            hetero: Vec::new(),
            params: Vec::new(),
            tolerated: Vec::new(),
            caused: Vec::new(),
            wall_seconds: 0.0,
            total_seconds: 0.0,
        };

        let mut group_seconds = [0.0_f64; 4];

        // Scale-up group: the anchor plus d-1 random other configurations
        // on the highest-end platform.
        let mut su_cols = vec![axes.anchor_config];
        su_cols.extend(self.pick_other(axes.scale_up.len(), axes.anchor_config, d - 1));
        for col in su_cols {
            let config = ProfileConfig::single(axes.ref_platform, axes.scale_up[col]);
            let r = world.profile_config(id, &config);
            data.scale_up.push((col, r.value));
            group_seconds[0] += r.seconds;
        }

        // Scale-out group: reuses the anchor run as the 1-node point and
        // adds runs at small node counts (profiling is capped at 4 nodes
        // online, §3.2).
        if distributed {
            // Nearest-column fallback keeps custom axis sets without a
            // literal 1-node count from panicking here.
            let one = axes.scale_out_or_nearest(1);
            let config = ProfileConfig::single(axes.ref_platform, axes.scale_out_probe);
            let r = world.profile_config(id, &config);
            data.scale_out.push((one, r.value));
            group_seconds[1] += r.seconds;
            let small: Vec<usize> = axes
                .scale_out
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 1 && n <= 4)
                .map(|(i, _)| i)
                .collect();
            for &col in small.choose_multiple(&mut self.rng, (d - 1).max(1)) {
                let config = ProfileConfig::single(axes.ref_platform, axes.scale_out_probe)
                    .with_nodes(axes.scale_out[col]);
                let r = world.profile_config(id, &config);
                data.scale_out.push((col, r.value));
                group_seconds[1] += r.seconds;
            }
        }

        // Heterogeneity group: reuses the anchor-config run on the
        // reference platform, adds d-1 random other platforms.
        {
            let ref_idx = axes.ref_platform_index();
            let config = ProfileConfig::single(axes.ref_platform, axes.anchor());
            let r = world.profile_config(id, &config);
            data.hetero.push((ref_idx, r.value));
            group_seconds[2] += r.seconds;
            for col in self.pick_other(axes.platforms.len(), ref_idx, d - 1) {
                let config = ProfileConfig::single(axes.platforms[col], axes.anchor());
                let r = world.profile_config(id, &config);
                data.hetero.push((col, r.value));
                group_seconds[2] += r.seconds;
            }
        }

        // Framework parameters (folded into the scale-up sandbox).
        if framework {
            let mut cols = vec![axes.default_params];
            cols.extend(self.pick_other(axes.params.len(), axes.default_params, d - 1));
            for col in cols {
                let config = ProfileConfig::single(axes.ref_platform, axes.ref_full)
                    .with_params(axes.params[col]);
                let r = world.profile_config(id, &config);
                data.params.push((col, r.value));
                group_seconds[0] += r.seconds;
            }
        }

        // Interference group: ramp microbenchmarks in d random resources
        // for tolerated and caused pressure (no extra profiling run — it
        // reuses the scale-up copy, §3.2).
        {
            let n = axes.resources.len();
            let mut cols: Vec<usize> = (0..n).collect();
            cols.shuffle(&mut self.rng);
            for &col in cols.iter().take(d) {
                let r = world.probe_sensitivity(id, axes.resources[col], 0.05);
                data.tolerated.push((col, r.value));
                group_seconds[3] += r.seconds;
            }
            for &col in cols.iter().rev().take(d) {
                let r = world.probe_caused(id, axes.resources[col]);
                data.caused.push((col, r.value));
                group_seconds[3] += r.seconds;
            }
        }

        data.total_seconds = group_seconds.iter().sum();
        data.wall_seconds =
            class.setup_seconds() + group_seconds.iter().copied().fold(0.0, f64::max);
        data
    }

    /// Picks `count` random indices out of `0..len`, excluding `exclude`.
    fn pick_other(&mut self, len: usize, exclude: usize, count: usize) -> Vec<usize> {
        let pool: Vec<usize> = (0..len).filter(|&i| i != exclude).collect();
        pool.choose_multiple(&mut self.rng, count.min(pool.len()))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_cluster::{managers::NullManager, ClusterSpec, SimConfig, Simulation};
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{Dataset, LoadPattern, PlatformCatalog, Priority, WorkloadClass};

    fn sim_with(
        f: impl FnOnce(&mut Generator) -> quasar_workloads::Workload,
    ) -> (Simulation, WorkloadId) {
        let catalog = PlatformCatalog::local();
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(NullManager),
            SimConfig {
                noise: 0.0,
                ..SimConfig::default()
            },
        );
        let mut generator = Generator::new(catalog, 5);
        let w = f(&mut generator);
        let id = w.id();
        sim.submit_at(w, 0.0);
        sim.run_until(5.0);
        (sim, id)
    }

    #[test]
    fn hadoop_profile_covers_all_axes() {
        let (mut sim, id) = sim_with(|g| {
            g.analytics_job(
                WorkloadClass::Hadoop,
                "h",
                Dataset::new("d", 10.0, 1.0),
                2,
                600.0,
                Priority::Guaranteed,
            )
        });
        let axes = Axes::for_catalog(&PlatformCatalog::local());
        let mut profiler = Profiler::new(2, 1);
        let data = profiler.profile(sim.world_mut(), &axes, id);
        assert_eq!(data.kind, GoalKind::Time);
        assert_eq!(data.scale_up.len(), 2);
        assert_eq!(data.scale_out.len(), 2);
        assert_eq!(data.hetero.len(), 2);
        assert_eq!(data.params.len(), 2);
        assert_eq!(data.tolerated.len(), 2);
        assert_eq!(data.caused.len(), 2);
        assert!(data.wall_seconds > 0.0);
        assert!(data.total_seconds >= data.wall_seconds - WorkloadClass::Hadoop.setup_seconds());
    }

    #[test]
    fn single_node_profile_skips_scale_out_and_params() {
        let (mut sim, id) = sim_with(|g| g.single_node_job("b", 300.0, Priority::BestEffort));
        let axes = Axes::for_catalog(&PlatformCatalog::local());
        let mut profiler = Profiler::new(2, 2);
        let data = profiler.profile(sim.world_mut(), &axes, id);
        assert_eq!(data.kind, GoalKind::Rate);
        assert!(data.scale_out.is_empty());
        assert!(data.params.is_empty());
    }

    #[test]
    fn service_profile_reports_qps_values() {
        let (mut sim, id) = sim_with(|g| {
            g.service(
                WorkloadClass::Memcached,
                "mc",
                16.0,
                LoadPattern::Flat { qps: 50_000.0 },
                Priority::Guaranteed,
            )
        });
        let axes = Axes::for_catalog(&PlatformCatalog::local());
        let mut profiler = Profiler::new(3, 3);
        let data = profiler.profile(sim.world_mut(), &axes, id);
        assert_eq!(data.kind, GoalKind::Qps);
        assert_eq!(data.scale_up.len(), 3);
        for (_, v) in &data.scale_up {
            assert!(*v > 0.0, "knee QPS must be positive");
        }
    }

    #[test]
    fn profiled_columns_are_unique_per_axis() {
        let (mut sim, id) = sim_with(|g| {
            g.analytics_job(
                WorkloadClass::Spark,
                "sp",
                Dataset::new("d", 6.0, 1.0),
                2,
                400.0,
                Priority::Guaranteed,
            )
        });
        let axes = Axes::for_catalog(&PlatformCatalog::local());
        let mut profiler = Profiler::new(4, 9);
        let data = profiler.profile(sim.world_mut(), &axes, id);
        for entries in [&data.scale_up, &data.hetero, &data.tolerated] {
            let mut cols: Vec<usize> = entries.iter().map(|(c, _)| *c).collect();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), entries.len(), "columns must be unique");
        }
    }
}
