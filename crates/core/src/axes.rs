//! The four classification axes (plus framework parameters).
//!
//! Quasar decomposes the allocation/assignment space into four independent
//! classifications (paper §3.2): scale-up, scale-out, heterogeneity, and
//! interference. Each axis defines the *columns* of one sparse matrix; the
//! rows are workloads. This module fixes those column spaces for a given
//! platform catalog so the profiler, offline history, classifier, and
//! estimator all agree on them.

use quasar_interference::SharedResource;
use quasar_workloads::{FrameworkParams, NodeResources, PlatformCatalog, PlatformId, QosTarget};

/// The unit family of a workload's performance goal, which selects the
/// history pool it is classified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GoalKind {
    /// Batch completion time (lower is better); internally converted to
    /// speed = 1/time.
    Time,
    /// Service throughput at the latency bound (higher is better).
    Qps,
    /// Single-node instruction rate (higher is better).
    Rate,
}

impl GoalKind {
    /// The goal kind of a QoS target.
    pub fn of(target: &QosTarget) -> GoalKind {
        match target {
            QosTarget::CompletionTime { .. } => GoalKind::Time,
            QosTarget::Throughput { .. } => GoalKind::Qps,
            QosTarget::Ips { .. } => GoalKind::Rate,
        }
    }

    /// All goal kinds.
    pub const ALL: [GoalKind; 3] = [GoalKind::Time, GoalKind::Qps, GoalKind::Rate];

    /// Converts a measured goal value into "speed" (higher is better).
    pub fn to_speed(self, value: f64) -> f64 {
        match self {
            GoalKind::Time => {
                if value > 0.0 {
                    1.0 / value
                } else {
                    0.0
                }
            }
            GoalKind::Qps | GoalKind::Rate => value,
        }
    }

    /// Converts a speed back into a goal value.
    pub fn from_speed(self, speed: f64) -> f64 {
        // Speed and goal value are mutual inverses for Time and identical
        // otherwise, so the mapping is an involution.
        self.to_speed(speed)
    }
}

/// The shared column spaces of all classifications for one catalog.
///
/// # Examples
///
/// ```
/// use quasar_core::Axes;
/// use quasar_workloads::PlatformCatalog;
///
/// let axes = Axes::for_catalog(&PlatformCatalog::local());
/// assert!(axes.scale_up.len() > 10);
/// assert_eq!(axes.platforms.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Axes {
    /// Scale-up configurations (cores × memory grid) on the reference
    /// (highest-end) platform.
    pub scale_up: Vec<NodeResources>,
    /// Index into `scale_up` of the anchor configuration shared with the
    /// heterogeneity and scale-out classifications.
    pub anchor_config: usize,
    /// Node counts for scale-out classification.
    pub scale_out: Vec<usize>,
    /// Per-node configuration used for scale-out profiling (a mid-size
    /// slice on the reference platform; the estimator only uses speed
    /// *ratios* along this axis, so the absolute slice size cancels).
    pub scale_out_probe: NodeResources,
    /// All platforms (columns of the heterogeneity classification).
    pub platforms: Vec<PlatformId>,
    /// The full resources of each platform, in `platforms` order: a
    /// slice is priced as its share of these.
    pub capacity: Vec<NodeResources>,
    /// The reference platform (highest-end; scale-up profiling runs here).
    pub ref_platform: PlatformId,
    /// The full resources of the reference platform; framework-parameter
    /// profiling runs at this size so mapper counts are not capped by a
    /// tiny sandbox.
    pub ref_full: NodeResources,
    /// Framework-parameter configurations for analytics workloads.
    pub params: Vec<FrameworkParams>,
    /// Index into `params` of the stock configuration.
    pub default_params: usize,
    /// The interference sources, in column order.
    pub resources: [SharedResource; quasar_interference::RESOURCE_COUNT],
}

impl Axes {
    /// Builds the axes for a catalog.
    ///
    /// The anchor configuration is the largest configuration that fits on
    /// *every* platform, so heterogeneity columns are comparable.
    pub fn for_catalog(catalog: &PlatformCatalog) -> Axes {
        let reference = catalog.highest_end();
        let min_cores = catalog.iter().map(|p| p.cores).min().expect("non-empty");
        let min_mem = catalog
            .iter()
            .map(|p| p.memory_gb)
            .fold(f64::INFINITY, f64::min);

        let core_steps: Vec<u32> = [1u32, 2, 4, 6, 8, 12, 16, 20, 24]
            .into_iter()
            .filter(|&c| c <= reference.cores)
            .collect();
        let mem_steps: Vec<f64> = [1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0]
            .into_iter()
            .filter(|&m| m <= reference.memory_gb)
            .collect();

        let anchor_cores = *core_steps
            .iter()
            .filter(|&&c| c <= min_cores)
            .max()
            .expect("1 core always fits");
        let anchor_mem = mem_steps
            .iter()
            .copied()
            .filter(|&m| m <= min_mem)
            .fold(1.0_f64, f64::max);

        let mut scale_up = Vec::new();
        let mut anchor_config = 0;
        for &c in &core_steps {
            for &m in &mem_steps {
                if c == anchor_cores && m == anchor_mem {
                    anchor_config = scale_up.len();
                }
                scale_up.push(NodeResources::new(c, m));
            }
        }

        let params = FrameworkParams::search_space();
        let default_params = params
            .iter()
            .position(|p| *p == FrameworkParams::hadoop_default())
            .expect("stock config is in the search space");

        Axes {
            scale_up,
            anchor_config,
            scale_out: vec![1, 2, 3, 4, 6, 8, 12, 16, 24, 32],
            scale_out_probe: NodeResources::new(
                8.min(reference.cores),
                12.0_f64.min(reference.memory_gb),
            ),
            platforms: catalog.iter().map(|p| p.id).collect(),
            capacity: catalog.iter().map(NodeResources::all_of).collect(),
            ref_platform: reference.id,
            ref_full: NodeResources::all_of(reference),
            params,
            default_params,
            resources: SharedResource::ALL,
        }
    }

    /// The anchor configuration itself.
    pub fn anchor(&self) -> NodeResources {
        self.scale_up[self.anchor_config]
    }

    /// The index of the reference platform within `platforms`.
    pub fn ref_platform_index(&self) -> usize {
        self.platforms
            .iter()
            .position(|&p| p == self.ref_platform)
            .expect("reference platform is in the axis")
    }

    /// The scale-up column whose configuration is closest to `res`
    /// (Euclidean in normalized cores/memory), used to quantize arbitrary
    /// allocations onto the axis.
    pub fn nearest_scale_up(&self, res: NodeResources) -> usize {
        let max_cores = self
            .scale_up
            .iter()
            .map(|r| r.cores)
            .max()
            .expect("axis non-empty") as f64;
        let max_mem = self
            .scale_up
            .iter()
            .map(|r| r.memory_gb)
            .fold(0.0, f64::max);
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, cand) in self.scale_up.iter().enumerate() {
            let dc = (cand.cores as f64 - res.cores as f64) / max_cores;
            let dm = (cand.memory_gb - res.memory_gb) / max_mem;
            let d = dc * dc + dm * dm;
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// The scale-out column index for a node count (nearest column).
    pub fn nearest_scale_out(&self, nodes: usize) -> usize {
        self.scale_out
            .iter()
            .enumerate()
            .min_by_key(|(_, &n)| n.abs_diff(nodes))
            .map(|(i, _)| i)
            .expect("axis non-empty")
    }

    /// The scale-out column holding exactly `nodes`, or `None` when this
    /// axis configuration does not include that count.
    pub fn scale_out_position(&self, nodes: usize) -> Option<usize> {
        self.scale_out.iter().position(|&n| n == nodes)
    }

    /// The scale-out column for `nodes`, falling back to the nearest
    /// column when the exact count is absent from the axis.
    ///
    /// Custom axis configurations (a coarser grid, a cluster capped below
    /// some node count) are legal; code that only needs a representative
    /// column must degrade to the nearest one instead of panicking.
    pub fn scale_out_or_nearest(&self, nodes: usize) -> usize {
        self.scale_out_position(nodes)
            .unwrap_or_else(|| self.nearest_scale_out(nodes))
    }

    /// The heterogeneity column index for a platform.
    ///
    /// # Panics
    ///
    /// Panics if the platform is not in the axis.
    pub fn platform_index(&self, platform: PlatformId) -> usize {
        self.platforms
            .iter()
            .position(|&p| p == platform)
            .expect("platform is in the axis")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goal_kind_maps_targets() {
        assert_eq!(GoalKind::of(&QosTarget::completion(10.0)), GoalKind::Time);
        assert_eq!(
            GoalKind::of(&QosTarget::throughput(1.0, 1.0)),
            GoalKind::Qps
        );
        assert_eq!(GoalKind::of(&QosTarget::ips(1.0)), GoalKind::Rate);
    }

    #[test]
    fn speed_conversion_round_trips() {
        for kind in GoalKind::ALL {
            let v = 123.0;
            assert!((kind.from_speed(kind.to_speed(v)) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn anchor_fits_every_platform() {
        for catalog in [PlatformCatalog::local(), PlatformCatalog::ec2()] {
            let axes = Axes::for_catalog(&catalog);
            let anchor = axes.anchor();
            for p in catalog.iter() {
                assert!(anchor.cores <= p.cores, "{}: anchor cores", p.name);
                assert!(anchor.memory_gb <= p.memory_gb, "{}: anchor mem", p.name);
            }
        }
    }

    #[test]
    fn anchor_is_a_scale_up_column() {
        let axes = Axes::for_catalog(&PlatformCatalog::local());
        assert_eq!(axes.scale_up[axes.anchor_config], axes.anchor());
    }

    #[test]
    fn nearest_scale_up_finds_exact_columns() {
        let axes = Axes::for_catalog(&PlatformCatalog::local());
        for (i, res) in axes.scale_up.iter().enumerate() {
            assert_eq!(axes.nearest_scale_up(*res), i);
        }
    }

    #[test]
    fn nearest_scale_out_rounds() {
        let axes = Axes::for_catalog(&PlatformCatalog::local());
        assert_eq!(axes.scale_out[axes.nearest_scale_out(1)], 1);
        assert_eq!(axes.scale_out[axes.nearest_scale_out(5)], 4);
        assert_eq!(axes.scale_out[axes.nearest_scale_out(1000)], 32);
    }

    #[test]
    fn scale_out_lookup_degrades_gracefully_on_custom_axes() {
        let mut axes = Axes::for_catalog(&PlatformCatalog::local());
        assert_eq!(axes.scale_out_position(1), Some(0));
        assert_eq!(axes.scale_out_or_nearest(1), 0);
        // A custom axis set that omits both the 1-node and 8-node counts
        // must fall back to the nearest column, not panic.
        axes.scale_out = vec![2, 6, 12];
        assert_eq!(axes.scale_out_position(1), None);
        assert_eq!(axes.scale_out_position(8), None);
        assert_eq!(axes.scale_out_or_nearest(1), 0); // 2 is nearest to 1
        assert_eq!(axes.scale_out_or_nearest(8), 1); // 6 beats 12 for 8
    }

    #[test]
    fn ref_platform_is_highest_end() {
        let catalog = PlatformCatalog::local();
        let axes = Axes::for_catalog(&catalog);
        assert_eq!(axes.ref_platform, catalog.highest_end().id);
        assert_eq!(axes.platforms[axes.ref_platform_index()], axes.ref_platform);
    }
}
