//! Composing classification outputs into performance predictions.
//!
//! The four classifications are independent (paper §3.2); the estimator
//! recombines them multiplicatively around a shared anchor point: speed at
//! the anchor configuration on the reference platform with one node and no
//! interference. Heterogeneity, scale-up, scale-out, framework parameters,
//! and interference each contribute a ratio against their anchor column.

use quasar_interference::{penalty_for, PressureVector};

use crate::axes::Axes;
use crate::classify::Classification;
use crate::ordering::desirability;

/// One planned node for prediction purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedNode {
    /// Index into [`Axes::platforms`].
    pub platform_index: usize,
    /// Index into [`Axes::scale_up`].
    pub scale_up_col: usize,
    /// Estimated external pressure on the hosting server.
    pub pressure: PressureVector,
}

/// Predicts workload performance for candidate allocations from a
/// [`Classification`].
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'a> {
    axes: &'a Axes,
    class: &'a Classification,
}

impl<'a> Estimator<'a> {
    /// Creates an estimator over a classification.
    pub fn new(axes: &'a Axes, class: &'a Classification) -> Estimator<'a> {
        Estimator { axes, class }
    }

    /// Anchor speed: the classified speed at the anchor scale-up column
    /// (reference platform, one node, quiet).
    fn anchor_speed(&self) -> f64 {
        self.class.scale_up_speed[self.axes.anchor_config].max(1e-12)
    }

    /// Estimated interference penalty under external pressure, using the
    /// classified tolerated-pressure vector and the standard decay law.
    pub fn penalty(&self, pressure: &PressureVector) -> f64 {
        penalty_for(&self.class.tolerated, pressure)
    }

    /// Speed multiplier of a platform relative to the reference platform.
    pub fn hetero_factor(&self, platform_index: usize) -> f64 {
        let reference = self.class.hetero_speed[self.axes.ref_platform_index()].max(1e-12);
        self.class.hetero_speed[platform_index].max(0.0) / reference
    }

    /// Speed multiplier of a scale-up column relative to the anchor.
    pub fn scale_up_factor(&self, col: usize) -> f64 {
        self.class.scale_up_speed[col].max(0.0) / self.anchor_speed()
    }

    /// Per-node efficiency of running on `n` nodes relative to `n`
    /// independent single nodes: `speed(n) / (n × speed(1))` from the
    /// scale-out classification, interpolating between axis columns and
    /// extrapolating with the last measured efficiency beyond them.
    pub fn scale_out_efficiency(&self, nodes: usize) -> f64 {
        let Some(so) = &self.class.scale_out_speed else {
            return if nodes <= 1 { 1.0 } else { 0.0 };
        };
        let one = self.axes.scale_out_or_nearest(1);
        let base = so[one].max(1e-12);
        let speed_at = |nodes: usize| -> f64 {
            // Piecewise-linear in node count across the axis columns.
            let axis = &self.axes.scale_out;
            if let Some(i) = axis.iter().position(|&n| n == nodes) {
                return so[i].max(0.0);
            }
            let mut prev = 0;
            for (i, &n) in axis.iter().enumerate() {
                if n > nodes {
                    if i == 0 {
                        return so[0].max(0.0);
                    }
                    let (n0, n1) = (axis[i - 1] as f64, n as f64);
                    let (s0, s1) = (so[i - 1], so[i]);
                    let t = (nodes as f64 - n0) / (n1 - n0);
                    return (s0 + t * (s1 - s0)).max(0.0);
                }
                prev = i;
            }
            // Beyond the largest column: extrapolate with constant
            // per-node efficiency (the paper's feedback loop covers this
            // regime at runtime).
            let last_n = axis[prev] as f64;
            (so[prev] / last_n * nodes as f64).max(0.0)
        };
        (speed_at(nodes) / (nodes as f64 * base)).min(2.0)
    }

    /// The framework-parameter column `col` as it runs on a node of
    /// `cores` cores: the same configuration with its mapper count cut
    /// to the largest the search space offers at or below `cores` (the
    /// smallest when none fits). Mappers beyond the cores add no useful
    /// parallelism, and the parameter axis is profiled on the reference
    /// platform's full node, where they did.
    fn params_on_node(&self, col: usize, cores: u32) -> usize {
        let p = self.axes.params[col];
        let same_but_mappers = |q: &quasar_workloads::FrameworkParams| {
            q.heap_gb == p.heap_gb
                && q.block_size_mb == p.block_size_mb
                && q.replication == p.replication
                && q.compression == p.compression
        };
        let siblings =
            || (0..self.axes.params.len()).filter(|&c| same_but_mappers(&self.axes.params[c]));
        let mappers = |c: usize| self.axes.params[c].mappers_per_node;
        siblings()
            .filter(|&c| mappers(c) <= cores.min(p.mappers_per_node))
            .max_by_key(|&c| mappers(c))
            .or_else(|| siblings().min_by_key(|&c| mappers(c)))
            .unwrap_or(col)
    }

    /// Speed multiplier of framework-parameter column `col` on a node of
    /// `cores` cores, relative to the stock configuration on the same
    /// node (both with their mappers cut to the node's cores); 1.0 when
    /// the workload has no framework knobs. The scale-up axis is
    /// profiled under the stock configuration, whose 8 mappers leave
    /// the cores past the eighth idle, so this is the factor a scale-up
    /// column's speed takes under `col`.
    pub(crate) fn node_params_factor(&self, col: usize, cores: u32) -> f64 {
        match &self.class.params_speed {
            Some(p) => {
                let default = p[self.params_on_node(self.axes.default_params, cores)].max(1e-12);
                p[self.params_on_node(col, cores)].max(0.0) / default
            }
            None => 1.0,
        }
    }

    /// Speed multiplier of a scale-up column relative to the anchor when
    /// the node runs framework parameters `params_col` (`None`: the
    /// stock configuration, or no framework). This is the one per-node
    /// model: node sizing ranks columns by it and
    /// [`Estimator::total_speed`] predicts with it. Without the
    /// parameter term a framework job's scale-up row is flat past the
    /// stock mapper count, and the planner would never give a node the
    /// cores its re-picked mappers can use.
    pub(crate) fn node_factor(&self, col: usize, params_col: Option<usize>) -> f64 {
        let cores = self.axes.scale_up[col].cores;
        self.scale_up_factor(col) * params_col.map_or(1.0, |p| self.node_params_factor(p, cores))
    }

    /// The scale-up column with the highest [`Estimator::node_factor`]
    /// under `params_col` among those within `cores` cores and
    /// `memory_gb` GB, the smaller footprint on ties; `None` when none
    /// fits.
    pub(crate) fn best_node_col(
        &self,
        params_col: Option<usize>,
        cores: u32,
        memory_gb: f64,
    ) -> Option<usize> {
        let axes = self.axes;
        (0..axes.scale_up.len())
            .filter(|&c| axes.scale_up[c].cores <= cores && axes.scale_up[c].memory_gb <= memory_gb)
            .max_by(|&a, &b| {
                desirability(self.node_factor(a, params_col))
                    .total_cmp(&desirability(self.node_factor(b, params_col)))
                    .then_with(|| {
                        (axes.scale_up[b].cores, axes.scale_up[b].memory_gb as u64)
                            .cmp(&(axes.scale_up[a].cores, axes.scale_up[a].memory_gb as u64))
                    })
            })
    }

    /// Predicted aggregate *speed* of an allocation (goal-kind agnostic:
    /// higher is better).
    pub fn total_speed(&self, nodes: &[PlannedNode], params_col: Option<usize>) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        let anchor = self.anchor_speed();
        let per_node: f64 = nodes
            .iter()
            .map(|n| {
                anchor
                    * self.hetero_factor(n.platform_index)
                    * self.node_factor(n.scale_up_col, params_col)
                    * self.penalty(&n.pressure)
            })
            .sum();
        let efficiency = self.scale_out_efficiency(nodes.len());
        per_node * efficiency * self.class.runtime_calibration
    }

    /// Predicted goal value (completion seconds / QPS / IPS) of an
    /// allocation.
    pub fn predicted_goal(&self, nodes: &[PlannedNode], params_col: Option<usize>) -> f64 {
        self.class
            .kind
            .from_speed(self.total_speed(nodes, params_col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::GoalKind;
    use quasar_workloads::PlatformCatalog;

    fn axes() -> Axes {
        Axes::for_catalog(&PlatformCatalog::local())
    }

    /// A synthetic classification with known structure: speed doubles on
    /// the reference platform vs others, scales linearly with the
    /// scale-up column index + 1, and scale-out is perfectly linear.
    fn synthetic(axes: &Axes, kind: GoalKind) -> Classification {
        Classification {
            kind,
            scale_up_speed: (0..axes.scale_up.len()).map(|i| (i + 1) as f64).collect(),
            scale_out_speed: Some(axes.scale_out.iter().map(|&n| n as f64 * 10.0).collect()),
            hetero_speed: (0..axes.platforms.len())
                .map(|i| {
                    if i == axes.ref_platform_index() {
                        2.0
                    } else {
                        1.0
                    }
                })
                .collect(),
            params_speed: None,
            tolerated: PressureVector::uniform(50.0),
            caused: PressureVector::uniform(10.0),
            runtime_calibration: 1.0,
        }
    }

    #[test]
    fn hetero_factor_is_relative_to_reference() {
        let axes = axes();
        let class = synthetic(&axes, GoalKind::Qps);
        let est = Estimator::new(&axes, &class);
        assert_eq!(est.hetero_factor(axes.ref_platform_index()), 1.0);
        let other = (axes.ref_platform_index() + 1) % axes.platforms.len();
        assert_eq!(est.hetero_factor(other), 0.5);
    }

    #[test]
    fn scale_out_efficiency_of_linear_axis_is_one() {
        let axes = axes();
        let class = synthetic(&axes, GoalKind::Qps);
        let est = Estimator::new(&axes, &class);
        for n in [1usize, 2, 4, 8, 16, 32] {
            assert!(
                (est.scale_out_efficiency(n) - 1.0).abs() < 1e-9,
                "linear scale-out axis must give unit efficiency at {n}"
            );
        }
        // Interpolated and extrapolated points too.
        assert!((est.scale_out_efficiency(5) - 1.0).abs() < 0.05);
        assert!((est.scale_out_efficiency(64) - 1.0).abs() < 0.05);
    }

    #[test]
    fn total_speed_composes_factors() {
        let axes = axes();
        let class = synthetic(&axes, GoalKind::Qps);
        let est = Estimator::new(&axes, &class);
        let anchor = class.scale_up_speed[axes.anchor_config];
        let node = PlannedNode {
            platform_index: axes.ref_platform_index(),
            scale_up_col: axes.anchor_config,
            pressure: PressureVector::zero(),
        };
        let single = est.total_speed(&[node], None);
        assert!((single - anchor).abs() < 1e-9, "anchor must predict itself");
        let double = est.total_speed(&[node, node], None);
        assert!((double - 2.0 * anchor).abs() < 1e-6);
    }

    #[test]
    fn pressure_reduces_prediction() {
        let axes = axes();
        let class = synthetic(&axes, GoalKind::Qps);
        let est = Estimator::new(&axes, &class);
        let quiet = PlannedNode {
            platform_index: 0,
            scale_up_col: axes.anchor_config,
            pressure: PressureVector::zero(),
        };
        let noisy = PlannedNode {
            pressure: PressureVector::uniform(90.0),
            ..quiet
        };
        assert!(est.total_speed(&[noisy], None) < est.total_speed(&[quiet], None));
    }

    #[test]
    fn time_kind_inverts_goal() {
        let axes = axes();
        let class = synthetic(&axes, GoalKind::Time);
        let est = Estimator::new(&axes, &class);
        let node = PlannedNode {
            platform_index: axes.ref_platform_index(),
            scale_up_col: axes.anchor_config,
            pressure: PressureVector::zero(),
        };
        let goal_1 = est.predicted_goal(&[node], None);
        let goal_2 = est.predicted_goal(&[node, node], None);
        assert!(goal_2 < goal_1, "more nodes, shorter completion");
    }

    #[test]
    fn single_node_kind_cannot_scale_out() {
        let axes = axes();
        let mut class = synthetic(&axes, GoalKind::Rate);
        class.scale_out_speed = None;
        let est = Estimator::new(&axes, &class);
        assert_eq!(est.scale_out_efficiency(1), 1.0);
        assert_eq!(est.scale_out_efficiency(2), 0.0);
    }

    /// The parameter axis is profiled on a full reference node: a
    /// configuration's extra mappers speed up only a node with the cores
    /// to run them.
    #[test]
    fn params_gain_is_capped_by_the_node_cores() {
        let axes = axes();
        let mut class = synthetic(&axes, GoalKind::Time);
        // Speed proportional to the mapper count, as on a node with more
        // cores than any configuration has mappers.
        class.params_speed = Some(
            axes.params
                .iter()
                .map(|p| p.mappers_per_node as f64)
                .collect(),
        );
        let est = Estimator::new(&axes, &class);
        let stock = axes.params[axes.default_params];
        let sixteen = (0..axes.params.len())
            .find(|&c| {
                let p = axes.params[c];
                p.mappers_per_node == 16
                    && p.heap_gb == stock.heap_gb
                    && p.compression == stock.compression
            })
            .expect("a 16-mapper sibling of the stock configuration");
        assert_eq!(est.node_params_factor(sixteen, 24), 2.0);
        assert_eq!(est.node_params_factor(sixteen, 12), 1.5);
        assert_eq!(est.node_params_factor(sixteen, 8), 1.0);
        assert_eq!(est.node_params_factor(axes.default_params, 24), 1.0);
        // Below the smallest mapper count both sides take it.
        assert_eq!(est.node_params_factor(sixteen, 2), 1.0);
        // The stock configuration and no framework leave a column alone.
        let col = axes.anchor_config;
        assert_eq!(
            est.node_factor(col, Some(axes.default_params)),
            est.scale_up_factor(col)
        );
        assert_eq!(est.node_factor(col, None), est.scale_up_factor(col));
        // Prediction applies the same capped gain node by node: 16 mappers
        // double a 24-core node but leave an 8-core node at the stock speed.
        let node_at = |cores: u32| PlannedNode {
            platform_index: axes.ref_platform_index(),
            scale_up_col: (0..axes.scale_up.len())
                .find(|&c| axes.scale_up[c].cores == cores)
                .expect("a column with that many cores"),
            pressure: PressureVector::zero(),
        };
        for (cores, gain) in [(24, 2.0), (8, 1.0)] {
            let nodes = [node_at(cores)];
            let ratio = est.total_speed(&nodes, Some(sixteen))
                / est.total_speed(&nodes, Some(axes.default_params));
            assert!((ratio - gain).abs() < 1e-12, "{cores} cores: {ratio}");
        }
        // Sizing picks the column that is fastest under the plan's
        // parameters, the smaller footprint on ties.
        let best = est
            .best_node_col(Some(sixteen), 24, 48.0)
            .expect("the full node fits");
        assert!(est.node_factor(best, Some(sixteen)) >= est.node_factor(col, Some(sixteen)));
        assert_eq!(est.best_node_col(Some(sixteen), 0, 48.0), None);
    }
}
