//! Greedy joint allocation and assignment (paper §3.3).
//!
//! The scheduler ranks available servers by decreasing resource quality
//! (estimated platform speed × estimated interference penalty × impact on
//! already-placed workloads), then sizes the allocation along the ranking
//! — scale-up within a server first, then scale-out — until the
//! performance constraint is met, and finally trims the last node to the
//! least sufficient configuration.

use quasar_interference::PressureVector;
use quasar_workloads::{NodeResources, QosTarget};

use crate::axes::{Axes, GoalKind};
use crate::classify::Classification;
use crate::estimate::{Estimator, PlannedNode};
use crate::ordering::{cost, desirability};

/// A candidate server as seen by the scheduler: free resources plus the
/// manager's *estimates* of its pressure and of how much headroom its
/// current tenants have (so the new workload doesn't wreck them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateServer {
    /// Server identity (opaque to the scheduler; echoed in the plan).
    pub server: usize,
    /// Index into [`Axes::platforms`].
    pub platform_index: usize,
    /// Free cores.
    pub free_cores: u32,
    /// Free memory in GB.
    pub free_memory_gb: f64,
    /// Estimated external pressure the new workload would see there.
    pub pressure: PressureVector,
    /// Multiplier in `(0, 1]` penalizing servers where the incoming
    /// workload's caused pressure would push an existing tenant past its
    /// tolerance (1.0 = no victims).
    pub victim_factor: f64,
    /// Hourly price of the whole server, in dollars (cost-target
    /// extension, paper §4.4).
    pub hourly_price: f64,
}

impl CandidateServer {
    /// Whether the server has room for the smallest slice the planner
    /// considers (one core, 1 GB); the planner ignores every other
    /// candidate.
    pub(crate) fn has_room(&self) -> bool {
        self.free_cores >= 1 && self.free_memory_gb >= 1.0
    }
}

/// The scheduler's output: per-server slices, chosen framework-parameter
/// column, and the performance prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationPlan {
    /// `(candidate server id, resources)` slices.
    pub nodes: Vec<(usize, NodeResources)>,
    /// Chosen framework-parameter column, if applicable.
    pub params_col: Option<usize>,
    /// Predicted goal value of the plan.
    pub predicted_goal: f64,
    /// Whether the prediction meets the target with margin.
    pub meets: bool,
    /// Estimated spend of the plan in dollars per hour (slices are billed
    /// pro rata to the share of the server they hold).
    pub hourly_cost: f64,
}

/// Margin the scheduler leaves against the target to absorb measurement
/// noise and classification error.
const TARGET_MARGIN: f64 = 0.08;

/// Greedy joint allocation/assignment over classified estimates.
#[derive(Debug, Clone, Copy)]
pub struct GreedyScheduler {
    /// Maximum nodes per workload.
    pub max_nodes: usize,
}

impl GreedyScheduler {
    /// A scheduler bounded at `max_nodes` nodes per workload.
    pub fn new(max_nodes: usize) -> GreedyScheduler {
        assert!(max_nodes >= 1, "need at least one node");
        GreedyScheduler { max_nodes }
    }

    /// Computes an allocation plan for a workload.
    ///
    /// Returns `None` when no candidate has room for even the smallest
    /// configuration. Otherwise returns the best plan found, with `meets`
    /// indicating whether it satisfies the target.
    pub fn plan(
        &self,
        axes: &Axes,
        class: &Classification,
        target: &QosTarget,
        candidates: &[CandidateServer],
    ) -> Option<AllocationPlan> {
        self.plan_with_budget(axes, class, target, candidates, None)
    }

    /// [`GreedyScheduler::plan`] with an optional spending cap in dollars
    /// per hour: node growth stops at the budget, and the most expensive
    /// slices are dropped if a partial plan overshoots it (the paper's
    /// §4.4 cost target "serves as a limit for resource allocation").
    pub fn plan_with_budget(
        &self,
        axes: &Axes,
        class: &Classification,
        target: &QosTarget,
        candidates: &[CandidateServer],
        budget_per_hour: Option<f64>,
    ) -> Option<AllocationPlan> {
        let _span = quasar_obs::span!("core.greedy.plan", "candidates={}", candidates.len());
        {
            static PLANS: std::sync::OnceLock<quasar_obs::registry::Counter> =
                std::sync::OnceLock::new();
            PLANS
                .get_or_init(|| quasar_obs::Registry::global().counter("quasar.core.greedy.plans"))
                .inc();
        }
        let est = Estimator::new(axes, class);

        // Pick framework parameters first: the best-estimated column whose
        // memory footprint is modest (packing-friendly).
        let params_col = class.params_speed.as_ref().map(|speeds| {
            speeds
                .iter()
                .enumerate()
                .filter(|(c, _)| axes.params[*c].memory_per_node_gb() <= 24.0)
                .max_by(|a, b| desirability(*a.1).total_cmp(&desirability(*b.1)))
                .map(|(c, _)| c)
                .unwrap_or(axes.default_params)
        });

        // Rank candidates by quality: estimated platform speed on a quiet
        // node, degraded by estimated interference and victim impact.
        let mut ranked: Vec<&CandidateServer> =
            candidates.iter().filter(|c| c.has_room()).collect();
        if ranked.is_empty() {
            return None;
        }
        let quality = |c: &CandidateServer| -> f64 {
            est.hetero_factor(c.platform_index) * est.penalty(&c.pressure) * c.victim_factor
        };
        // A non-finite quality estimate (model blow-up) must never rank
        // ahead of any finite candidate.
        ranked.sort_by(|a, b| desirability(quality(b)).total_cmp(&desirability(quality(a))));

        let single_node_only = class.scale_out_speed.is_none();
        let max_nodes = if single_node_only { 1 } else { self.max_nodes };
        if single_node_only {
            // One node: the best-quality server whose best fitting
            // configuration meets the target, else the one predicted
            // fastest. The best-quality server alone may have too little
            // room left, and a job placed short of its target there is
            // migrated straight back to it.
            let alone = |c: &CandidateServer| {
                let col = est.best_node_col(params_col, c.free_cores, c.free_memory_gb)?;
                let node = PlannedNode {
                    platform_index: c.platform_index,
                    scale_up_col: col,
                    pressure: c.pressure,
                };
                Some(est.total_speed(&[node], params_col))
            };
            let meets = |speed: f64| meets_target(class.kind, class.kind.from_speed(speed), target);
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in ranked.iter().enumerate() {
                let Some(speed) = alone(c) else {
                    continue;
                };
                if meets(speed) {
                    best = Some((i, speed));
                    break;
                }
                if best.is_none_or(|(_, s)| desirability(speed) > desirability(s)) {
                    best = Some((i, speed));
                }
            }
            if let Some((i, _)) = best {
                ranked.swap(0, i);
            }
        }

        // Grow node set best-quality-first, each node at its best fitting
        // scale-up configuration (scale-up before scale-out, §3.3),
        // stopping at the spending cap when one is set.
        let mut planned: Vec<PlannedNode> = Vec::new();
        let mut chosen: Vec<(usize, NodeResources)> = Vec::new();
        let mut spend = 0.0;
        for candidate in ranked.iter().take(max_nodes) {
            let Some(col) =
                est.best_node_col(params_col, candidate.free_cores, candidate.free_memory_gb)
            else {
                continue;
            };
            let node_cost = slice_cost(axes, candidate, axes.scale_up[col]);
            if let Some(budget) = budget_per_hour {
                if spend + node_cost > budget {
                    continue; // a cheaper later candidate may still fit
                }
            }
            spend += node_cost;
            planned.push(PlannedNode {
                platform_index: candidate.platform_index,
                scale_up_col: col,
                pressure: candidate.pressure,
            });
            chosen.push((candidate.server, axes.scale_up[col]));
            let goal = est.predicted_goal(&planned, params_col);
            if meets_target(class.kind, goal, target) {
                break;
            }
        }
        if chosen.is_empty() {
            // Nothing affordable at best-fitting size: fall back to the
            // single cheapest fitting slice so the workload still runs
            // (the cost target "serves as a limit", not a veto).
            let col_cost =
                |c: &CandidateServer, col: usize| cost(slice_cost(axes, c, axes.scale_up[col]));
            let cheapest = ranked
                .iter()
                .filter_map(|c| {
                    est.best_node_col(params_col, c.free_cores, c.free_memory_gb)
                        .map(|col| {
                            let smallest = (0..axes.scale_up.len())
                                .filter(|&cc| {
                                    let r = axes.scale_up[cc];
                                    r.cores <= c.free_cores && r.memory_gb <= c.free_memory_gb
                                })
                                .min_by(|&a, &b| col_cost(c, a).total_cmp(&col_cost(c, b)))
                                .unwrap_or(col);
                            (c, smallest)
                        })
                })
                .min_by(|(ca, a), (cb, b)| col_cost(ca, *a).total_cmp(&col_cost(cb, *b)));
            if let Some((c, col)) = cheapest {
                planned.push(PlannedNode {
                    platform_index: c.platform_index,
                    scale_up_col: col,
                    pressure: c.pressure,
                });
                chosen.push((c.server, axes.scale_up[col]));
            } else {
                return None;
            }
        }

        // Re-pick framework parameters now that node sizes are known: the
        // mapper count must not cap the cores we just allocated (Table 3:
        // Quasar raises mappers/node to match, and beyond, the hardware
        // when mapper interference is low).
        let params_col = params_col.map(|initial| {
            let speeds = class
                .params_speed
                .as_ref()
                .expect("params_col implies speeds");
            let c_max = chosen.iter().map(|(_, r)| r.cores).max().unwrap_or(1);
            let pool: Vec<usize> = (0..axes.params.len())
                .filter(|&c| axes.params[c].mappers_per_node >= c_max)
                .collect();
            let pool = if pool.is_empty() {
                (0..axes.params.len()).collect()
            } else {
                pool
            };
            pool.into_iter()
                .max_by(|&a, &b| desirability(speeds[a]).total_cmp(&desirability(speeds[b])))
                .unwrap_or(initial)
        });

        // Trim: shrink every node (weakest-quality last, so the best
        // servers keep their capacity) to the smallest configuration that
        // still meets the target ("allocate the least amount of resources
        // needed", §3.3).
        let goal = est.predicted_goal(&planned, params_col);
        if meets_target(class.kind, goal, target) {
            for idx in (0..planned.len()).rev() {
                self.trim_node(
                    axes,
                    &est,
                    params_col,
                    target,
                    class.kind,
                    idx,
                    &mut planned,
                    &mut chosen,
                );
            }
        }

        let predicted_goal = est.predicted_goal(&planned, params_col);
        let hourly_cost = chosen
            .iter()
            .map(|&(server, res)| {
                let cand = candidates
                    .iter()
                    .find(|c| c.server == server)
                    .expect("chosen servers come from the candidate set");
                slice_cost(axes, cand, res)
            })
            .sum();
        Some(AllocationPlan {
            nodes: chosen,
            params_col,
            predicted_goal,
            meets: meets_target(class.kind, predicted_goal, target),
            hourly_cost,
        })
    }

    /// Shrinks one node's configuration while the plan still meets the
    /// target.
    #[allow(clippy::too_many_arguments)]
    fn trim_node(
        &self,
        axes: &Axes,
        est: &Estimator<'_>,
        params_col: Option<usize>,
        target: &QosTarget,
        kind: GoalKind,
        last: usize,
        planned: &mut [PlannedNode],
        chosen: &mut [(usize, NodeResources)],
    ) {
        let current = planned[last].scale_up_col;
        // Candidate smaller columns, ordered by ascending footprint.
        let mut smaller: Vec<usize> = (0..axes.scale_up.len())
            .filter(|&c| {
                let r = axes.scale_up[c];
                let cur = axes.scale_up[current];
                r.cores <= cur.cores && r.memory_gb <= cur.memory_gb && c != current
            })
            .collect();
        smaller.sort_by(|&a, &b| {
            let (ra, rb) = (axes.scale_up[a], axes.scale_up[b]);
            (ra.cores, ra.memory_gb as u64).cmp(&(rb.cores, rb.memory_gb as u64))
        });
        for c in smaller {
            let saved = planned[last].scale_up_col;
            planned[last].scale_up_col = c;
            let goal = est.predicted_goal(planned, params_col);
            if meets_target(kind, goal, target) {
                chosen[last].1 = axes.scale_up[c];
                return;
            }
            planned[last].scale_up_col = saved;
        }
    }
}

/// Pro-rata hourly price of holding `res` on a server with `whole`
/// resources that costs `hourly_price`: the dominant share of the whole
/// server's cores or memory times its price, whatever its tenants
/// already hold. The planner and the manager's cost cap (§4.4) both
/// price slices with it.
pub(crate) fn slice_price(hourly_price: f64, whole: NodeResources, res: NodeResources) -> f64 {
    hourly_price
        * (res.cores as f64 / whole.cores as f64)
            .max(res.memory_gb / whole.memory_gb)
            .min(1.0)
}

/// [`slice_price`] of `res` on a candidate server.
fn slice_cost(axes: &Axes, candidate: &CandidateServer, res: NodeResources) -> f64 {
    slice_price(
        candidate.hourly_price,
        axes.capacity[candidate.platform_index],
        res,
    )
}

/// Whether a predicted goal value satisfies a target with margin.
fn meets_target(kind: GoalKind, predicted: f64, target: &QosTarget) -> bool {
    match (kind, target) {
        (GoalKind::Time, QosTarget::CompletionTime { seconds }) => {
            predicted <= seconds * (1.0 - TARGET_MARGIN)
        }
        (GoalKind::Qps, QosTarget::Throughput { qps, .. }) => {
            predicted >= qps * (1.0 + TARGET_MARGIN)
        }
        (GoalKind::Rate, QosTarget::Ips { ips }) => predicted >= ips * (1.0 + TARGET_MARGIN),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_workloads::PlatformCatalog;

    fn axes() -> Axes {
        Axes::for_catalog(&PlatformCatalog::local())
    }

    /// A classification where speed is proportional to cores on every
    /// platform, platform 9 (J) is twice as fast as the rest, and
    /// scale-out is linear.
    fn class(axes: &Axes, kind: GoalKind) -> Classification {
        Classification {
            kind,
            scale_up_speed: axes
                .scale_up
                .iter()
                .map(|r| r.cores as f64 * (1.0 + r.memory_gb / 100.0))
                .collect(),
            scale_out_speed: Some(axes.scale_out.iter().map(|&n| n as f64).collect()),
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
            tolerated: PressureVector::uniform(60.0),
            caused: PressureVector::uniform(15.0),
            runtime_calibration: 1.0,
        }
    }

    fn candidate(server: usize, platform_index: usize, cores: u32, mem: f64) -> CandidateServer {
        CandidateServer {
            server,
            platform_index,
            free_cores: cores,
            free_memory_gb: mem,
            pressure: PressureVector::zero(),
            victim_factor: 1.0,
            hourly_price: 1.0,
        }
    }

    #[test]
    fn prefers_the_fast_quiet_server() {
        let axes = axes();
        let class = class(&axes, GoalKind::Qps);
        let scheduler = GreedyScheduler::new(4);
        let ref_idx = axes.ref_platform_index();
        let other = (ref_idx + 1) % axes.platforms.len();
        let candidates = vec![
            candidate(0, other, 24, 48.0),
            candidate(1, ref_idx, 24, 48.0),
        ];
        // Small target: one node suffices.
        let anchor_speed = class.scale_up_speed[axes.anchor_config];
        let target = QosTarget::throughput(anchor_speed * 0.5, 1000.0);
        let plan = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
        assert!(plan.meets);
        assert_eq!(plan.nodes[0].0, 1, "must pick the reference platform");
    }

    #[test]
    fn scales_out_when_one_node_is_not_enough() {
        let axes = axes();
        let class = class(&axes, GoalKind::Qps);
        let scheduler = GreedyScheduler::new(8);
        let ref_idx = axes.ref_platform_index();
        let candidates: Vec<_> = (0..8).map(|i| candidate(i, ref_idx, 24, 48.0)).collect();
        // Max single-node speed = 24 cores × factor × hetero(2) — ask for
        // roughly 3 nodes worth.
        let one_node_speed = 2.0 * 24.0 * (1.0 + 48.0 / 100.0);
        let target = QosTarget::throughput(one_node_speed * 2.5, 1000.0);
        let plan = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
        assert!(plan.meets, "predicted {}", plan.predicted_goal);
        assert!(
            plan.nodes.len() >= 3,
            "needs at least 3 nodes, got {}",
            plan.nodes.len()
        );
    }

    #[test]
    fn trims_to_least_sufficient_allocation() {
        let axes = axes();
        let class = class(&axes, GoalKind::Qps);
        let scheduler = GreedyScheduler::new(4);
        let ref_idx = axes.ref_platform_index();
        let candidates = vec![candidate(0, ref_idx, 24, 48.0)];
        // Tiny target: smallest config should be chosen after trimming.
        let target = QosTarget::throughput(0.5, 1000.0);
        let plan = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
        assert!(plan.meets);
        assert_eq!(plan.nodes.len(), 1);
        let res = plan.nodes[0].1;
        assert!(
            res.cores <= 2,
            "tiny target must get a tiny slice, got {} cores",
            res.cores
        );
    }

    #[test]
    fn victim_factor_deranks_harmful_colocations() {
        let axes = axes();
        let class = class(&axes, GoalKind::Qps);
        let scheduler = GreedyScheduler::new(2);
        let ref_idx = axes.ref_platform_index();
        let mut bad = candidate(0, ref_idx, 24, 48.0);
        bad.victim_factor = 0.1;
        let good = candidate(1, ref_idx, 24, 48.0);
        let target = QosTarget::throughput(1.0, 1000.0);
        let plan = scheduler
            .plan(&axes, &class, &target, &[bad, good])
            .unwrap();
        assert_eq!(plan.nodes[0].0, 1, "victimizing server must rank last");
    }

    #[test]
    fn single_node_workloads_never_scale_out() {
        let axes = axes();
        let mut class = class(&axes, GoalKind::Rate);
        class.scale_out_speed = None;
        let scheduler = GreedyScheduler::new(8);
        let ref_idx = axes.ref_platform_index();
        let candidates: Vec<_> = (0..4).map(|i| candidate(i, ref_idx, 24, 48.0)).collect();
        // Impossible target: still at most one node.
        let target = QosTarget::ips(1e12);
        let plan = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
        assert_eq!(plan.nodes.len(), 1);
        assert!(!plan.meets);
    }

    /// A single-node job passes over the best-quality server when what is
    /// left of it cannot meet the target and a slower one can; with no
    /// server able to, it takes the one predicted fastest.
    #[test]
    fn single_node_workloads_take_a_server_with_room() {
        let axes = axes();
        let mut class = class(&axes, GoalKind::Rate);
        class.scale_out_speed = None;
        let scheduler = GreedyScheduler::new(8);
        let ref_idx = axes.ref_platform_index();
        let other = (ref_idx + 1) % axes.platforms.len();
        // The fast platform has 2 cores left; the slow one a whole node.
        let candidates = vec![
            candidate(0, ref_idx, 2, 48.0),
            candidate(1, other, 24, 48.0),
        ];
        let one_core = class.scale_up_speed[axes.nearest_scale_up(NodeResources::new(1, 1.0))];
        let target = QosTarget::ips(one_core * 8.0);
        let plan = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
        assert!(plan.meets, "predicted {}", plan.predicted_goal);
        assert_eq!(plan.nodes[0].0, 1);
        // Out of reach everywhere: the faster of the two best fits.
        let target = QosTarget::ips(1e12);
        let plan = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
        assert!(!plan.meets);
        assert_eq!(plan.nodes[0].0, 1);
    }

    #[test]
    fn budget_caps_the_spend() {
        let axes = axes();
        let class = class(&axes, GoalKind::Qps);
        let scheduler = GreedyScheduler::new(8);
        let ref_idx = axes.ref_platform_index();
        let candidates: Vec<_> = (0..8).map(|i| candidate(i, ref_idx, 24, 48.0)).collect();
        // A target needing several nodes, but a budget for ~1.5 of them.
        let one_node_speed = 2.0 * 24.0 * (1.0 + 48.0 / 100.0);
        let target = QosTarget::throughput(one_node_speed * 4.0, 1000.0);
        let unlimited = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
        assert!(unlimited.nodes.len() >= 4);
        assert!(unlimited.hourly_cost > 1.5);
        let capped = scheduler
            .plan_with_budget(&axes, &class, &target, &candidates, Some(1.5))
            .unwrap();
        assert!(
            capped.hourly_cost <= 1.5 + 1e-9,
            "cost {:.2} must respect the budget",
            capped.hourly_cost
        );
        assert!(!capped.meets, "the budget prevents meeting the target");
        assert!(capped.nodes.len() < unlimited.nodes.len());
    }

    #[test]
    fn plans_report_their_cost() {
        let axes = axes();
        let class = class(&axes, GoalKind::Qps);
        let scheduler = GreedyScheduler::new(2);
        let ref_idx = axes.ref_platform_index();
        let candidates = vec![candidate(0, ref_idx, 24, 48.0)];
        let target = QosTarget::throughput(1.0, 1000.0);
        let plan = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
        assert!(plan.hourly_cost > 0.0 && plan.hourly_cost <= 1.0 + 1e-9);
    }

    /// A slice is priced as a share of its whole platform, so what the
    /// server's tenants already hold does not change its price.
    #[test]
    fn a_slice_costs_the_same_on_a_busy_server_as_on_an_idle_one() {
        let axes = axes();
        let class = class(&axes, GoalKind::Qps);
        let scheduler = GreedyScheduler::new(1);
        let ref_idx = axes.ref_platform_index();
        let target = QosTarget::throughput(1.0, 1000.0);
        let plan_on = |cores: u32, mem: f64| {
            scheduler
                .plan(&axes, &class, &target, &[candidate(0, ref_idx, cores, mem)])
                .unwrap()
        };
        let idle = plan_on(24, 48.0);
        let busy = plan_on(12, 24.0);
        assert_eq!(idle.nodes, busy.nodes, "both trim to the same slice");
        assert_eq!(idle.hourly_cost.to_bits(), busy.hourly_cost.to_bits());
        // The reference platform has 24 cores and 48 GB; the price is 1.
        let res = idle.nodes[0].1;
        let share = (res.cores as f64 / 24.0).max(res.memory_gb / 48.0);
        assert_eq!(idle.hourly_cost, share);
    }

    #[test]
    fn no_capacity_returns_none() {
        let axes = axes();
        let class = class(&axes, GoalKind::Qps);
        let scheduler = GreedyScheduler::new(2);
        let candidates = vec![candidate(0, 0, 0, 0.5)];
        let target = QosTarget::throughput(1.0, 1000.0);
        assert!(scheduler
            .plan(&axes, &class, &target, &candidates)
            .is_none());
    }

    #[test]
    fn unmeetable_target_returns_best_effort_plan() {
        let axes = axes();
        let class = class(&axes, GoalKind::Time);
        let scheduler = GreedyScheduler::new(2);
        let ref_idx = axes.ref_platform_index();
        let candidates = vec![candidate(0, ref_idx, 4, 8.0)];
        let target = QosTarget::completion(1e-9);
        let plan = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
        assert!(!plan.meets);
        assert_eq!(plan.nodes.len(), 1);
    }

    #[test]
    fn non_finite_estimates_never_rank_first() {
        // A corrupted CF estimate (NaN or infinite speed on one platform)
        // must neither panic the scheduler nor make that platform look
        // infinitely attractive.
        let axes = axes();
        let scheduler = GreedyScheduler::new(4);
        let ref_idx = axes.ref_platform_index();
        let poisoned_idx = (ref_idx + 1) % axes.platforms.len();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut class = class(&axes, GoalKind::Qps);
            class.hetero_speed[poisoned_idx] = bad;
            let candidates = vec![
                candidate(0, poisoned_idx, 24, 48.0),
                candidate(1, ref_idx, 24, 48.0),
            ];
            let anchor_speed = class.scale_up_speed[axes.anchor_config];
            let target = QosTarget::throughput(anchor_speed * 0.5, 1000.0);
            let plan = scheduler.plan(&axes, &class, &target, &candidates).unwrap();
            assert!(
                plan.nodes.iter().all(|(server, _)| *server == 1),
                "poisoned platform must never be selected ({bad})"
            );
            assert!(plan.predicted_goal.is_finite());
        }
    }
}
