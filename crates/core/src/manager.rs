//! The Quasar cluster manager (paper §3.4, §4).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, SeedableRng};

use quasar_cluster::{Manager, NodeAlloc, Observation, Server, ServerId, World, QOS_SLACK};
use quasar_interference::{penalty_for, PressureVector};
use quasar_workloads::{FrameworkParams, NodeResources, PlatformCatalog, QosTarget, WorkloadId};

use crate::axes::GoalKind;
use crate::classify::{Classification, Classifier};
use crate::config::QuasarConfig;
use crate::estimate::{Estimator, PlannedNode};
use crate::greedy::{AllocationPlan, CandidateServer, GreedyScheduler};
use crate::history::{HistoryAxis, HistorySet};
use crate::ordering::desirability;
use crate::profile::Profiler;
use crate::similarity::SimilarityIndex;

/// Seconds between adaptation scans.
pub(crate) const ADAPT_INTERVAL_S: f64 = 30.0;
/// Consecutive off-track observations before adaptation kicks in.
pub(crate) const MISS_THRESHOLD: u32 = 2;
/// Seconds between proactive phase-detection sweeps (10 min in §4.1).
pub(crate) const PROACTIVE_INTERVAL_S: f64 = 600.0;
/// Fraction of running workloads sampled per proactive sweep (20%).
pub(crate) const PROACTIVE_FRACTION: f64 = 0.20;
/// Acceptable QoS loss when probing interference sensitivity (5%).
pub(crate) const PROBE_QOS_LOSS: f64 = 0.05;
/// Cores given to a best-effort job slice.
const BEST_EFFORT_CORES: u32 = 2;
/// Memory given to a best-effort job slice, in GB.
const BEST_EFFORT_MEMORY_GB: f64 = 2.0;

/// Counters describing what the manager did during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ManagerStats {
    /// Full profile+classify passes.
    pub classifications: u64,
    /// Allocation adjustments (scale-up/out/down) after placement.
    pub adaptations: u64,
    /// Proactive in-place interference probes.
    pub proactive_probes: u64,
    /// Phase changes detected (reactive + proactive).
    pub phase_changes_detected: u64,
    /// Best-effort evictions performed to make room.
    pub evictions: u64,
    /// Guaranteed placements committed below target (admission fallback).
    pub degraded_placements: u64,
}

#[derive(Clone)]
struct WorkloadState {
    class: Classification,
    params_col: Option<usize>,
    profiling_wall_s: f64,
    misses: u32,
    headroom_ticks: u32,
    pending_since: f64,
    active_after: f64,
}

/// The Quasar manager: profiling + four-way classification + greedy joint
/// allocation/assignment + monitoring and adaptation.
///
/// `clone()` is the master-slave mirror of §4.4: "all system state (list
/// of active applications, allocations, QoS guarantees) is continuously
/// replicated and can be used by hot-standby masters". The clone holds
/// every classification, queue, timer, miss and headroom counter, and
/// the RNG, so a standby decides exactly as the primary would. It is
/// deep: the clone counts into its own [`ManagerStats`], which the
/// primary's [`stats_handle`](QuasarManager::stats_handle) never sees.
/// (Cluster allocations live on the servers and survive a failover.)
pub struct QuasarManager {
    config: QuasarConfig,
    history: HistorySet,
    profiler: Profiler,
    classifier: Classifier,
    scheduler: GreedyScheduler,
    states: HashMap<WorkloadId, WorkloadState>,
    pending: VecDeque<WorkloadId>,
    pending_best_effort: VecDeque<WorkloadId>,
    last_adapt_s: f64,
    last_proactive_s: f64,
    rng: StdRng,
    stats: Arc<Mutex<ManagerStats>>,
    /// Workload-similarity index ([`crate::similarity`]); `None` unless
    /// `config.similarity.enabled`, in which case an arrival whose
    /// quantized profile duplicates a cached one reuses its
    /// classification.
    similarity: Option<SimilarityIndex>,
    /// Test hook: when set, every plan of a pending job checks the shared
    /// view's candidate list against a freshly built one.
    #[cfg(test)]
    view_audit: Option<tests::ViewAudit>,
}

impl Clone for QuasarManager {
    fn clone(&self) -> QuasarManager {
        QuasarManager {
            config: self.config,
            history: self.history.clone(),
            profiler: self.profiler.clone(),
            classifier: self.classifier.clone(),
            scheduler: self.scheduler,
            states: self.states.clone(),
            pending: self.pending.clone(),
            pending_best_effort: self.pending_best_effort.clone(),
            last_adapt_s: self.last_adapt_s,
            last_proactive_s: self.last_proactive_s,
            rng: self.rng.clone(),
            stats: Arc::new(Mutex::new(self.stats())),
            similarity: self.similarity.clone(),
            #[cfg(test)]
            view_audit: None,
        }
    }
}

impl QuasarManager {
    /// Builds a manager, running the offline history bootstrap for the
    /// catalog (expensive; reuse one [`HistorySet`] across experiments via
    /// [`QuasarManager::with_history`] where possible).
    pub fn bootstrap(catalog: &PlatformCatalog, config: QuasarConfig) -> QuasarManager {
        let history = HistorySet::bootstrap(catalog, config.training_workloads, config.seed);
        QuasarManager::with_history(history, config)
    }

    /// Builds a manager over an existing offline history.
    pub fn with_history(history: HistorySet, config: QuasarConfig) -> QuasarManager {
        QuasarManager {
            profiler: Profiler::new(config.profiling_entries, config.seed ^ 0xF00D),
            classifier: Classifier::new().with_threads(config.threads),
            scheduler: GreedyScheduler::new(config.max_nodes),
            states: HashMap::new(),
            pending: VecDeque::new(),
            pending_best_effort: VecDeque::new(),
            last_adapt_s: 0.0,
            last_proactive_s: 0.0,
            rng: StdRng::seed_from_u64(config.seed ^ 0xCAFE),
            stats: Arc::new(Mutex::new(ManagerStats::default())),
            similarity: config
                .similarity
                .enabled
                .then(|| SimilarityIndex::new(config.similarity)),
            #[cfg(test)]
            view_audit: None,
            history,
            config,
        }
    }

    /// What the manager did during the run.
    pub fn stats(&self) -> ManagerStats {
        *self.stats.lock().expect("stats poisoned")
    }

    /// A shared handle to the live statistics, usable after the manager
    /// is boxed into a simulation (experiments poll this mid-run).
    pub fn stats_handle(&self) -> Arc<Mutex<ManagerStats>> {
        Arc::clone(&self.stats)
    }

    fn stats_mut(&self) -> MutexGuard<'_, ManagerStats> {
        self.stats.lock().expect("stats poisoned")
    }

    /// The offline history in use.
    pub fn history(&self) -> &HistorySet {
        &self.history
    }

    /// The classification of a workload, if it has been classified.
    pub fn classification(&self, id: WorkloadId) -> Option<&Classification> {
        self.states.get(&id).map(|s| &s.class)
    }

    // ------------------------------------------------------------------
    // Pressure and candidate estimation.
    // ------------------------------------------------------------------

    /// The classified pressure each placed workload on a server adds to
    /// it, in tenant order: its caused-pressure vector scaled by its core
    /// share of the server.
    fn pressure_terms<'a>(
        &'a self,
        world: &'a World,
        server: ServerId,
    ) -> impl Iterator<Item = (WorkloadId, PressureVector)> + 'a {
        let total_cores = world.server(server).total_cores() as f64;
        world.workloads_on(server).iter().filter_map(move |&id| {
            let state = self.states.get(&id)?;
            let node = world.placement(id)?.node_on(server)?;
            let share = (node.resources.cores as f64 / total_cores).min(1.0);
            Some((id, state.class.caused.scaled(share)))
        })
    }

    /// Estimated external pressure on a server from the *classified*
    /// caused-pressure vectors of the workloads the manager placed there
    /// (never ground truth).
    fn estimated_pressure(
        &self,
        world: &World,
        server: ServerId,
        exclude: Option<WorkloadId>,
    ) -> PressureVector {
        sum_pressure(self.pressure_terms(world, server), exclude)
    }

    /// Builds the manager's view of every server for scheduling: what is
    /// free there, what the incoming workload would feel, and what each
    /// guaranteed tenant tolerates. `exclude` is a placed workload being
    /// grown elsewhere (`adapt_up`); its own slices neither add pressure
    /// nor count as a tenant to protect. A pending workload holds no
    /// slice, so a view built with `exclude = None` serves every queued
    /// job until the world changes.
    fn server_view(&self, world: &World, exclude: Option<WorkloadId>) -> ServerView {
        let axes = self.history.axes();
        let all = world.servers();
        let tenants_on = |server: &Server| world.workloads_on(server.id()).len();
        let mut servers = Vec::with_capacity(all.len());
        let mut tenants = Vec::with_capacity(all.iter().map(tenants_on).sum());
        let mut terms = Vec::with_capacity(all.iter().map(tenants_on).max().unwrap_or(0));
        for server in all {
            let sid = server.id();
            terms.clear();
            terms.extend(self.pressure_terms(world, sid));
            let first_tenant = tenants.len();
            for &tenant in world.workloads_on(sid) {
                if Some(tenant) == exclude {
                    continue;
                }
                let Some(state) = self.states.get(&tenant) else {
                    continue;
                };
                if world.spec(tenant).is_best_effort() {
                    continue;
                }
                let others = sum_pressure(terms.iter().copied(), Some(tenant));
                tenants.push((state.class.tolerated, others));
            }
            servers.push(ViewedServer {
                candidate: CandidateServer {
                    server: sid.0,
                    platform_index: axes.platform_index(server.platform()),
                    free_cores: server.free_cores(),
                    free_memory_gb: server.free_memory_gb(),
                    // Safety factor on the estimated pressure:
                    // classification errors on tolerances/caused pressure
                    // are amplified by the multiplicative penalty law, so
                    // plan against a pessimistic view of contention.
                    pressure: sum_pressure(terms.iter().copied(), exclude).scaled(1.25),
                    victim_factor: 1.0,
                    hourly_price: world.platform_of(sid).price_per_hour(),
                },
                tenants: first_tenant..tenants.len(),
            });
        }
        ServerView {
            servers,
            tenants,
            utilization: world.used_cores() as f64 / world.total_cores() as f64,
        }
    }

    // ------------------------------------------------------------------
    // Placement.
    // ------------------------------------------------------------------

    /// Attempts to place a classified, pending guaranteed workload.
    /// Returns whether a placement was committed. `view` is the admission
    /// pass's server view: built here if absent, and dropped whenever this
    /// call changes the world (an eviction or a committed placement).
    fn try_place_guaranteed(
        &mut self,
        world: &mut World,
        id: WorkloadId,
        force: bool,
        view: &mut Option<ServerView>,
    ) -> bool {
        let Some(state) = self.states.get(&id) else {
            return false;
        };
        let wall = state.profiling_wall_s;
        let mut plan = self.plan_pending(world, id, view);

        // If the plan misses the target, try reclaiming best-effort
        // capacity server by server (best-effort jobs "may be migrated or
        // killed at any point", §5).
        let mut attempts = 0;
        while plan.as_ref().map(|p| !p.meets).unwrap_or(true) && attempts < 6 {
            if !self.evict_best_effort_somewhere(world) {
                break;
            }
            *view = None;
            plan = self.plan_pending(world, id, view);
            attempts += 1;
        }

        let Some(plan) = plan else {
            return false;
        };
        if !plan.meets && !force {
            // Queueing only helps when busy servers will free up soon; on
            // a cluster with headroom the plan is already close to the
            // best this hardware can do, so commit it and let monitoring,
            // feedback calibration, and adaptation close the gap (§4.1).
            if self.view(world, view).utilization > 0.75 {
                return false;
            }
        }
        if !plan.meets {
            self.stats_mut().degraded_placements += 1;
        }
        *view = None;
        self.commit(world, id, &plan, wall)
    }

    /// The pass's server view, built on first use.
    fn view<'v>(&self, world: &World, view: &'v mut Option<ServerView>) -> &'v ServerView {
        view.get_or_insert_with(|| self.server_view(world, None))
    }

    /// Plans a pending, classified workload against the pass's view.
    fn plan_pending(
        &self,
        world: &World,
        id: WorkloadId,
        view: &mut Option<ServerView>,
    ) -> Option<AllocationPlan> {
        debug_assert!(
            world.placement(id).is_none(),
            "only pending jobs share a view"
        );
        let class = &self.states[&id].class;
        #[cfg(test)]
        let reused = view.is_some();
        let candidates = self
            .view(world, view)
            .candidates(&class.caused, CandidateServer::has_room);
        #[cfg(test)]
        if let Some(audit) = &self.view_audit {
            audit.check(
                &candidates,
                &self
                    .server_view(world, None)
                    .candidates(&class.caused, CandidateServer::has_room),
                reused,
            );
        }
        self.scheduler.plan(
            self.history.axes(),
            class,
            &world.spec(id).target,
            &candidates,
        )
    }

    /// Commits a plan through the world, delaying activation by the
    /// profiling wall time.
    fn commit(
        &mut self,
        world: &mut World,
        id: WorkloadId,
        plan: &AllocationPlan,
        wall_s: f64,
    ) -> bool {
        let active_after = world.now() + wall_s;
        let nodes: Vec<NodeAlloc> = plan
            .nodes
            .iter()
            .map(|&(server, resources)| NodeAlloc {
                server: ServerId(server),
                resources,
                active_after,
            })
            .collect();
        let params = plan
            .params_col
            .map(|c| self.history.axes().params[c])
            .unwrap_or_default();
        match world.place(id, nodes, params) {
            Ok(()) => {
                if let Some(state) = self.states.get_mut(&id) {
                    state.active_after = active_after;
                    state.params_col = plan.params_col;
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Evicts the best-effort jobs from the server holding the most
    /// best-effort cores. Returns whether anything was evicted.
    fn evict_best_effort_somewhere(&mut self, world: &mut World) -> bool {
        let mut best: Option<(ServerId, u32)> = None;
        for server in world.servers() {
            let sid = server.id();
            let be_cores: u32 = world
                .workloads_on(sid)
                .iter()
                .filter(|&&w| world.spec(w).is_best_effort())
                .filter_map(|&w| world.placement(w).and_then(|p| p.node_on(sid)))
                .map(|n| n.resources.cores)
                .sum();
            if be_cores > 0 && best.map(|(_, c)| be_cores > c).unwrap_or(true) {
                best = Some((sid, be_cores));
            }
        }
        let Some((sid, _)) = best else {
            return false;
        };
        let victims: Vec<WorkloadId> = world
            .workloads_on(sid)
            .iter()
            .copied()
            .filter(|&w| world.spec(w).is_best_effort())
            .collect();
        for v in victims {
            world.evict(v, true);
            self.stats_mut().evictions += 1;
            if !self.pending_best_effort.contains(&v) {
                self.pending_best_effort.push_back(v);
            }
        }
        true
    }

    /// Packs pending best-effort jobs onto whatever capacity is left.
    fn fill_best_effort(&mut self, world: &mut World) {
        let res = NodeResources::new(BEST_EFFORT_CORES, BEST_EFFORT_MEMORY_GB);
        let mut remaining = self.pending_best_effort.len();
        while remaining > 0 {
            remaining -= 1;
            let Some(id) = self.pending_best_effort.pop_front() else {
                break;
            };
            if world.state(id) != quasar_cluster::JobState::Pending {
                continue;
            }
            // Most-free-cores server that fits.
            let slot = world
                .servers()
                .iter()
                .filter(|s| s.free_cores() >= res.cores && s.free_memory_gb() >= res.memory_gb)
                .max_by_key(|s| s.free_cores())
                .map(|s| s.id());
            match slot {
                Some(sid) => {
                    let _ = world.place(
                        id,
                        vec![NodeAlloc::immediate(sid, res)],
                        FrameworkParams::default(),
                    );
                }
                None => {
                    self.pending_best_effort.push_back(id);
                    break;
                }
            }
        }
    }

    /// How long workload `id` has been waiting for admission. A workload
    /// with no recorded state has waited zero seconds: falling back to
    /// `pending_since = 0.0` would make a just-arrived workload look like
    /// it has waited since the start of the run and trigger spurious
    /// degraded (forced below-target) admission.
    fn pending_wait_s(&self, now: f64, id: WorkloadId) -> f64 {
        now - self.states.get(&id).map(|s| s.pending_since).unwrap_or(now)
    }

    /// Whether an adaptation scan is due at `now`.
    fn adapt_due(&self, now: f64) -> bool {
        now - self.last_adapt_s >= ADAPT_INTERVAL_S
    }

    /// Whether a proactive phase-detection sweep is due at `now`.
    fn proactive_due(&self, now: f64) -> bool {
        now - self.last_proactive_s >= PROACTIVE_INTERVAL_S
    }

    /// Re-plans the pending queue in FIFO order against one server view,
    /// rebuilt only after an attempt changed the world.
    fn try_place_all_pending(&mut self, world: &mut World) {
        let mut still_pending = VecDeque::new();
        let mut view = None;
        while let Some(id) = self.pending.pop_front() {
            if world.state(id) != quasar_cluster::JobState::Pending {
                continue;
            }
            let waited = self.pending_wait_s(world.now(), id);
            // Admission control (§3.3): waiting beats oversubscription.
            // Only force a below-target placement when the cluster still
            // has headroom; on a saturated cluster the job keeps waiting
            // for completions ("wait time due to admission control counts
            // towards scheduling overheads", §5).
            let force = waited > 180.0 && self.view(world, &mut view).utilization < 0.85;
            if !self.try_place_guaranteed(world, id, force, &mut view) {
                still_pending.push_back(id);
            }
        }
        self.pending = still_pending;
    }

    // ------------------------------------------------------------------
    // Monitoring and adaptation (§4.1).
    // ------------------------------------------------------------------

    fn adapt_all(&mut self, world: &mut World) {
        let running = world.ids_in_state(quasar_cluster::JobState::Running);
        for id in running {
            if world.spec(id).is_best_effort() {
                continue;
            }
            let Some(state) = self.states.get(&id) else {
                continue;
            };
            // Skip while the placement is still activating.
            if world.now() < state.active_after + world.tick_s() {
                continue;
            }
            let Some(obs) = world.observation(id) else {
                continue;
            };
            self.feedback_calibrate(world, id);
            let target = world.spec(id).target;
            let in_qos = obs.violation(&target).is_none();
            let overprovisioned = is_overprovisioned(&obs, &target);

            let state = self.states.get_mut(&id).expect("checked above");
            if in_qos {
                state.misses = 0;
                if overprovisioned {
                    state.headroom_ticks += 1;
                } else {
                    state.headroom_ticks = 0;
                }
            } else {
                state.misses += 1;
                state.headroom_ticks = 0;
            }

            if state.misses >= MISS_THRESHOLD {
                state.misses = 0;
                self.adapt_up(world, id);
                self.stats_mut().adaptations += 1;
            } else if state.headroom_ticks >= 3 {
                let state = self.states.get_mut(&id).expect("checked above");
                state.headroom_ticks = 0;
                self.adapt_down(world, id);
                self.stats_mut().adaptations += 1;
            }
        }
    }

    /// Gives a struggling workload more resources: scale-up in place
    /// first, then scale-out, evicting best-effort fill if needed.
    fn adapt_up(&mut self, world: &mut World, id: WorkloadId) {
        let axes = self.history.axes().clone();
        let Some(state) = self.states.get(&id) else {
            return;
        };
        let class = state.class.clone();
        let params_col = state.params_col;
        let est = Estimator::new(&axes, &class);

        // 1) Scale up each node to the best configuration that fits the
        //    server's free capacity plus what we already hold.
        let Some(placement) = world.placement(id).cloned() else {
            return;
        };
        let mut grew = false;
        for node in &placement.nodes {
            let server = world.server(node.server);
            let budget_cores = server.free_cores() + node.resources.cores;
            let budget_mem = server.free_memory_gb() + node.resources.memory_gb;
            let current_col = axes.nearest_scale_up(node.resources);
            if let Some(best) = est.best_node_col(params_col, budget_cores, budget_mem) {
                if est.node_factor(best, params_col)
                    > est.node_factor(current_col, params_col) * 1.05
                    && world
                        .resize_node(id, node.server, axes.scale_up[best])
                        .is_ok()
                {
                    grew = true;
                }
            }
        }
        if grew {
            return;
        }

        // 2) Single-node workloads cannot scale out; migrate instead
        //    ("if scale-up is not possible ... migration to other servers
        //    is used", §4.1). Progress is preserved across the move.
        let class_is_single = class.scale_out_speed.is_none();
        if class_is_single {
            world.evict(id, true);
            if !self.try_place_guaranteed(world, id, true, &mut None) {
                if let Some(state) = self.states.get_mut(&id) {
                    state.pending_since = world.now();
                }
                if !self.pending.contains(&id) {
                    self.pending.push_back(id);
                }
            }
            return;
        }
        let mut used: Vec<usize> = placement.nodes.iter().map(|n| n.server.0).collect();
        let mut added = 0usize;
        for _attempt in 0..4 {
            if added >= 3 {
                return;
            }
            let candidates = self
                .server_view(world, Some(id))
                .candidates(&class.caused, |c| {
                    !used.contains(&c.server) && c.free_cores >= 2
                });
            let best = candidates.iter().max_by(|a, b| {
                let qa = est.hetero_factor(a.platform_index)
                    * est.penalty(&a.pressure)
                    * a.victim_factor;
                let qb = est.hetero_factor(b.platform_index)
                    * est.penalty(&b.pressure)
                    * b.victim_factor;
                desirability(qa).total_cmp(&desirability(qb))
            });
            if let Some(best) = best {
                if let Some(col) =
                    est.best_node_col(params_col, best.free_cores, best.free_memory_gb)
                {
                    let server = ServerId(best.server);
                    // Stateful services migrate microshards: small delay.
                    let delay = if world.spec(id).class.is_stateful() {
                        5.0
                    } else {
                        0.0
                    };
                    let node = NodeAlloc {
                        server,
                        resources: axes.scale_up[col],
                        active_after: world.now() + delay,
                    };
                    if world.add_node(id, node).is_ok() {
                        used.push(server.0);
                        added += 1;
                        continue;
                    }
                }
            }
            // No room: reclaim best-effort capacity and retry.
            if !self.evict_best_effort_somewhere(world) {
                return;
            }
        }
    }

    /// Reclaims resources from an over-provisioned workload, keeping the
    /// prediction above target.
    fn adapt_down(&mut self, world: &mut World, id: WorkloadId) {
        let axes = self.history.axes().clone();
        let Some(state) = self.states.get(&id) else {
            return;
        };
        let class = state.class.clone();
        let params_col = state.params_col;
        let est = Estimator::new(&axes, &class);
        // Services are right-sized to the *current* offered load with
        // headroom, not the peak target — "Quasar changes the allocation
        // to provide more resources or reclaim unused resources" (§4.1).
        let target = match (world.observation(id), world.spec(id).target) {
            (
                Some(Observation::Service(obs)),
                QosTarget::Throughput {
                    qps,
                    p99_latency_us,
                },
            ) => QosTarget::Throughput {
                qps: (obs.offered_qps * 1.3).clamp(qps * 0.05, qps),
                p99_latency_us,
            },
            (_, t) => t,
        };
        let Some(placement) = world.placement(id).cloned() else {
            return;
        };

        let planned: Vec<PlannedNode> = placement
            .nodes
            .iter()
            .map(|n| PlannedNode {
                platform_index: axes.platform_index(world.server(n.server).platform()),
                scale_up_col: axes.nearest_scale_up(n.resources),
                pressure: self.estimated_pressure(world, n.server, Some(id)),
            })
            .collect();

        // Try removing the worst node first.
        if planned.len() > 1 {
            let worst = planned
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    // desirability() maps a NaN quality to -inf, so a node
                    // with a corrupted estimate is the first one removed.
                    let qa = est.hetero_factor(a.platform_index) * est.penalty(&a.pressure);
                    let qb = est.hetero_factor(b.platform_index) * est.penalty(&b.pressure);
                    desirability(qa).total_cmp(&desirability(qb))
                })
                .map(|(i, _)| i)
                .expect("non-empty");
            let mut rest = planned.clone();
            rest.remove(worst);
            if still_meets(&est, &rest, params_col, &class.kind, &target) {
                let _ = world.remove_node(id, placement.nodes[worst].server);
                return;
            }
        }

        // Otherwise shrink the largest node one quantization step.
        let largest = placement
            .nodes
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| n.resources.cores)
            .map(|(i, _)| i)
            .expect("non-empty");
        let cur = placement.nodes[largest].resources;
        let smaller = (0..axes.scale_up.len())
            .filter(|&c| axes.scale_up[c].cores < cur.cores)
            .max_by_key(|&c| axes.scale_up[c].cores);
        if let Some(c) = smaller {
            let mut rest = planned.clone();
            rest[largest].scale_up_col = c;
            if still_meets(&est, &rest, params_col, &class.kind, &target) {
                let _ = world.resize_node(id, placement.nodes[largest].server, axes.scale_up[c]);
            }
        }
    }

    /// Predicted goal value of a workload's *current* placement.
    fn predicted_current_goal(&self, world: &World, id: WorkloadId) -> Option<f64> {
        let state = self.states.get(&id)?;
        let placement = world.placement(id)?;
        let axes = self.history.axes();
        let planned: Vec<PlannedNode> = placement
            .nodes
            .iter()
            .map(|n| PlannedNode {
                platform_index: axes.platform_index(world.server(n.server).platform()),
                scale_up_col: axes.nearest_scale_up(n.resources),
                pressure: self.estimated_pressure(world, n.server, Some(id)),
            })
            .collect();
        let est = Estimator::new(axes, &state.class);
        Some(est.predicted_goal(&planned, state.params_col))
    }

    /// The runtime feedback loop of §3.2: when measured service capacity
    /// deviates from the classification's prediction (misclassification,
    /// or scaling past the node counts profiling can reach), fold the
    /// observed ratio back into the classification.
    fn feedback_calibrate(&mut self, world: &World, id: WorkloadId) {
        let Some(obs) = world.observation(id) else {
            return;
        };
        let Some(predicted) = self.predicted_current_goal(world, id) else {
            return;
        };
        if predicted <= 0.0 || !predicted.is_finite() {
            return;
        }
        // Measured-over-predicted speed ratio, per goal kind.
        let kind = match self.states.get(&id) {
            Some(s) => s.class.kind,
            None => return,
        };
        let ratio = match (obs, kind) {
            (Observation::Service(o), GoalKind::Qps) => {
                if o.achieved_qps <= 0.0 || !o.utilization.is_finite() {
                    return;
                }
                let measured_capacity = if o.utilization >= 1.0 {
                    o.achieved_qps
                } else {
                    o.achieved_qps / o.utilization.max(0.02)
                };
                measured_capacity / predicted
            }
            (
                Observation::Batch {
                    rate,
                    progress,
                    projected_total_s,
                    elapsed_s,
                },
                GoalKind::Time,
            ) => {
                if rate <= 0.0 || progress >= 0.95 || !projected_total_s.is_finite() {
                    return;
                }
                // Whole-job completion time at the current rate; predicted
                // speed is 1/time, so the speed ratio inverts the times.
                let measured_time = (projected_total_s - elapsed_s) / (1.0 - progress);
                if measured_time <= 0.0 {
                    return;
                }
                predicted / measured_time
            }
            (Observation::Batch { rate, .. }, GoalKind::Rate) => {
                if rate <= 0.0 {
                    return;
                }
                rate / predicted
            }
            _ => return,
        };
        let ratio = ratio.clamp(0.1, 10.0);
        if (0.8..=1.25).contains(&ratio) {
            return;
        }
        if let Some(state) = self.states.get_mut(&id) {
            state.class.runtime_calibration =
                (state.class.runtime_calibration * ratio.powf(0.7)).clamp(0.02, 50.0);
        }
    }

    /// Proactive phase detection (§4.1): sample a fraction of running
    /// workloads, inject interference probes, compare against the
    /// classified sensitivity, reclassify on deviation.
    fn proactive_sweep(&mut self, world: &mut World) {
        let running: Vec<WorkloadId> = world
            .ids_in_state(quasar_cluster::JobState::Running)
            .into_iter()
            .filter(|&id| !world.spec(id).is_best_effort() && self.states.contains_key(&id))
            .collect();
        let sample_n =
            ((running.len() as f64 * PROACTIVE_FRACTION).ceil() as usize).min(running.len());
        let sample: Vec<WorkloadId> = running
            .choose_multiple(&mut self.rng, sample_n)
            .copied()
            .collect();

        for id in sample {
            let state = self.states.get(&id).expect("filtered above");
            let tolerated = state.class.tolerated;
            let mut deviated = false;
            for _ in 0..2 {
                let r = self.history.axes().resources[self
                    .rng
                    .random_range(0..self.history.axes().resources.len())];
                let intensity = (tolerated.get(r) + 15.0).min(100.0);
                self.stats_mut().proactive_probes += 1;
                let Some(placement) = world.placement(id) else {
                    continue;
                };
                let Some(node) = placement.nodes.first() else {
                    continue;
                };
                let base = self.estimated_pressure(world, node.server, Some(id));
                let Some(measured) = world.probe_in_place(id, r, intensity) else {
                    continue;
                };
                let mut probed = base;
                probed.bump(r, intensity);
                let expected = penalty_for(&tolerated, &probed) / penalty_for(&tolerated, &base);
                if (measured - expected).abs() > 0.20 {
                    deviated = true;
                }
            }
            if deviated {
                self.stats_mut().phase_changes_detected += 1;
                self.reclassify_interference(world, id);
                self.adapt_up(world, id);
                self.stats_mut().adaptations += 1;
            }
        }
    }

    /// Partial in-place reclassification of interference sensitivity:
    /// fresh probes of a few resources, folded into the kind's tolerated
    /// history exactly as an arrival's interference axis is.
    fn reclassify_interference(&mut self, world: &mut World, id: WorkloadId) {
        let axes = self.history.axes().clone();
        let kind = self
            .states
            .get(&id)
            .map(|s| s.class.kind)
            .unwrap_or(GoalKind::Time);
        let d = self.config.profiling_entries;
        let mut tolerated_obs = Vec::new();
        let mut cols: Vec<usize> = (0..axes.resources.len()).collect();
        cols.shuffle(&mut self.rng);
        for &c in cols.iter().take(d) {
            let r = world.probe_sensitivity(id, axes.resources[c], PROBE_QOS_LOSS);
            tolerated_obs.push((c, r.value));
        }
        let tolerated = self.classifier.pressure_axis(
            self.history.kind(kind),
            HistoryAxis::Tolerated,
            &tolerated_obs,
        );
        if let Some(state) = self.states.get_mut(&id) {
            state.class.tolerated = tolerated;
        }
        self.stats_mut().classifications += 1;
    }
}

/// The sum of a server's pressure terms, in order, leaving one workload
/// out.
fn sum_pressure(
    terms: impl Iterator<Item = (WorkloadId, PressureVector)>,
    exclude: Option<WorkloadId>,
) -> PressureVector {
    let mut pressure = PressureVector::zero();
    for (id, term) in terms {
        if Some(id) != exclude {
            pressure += term;
        }
    }
    pressure
}

/// The manager's estimate of every server at one moment (§3.3's
/// candidate ranking inputs), built once and shared by every plan until
/// the world changes. Only the victim check depends on the incoming
/// workload, so a candidate list costs one penalty per guaranteed tenant.
struct ServerView {
    servers: Vec<ViewedServer>,
    /// `(tolerated, pressure from everything but that tenant)` of each
    /// guaranteed tenant, server after server.
    tenants: Vec<(PressureVector, PressureVector)>,
    /// Cluster core utilization, which the admission gate reads.
    utilization: f64,
}

struct ViewedServer {
    /// The server as a candidate, before the victim check
    /// (`victim_factor` 1.0).
    candidate: CandidateServer,
    /// This server's range of [`ServerView::tenants`].
    tenants: std::ops::Range<usize>,
}

impl ServerView {
    /// The candidate list for a workload that causes `caused`, over the
    /// servers that pass `keep`. Victim check: would that pressure push an
    /// existing guaranteed tenant past its classified tolerance? Assume a
    /// half-server footprint before sizing.
    fn candidates(
        &self,
        caused: &PressureVector,
        keep: impl Fn(&CandidateServer) -> bool,
    ) -> Vec<CandidateServer> {
        let added = caused.scaled(0.5);
        // Sized for every server up front: a filtered `collect` would
        // regrow it step by step on every plan.
        let mut candidates = Vec::with_capacity(self.servers.len());
        candidates.extend(self.servers.iter().filter(|s| keep(&s.candidate)).map(|s| {
            let mut victim_factor = 1.0_f64;
            for (tolerated, others) in &self.tenants[s.tenants.clone()] {
                let penalty = penalty_for(tolerated, &(*others + added));
                if penalty < 1.0 - QOS_SLACK {
                    victim_factor = victim_factor.min(penalty.max(0.05));
                }
            }
            CandidateServer {
                victim_factor,
                ..s.candidate
            }
        }));
        candidates
    }
}

/// Whether an observation shows enough headroom to reclaim resources.
fn is_overprovisioned(obs: &Observation, target: &QosTarget) -> bool {
    match (obs, target) {
        (Observation::Service(o), QosTarget::Throughput { .. }) => o.utilization < 0.35,
        (
            Observation::Batch {
                projected_total_s, ..
            },
            QosTarget::CompletionTime { seconds },
        ) => *projected_total_s < 0.6 * seconds,
        _ => false,
    }
}

fn still_meets(
    est: &Estimator<'_>,
    nodes: &[PlannedNode],
    params_col: Option<usize>,
    kind: &GoalKind,
    target: &QosTarget,
) -> bool {
    let goal = est.predicted_goal(nodes, params_col);
    match (kind, target) {
        (GoalKind::Time, QosTarget::CompletionTime { seconds }) => goal <= seconds * 0.9,
        (GoalKind::Qps, QosTarget::Throughput { qps, .. }) => goal >= qps * 1.15,
        (GoalKind::Rate, QosTarget::Ips { ips }) => goal >= ips * 1.10,
        _ => false,
    }
}

impl Manager for QuasarManager {
    fn name(&self) -> &str {
        "quasar"
    }

    fn on_arrival(&mut self, world: &mut World, id: WorkloadId) {
        // Profile and classify every submission with its dataset (§3.2).
        let axes = self.history.axes().clone();
        let data = self.profiler.profile(world, &axes, id);
        // With the similarity index enabled, a duplicate profile skips
        // reconstruction and anything else is the plain classification;
        // disabled (the default), this is the plain path, bit for bit.
        let class = match self.similarity.as_mut() {
            Some(index) => {
                let (class, _, _) =
                    index.classify_or_insert(&self.classifier, &self.history, &data);
                class
            }
            None => self.classifier.classify(&self.history, &data),
        };
        self.stats_mut().classifications += 1;
        self.states.insert(
            id,
            WorkloadState {
                class,
                params_col: None,
                profiling_wall_s: data.wall_seconds,
                misses: 0,
                headroom_ticks: 0,
                pending_since: world.now(),
                active_after: f64::INFINITY,
            },
        );

        if world.spec(id).is_best_effort() {
            self.pending_best_effort.push_back(id);
            self.fill_best_effort(world);
            return;
        }
        if !self.try_place_guaranteed(world, id, false, &mut None) {
            self.pending.push_back(id);
        }
    }

    fn on_tick(&mut self, world: &mut World) {
        if self.adapt_due(world.now()) {
            self.last_adapt_s = world.now();
            self.adapt_all(world);
            self.try_place_all_pending(world);
            self.fill_best_effort(world);
        }
        if self.proactive_due(world.now()) {
            self.last_proactive_s = world.now();
            self.proactive_sweep(world);
        }
    }

    fn on_completion(&mut self, world: &mut World, id: WorkloadId) {
        self.states.remove(&id);
        self.try_place_all_pending(world);
        self.fill_best_effort(world);
    }

    fn fork(&self) -> Option<Box<dyn Manager>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use quasar_cluster::{ClusterSpec, JobState, SimConfig, Simulation};

    use crate::similarity::SimilarityConfig;
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{Dataset, LoadPattern, PlatformCatalog, Priority, WorkloadClass};

    fn make_sim(per_platform: usize) -> (Simulation, Generator) {
        let catalog = PlatformCatalog::local();
        let manager = QuasarManager::bootstrap(&catalog, QuasarConfig::fast_test());
        let sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), per_platform),
            Box::new(manager),
            SimConfig::default(),
        );
        let generator = Generator::new(catalog, 31);
        (sim, generator)
    }

    /// A synthetic but well-formed classification over `axes`.
    fn test_class(axes: &crate::axes::Axes) -> Classification {
        Classification {
            kind: GoalKind::Time,
            scale_up_speed: axes.scale_up.iter().map(|r| r.cores as f64).collect(),
            scale_out_speed: Some(axes.scale_out.iter().map(|&n| n as f64).collect()),
            hetero_speed: vec![1.0; axes.platforms.len()],
            params_speed: None,
            tolerated: PressureVector::uniform(60.0),
            caused: PressureVector::uniform(15.0),
            runtime_calibration: 1.0,
        }
    }

    fn state_with(class: Classification, pending_since: f64, active_after: f64) -> WorkloadState {
        WorkloadState {
            class,
            params_col: Some(1),
            profiling_wall_s: 4.5,
            misses: 2,
            headroom_ticks: 1,
            pending_since,
            active_after,
        }
    }

    #[test]
    fn missing_state_means_zero_wait_not_epoch_wait() {
        let catalog = PlatformCatalog::local();
        let mut manager = QuasarManager::bootstrap(&catalog, QuasarConfig::fast_test());
        let axes = manager.history().axes().clone();
        // Regression: the old fallback used `pending_since = 0.0` for a
        // workload with no recorded state, so at now=1000s it "waited"
        // 1000s — far past the 180s threshold that forces degraded
        // admission. Statelessness must read as zero wait instead.
        assert_eq!(manager.pending_wait_s(1_000.0, WorkloadId(7)), 0.0);
        // A recorded state still yields the true wait.
        manager
            .states
            .insert(WorkloadId(7), state_with(test_class(&axes), 400.0, 95.0));
        assert_eq!(manager.pending_wait_s(1_000.0, WorkloadId(7)), 600.0);
    }

    /// The §4.4 hot standby is `primary.clone()`: it admits in the
    /// primary's order, counts the same waits, keeps the monitoring
    /// schedule, the miss and headroom counters and the RNG stream, and
    /// counts into statistics of its own.
    #[test]
    fn standby_clone_preserves_admission_order_and_wait_accounting() {
        let catalog = PlatformCatalog::local();
        let mut manager = QuasarManager::bootstrap(&catalog, QuasarConfig::fast_test());
        let axes = manager.history().axes().clone();
        for (i, (since, active)) in [(10.0, 95.0), (20.0, f64::INFINITY), (30.0, 120.0)]
            .into_iter()
            .enumerate()
        {
            manager.states.insert(
                WorkloadId(i as u64),
                state_with(test_class(&axes), since, active),
            );
        }
        // Queue contents are admission order, deliberately not id order:
        // a hot standby must admit in the same sequence as the primary.
        manager.pending.extend([WorkloadId(2), WorkloadId(0)]);
        manager.pending_best_effort.push_back(WorkloadId(1));
        manager.stats_mut().adaptations = 7;
        // The primary last adapted at 4,980 s and swept at 4,800 s.
        manager.last_adapt_s = 4_980.0;
        manager.last_proactive_s = 4_800.0;

        manager.view_audit = Some(ViewAudit::default());

        let mut standby = manager.clone();
        assert!(
            standby.view_audit.is_none(),
            "the audit hook is not mirrored"
        );
        assert_eq!(
            Vec::from(standby.pending.clone()),
            vec![WorkloadId(2), WorkloadId(0)],
            "pending order must survive the round-trip"
        );
        assert_eq!(
            Vec::from(standby.pending_best_effort.clone()),
            vec![WorkloadId(1)]
        );
        for i in 0..3u64 {
            let original = &manager.states[&WorkloadId(i)];
            let mirrored = &standby.states[&WorkloadId(i)];
            assert_eq!(mirrored.class, original.class);
            assert_eq!(mirrored.pending_since, original.pending_since);
            assert_eq!(mirrored.active_after, original.active_after);
            assert_eq!(mirrored.params_col, original.params_col);
            assert_eq!(mirrored.profiling_wall_s, original.profiling_wall_s);
            // Monitoring state is mirrored too.
            assert_eq!((mirrored.misses, mirrored.headroom_ticks), (2, 1));
        }
        assert_eq!(standby.stats().adaptations, 7);
        // The standby's next draw is the primary's.
        assert_eq!(standby.rng.random::<u64>(), manager.rng.random::<u64>());
        // Independent statistics: the standby's work never reaches the
        // primary's live handle.
        let primary_stats = manager.stats_handle();
        standby.stats_mut().adaptations += 1;
        assert_eq!(standby.stats().adaptations, 8);
        assert_eq!(primary_stats.lock().expect("stats").adaptations, 7);
        // Same wait accounting on the standby as on the primary.
        assert_eq!(
            standby.pending_wait_s(100.0, WorkloadId(2)),
            manager.pending_wait_s(100.0, WorkloadId(2))
        );
        // Same monitoring schedule: a standby taking over at 5,000 s
        // adapts next at 5,010 s and sweeps at 5,400 s, as the primary
        // would have, not on its first tick.
        for now in [5_000.0, 5_009.0, 5_010.0, 5_399.0, 5_400.0] {
            assert_eq!(standby.adapt_due(now), manager.adapt_due(now), "{now}");
            assert_eq!(
                standby.proactive_due(now),
                manager.proactive_due(now),
                "{now}"
            );
        }
        assert!(!standby.adapt_due(5_000.0) && !standby.proactive_due(5_000.0));
        assert!(standby.adapt_due(5_010.0) && standby.proactive_due(5_400.0));
    }

    #[test]
    fn manager_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QuasarManager>();
        assert_send::<ManagerStats>();
    }

    #[test]
    fn places_a_batch_job_and_meets_target() {
        let (mut sim, mut generator) = make_sim(2);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "h1",
            Dataset::new("d", 12.0, 1.0),
            4,
            1_200.0,
            Priority::Guaranteed,
        );
        let id = job.id();
        let target = match job.spec().target {
            quasar_workloads::QosTarget::CompletionTime { seconds } => seconds,
            _ => unreachable!(),
        };
        sim.submit_at(job, 0.0);
        sim.run_until(target * 3.0);
        assert_eq!(sim.world().state(id), JobState::Completed);
        let record = &sim.world().completions()[0];
        // Guarded: an unfinished record reads as "missed by a mile"
        // rather than aborting the whole process on `unwrap`.
        let exec = record.execution_s().unwrap_or(f64::INFINITY);
        assert!(
            exec <= target * 1.4,
            "execution {exec:.0}s vs target {target:.0}s"
        );
    }

    #[test]
    fn tracks_a_service_qps_target() {
        let (mut sim, mut generator) = make_sim(2);
        let svc = generator.service(
            WorkloadClass::Memcached,
            "mc",
            20.0,
            LoadPattern::Flat { qps: 60_000.0 },
            Priority::Guaranteed,
        );
        let id = svc.id();
        sim.submit_at(svc, 0.0);
        sim.run_until(1_800.0);
        assert_eq!(sim.world().state(id), JobState::Running);
        let rec = &sim.world().qos_records()[0];
        assert!(
            rec.served_fraction() > 0.80,
            "served {:.2} of offered load",
            rec.served_fraction()
        );
    }

    #[test]
    fn best_effort_fills_and_yields() {
        let (mut sim, mut generator) = make_sim(1);
        for (i, job) in generator.best_effort_fill(5).into_iter().enumerate() {
            sim.submit_at(job, i as f64);
        }
        sim.run_until(120.0);
        let placed = sim.world().ids_in_state(JobState::Running).len()
            + sim.world().ids_in_state(JobState::Completed).len();
        assert!(placed >= 3, "best-effort jobs must be packed, got {placed}");
    }

    #[test]
    fn pending_jobs_eventually_place_after_completions() {
        // Tiny cluster: one highest-end server's worth of capacity per
        // platform; many jobs arrive at once and must queue.
        let (mut sim, mut generator) = make_sim(1);
        let mut ids = Vec::new();
        for i in 0..4 {
            let job = generator.analytics_job(
                WorkloadClass::Spark,
                format!("s{i}"),
                Dataset::new("d", 6.0, 1.0),
                2,
                400.0,
                Priority::Guaranteed,
            );
            ids.push(job.id());
            sim.submit_at(job, i as f64 * 2.0);
        }
        sim.run_until(8_000.0);
        let done = ids
            .iter()
            .filter(|&&id| sim.world().state(id) == JobState::Completed)
            .count();
        assert!(done >= 3, "queued jobs must eventually run: {done}/4 done");
    }

    /// Lends a manager to a simulation while the test keeps a handle.
    struct Shared(Rc<RefCell<QuasarManager>>);

    impl Manager for Shared {
        fn name(&self) -> &str {
            "quasar"
        }
        fn on_arrival(&mut self, world: &mut World, id: WorkloadId) {
            self.0.borrow_mut().on_arrival(world, id);
        }
        fn on_tick(&mut self, world: &mut World) {
            self.0.borrow_mut().on_tick(world);
        }
        fn on_completion(&mut self, world: &mut World, id: WorkloadId) {
            self.0.borrow_mut().on_completion(world, id);
        }
        fn needs_idle_ticks(&self) -> bool {
            self.0.borrow().needs_idle_ticks()
        }
    }

    /// Regression: the in-place reclassification retrained SGD on the raw
    /// 0–100 pressure scale, where it diverges; the NaN tolerances it
    /// produced were stored as 0, i.e. maximally sensitive. It now folds
    /// the probes into the kind's tolerated history as an arrival's
    /// interference axis does.
    #[test]
    fn forced_reclassification_keeps_tolerances_in_range() {
        let catalog = PlatformCatalog::local();
        let manager = Rc::new(RefCell::new(QuasarManager::bootstrap(
            &catalog,
            QuasarConfig::fast_test(),
        )));
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(Shared(Rc::clone(&manager))),
            SimConfig::default(),
        );
        let mut generator = Generator::new(catalog, 31);
        let job = generator.analytics_job(
            WorkloadClass::Spark,
            "s",
            Dataset::new("d", 6.0, 1.0),
            2,
            400.0,
            Priority::Guaranteed,
        );
        let id = job.id();
        sim.submit_at(job, 0.0);
        sim.run_until(60.0);

        let mut manager = manager.borrow_mut();
        let before = manager.stats().classifications;
        manager.reclassify_interference(sim.world_mut(), id);
        assert_eq!(manager.stats().classifications, before + 1);
        let class = manager.classification(id).expect("classified on arrival");
        let history = &manager.history().kind(class.kind).tolerated;
        for (c, &r) in manager.history().axes().resources.iter().enumerate() {
            let column: Vec<f64> = (0..history.rows()).map(|row| history.get(row, c)).collect();
            let lo = column.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let margin = 0.25 * (hi - lo);
            let v = class.tolerated.get(r);
            assert!(v.is_finite() && (0.0..=100.0).contains(&v), "{r:?}: {v}");
            assert!(
                v >= lo - margin && v <= hi + margin,
                "{r:?}: {v} outside the history's {lo}..={hi}"
            );
        }
    }

    /// Checks each shared-view candidate list against a fresh view.
    #[derive(Default)]
    pub(super) struct ViewAudit {
        plans: Cell<usize>,
        reused: Cell<usize>,
    }

    impl ViewAudit {
        pub(super) fn check(
            &self,
            shared: &[CandidateServer],
            fresh: &[CandidateServer],
            reused: bool,
        ) {
            assert_eq!(shared, fresh, "plan {} read a stale view", self.plans.get());
            self.plans.set(self.plans.get() + 1);
            self.reused.set(self.reused.get() + usize::from(reused));
        }
    }

    /// Overloaded: more guaranteed jobs than the cluster holds, next to
    /// best-effort fill that admission evicts. Every plan of a queued job
    /// sees exactly the candidates a view built at that moment would give
    /// it, though most plans share a view built earlier in their pass.
    #[test]
    fn queued_jobs_plan_against_an_exact_server_view() {
        let catalog = PlatformCatalog::local();
        let mut manager = QuasarManager::bootstrap(&catalog, QuasarConfig::fast_test());
        manager.view_audit = Some(ViewAudit::default());
        let manager = Rc::new(RefCell::new(manager));
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(Shared(Rc::clone(&manager))),
            SimConfig::default(),
        );
        let mut generator = Generator::new(catalog, 31);
        for (i, job) in generator.best_effort_fill(6).into_iter().enumerate() {
            sim.submit_at(job, i as f64);
        }
        for i in 0..12 {
            let job = generator.analytics_job(
                WorkloadClass::Spark,
                format!("s{i}"),
                Dataset::new("d", 6.0, 1.0),
                2,
                400.0,
                Priority::Guaranteed,
            );
            sim.submit_at(job, 10.0 + i as f64 * 5.0);
        }
        sim.run_until(6_000.0);
        let manager = manager.borrow();
        let audit = manager.view_audit.as_ref().expect("set above");
        assert!(
            audit.reused.get() >= 10,
            "{} shared plans",
            audit.reused.get()
        );
        assert!(manager.stats().evictions > 0, "no reclaim ran");
    }

    /// On a stream without duplicates every lookup misses, and a miss is
    /// the plain classification, so the index-on run is the index-off
    /// run digest for digest: the index changes outcomes only by hits.
    #[test]
    fn similarity_index_without_hits_changes_no_outcome() {
        let catalog = PlatformCatalog::local();
        let fast = QuasarConfig::fast_test();
        let history = HistorySet::bootstrap(&catalog, fast.training_workloads, fast.seed);
        let run = |similarity: SimilarityConfig| {
            let config = QuasarConfig { similarity, ..fast };
            let manager = Rc::new(RefCell::new(QuasarManager::with_history(
                history.clone(),
                config,
            )));
            let mut sim = Simulation::new(
                ClusterSpec::uniform(catalog.clone(), 1),
                Box::new(Shared(Rc::clone(&manager))),
                SimConfig::default(),
            );
            let mut generator = Generator::new(catalog.clone(), 31);
            for i in 0..4 {
                let job = generator.analytics_job(
                    WorkloadClass::Spark,
                    format!("s{i}"),
                    Dataset::new("d", 6.0, 1.0),
                    2,
                    400.0,
                    Priority::Guaranteed,
                );
                sim.submit_at(job, i as f64 * 30.0);
            }
            sim.run_until(3_000.0);
            let world = sim.world();
            assert_eq!(world.count_in_state(JobState::Completed), 4);
            let cached = manager
                .borrow()
                .similarity
                .as_ref()
                .map(SimilarityIndex::len);
            (
                cached,
                world.completion_digest(),
                world.journal().stream_digest(),
            )
        };
        let (off, off_completions, off_journal) = run(SimilarityConfig::default());
        let (on, on_completions, on_journal) = run(SimilarityConfig::enabled());
        assert_eq!((off, on), (None, Some(4)), "four misses, no hit");
        assert_eq!(on_completions, off_completions);
        assert_eq!(on_journal, off_journal);
    }
}
