//! The configurable baseline manager.

use std::collections::{HashMap, VecDeque};

use quasar_cluster::{JobState, Manager, NodeAlloc, Observation, ServerId, World};
use quasar_core::HistorySet;
use quasar_workloads::{FrameworkParams, NodeResources, WorkloadId};

use crate::paragon::ParagonEngine;
use crate::reservation::{ReservationSizer, UserErrorModel};

/// How the baseline decides *how much* to allocate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocationPolicy {
    /// Reservations sized from one framework estimate, scaled by the user
    /// error model (Fig. 1d for user reservations; exact for framework
    /// self-scheduling, whose error comes from its linear-scaling
    /// assumption).
    Reservation(UserErrorModel),
    /// Auto-scaling for services: start at `min` instances, add one when
    /// measured utilization exceeds 70%, remove one below 30% (batch
    /// workloads fall back to exact reservations).
    Autoscale {
        /// Minimum instances.
        min: usize,
        /// Maximum instances (the paper's HotCRP scenario uses 8).
        max: usize,
    },
}

/// How the baseline decides *where* to place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentPolicy {
    /// Least-loaded servers by free cores; heterogeneity- and
    /// interference-oblivious.
    LeastLoaded,
    /// Paragon-style CF ranking (heterogeneity + interference aware).
    Paragon,
}

/// Spin-up latency of an auto-scaled instance; scale-out through the
/// auto-scaler is slower than Quasar's in-place scale-up (§6.3).
const AUTOSCALE_SPINUP_S: f64 = 30.0;

/// Seconds between auto-scaler reactions per service.
const AUTOSCALE_COOLDOWN_S: f64 = 60.0;

/// A reservation-era cluster manager assembled from an allocation and an
/// assignment policy.
///
/// # Examples
///
/// ```no_run
/// use quasar_baselines::{AllocationPolicy, AssignmentPolicy, BaselineManager, UserErrorModel};
///
/// let manager = BaselineManager::new(
///     AllocationPolicy::Reservation(UserErrorModel::paper()),
///     AssignmentPolicy::LeastLoaded,
///     None,
///     7,
/// );
/// assert_eq!(manager.name(), "reservation+ll");
/// # let _ = manager;
/// ```
#[derive(Clone)]
pub struct BaselineManager {
    name: String,
    alloc: AllocationPolicy,
    assign: AssignmentPolicy,
    sizer: ReservationSizer,
    paragon: Option<ParagonEngine>,
    pending: VecDeque<WorkloadId>,
    requested_nodes: HashMap<WorkloadId, usize>,
    autoscale_cooldown: HashMap<WorkloadId, f64>,
    placement_round: std::cell::Cell<u64>,
}

impl BaselineManager {
    /// Builds a baseline manager. `history` is required when
    /// `assign == Paragon` (it shares Quasar's offline CF history).
    ///
    /// # Panics
    ///
    /// Panics if Paragon assignment is requested without a history.
    pub fn new(
        alloc: AllocationPolicy,
        assign: AssignmentPolicy,
        history: Option<HistorySet>,
        seed: u64,
    ) -> BaselineManager {
        let paragon = match assign {
            AssignmentPolicy::Paragon => Some(ParagonEngine::new(
                history.expect("Paragon assignment needs an offline history"),
            )),
            AssignmentPolicy::LeastLoaded => None,
        };
        let alloc_name = match alloc {
            AllocationPolicy::Reservation(m) if m == UserErrorModel::exact() => "framework",
            AllocationPolicy::Reservation(_) => "reservation",
            AllocationPolicy::Autoscale { .. } => "autoscale",
        };
        let assign_name = match assign {
            AssignmentPolicy::LeastLoaded => "ll",
            AssignmentPolicy::Paragon => "paragon",
        };
        BaselineManager {
            name: format!("{alloc_name}+{assign_name}"),
            alloc,
            assign,
            sizer: ReservationSizer::new(
                match alloc {
                    AllocationPolicy::Reservation(m) => m,
                    AllocationPolicy::Autoscale { .. } => UserErrorModel::exact(),
                },
                seed,
            ),
            paragon,
            pending: VecDeque::new(),
            requested_nodes: HashMap::new(),
            autoscale_cooldown: HashMap::new(),
            placement_round: std::cell::Cell::new(seed),
        }
    }

    /// The name of this manager's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Servers that fit `slice`, ordered by the assignment policy.
    fn ordered_servers(
        &self,
        world: &World,
        id: WorkloadId,
        slice: NodeResources,
    ) -> Vec<ServerId> {
        match self.assign {
            AssignmentPolicy::LeastLoaded => {
                // True least-loaded: lowest committed fraction first.
                // Heterogeneity-blind by design — ties resolve by a hash
                // of the server id, so an empty cluster fills in an
                // arbitrary platform mix, as naive schedulers do.
                let round = self.placement_round.get().wrapping_add(1);
                self.placement_round.set(round);
                let mut servers: Vec<&quasar_cluster::Server> = world
                    .servers()
                    .iter()
                    .filter(|s| {
                        s.free_cores() >= slice.cores.min(s.total_cores())
                            && s.free_memory_gb() >= slice.memory_gb.min(s.total_memory_gb())
                    })
                    .collect();
                servers.sort_by(|a, b| {
                    let shuffle = |s: &quasar_cluster::Server| {
                        (s.id().0 as u64)
                            .wrapping_add(round)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            >> 32
                    };
                    a.core_commit_fraction()
                        .total_cmp(&b.core_commit_fraction())
                        .then(shuffle(a).cmp(&shuffle(b)))
                });
                servers.into_iter().map(|s| s.id()).collect()
            }
            AssignmentPolicy::Paragon => self
                .paragon
                .as_ref()
                .expect("paragon engine present")
                .rank_servers(world, id, slice.cores, |s| {
                    s.free_cores() >= slice.cores.min(s.total_cores())
                        && s.free_memory_gb() >= slice.memory_gb.min(s.total_memory_gb())
                }),
        }
    }

    /// Places up to `nodes` instances of `slice`; returns how many fit.
    ///
    /// `require_all` models reservation semantics: the request waits in
    /// the queue until the *whole* reservation fits (the paper counts
    /// this wait toward scheduling overheads); framework and autoscale
    /// modes take what is available.
    #[allow(clippy::too_many_arguments)]
    fn place_instances(
        &mut self,
        world: &mut World,
        id: WorkloadId,
        nodes: usize,
        slice: NodeResources,
        delay_s: f64,
        require_all: bool,
    ) -> usize {
        let ordered = self.ordered_servers(world, id, slice);
        if require_all && ordered.len() < nodes {
            return 0;
        }
        let chosen: Vec<ServerId> = ordered.into_iter().take(nodes).collect();
        if chosen.is_empty() {
            return 0;
        }
        let active_after = world.now() + delay_s;
        // Cap the slice per server: small platforms host a smaller
        // container rather than being skipped entirely.
        let allocs: Vec<NodeAlloc> = chosen
            .iter()
            .map(|&server| {
                let s = world.server(server);
                NodeAlloc {
                    server,
                    resources: quasar_workloads::NodeResources::new(
                        slice.cores.min(s.total_cores()),
                        slice.memory_gb.min(s.total_memory_gb()),
                    ),
                    active_after,
                }
            })
            .collect();
        let count = allocs.len();
        match world.place(id, allocs, FrameworkParams::default()) {
            Ok(()) => count,
            Err(_) => 0,
        }
    }

    fn try_place(&mut self, world: &mut World, id: WorkloadId) -> bool {
        let is_service = world.spec(id).class.is_latency_critical();
        let (nodes, delay) = match self.alloc {
            AllocationPolicy::Autoscale { min, .. } if is_service => (min, 0.0),
            _ => {
                let r = *self
                    .requested_nodes
                    .get(&id)
                    .expect("sized before placement");
                (r, 0.0)
            }
        };
        let delay = match self.assign {
            AssignmentPolicy::Paragon => self
                .paragon
                .as_ref()
                .and_then(|p| p.class(id))
                .map(|c| c.wall_seconds)
                .unwrap_or(delay),
            AssignmentPolicy::LeastLoaded => delay,
        };
        // Framework self-schedulers own whole machines (dedicated Hadoop
        // tasktrackers); reservation users and auto-scalers request
        // 8-core containers.
        let framework_mode = matches!(
            self.alloc,
            AllocationPolicy::Reservation(m) if m == UserErrorModel::exact()
        ) && world.spec(id).class.has_framework_params();
        let slice = if framework_mode {
            NodeResources::new(64, 512.0) // capped to each server's size
        } else if matches!(self.alloc, AllocationPolicy::Autoscale { .. }) {
            NodeResources::new(8, 8.0)
        } else {
            NodeResources::new(4, 4.0)
        };
        let require_all = matches!(
            self.alloc,
            AllocationPolicy::Reservation(m) if m != UserErrorModel::exact()
        );
        let placed = self.place_instances(world, id, nodes, slice, delay, require_all);
        placed > 0
    }

    fn autoscale_tick(&mut self, world: &mut World) {
        let AllocationPolicy::Autoscale { min, max } = self.alloc else {
            return;
        };
        let slice = NodeResources::new(8, 8.0);
        let running = world.ids_in_state(JobState::Running);
        for id in running {
            if !world.spec(id).class.is_latency_critical() {
                continue;
            }
            let cooldown = self.autoscale_cooldown.get(&id).copied().unwrap_or(0.0);
            if world.now() < cooldown {
                continue;
            }
            let Some(Observation::Service(obs)) = world.observation(id) else {
                continue;
            };
            let Some(placement) = world.placement(id) else {
                continue;
            };
            let n = placement.node_count();
            if obs.utilization > 0.70 && n < max {
                // Add one instance on the least-loaded fitting server.
                let used: Vec<usize> = placement.nodes.iter().map(|x| x.server.0).collect();
                let next = world
                    .servers()
                    .iter()
                    .filter(|s| {
                        !used.contains(&s.id().0)
                            && s.free_cores() >= slice.cores
                            && s.free_memory_gb() >= slice.memory_gb
                    })
                    .max_by_key(|s| s.free_cores())
                    .map(|s| s.id());
                if let Some(server) = next {
                    let _ = world.add_node(
                        id,
                        NodeAlloc {
                            server,
                            resources: slice,
                            active_after: world.now() + AUTOSCALE_SPINUP_S,
                        },
                    );
                    self.autoscale_cooldown
                        .insert(id, world.now() + AUTOSCALE_COOLDOWN_S);
                }
            } else if obs.utilization < 0.30 && n > min {
                let worst = placement.nodes.last().map(|x| x.server);
                if let Some(server) = worst {
                    let _ = world.remove_node(id, server);
                    self.autoscale_cooldown
                        .insert(id, world.now() + AUTOSCALE_COOLDOWN_S);
                }
            }
        }
    }

    fn retry_pending(&mut self, world: &mut World) {
        let mut still = VecDeque::new();
        while let Some(id) = self.pending.pop_front() {
            if world.state(id) != JobState::Pending {
                continue;
            }
            if !self.try_place(world, id) {
                still.push_back(id);
            }
        }
        self.pending = still;
    }
}

impl Manager for BaselineManager {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_arrival(&mut self, world: &mut World, id: WorkloadId) {
        let is_service = world.spec(id).class.is_latency_critical();
        // Size the reservation (skipped for auto-scaled services, which
        // start from `min` and react to load).
        let nodes = match self.alloc {
            AllocationPolicy::Autoscale { min, .. } if is_service => min,
            _ => {
                let r = self.sizer.size(world, id);
                world.report_reservation(id, r.total_cores(), r.total_memory_gb());
                r.nodes
            }
        };
        self.requested_nodes.insert(id, nodes);

        if self.assign == AssignmentPolicy::Paragon {
            self.paragon
                .as_mut()
                .expect("paragon engine present")
                .classify(world, id);
        }
        if !self.try_place(world, id) {
            self.pending.push_back(id);
        }
    }

    fn on_tick(&mut self, world: &mut World) {
        self.autoscale_tick(world);
        if !self.pending.is_empty() {
            self.retry_pending(world);
        }
    }

    fn on_completion(&mut self, world: &mut World, id: WorkloadId) {
        self.requested_nodes.remove(&id);
        if let Some(p) = self.paragon.as_mut() {
            p.remove(id);
        }
        self.retry_pending(world);
    }

    fn fork(&self) -> Option<Box<dyn Manager>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_cluster::{ClusterSpec, SimConfig, Simulation};
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{Dataset, LoadPattern, PlatformCatalog, Priority, WorkloadClass};

    fn run_scenario(manager: BaselineManager) -> Simulation {
        let catalog = PlatformCatalog::local();
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 2),
            Box::new(manager),
            SimConfig::default(),
        );
        let mut generator = Generator::new(catalog, 5);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "h",
            Dataset::new("d", 10.0, 1.0),
            2,
            900.0,
            Priority::Guaranteed,
        );
        sim.submit_at(job, 0.0);
        let svc = generator.service(
            WorkloadClass::Memcached,
            "mc",
            16.0,
            LoadPattern::Flat { qps: 40_000.0 },
            Priority::Guaranteed,
        );
        sim.submit_at(svc, 10.0);
        sim.run_until(4_000.0);
        sim
    }

    #[test]
    fn reservation_ll_places_and_reports_reservations() {
        let manager = BaselineManager::new(
            AllocationPolicy::Reservation(UserErrorModel::paper()),
            AssignmentPolicy::LeastLoaded,
            None,
            11,
        );
        let sim = run_scenario(manager);
        // Reservations show up in the metrics samples.
        let samples = sim.world().metrics().samples();
        assert!(samples.iter().any(|s| s.reserved_cpu > 0.0));
        // The batch job made progress or completed.
        let completions = sim.world().completions();
        assert!(!completions.is_empty());
    }

    #[test]
    fn autoscale_grows_under_load() {
        let manager = BaselineManager::new(
            AllocationPolicy::Autoscale { min: 1, max: 8 },
            AssignmentPolicy::LeastLoaded,
            None,
            13,
        );
        let catalog = PlatformCatalog::local();
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 2),
            Box::new(manager),
            SimConfig::default(),
        );
        let mut generator = Generator::new(catalog, 6);
        let svc = generator.service(
            WorkloadClass::Memcached,
            "mc",
            16.0,
            // A load that one 8-core slice cannot serve.
            LoadPattern::Flat { qps: 300_000.0 },
            Priority::Guaranteed,
        );
        let id = svc.id();
        sim.submit_at(svc, 0.0);
        sim.run_until(2_000.0);
        let placement = sim.world().placement(id).expect("service placed");
        assert!(
            placement.node_count() > 1,
            "autoscaler must have added instances, has {}",
            placement.node_count()
        );
    }

    #[test]
    fn paragon_assignment_works_end_to_end() {
        let catalog = PlatformCatalog::local();
        let history = HistorySet::bootstrap(&catalog, 6, 21);
        let manager = BaselineManager::new(
            AllocationPolicy::Reservation(UserErrorModel::exact()),
            AssignmentPolicy::Paragon,
            Some(history),
            17,
        );
        assert_eq!(manager.name(), "framework+paragon");
        let sim = run_scenario(manager);
        assert!(!sim.world().completions().is_empty());
    }

    #[test]
    #[should_panic(expected = "needs an offline history")]
    fn paragon_without_history_panics() {
        BaselineManager::new(
            AllocationPolicy::Reservation(UserErrorModel::paper()),
            AssignmentPolicy::Paragon,
            None,
            1,
        );
    }
}
