//! Reservation sizing: how users and framework schedulers translate a
//! performance target into a resource request.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use quasar_cluster::{ProfileConfig, World};
use quasar_workloads::{NodeResources, QosTarget, WorkloadClass, WorkloadId};

/// The over/under-sizing behaviour of reservation users, matching the
/// measured distribution of Fig. 1d: ~70% of workloads over-size by up to
/// 10x, ~20% under-size by up to 5x, ~10% are right-sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserErrorModel {
    /// Probability of over-sizing.
    pub p_oversize: f64,
    /// Maximum over-size multiplier (uniform in `(1, max]`).
    pub max_oversize: f64,
    /// Probability of under-sizing.
    pub p_undersize: f64,
    /// Maximum under-size divisor (uniform in `(1, max]`).
    pub max_undersize: f64,
}

impl UserErrorModel {
    /// The Fig. 1d distribution.
    pub fn paper() -> UserErrorModel {
        UserErrorModel {
            p_oversize: 0.70,
            max_oversize: 10.0,
            p_undersize: 0.20,
            max_undersize: 5.0,
        }
    }

    /// No user error: reservations equal the estimated need (used by the
    /// framework self-scheduler baseline, whose errors come from its
    /// modeling assumptions instead).
    pub fn exact() -> UserErrorModel {
        UserErrorModel {
            p_oversize: 0.0,
            max_oversize: 1.0,
            p_undersize: 0.0,
            max_undersize: 1.0,
        }
    }

    /// Samples a multiplicative sizing factor.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let dice: f64 = rng.random_range(0.0..1.0);
        if dice < self.p_oversize {
            rng.random_range(1.0..self.max_oversize.max(1.0 + 1e-9))
        } else if dice < self.p_oversize + self.p_undersize {
            1.0 / rng.random_range(1.0..self.max_undersize.max(1.0 + 1e-9))
        } else {
            1.0
        }
    }
}

/// A reservation: node count plus a per-node slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizedReservation {
    /// Number of node-sized instances requested.
    pub nodes: usize,
    /// Per-node slice requested.
    pub slice: NodeResources,
    /// The sizing factor the "user" applied (1.0 = right-sized).
    pub error_factor: f64,
}

impl SizedReservation {
    /// Total reserved cores.
    pub fn total_cores(&self) -> u32 {
        self.nodes as u32 * self.slice.cores
    }

    /// Total reserved memory in GB.
    pub fn total_memory_gb(&self) -> f64 {
        self.nodes as f64 * self.slice.memory_gb
    }
}

/// Standard per-instance slice reservation-based systems request
/// (a "container" of 4 cores / 4 GB, capped per server — small enough to
/// land on any platform, which is exactly how heterogeneity-blind
/// placement gets hurt).
const SLICE_CORES: u32 = 4;
const SLICE_MEMORY_GB: f64 = 4.0;

/// Sizes reservations the way the paper's baselines do: one quick
/// profiling run (the framework scheduler's own estimate) extrapolated
/// with a linear-scaling assumption, then multiplied by the user error.
#[derive(Debug, Clone)]
pub struct ReservationSizer {
    error_model: UserErrorModel,
    rng: StdRng,
}

impl ReservationSizer {
    /// A sizer with the given user-error model.
    pub fn new(error_model: UserErrorModel, seed: u64) -> ReservationSizer {
        ReservationSizer {
            error_model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sizes a reservation for workload `id`.
    ///
    /// Framework self-schedulers (the [`UserErrorModel::exact`] mode)
    /// size analytics jobs from the *data*: enough nodes to run the map
    /// tasks in a few waves at stock parameters — deadline-oblivious,
    /// exactly like stock Hadoop. Everything else is estimated from a
    /// single profiling run at the standard slice on a *random* platform
    /// (reservation users don't reason about heterogeneity), assuming
    /// performance scales linearly with instance count.
    pub fn size(&mut self, world: &mut World, id: WorkloadId) -> SizedReservation {
        let spec = world.spec(id).clone();
        if self.error_model == UserErrorModel::exact() && spec.class.has_framework_params() {
            let nodes = quasar_workloads::hadoop_wave_nodes(spec.dataset.size_gb());
            return SizedReservation {
                nodes,
                slice: NodeResources::new(SLICE_CORES, SLICE_MEMORY_GB),
                error_factor: 1.0,
            };
        }
        let catalog = world.catalog();
        let platform_count = catalog.len();
        let pick = self.rng.random_range(0..platform_count);
        let platform = catalog.iter().nth(pick).expect("index in range");
        let slice = NodeResources::new(
            SLICE_CORES.min(platform.cores),
            SLICE_MEMORY_GB.min(platform.memory_gb),
        );
        let pid = platform.id;

        let config = ProfileConfig::single(pid, slice);
        let measured = world.profile_config(id, &config).value;

        let ideal_nodes = match spec.target {
            QosTarget::CompletionTime { seconds } => {
                // One instance takes `measured` seconds; assume linear
                // speed-up with instances.
                (measured / seconds).ceil() as usize
            }
            QosTarget::Throughput { qps, .. } => (qps / measured.max(1e-9)).ceil() as usize,
            QosTarget::Ips { .. } => 1,
        }
        .max(1);

        let error_factor = if spec.class == WorkloadClass::SingleNode {
            1.0
        } else {
            self.error_model.sample(&mut self.rng)
        };
        let nodes = ((ideal_nodes as f64 * error_factor).round() as usize).clamp(1, 64);

        SizedReservation {
            nodes,
            slice: NodeResources::new(SLICE_CORES, SLICE_MEMORY_GB),
            error_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn paper_error_distribution_shape() {
        let model = UserErrorModel::paper();
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..10_000).map(|_| model.sample(&mut rng)).collect();
        let over = samples.iter().filter(|&&f| f > 1.0).count() as f64 / 10_000.0;
        let under = samples.iter().filter(|&&f| f < 1.0).count() as f64 / 10_000.0;
        assert!((over - 0.70).abs() < 0.03, "oversize fraction {over}");
        assert!((under - 0.20).abs() < 0.03, "undersize fraction {under}");
        assert!(samples.iter().all(|&f| (0.2..=10.0).contains(&f)));
    }

    #[test]
    fn exact_model_is_identity() {
        let model = UserErrorModel::exact();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(model.sample(&mut rng), 1.0);
        }
    }

    #[test]
    fn reservation_totals() {
        let r = SizedReservation {
            nodes: 3,
            slice: NodeResources::new(8, 8.0),
            error_factor: 1.0,
        };
        assert_eq!(r.total_cores(), 24);
        assert_eq!(r.total_memory_gb(), 24.0);
    }

    #[test]
    fn sizer_produces_reasonable_counts() {
        use quasar_cluster::{managers::NullManager, ClusterSpec, SimConfig, Simulation};
        use quasar_workloads::generate::Generator;
        use quasar_workloads::{Dataset, PlatformCatalog, Priority};

        let catalog = PlatformCatalog::local();
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(NullManager),
            SimConfig::default(),
        );
        let mut generator = Generator::new(catalog, 3);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "h",
            Dataset::new("d", 20.0, 1.0),
            4,
            3_600.0,
            Priority::Guaranteed,
        );
        let id = job.id();
        sim.submit_at(job, 0.0);
        sim.run_until(5.0);
        let mut sizer = ReservationSizer::new(UserErrorModel::exact(), 7);
        let r = sizer.size(sim.world_mut(), id);
        assert!((1..=64).contains(&r.nodes));
        assert_eq!(r.error_factor, 1.0);
    }
}
