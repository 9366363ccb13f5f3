//! Ground-truth model for latency-critical services.

use rand::Rng;

use quasar_interference::{InterferenceProfile, PressureVector};

use crate::dataset::Dataset;
use crate::model::{platform_speed, NodeResources};
use crate::platform::{Platform, LATENT_DIM};

/// Latency multiplier applied when a service is driven past saturation.
const OVERLOAD_LATENCY_FACTOR: f64 = 60.0;

/// Utilization cap used in the latency law to avoid division blow-up.
const MAX_RHO: f64 = 0.995;

/// What a load generator measures from a running service over a window:
/// achieved throughput and the latency distribution summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceObservation {
    /// Load offered by clients during the window, in QPS.
    pub offered_qps: f64,
    /// Load actually served, in QPS (≤ offered).
    pub achieved_qps: f64,
    /// Mean request latency in microseconds.
    pub mean_latency_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_latency_us: f64,
    /// Utilization of the allocated capacity in `[0, 1]`.
    pub utilization: f64,
}

impl ServiceObservation {
    /// An observation of a service with no capacity at all.
    pub fn starved(offered_qps: f64) -> ServiceObservation {
        ServiceObservation {
            offered_qps,
            achieved_qps: 0.0,
            mean_latency_us: f64::INFINITY,
            p99_latency_us: f64::INFINITY,
            utilization: 1.0,
        }
    }
}

/// Ground truth for a latency-critical service: per-node QPS capacity as a
/// function of platform, scale-up, memory fit, and interference, plus a
/// queueing-style latency law whose knee moves with capacity — matching
/// the memcached curves of Figure 2 (bottom row).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceModel {
    latent: [f64; LATENT_DIM],
    /// QPS one baseline core can serve in isolation.
    base_qps_per_core: f64,
    /// Core scaling exponent within a node.
    alpha: f64,
    /// Zero-load mean service latency, in microseconds.
    service_time_us: f64,
    /// Tail inflation: p99 = mean × (tail_base + tail_slope × ρ⁴).
    tail_base: f64,
    /// See `tail_base`.
    tail_slope: f64,
    /// Total dataset/state size in GB (0 for stateless tiers).
    state_gb: f64,
    /// Penalty exponent when per-node memory does not hold its shard.
    miss_beta: f64,
    /// Whether capacity is disk-bound (Cassandra) or memory-bound.
    disk_bound: bool,
    dataset: Dataset,
    interference: InterferenceProfile,
}

impl ServiceModel {
    /// Samples a service model.
    ///
    /// `state_gb` is the total stored state (1 TB memcached / 4 TB
    /// Cassandra in the paper's Fig. 9 scenario); `disk_bound` selects
    /// Cassandra-style disk-limited capacity with millisecond latencies
    /// versus memcached-style microsecond latencies.
    pub fn sample<R: Rng + ?Sized>(
        dataset: Dataset,
        state_gb: f64,
        disk_bound: bool,
        rng: &mut R,
    ) -> ServiceModel {
        let mut latent = [0.0; LATENT_DIM];
        for l in &mut latent {
            *l = rng.random_range(0.05..1.0);
        }

        // Services are tail-latency sensitive: higher fragility than
        // batch jobs; disk-bound stores skew toward the storage archetype
        // through their usage intensity.
        let usage = rng.random_range(0.2..0.6);
        let fragility = rng.random_range(0.75..1.0);
        let interference = crate::model::sample_interference(rng, usage, fragility);

        // Calibrated so that the zero-load p99 (service time × complexity
        // effect × tail base) sits well under the class latency bounds
        // (200 µs memcached, 30 ms Cassandra): the knee of Fig. 2 exists
        // at a non-trivial load for every sampled instance.
        let (base_qps_per_core, service_time_us) = if disk_bound {
            (
                rng.random_range(300.0..700.0),
                rng.random_range(2_000.0..6_000.0),
            )
        } else {
            (
                rng.random_range(15_000.0..35_000.0),
                rng.random_range(20.0..50.0),
            )
        };

        ServiceModel {
            latent,
            base_qps_per_core,
            alpha: rng.random_range(0.75..0.95),
            service_time_us,
            tail_base: rng.random_range(1.4..2.2),
            tail_slope: rng.random_range(8.0..20.0),
            state_gb,
            miss_beta: rng.random_range(0.3..0.8),
            disk_bound,
            dataset,
            interference,
        }
    }

    /// The service's interference profile.
    pub fn interference(&self) -> &InterferenceProfile {
        &self.interference
    }

    /// Total stored state in GB.
    pub fn state_gb(&self) -> f64 {
        self.state_gb
    }

    /// Whether the service is disk-bound.
    pub fn disk_bound(&self) -> bool {
        self.disk_bound
    }

    /// The dataset (request mix) this service serves.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// QPS capacity of a single node under the given allocation and
    /// external pressure, assuming the service's state is spread over
    /// `nodes_in_service` nodes.
    pub fn node_capacity(
        &self,
        platform: &Platform,
        res: NodeResources,
        pressure: &PressureVector,
        nodes_in_service: usize,
    ) -> f64 {
        let speed = platform_speed(&self.latent, platform);
        let core_factor = (res.cores as f64).powf(self.alpha);

        // Shard fit: when the per-node shard exceeds allocated memory,
        // misses (memcached) or cache pressure (Cassandra) cut capacity.
        let shard_gb = self.state_gb / nodes_in_service.max(1) as f64;
        let hot_gb = if self.disk_bound {
            // Disk-backed stores only need the hot set resident.
            shard_gb * 0.05
        } else {
            shard_gb
        };
        let mem_factor = if hot_gb <= res.memory_gb || hot_gb == 0.0 {
            1.0
        } else {
            (res.memory_gb / hot_gb).powf(self.miss_beta).max(0.15)
        };

        let penalty = self.interference.penalty(pressure);
        self.base_qps_per_core * speed * core_factor * mem_factor * penalty
            / self.dataset.complexity()
    }

    /// Total capacity of a set of per-node allocations.
    pub fn total_capacity(&self, allocs: &[(&Platform, NodeResources, PressureVector)]) -> f64 {
        let n = allocs.len();
        allocs
            .iter()
            .map(|(p, r, pr)| self.node_capacity(p, *r, pr, n))
            .sum()
    }

    /// Observes the service over a measurement window: clients offer
    /// `offered_qps`, the allocation serves what it can, and latency
    /// follows a utilization law with a knee (mean = service-time /
    /// (1 − ρ); p99 = mean × tail(ρ)).
    pub fn observe(
        &self,
        offered_qps: f64,
        allocs: &[(&Platform, NodeResources, PressureVector)],
    ) -> ServiceObservation {
        let capacity = self.total_capacity(allocs);
        if capacity <= 0.0 {
            return ServiceObservation::starved(offered_qps);
        }
        let rho = (offered_qps / capacity).max(0.0);
        let achieved = offered_qps.min(capacity);

        // Effective base service time rises with interference and slower
        // platforms: use the capacity-weighted average penalty.
        let n = allocs.len();
        let mut weighted_slow = 0.0;
        for (p, r, pr) in allocs {
            let cap = self.node_capacity(p, *r, pr, n);
            let slow = 1.0 / self.interference.penalty(pr).max(0.05);
            weighted_slow += cap * slow;
        }
        let slow_factor = (weighted_slow / capacity).max(1.0);
        let base = self.service_time_us * self.dataset.complexity().sqrt() * slow_factor;

        let (mean, p99) = if rho >= 1.0 {
            let m = base * OVERLOAD_LATENCY_FACTOR;
            (m, m * (self.tail_base + self.tail_slope))
        } else {
            let r = rho.min(MAX_RHO);
            let m = base / (1.0 - r);
            (m, m * (self.tail_base + self.tail_slope * r.powi(4)))
        };

        ServiceObservation {
            offered_qps,
            achieved_qps: achieved,
            mean_latency_us: mean,
            p99_latency_us: p99,
            utilization: rho.min(1.0),
        }
    }

    /// The largest QPS this allocation can serve with p99 at or below
    /// `p99_bound_us` — the knee of the latency-throughput curve.
    pub fn knee_qps(
        &self,
        allocs: &[(&Platform, NodeResources, PressureVector)],
        p99_bound_us: f64,
    ) -> f64 {
        let capacity = self.total_capacity(allocs);
        if capacity <= 0.0 {
            return 0.0;
        }
        // Bisect on offered load.
        let (mut lo, mut hi) = (0.0, capacity);
        for _ in 0..50 {
            let mid = (lo + hi) / 2.0;
            let obs = self.observe(mid, allocs);
            if obs.p99_latency_us <= p99_bound_us {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformCatalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn memcached(seed: u64) -> ServiceModel {
        let mut rng = StdRng::seed_from_u64(seed);
        ServiceModel::sample(Dataset::new("100B-reads", 1.0, 1.0), 64.0, false, &mut rng)
    }

    fn full_alloc(p: &Platform) -> (&Platform, NodeResources, PressureVector) {
        (p, NodeResources::all_of(p), PressureVector::zero())
    }

    #[test]
    fn latency_rises_with_load() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let m = memcached(1);
        let allocs = [full_alloc(p)];
        let cap = m.total_capacity(&allocs);
        let mut last = 0.0;
        for frac in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let obs = m.observe(cap * frac, &allocs);
            assert!(obs.p99_latency_us > last, "latency must rise with load");
            last = obs.p99_latency_us;
        }
    }

    #[test]
    fn overload_caps_throughput_and_blows_latency() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let m = memcached(2);
        let allocs = [full_alloc(p)];
        let cap = m.total_capacity(&allocs);
        let obs = m.observe(cap * 2.0, &allocs);
        assert!((obs.achieved_qps - cap).abs() < 1e-6);
        assert!(obs.p99_latency_us > m.observe(cap * 0.5, &allocs).p99_latency_us * 10.0);
    }

    #[test]
    fn more_nodes_give_more_capacity() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let m = memcached(3);
        let one = m.total_capacity(&[full_alloc(p)]);
        let four: Vec<_> = (0..4).map(|_| full_alloc(p)).collect();
        assert!(m.total_capacity(&four) > one * 3.0);
    }

    #[test]
    fn shard_that_does_not_fit_cuts_capacity() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end(); // 48 GB
        let mut rng = StdRng::seed_from_u64(4);
        // 1 TB of state on one 48 GB node: shard cannot fit.
        let m = ServiceModel::sample(Dataset::new("d", 1.0, 1.0), 1024.0, false, &mut rng);
        let starved = m.node_capacity(p, NodeResources::all_of(p), &PressureVector::zero(), 1);
        let fitted = m.node_capacity(p, NodeResources::all_of(p), &PressureVector::zero(), 64);
        assert!(starved < fitted * 0.5, "shard miss penalty must apply");
    }

    #[test]
    fn interference_moves_the_knee() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let m = memcached(5);
        let quiet = [full_alloc(p)];
        let noisy = [(p, NodeResources::all_of(p), PressureVector::uniform(90.0))];
        let knee_quiet = m.knee_qps(&quiet, 1000.0);
        let knee_noisy = m.knee_qps(&noisy, 1000.0);
        assert!(
            knee_noisy < knee_quiet * 0.8,
            "interference must shift the knee left: {knee_quiet} -> {knee_noisy}"
        );
    }

    #[test]
    fn knee_respects_latency_bound() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let m = memcached(6);
        let allocs = [full_alloc(p)];
        let knee = m.knee_qps(&allocs, 800.0);
        let obs = m.observe(knee, &allocs);
        assert!(obs.p99_latency_us <= 800.0 * 1.01);
    }

    #[test]
    fn starved_observation_is_infinite_latency() {
        let m = memcached(7);
        let obs = m.observe(100.0, &[]);
        assert_eq!(obs.achieved_qps, 0.0);
        assert!(obs.p99_latency_us.is_infinite());
    }
}
