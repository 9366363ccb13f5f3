//! Ground-truth model for run-to-completion (batch) workloads.

use rand::Rng;

use quasar_interference::{InterferenceProfile, PressureVector};

use crate::dataset::Dataset;
use crate::framework::FrameworkParams;
use crate::model::{platform_speed, NodeResources};
use crate::platform::{Platform, LATENT_DIM};

/// Ground truth for a batch job: how many work units per second it
/// completes under any allocation/assignment, including framework
/// parameter effects, memory cliffs, sub/super-linear scale-out, and
/// interference.
///
/// All the knobs are sampled per instance from class-specific priors (see
/// [`crate::generate`]), giving each job its own response surface, as in
/// Figure 2 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchModel {
    latent: [f64; LATENT_DIM],
    /// Core-count scaling exponent within a node (`cores^alpha`).
    alpha: f64,
    /// Cores beyond this limit contribute nothing (serial bottleneck).
    parallel_limit: u32,
    /// Total working set in GB (scales with the dataset).
    working_set_gb: f64,
    /// Fixed per-node memory need in GB (runtime, code, buffers).
    fixed_memory_gb: f64,
    /// Memory-cliff exponent: rate × (mem/need)^beta when short.
    mem_beta: f64,
    /// Scale-out exponent: total rate × n^(gamma - 1).
    gamma: f64,
    /// Rate multiplier when the aggregate memory fits the working set.
    in_memory_bonus: f64,
    /// Fraction of time spent in I/O (compression trade-off).
    io_fraction: f64,
    /// How well mappers tolerate each other on a node, in `[0, 1]`.
    mapper_compat: f64,
    /// Heap each task needs to avoid GC churn, in GB.
    heap_need_gb: f64,
    /// Whether framework parameters apply (Hadoop/Spark/Storm).
    uses_framework: bool,
    dataset: Dataset,
    total_work: f64,
    interference: InterferenceProfile,
}

/// Builder-style constructor parameters for [`BatchModel::sample`].
struct Priors {
    alpha: (f64, f64),
    gamma: (f64, f64),
    ws_fraction: (f64, f64),
    in_memory_bonus: (f64, f64),
    io_fraction: (f64, f64),
}

impl BatchModel {
    /// Samples a batch model from class-appropriate priors.
    ///
    /// `distributed` selects analytics-style priors (wide scale-out range,
    /// I/O fractions that make compression matter) versus single-node
    /// priors.
    pub fn sample<R: Rng + ?Sized>(dataset: Dataset, distributed: bool, rng: &mut R) -> BatchModel {
        let priors = if distributed {
            Priors {
                alpha: (0.55, 0.95),
                gamma: (0.65, 1.0),
                ws_fraction: (0.3, 1.2),
                in_memory_bonus: (1.0, 1.3),
                io_fraction: (0.15, 0.55),
            }
        } else {
            Priors {
                alpha: (0.35, 0.9),
                gamma: (1.0, 1.0),
                ws_fraction: (0.05, 0.4),
                in_memory_bonus: (1.0, 1.0),
                io_fraction: (0.0, 0.2),
            }
        };

        let mut latent = [0.0; LATENT_DIM];
        for l in &mut latent {
            *l = rng.random_range(0.05..1.0);
        }

        let working_set_gb =
            dataset.size_gb() * rng.random_range(priors.ws_fraction.0..=priors.ws_fraction.1);

        // Interference: an archetype mixture (see `sample_interference`),
        // giving the profile matrix the low-rank structure CF exploits.
        let usage = rng.random_range(0.3..0.8);
        let fragility = rng.random_range(0.5..0.95);
        let interference = crate::model::sample_interference(rng, usage, fragility);

        BatchModel {
            latent,
            alpha: rng.random_range(priors.alpha.0..=priors.alpha.1),
            parallel_limit: if distributed {
                rng.random_range(16..=64)
            } else {
                rng.random_range(1..=16)
            },
            working_set_gb,
            fixed_memory_gb: rng.random_range(0.5..2.0),
            mem_beta: rng.random_range(0.25..0.8),
            gamma: rng.random_range(priors.gamma.0..=priors.gamma.1),
            in_memory_bonus: rng.random_range(priors.in_memory_bonus.0..=priors.in_memory_bonus.1),
            io_fraction: rng.random_range(priors.io_fraction.0..=priors.io_fraction.1),
            mapper_compat: rng.random_range(0.2..1.0),
            heap_need_gb: rng.random_range(0.4..1.2),
            uses_framework: distributed,
            dataset,
            total_work: 1.0,
            interference,
        }
    }

    /// Fixes the job size so that running on `nodes` copies of `platform`
    /// at full resources with default framework parameters takes
    /// `duration_s` seconds.
    pub fn calibrate_work(&mut self, platform: &Platform, nodes: usize, duration_s: f64) {
        assert!(duration_s > 0.0, "duration must be positive");
        self.total_work = 1.0;
        let allocs: Vec<(&Platform, NodeResources, PressureVector)> = (0..nodes)
            .map(|_| {
                (
                    platform,
                    NodeResources::all_of(platform),
                    PressureVector::zero(),
                )
            })
            .collect();
        let rate = self.cluster_rate(&allocs, &FrameworkParams::default());
        self.total_work = rate * duration_s;
    }

    /// Total work units of the job.
    pub fn total_work(&self) -> f64 {
        self.total_work
    }

    /// The dataset this job processes.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The job's interference profile.
    pub fn interference(&self) -> &InterferenceProfile {
        &self.interference
    }

    /// Work rate (work units/second) of one node, given the job runs on
    /// `nodes_in_job` nodes total (which determines the per-node working
    /// set).
    pub fn node_rate(
        &self,
        platform: &Platform,
        res: NodeResources,
        params: &FrameworkParams,
        pressure: &PressureVector,
        nodes_in_job: usize,
    ) -> f64 {
        let speed = platform_speed(&self.latent, platform);
        // A framework job can run at most `mappers_per_node` tasks, so
        // extra cores beyond the task count sit idle (they never hurt).
        let task_slots = if self.uses_framework {
            params.mappers_per_node.max(1)
        } else {
            res.cores
        };
        let useful_cores = res.cores.min(task_slots).min(self.parallel_limit).max(1) as f64;
        let core_factor = useful_cores.powf(self.alpha);

        let ws_per_node = self.working_set_gb / nodes_in_job.max(1) as f64 + self.fixed_memory_gb;
        let mem_for_work = if self.uses_framework {
            // Framework tasks consume heap; what's left feeds the page
            // cache / working set.
            (res.memory_gb - params.memory_per_node_gb() * 0.25).max(res.memory_gb * 0.25)
        } else {
            res.memory_gb
        };
        let mem_factor = if mem_for_work >= ws_per_node {
            1.0
        } else {
            (mem_for_work / ws_per_node).powf(self.mem_beta).max(0.2)
        };

        let framework_factor = if self.uses_framework {
            self.framework_factor(res.cores, params)
        } else {
            1.0
        };

        let penalty = self.interference.penalty(pressure);
        speed
            * core_factor
            * mem_factor
            * framework_factor
            * penalty
            * self.dataset.complexity().recip()
    }

    /// Effect of the framework parameters on per-node throughput.
    fn framework_factor(&self, cores: u32, params: &FrameworkParams) -> f64 {
        // Undersubscription (fewer mappers than cores) is handled by the
        // effective-parallelism term in `node_rate`; here only
        // oversubscription matters: extra mappers help if tasks tolerate
        // each other (I/O overlap), then degrade.
        let c = cores as f64;
        let m = params.mappers_per_node as f64;
        let mapper_factor = if m <= c {
            1.0
        } else {
            let oversub = (m - c) / c;
            let overlap_gain = 1.0 + 0.25 * self.mapper_compat * oversub.min(1.0);
            let thrash = 1.0 + (1.0 - self.mapper_compat) * oversub;
            (overlap_gain / thrash).min(1.3)
        };

        // Heap: below the per-task need, GC churn; above, no speed gain.
        let heap_factor = (params.heap_gb / self.heap_need_gb).min(1.0).powf(0.6);

        // Compression: shrinks the I/O share, costs CPU on the rest.
        let cpu_time = (1.0 - self.io_fraction) * params.compression.cpu_cost();
        let io_time = self.io_fraction / params.compression.ratio();
        let compression_factor = 1.0 / (cpu_time + io_time);

        mapper_factor * heap_factor * compression_factor
    }

    /// Total work rate of a set of per-node allocations.
    ///
    /// The sum of node rates is scaled by `n^(gamma-1)` (coordination
    /// overhead) and by the in-memory bonus when the aggregate memory
    /// holds the working set — which is how superlinear scale-out arises
    /// (Fig. 2, scale-out panel).
    pub fn cluster_rate(
        &self,
        allocs: &[(&Platform, NodeResources, PressureVector)],
        params: &FrameworkParams,
    ) -> f64 {
        if allocs.is_empty() {
            return 0.0;
        }
        let n = allocs.len();
        let base: f64 = allocs
            .iter()
            .map(|(p, r, pr)| self.node_rate(p, *r, params, pr, n))
            .sum();
        let scaleout = (n as f64).powf(self.gamma - 1.0);
        let total_mem: f64 = allocs.iter().map(|(_, r, _)| r.memory_gb).sum();
        let bonus = if total_mem >= self.working_set_gb * 1.1 {
            self.in_memory_bonus
        } else {
            1.0
        };
        base * scaleout * bonus
    }

    /// Completion time in seconds for `work` remaining work units at the
    /// given allocation; `None` if the rate is zero.
    pub fn completion_time(
        &self,
        work: f64,
        allocs: &[(&Platform, NodeResources, PressureVector)],
        params: &FrameworkParams,
    ) -> Option<f64> {
        let rate = self.cluster_rate(allocs, params);
        if rate <= 0.0 {
            None
        } else {
            Some(work / rate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformCatalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> BatchModel {
        let mut rng = StdRng::seed_from_u64(seed);
        BatchModel::sample(Dataset::new("test", 10.0, 1.0), true, &mut rng)
    }

    fn alloc(platform: &Platform) -> (&Platform, NodeResources, PressureVector) {
        (
            platform,
            NodeResources::all_of(platform),
            PressureVector::zero(),
        )
    }

    #[test]
    fn more_cores_never_slower() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let m = model(1);
        let params = FrameworkParams::default();
        let mut last = 0.0;
        for cores in 1..=p.cores {
            let rate = m.node_rate(
                p,
                NodeResources::new(cores, p.memory_gb),
                &params,
                &PressureVector::zero(),
                1,
            );
            assert!(rate >= last, "rate must be monotone in cores");
            last = rate;
        }
    }

    #[test]
    fn memory_cliff_slows_job() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let m = model(2);
        let params = FrameworkParams::default();
        let full = m.node_rate(
            p,
            NodeResources::new(8, 48.0),
            &params,
            &PressureVector::zero(),
            1,
        );
        let starved = m.node_rate(
            p,
            NodeResources::new(8, 1.0),
            &params,
            &PressureVector::zero(),
            1,
        );
        assert!(starved < full, "memory starvation must slow the job");
    }

    #[test]
    fn interference_slows_job() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let m = model(3);
        let params = FrameworkParams::default();
        let quiet = m.node_rate(
            p,
            NodeResources::all_of(p),
            &params,
            &PressureVector::zero(),
            1,
        );
        let noisy = m.node_rate(
            p,
            NodeResources::all_of(p),
            &params,
            &PressureVector::uniform(95.0),
            1,
        );
        assert!(noisy < quiet);
    }

    #[test]
    fn calibrated_work_hits_duration() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let mut m = model(4);
        m.calibrate_work(p, 4, 3600.0);
        let allocs: Vec<_> = (0..4).map(|_| alloc(p)).collect();
        let t = m
            .completion_time(m.total_work(), &allocs, &FrameworkParams::default())
            .unwrap();
        assert!((t - 3600.0).abs() < 1.0, "calibrated completion {t}");
    }

    #[test]
    fn scale_out_increases_rate() {
        let cat = PlatformCatalog::local();
        let p = cat.highest_end();
        let m = model(5);
        let params = FrameworkParams::default();
        let r1 = m.cluster_rate(&[alloc(p)], &params);
        let allocs4: Vec<_> = (0..4).map(|_| alloc(p)).collect();
        let r4 = m.cluster_rate(&allocs4, &params);
        assert!(r4 > r1 * 1.5, "scale-out must help: {r1} -> {r4}");
    }

    #[test]
    fn heterogeneity_spread_is_significant() {
        // Across many sampled jobs, the best platform should be several
        // times faster than the worst at full allocation (Fig. 2: up to 7x).
        let cat = PlatformCatalog::local();
        let params = FrameworkParams::default();
        let mut max_spread: f64 = 0.0;
        for seed in 0..20 {
            let m = model(seed);
            let rates: Vec<f64> = cat
                .iter()
                .map(|p| {
                    m.node_rate(
                        p,
                        NodeResources::all_of(p),
                        &params,
                        &PressureVector::zero(),
                        1,
                    )
                })
                .collect();
            let hi = rates.iter().cloned().fold(f64::MIN, f64::max);
            let lo = rates.iter().cloned().fold(f64::MAX, f64::min);
            max_spread = max_spread.max(hi / lo);
        }
        assert!(
            max_spread > 4.0,
            "expected >4x heterogeneity spread, got {max_spread:.1}x"
        );
    }

    #[test]
    fn empty_allocation_has_zero_rate() {
        let m = model(7);
        assert_eq!(m.cluster_rate(&[], &FrameworkParams::default()), 0.0);
        assert_eq!(
            m.completion_time(1.0, &[], &FrameworkParams::default()),
            None
        );
    }
}
