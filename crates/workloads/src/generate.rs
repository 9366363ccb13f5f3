//! Seeded generators for the paper's evaluation scenarios.
//!
//! The generators play the role of the paper's benchmark suites and
//! parameter sweeps: they sample ground-truth models from class priors and
//! set each workload's QoS target to the best performance achievable on
//! the reference allocation after a full parameter sweep — exactly how the
//! paper sets its targets ("set to the best performance achieved after a
//! parameter sweep on the different server platforms", §6.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use quasar_interference::PressureVector;

use crate::class::WorkloadClass;
use crate::dataset::Dataset;
use crate::framework::FrameworkParams;
use crate::load::LoadPattern;
use crate::model::{BatchModel, NodeResources, PerfModel, ServiceModel};
use crate::platform::PlatformCatalog;
use crate::spec::{Priority, Workload, WorkloadId, WorkloadSpec};
use crate::target::QosTarget;

/// A seeded workload factory bound to a platform catalog.
///
/// # Examples
///
/// ```
/// use quasar_workloads::{generate::Generator, PlatformCatalog};
///
/// let mut generator = Generator::new(PlatformCatalog::local(), 42);
/// let jobs = generator.mahout_suite(10);
/// assert_eq!(jobs.len(), 10);
/// ```
#[derive(Debug)]
pub struct Generator {
    catalog: PlatformCatalog,
    rng: StdRng,
    next_id: u64,
}

impl Generator {
    /// Creates a generator for the given catalog and seed.
    pub fn new(catalog: PlatformCatalog, seed: u64) -> Generator {
        Generator {
            catalog,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// The catalog this generator sizes targets against.
    pub fn catalog(&self) -> &PlatformCatalog {
        &self.catalog
    }

    fn fresh_id(&mut self) -> WorkloadId {
        let id = WorkloadId(self.next_id);
        self.next_id += 1;
        id
    }

    /// A distributed analytics job (Hadoop/Spark/Storm).
    ///
    /// The job is calibrated so the *stock* configuration on `ref_nodes`
    /// highest-end servers takes `base_duration_s`; the QoS target is the
    /// best completion time over all platforms and framework parameters —
    /// the paper's parameter-sweep target.
    pub fn analytics_job(
        &mut self,
        class: WorkloadClass,
        name: impl Into<String>,
        dataset: Dataset,
        ref_nodes: usize,
        base_duration_s: f64,
        priority: Priority,
    ) -> Workload {
        assert!(
            class.is_batch() && class.is_distributed(),
            "analytics jobs are distributed batch"
        );
        let mut model = BatchModel::sample(dataset.clone(), true, &mut self.rng);
        model.calibrate_work(self.catalog.highest_end(), ref_nodes, base_duration_s);
        let target_s = best_batch_completion(&self.catalog, &model, ref_nodes);
        let spec = WorkloadSpec {
            id: self.fresh_id(),
            name: name.into(),
            class,
            dataset,
            target: QosTarget::completion(target_s),
            priority,
        };
        Workload::new(spec, PerfModel::Batch(model), None)
    }

    /// A single-node batch job (SPEC/PARSEC-style), used in the paper as
    /// best-effort fill with an IPS-style target.
    pub fn single_node_job(
        &mut self,
        name: impl Into<String>,
        duration_s: f64,
        priority: Priority,
    ) -> Workload {
        let id = self.fresh_id();
        single_node(
            &self.catalog,
            &mut self.rng,
            id,
            name.into(),
            duration_s,
            priority,
        )
    }

    /// A latency-critical service of the given class.
    ///
    /// The QPS target is the peak of the load pattern; the latency bound
    /// follows the paper's scenarios (200 µs memcached, 30 ms Cassandra,
    /// 100 ms HotCRP webserver).
    pub fn service(
        &mut self,
        class: WorkloadClass,
        name: impl Into<String>,
        state_gb: f64,
        load: LoadPattern,
        priority: Priority,
    ) -> Workload {
        assert!(
            class.is_latency_critical(),
            "services must be latency-critical"
        );
        let (dataset, disk_bound, latency_us) = match class {
            WorkloadClass::Memcached => {
                let mixes = Dataset::memcached_catalog();
                let pick = self.rng.random_range(0..mixes.len());
                (mixes[pick].clone(), false, 200.0)
            }
            WorkloadClass::Cassandra => (Dataset::new("kv-disk", 2.0, 1.0), true, 30_000.0),
            WorkloadClass::Webserver => (Dataset::new("hotcrp", 5.0, 3.0), false, 100_000.0),
            _ => unreachable!("checked latency-critical above"),
        };
        let model = ServiceModel::sample(dataset.clone(), state_gb, disk_bound, &mut self.rng);
        let spec = WorkloadSpec {
            id: self.fresh_id(),
            name: name.into(),
            class,
            dataset,
            target: QosTarget::throughput(load.peak_qps(), latency_us),
            priority,
        };
        Workload::new(spec, PerfModel::Service(model), Some(load))
    }

    /// The ten Mahout data-mining jobs of the single-batch-job scenario
    /// (Fig. 5), with dataset sizes spanning 1–900 GB.
    pub fn mahout_suite(&mut self, n: usize) -> Vec<Workload> {
        self.mahout_suite_scaled(n, 1.0)
    }

    /// [`Generator::mahout_suite`] with durations multiplied by
    /// `duration_scale` (experiments shrink the paper's 2–20 hour jobs to
    /// keep simulated time tractable without changing the shape).
    pub fn mahout_suite_scaled(&mut self, n: usize, duration_scale: f64) -> Vec<Workload> {
        let sizes = [
            2.1, 10.0, 20.0, 55.0, 100.0, 180.0, 300.0, 450.0, 700.0, 900.0,
        ];
        (0..n)
            .map(|i| {
                let size = sizes[i % sizes.len()];
                let dataset =
                    Dataset::new(format!("mahout-{i}"), size, self.rng.random_range(0.6..1.6));
                // Paper jobs take 2–20 hours; duration scales with size.
                let duration = (7_200.0 + 64.8 * size) * duration_scale;
                // Targets are defined at the node count stock Hadoop
                // would use, so the parameter sweep is apples-to-apples.
                let ref_nodes = crate::framework::hadoop_wave_nodes(size);
                self.analytics_job(
                    WorkloadClass::Hadoop,
                    format!("H{}", i + 1),
                    dataset,
                    ref_nodes,
                    duration,
                    Priority::Guaranteed,
                )
            })
            .collect()
    }

    /// The multi-framework batch mix of Fig. 6: `hadoop` Mahout jobs plus
    /// `storm` Storm and `spark` Spark jobs.
    pub fn batch_mix(&mut self, hadoop: usize, storm: usize, spark: usize) -> Vec<Workload> {
        let mut jobs = Vec::new();
        for i in 0..hadoop {
            let size = self.rng.random_range(5.0..120.0);
            let dataset =
                Dataset::new(format!("mahout-{i}"), size, self.rng.random_range(0.6..1.6));
            let duration = self.rng.random_range(1_800.0..7_200.0);
            let ref_nodes = crate::framework::hadoop_wave_nodes(size);
            jobs.push(self.analytics_job(
                WorkloadClass::Hadoop,
                format!("M{}", i + 1),
                dataset,
                ref_nodes,
                duration,
                Priority::Guaranteed,
            ));
        }
        for i in 0..storm {
            let size = self.rng.random_range(2.0..30.0);
            let dataset =
                Dataset::new(format!("stream-{i}"), size, self.rng.random_range(0.8..1.8));
            let duration = self.rng.random_range(1_800.0..5_400.0);
            let ref_nodes = crate::framework::hadoop_wave_nodes(size).min(4);
            jobs.push(self.analytics_job(
                WorkloadClass::Storm,
                format!("St{}", i + 1),
                dataset,
                ref_nodes,
                duration,
                Priority::Guaranteed,
            ));
        }
        for i in 0..spark {
            let size = self.rng.random_range(5.0..60.0);
            let dataset = Dataset::new(format!("rdd-{i}"), size, self.rng.random_range(0.6..1.4));
            let duration = self.rng.random_range(1_800.0..5_400.0);
            let ref_nodes = crate::framework::hadoop_wave_nodes(size).min(4);
            jobs.push(self.analytics_job(
                WorkloadClass::Spark,
                format!("Sp{}", i + 1),
                dataset,
                ref_nodes,
                duration,
                Priority::Guaranteed,
            ));
        }
        jobs
    }

    /// `n` best-effort single-node jobs (the SPEC/PARSEC/... fill of the
    /// paper's scenarios).
    pub fn best_effort_fill(&mut self, n: usize) -> Vec<Workload> {
        (0..n)
            .map(|i| {
                let duration = self.rng.random_range(120.0..1_800.0);
                self.single_node_job(format!("be{i}"), duration, Priority::BestEffort)
            })
            .collect()
    }

    /// The 1200-workload mixed fleet of the large-scale scenario
    /// (Fig. 11): analytics, latency-critical, and single-node jobs in
    /// random order, all with equal (guaranteed) priority.
    pub fn mixed_fleet(&mut self, n: usize) -> Vec<Workload> {
        (0..n)
            .map(|i| {
                let dice = self.rng.random_range(0.0..1.0);
                if dice < 0.20 {
                    let class = match self.rng.random_range(0..3) {
                        0 => WorkloadClass::Hadoop,
                        1 => WorkloadClass::Spark,
                        _ => WorkloadClass::Storm,
                    };
                    let dataset = Dataset::new(
                        format!("mix-{i}"),
                        self.rng.random_range(2.0..80.0),
                        self.rng.random_range(0.6..1.6),
                    );
                    let duration = self.rng.random_range(1_200.0..5_400.0);
                    self.analytics_job(
                        class,
                        format!("A{i}"),
                        dataset,
                        4,
                        duration,
                        Priority::Guaranteed,
                    )
                } else if dice < 0.28 {
                    let class = match self.rng.random_range(0..3) {
                        0 => WorkloadClass::Memcached,
                        1 => WorkloadClass::Cassandra,
                        _ => WorkloadClass::Webserver,
                    };
                    let state = if class == WorkloadClass::Cassandra {
                        self.rng.random_range(30.0..80.0)
                    } else {
                        self.rng.random_range(3.0..20.0)
                    };
                    let peak = if class == WorkloadClass::Cassandra {
                        self.rng.random_range(1_500.0..4_000.0)
                    } else {
                        self.rng.random_range(30_000.0..100_000.0)
                    };
                    let load = LoadPattern::Fluctuating {
                        base_qps: peak * 0.7,
                        amplitude_qps: peak * 0.3,
                        period_s: self.rng.random_range(1_800.0..7_200.0),
                    };
                    self.service(class, format!("S{i}"), state, load, Priority::Guaranteed)
                } else {
                    let duration = self.rng.random_range(300.0..2_400.0);
                    self.single_node_job(format!("B{i}"), duration, Priority::Guaranteed)
                }
            })
            .collect()
    }
}

/// A deterministic single-node benchmark job addressable by index: job
/// `k` is a pure function of `(catalog, seed, k)` with id
/// `WorkloadId(k)`, so a resumed run regenerates exactly the jobs it
/// needs in O(1) each instead of replaying a sequential generator
/// stream from the start.
pub fn bench_job(catalog: &PlatformCatalog, seed: u64, k: u64, duration_s: f64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    single_node(
        catalog,
        &mut rng,
        WorkloadId(k),
        format!("bench-{k}"),
        duration_s,
        Priority::Guaranteed,
    )
}

/// The body of [`Generator::single_node_job`], drawing from `rng`.
fn single_node(
    catalog: &PlatformCatalog,
    rng: &mut StdRng,
    id: WorkloadId,
    name: String,
    duration_s: f64,
    priority: Priority,
) -> Workload {
    let size_gb = rng.random_range(0.5..8.0);
    let dataset = Dataset::new("synthetic", size_gb, rng.random_range(0.5..2.0));
    let mut model = BatchModel::sample(dataset.clone(), false, rng);
    model.calibrate_work(catalog.highest_end(), 1, duration_s);
    // IPS target: half the best single-node rate across platforms —
    // an attainable floor that still requires a decent assignment
    // (an exclusive top-end server per job would be unreasonable).
    let best_rate = catalog
        .iter()
        .map(|p| {
            model.node_rate(
                p,
                NodeResources::all_of(p),
                &FrameworkParams::default(),
                &PressureVector::zero(),
                1,
            )
        })
        .fold(0.0, f64::max);
    let spec = WorkloadSpec {
        id,
        name,
        class: WorkloadClass::SingleNode,
        dataset,
        target: QosTarget::ips(best_rate * 0.5),
        priority,
    };
    Workload::new(spec, PerfModel::Batch(model), None)
}

/// Best completion time for `model` over any platform and framework
/// configuration at `nodes` nodes — the paper's parameter-sweep target.
fn best_batch_completion(catalog: &PlatformCatalog, model: &BatchModel, nodes: usize) -> f64 {
    let mut best = f64::INFINITY;
    for platform in catalog.iter() {
        let allocs: Vec<_> = (0..nodes)
            .map(|_| {
                (
                    platform,
                    NodeResources::all_of(platform),
                    PressureVector::zero(),
                )
            })
            .collect();
        for params in FrameworkParams::search_space() {
            if let Some(t) = model.completion_time(model.total_work(), &allocs, &params) {
                best = best.min(t);
            }
        }
    }
    assert!(best.is_finite(), "some allocation must complete the job");
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> Generator {
        Generator::new(PlatformCatalog::local(), 7)
    }

    #[test]
    fn bench_job_equals_a_generator_positioned_at_k() {
        for (catalog, seed) in [
            (PlatformCatalog::local(), 3),
            (PlatformCatalog::ec2(), u64::MAX),
        ] {
            for k in 0..64u64 {
                let mut g = Generator::new(
                    catalog.clone(),
                    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                g.next_id = k;
                let want = g.single_node_job(format!("bench-{k}"), 30.0, Priority::Guaranteed);
                assert_eq!(bench_job(&catalog, seed, k, 30.0), want, "k = {k}");
            }
        }
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let mut g = generator();
        let jobs = g.mahout_suite(5);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id(), WorkloadId(i as u64));
        }
    }

    #[test]
    fn mahout_targets_are_achievable() {
        let mut g = generator();
        for job in g.mahout_suite(10) {
            let QosTarget::CompletionTime { seconds } = job.spec().target else {
                panic!("mahout jobs have completion targets");
            };
            assert!(seconds.is_finite() && seconds > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Generator::new(PlatformCatalog::local(), 9).mahout_suite(3);
        let b = Generator::new(PlatformCatalog::local(), 9).mahout_suite(3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Generator::new(PlatformCatalog::local(), 1).mahout_suite(3);
        let b = Generator::new(PlatformCatalog::local(), 2).mahout_suite(3);
        assert_ne!(a, b);
    }

    #[test]
    fn best_effort_fill_is_single_node() {
        let mut g = generator();
        for job in g.best_effort_fill(5) {
            assert_eq!(job.spec().class, WorkloadClass::SingleNode);
            assert!(job.spec().is_best_effort());
        }
    }

    #[test]
    fn services_have_loads_and_latency_targets() {
        let mut g = generator();
        let svc = g.service(
            WorkloadClass::Memcached,
            "mc",
            64.0,
            LoadPattern::Flat { qps: 100_000.0 },
            Priority::Guaranteed,
        );
        assert!(svc.load().is_some());
        assert!(svc.spec().target.is_latency_target());
        assert_eq!(svc.offered_qps(0.0), 100_000.0);
    }

    #[test]
    fn mixed_fleet_has_all_kinds() {
        let mut g = Generator::new(PlatformCatalog::ec2(), 11);
        let fleet = g.mixed_fleet(120);
        assert_eq!(fleet.len(), 120);
        let services = fleet
            .iter()
            .filter(|w| w.spec().class.is_latency_critical())
            .count();
        let analytics = fleet
            .iter()
            .filter(|w| w.spec().class.is_batch() && w.spec().class.is_distributed())
            .count();
        let single = fleet
            .iter()
            .filter(|w| w.spec().class == WorkloadClass::SingleNode)
            .count();
        assert!(services > 0 && analytics > 0 && single > 0);
        assert_eq!(services + analytics + single, 120);
    }

    #[test]
    fn batch_mix_counts() {
        let mut g = generator();
        let jobs = g.batch_mix(16, 4, 4);
        assert_eq!(jobs.len(), 24);
        assert_eq!(
            jobs.iter()
                .filter(|j| j.spec().class == WorkloadClass::Storm)
                .count(),
            4
        );
    }
}
