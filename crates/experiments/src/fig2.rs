//! Figure 2 / Table 1: the impact of heterogeneity, interference,
//! scale-up, scale-out, and dataset on a Hadoop job (top row) and a
//! memcached service (bottom row).
//!
//! This experiment characterizes the ground-truth performance physics
//! directly (the paper's Fig. 2 is likewise a measurement of reality, not
//! of any manager). Table 1's platform (A–J), interference (A–I), and
//! dataset (A–C) catalogs define the sweep points.

use std::fmt;

use quasar_core::par::par_map;
use quasar_interference::{PressureVector, SharedResource};
use quasar_workloads::{
    BatchModel, Dataset, FrameworkParams, NodeResources, Platform, PlatformCatalog, ServiceModel,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{write_csv, TextTable};
use crate::Scale;

/// The interference patterns of Table 1 (A = none, then one shared
/// resource at a time).
pub const INTERFERENCE_PATTERNS: [Option<SharedResource>; 9] = [
    None,
    Some(SharedResource::MemoryBandwidth),
    Some(SharedResource::L1i),
    Some(SharedResource::LlcCapacity),
    Some(SharedResource::DiskIo),
    Some(SharedResource::Network),
    Some(SharedResource::L2),
    Some(SharedResource::Cpu),
    Some(SharedResource::Prefetch),
];

/// Intensity at which Table 1 patterns are injected (iBench ramps near
/// saturation when characterizing worst-case sensitivity).
const PATTERN_INTENSITY: f64 = 95.0;

/// Distribution summary of speedups for one sweep point (one violin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupDist {
    /// Minimum speedup across sub-allocations.
    pub min: f64,
    /// Median speedup.
    pub median: f64,
    /// Maximum speedup.
    pub max: f64,
}

/// One point of a latency-throughput curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Achieved throughput in QPS.
    pub qps: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
}

/// The full Figure 2 dataset.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Hadoop speedup distribution per platform (vs. platform A, full).
    pub hadoop_heterogeneity: Vec<(String, SpeedupDist)>,
    /// Hadoop speedup per interference pattern on platform A.
    pub hadoop_interference: Vec<(String, SpeedupDist)>,
    /// Hadoop speedup per node count (1–8) on platform A.
    pub hadoop_scale_out: Vec<(usize, SpeedupDist)>,
    /// Hadoop speedup per dataset on platform A.
    pub hadoop_dataset: Vec<(String, SpeedupDist)>,
    /// Memcached QPS-latency curves per platform.
    pub memcached_heterogeneity: Vec<(String, Vec<LatencyPoint>)>,
    /// Memcached curves per interference pattern on platform D.
    pub memcached_interference: Vec<(String, Vec<LatencyPoint>)>,
    /// Memcached curves per core count on platform D (scale-up).
    pub memcached_scale_up: Vec<(u32, Vec<LatencyPoint>)>,
    /// Memcached curves per request-mix dataset on platform D.
    pub memcached_dataset: Vec<(String, Vec<LatencyPoint>)>,
}

impl Fig2Result {
    /// The heterogeneity spread: the best platform's full-allocation
    /// speedup over platform A at full allocation (speedup 1.0 by
    /// definition). Wider than the paper's ~7x because our platform A is
    /// more memory-starved; the ordering is what matters.
    pub fn heterogeneity_spread(&self) -> f64 {
        self.hadoop_heterogeneity
            .iter()
            .map(|(_, d)| d.max)
            .fold(1e-12, f64::max)
    }

    /// The worst interference slowdown: the quiet ("none") median divided
    /// by the worst pattern's median at the same allocations.
    pub fn worst_interference_slowdown(&self) -> f64 {
        let quiet = self
            .hadoop_interference
            .iter()
            .find(|(name, _)| name == "none")
            .map(|(_, d)| d.median)
            .unwrap_or(1.0);
        let worst = self
            .hadoop_interference
            .iter()
            .map(|(_, d)| d.median)
            .fold(f64::MAX, f64::min)
            .max(1e-12);
        quiet / worst
    }

    /// The knee (QPS at 1 ms p99) of each memcached heterogeneity curve.
    pub fn memcached_knees(&self) -> Vec<(String, f64)> {
        self.memcached_heterogeneity
            .iter()
            .map(|(name, curve)| {
                let knee = curve
                    .iter()
                    .take_while(|p| p.p99_us <= 1_000.0)
                    .map(|p| p.qps)
                    .fold(0.0, f64::max);
                (name.clone(), knee)
            })
            .collect()
    }
}

/// Sub-allocation grid within one platform (the violin spread).
fn sub_allocs(platform: &Platform) -> Vec<NodeResources> {
    let mut out = Vec::new();
    for cores_frac in [0.25, 0.5, 0.75, 1.0] {
        for mem_frac in [0.25, 0.5, 0.75, 1.0] {
            let cores = ((platform.cores as f64 * cores_frac).round() as u32).max(1);
            let mem = (platform.memory_gb * mem_frac).max(0.5);
            out.push(NodeResources::new(cores, mem));
        }
    }
    out
}

fn pattern_pressure(pattern: Option<SharedResource>) -> PressureVector {
    let mut p = PressureVector::zero();
    if let Some(r) = pattern {
        p.set(r, PATTERN_INTENSITY);
    }
    p
}

fn pattern_name(pattern: Option<SharedResource>) -> String {
    pattern.map_or_else(|| "none".to_string(), |r| r.name().to_string())
}

fn dist(mut speedups: Vec<f64>) -> SpeedupDist {
    speedups.sort_by(f64::total_cmp);
    SpeedupDist {
        min: *speedups.first().expect("non-empty sweep"),
        median: speedups[speedups.len() / 2],
        max: *speedups.last().expect("non-empty sweep"),
    }
}

/// Renders Table 1: the platform, interference-pattern, and dataset
/// catalogs the characterization sweeps over.
pub fn table1() -> String {
    let catalog = PlatformCatalog::local();
    let mut t = TextTable::new("Table 1: server platforms (A-J)").header([
        "platform",
        "cores",
        "memory GB",
        "disk GB",
        "core speed",
        "$/h",
    ]);
    for p in catalog.iter() {
        t.row([
            p.name.clone(),
            p.cores.to_string(),
            format!("{:.0}", p.memory_gb),
            format!("{:.0}", p.disk_gb),
            format!("{:.2}", p.core_speed),
            format!("{:.2}", p.price_per_hour()),
        ]);
    }
    let mut out = t.render();
    let mut t2 =
        TextTable::new("Table 1: interference patterns (A-I)").header(["pattern", "resource"]);
    for (i, pattern) in INTERFERENCE_PATTERNS.iter().enumerate() {
        t2.row([
            char::from(b'A' + i as u8).to_string(),
            pattern_name(*pattern),
        ]);
    }
    out.push_str(&t2.render());
    let mut t3 = TextTable::new("Table 1: input datasets (A-C)").header([
        "workload",
        "dataset",
        "size GB",
        "complexity",
    ]);
    for d in Dataset::hadoop_catalog() {
        t3.row([
            "hadoop".to_string(),
            d.name().to_string(),
            format!("{:.1}", d.size_gb()),
            format!("{:.1}", d.complexity()),
        ]);
    }
    for d in Dataset::memcached_catalog() {
        t3.row([
            "memcached".to_string(),
            d.name().to_string(),
            format!("{:.1}", d.size_gb()),
            format!("{:.1}", d.complexity()),
        ]);
    }
    out.push_str(&t3.render());
    out
}

/// Runs the characterization with the sweep points of each panel fanned
/// out over up to `threads` workers. Every sweep point is a pure
/// function of the (fixed-seed) models, so the output is bit-identical
/// for any thread count.
pub fn run_with(scale: Scale, threads: usize) -> Fig2Result {
    let catalog = PlatformCatalog::local();
    let params = FrameworkParams::default();
    let platform_a = catalog.by_name("A").expect("catalog has A").clone();
    let platform_d = catalog.by_name("D").expect("catalog has D").clone();

    // The Hadoop job: Netflix-like recommendation on ~2 GB (Table 1
    // dataset A) — sampled with a fixed seed so the figure is stable.
    let hadoop = |dataset: Dataset| -> BatchModel {
        // Seed chosen for a representative sensitivity mixture (fragile
        // in LLC/membw/prefetch, robust to disk/network — a typical
        // memory-bound analytics job).
        let mut rng = StdRng::seed_from_u64(16);
        let mut m = BatchModel::sample(dataset, true, &mut rng);
        m.calibrate_work(&platform_a, 1, 3_600.0);
        m
    };
    let job = hadoop(Dataset::new("netflix", 2.1, 1.6));

    // Baseline: platform A, all cores/memory, no interference, 1 node.
    let base_rate = job.node_rate(
        &platform_a,
        NodeResources::all_of(&platform_a),
        &params,
        &PressureVector::zero(),
        1,
    );

    let rate_on = |platform: &Platform, res: NodeResources, pressure: &PressureVector| {
        job.node_rate(platform, res, &params, pressure, 1)
    };

    // --- Hadoop heterogeneity: per platform, sweep sub-allocations. ---
    let platforms: Vec<Platform> = catalog.iter().cloned().collect();
    let hadoop_heterogeneity: Vec<(String, SpeedupDist)> =
        par_map(threads, platforms.clone(), |_, p| {
            let speedups: Vec<f64> = sub_allocs(&p)
                .into_iter()
                .map(|res| rate_on(&p, res, &PressureVector::zero()) / base_rate)
                .collect();
            (p.name.clone(), dist(speedups))
        });

    // --- Hadoop interference on platform A. ---
    let hadoop_interference: Vec<(String, SpeedupDist)> =
        par_map(threads, INTERFERENCE_PATTERNS.to_vec(), |_, pattern| {
            let pressure = pattern_pressure(pattern);
            let speedups: Vec<f64> = sub_allocs(&platform_a)
                .into_iter()
                .map(|res| rate_on(&platform_a, res, &pressure) / base_rate)
                .collect();
            (pattern_name(pattern), dist(speedups))
        });

    // --- Hadoop scale-out on platform A, 1..8 nodes. ---
    let hadoop_scale_out: Vec<(usize, SpeedupDist)> =
        par_map(threads, (1..=8).collect(), |_, n| {
            let speedups: Vec<f64> = sub_allocs(&platform_a)
                .into_iter()
                .map(|res| {
                    let allocs: Vec<_> = (0..n)
                        .map(|_| (&platform_a, res, PressureVector::zero()))
                        .collect();
                    job.cluster_rate(&allocs, &params) / base_rate
                })
                .collect();
            (n, dist(speedups))
        });

    // --- Hadoop dataset impact: same job, Table 1 datasets A–C. ---
    let hadoop_dataset: Vec<(String, SpeedupDist)> =
        par_map(threads, Dataset::hadoop_catalog(), |_, ds| {
            let name = ds.name().to_string();
            let variant = hadoop(ds);
            let speedups: Vec<f64> = sub_allocs(&platform_a)
                .into_iter()
                .map(|res| {
                    variant.node_rate(&platform_a, res, &params, &PressureVector::zero(), 1)
                        / base_rate
                })
                .collect();
            (name, dist(speedups))
        });

    // --- Memcached bottom row. ---
    let memcached = |dataset: Dataset| -> ServiceModel {
        // Seed chosen for the memory-bound sensitivity mixture real
        // memcached exhibits (fragile in LLC/membw, robust to disk).
        let mut rng = StdRng::seed_from_u64(21);
        ServiceModel::sample(dataset, 8.0, false, &mut rng)
    };
    let service = memcached(Dataset::new("100B-reads", 1.0, 1.0));
    let curve_points = match scale {
        Scale::Quick => 12,
        Scale::Full => 30,
    };
    let curve = |platform: &Platform,
                 res: NodeResources,
                 pressure: PressureVector,
                 model: &ServiceModel| {
        let allocs = [(platform, res, pressure)];
        let cap = model.total_capacity(&allocs);
        (1..=curve_points)
            .map(|i| {
                let offered = cap * i as f64 / curve_points as f64;
                let obs = model.observe(offered, &allocs);
                LatencyPoint {
                    qps: obs.achieved_qps,
                    p99_us: obs.p99_latency_us,
                }
            })
            .collect::<Vec<_>>()
    };

    let memcached_heterogeneity: Vec<(String, Vec<LatencyPoint>)> =
        par_map(threads, platforms, |_, p| {
            (
                p.name.clone(),
                curve(
                    &p,
                    NodeResources::all_of(&p),
                    PressureVector::zero(),
                    &service,
                ),
            )
        });

    let memcached_interference: Vec<(String, Vec<LatencyPoint>)> = par_map(
        threads,
        INTERFERENCE_PATTERNS[..6].to_vec(),
        |_, pattern| {
            (
                pattern_name(pattern),
                curve(
                    &platform_d,
                    NodeResources::all_of(&platform_d),
                    pattern_pressure(pattern),
                    &service,
                ),
            )
        },
    );

    let memcached_scale_up: Vec<(u32, Vec<LatencyPoint>)> = scale_up_cores(platform_d.cores)
        .into_iter()
        .map(|cores| {
            (
                cores,
                curve(
                    &platform_d,
                    NodeResources::new(cores, platform_d.memory_gb),
                    PressureVector::zero(),
                    &service,
                ),
            )
        })
        .collect();

    let memcached_dataset: Vec<(String, Vec<LatencyPoint>)> = Dataset::memcached_catalog()
        .into_iter()
        .map(|ds| {
            let name = ds.name().to_string();
            let model = memcached(ds);
            (
                name,
                curve(
                    &platform_d,
                    NodeResources::all_of(&platform_d),
                    PressureVector::zero(),
                    &model,
                ),
            )
        })
        .collect();

    let result = Fig2Result {
        hadoop_heterogeneity,
        hadoop_interference,
        hadoop_scale_out,
        hadoop_dataset,
        memcached_heterogeneity,
        memcached_interference,
        memcached_scale_up,
        memcached_dataset,
    };

    // CSV: the memcached heterogeneity curves.
    let rows: Vec<Vec<f64>> = result
        .memcached_heterogeneity
        .iter()
        .enumerate()
        .flat_map(|(i, (_, curve))| curve.iter().map(move |p| vec![i as f64, p.qps, p.p99_us]))
        .collect();
    write_csv(
        "fig2",
        "memcached_heterogeneity",
        &["platform", "qps", "p99_us"],
        &rows,
    );

    result
}

impl fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Fig.2 (top) Hadoop speedup vs platform A (min/median/max over sub-allocations)",
        )
        .header(["sweep", "point", "min", "median", "max"]);
        for (name, d) in &self.hadoop_heterogeneity {
            t.row([
                "heterogeneity".to_string(),
                name.clone(),
                format!("{:.2}", d.min),
                format!("{:.2}", d.median),
                format!("{:.2}", d.max),
            ]);
        }
        for (name, d) in &self.hadoop_interference {
            t.row([
                "interference@A".to_string(),
                name.clone(),
                format!("{:.2}", d.min),
                format!("{:.2}", d.median),
                format!("{:.2}", d.max),
            ]);
        }
        for (n, d) in &self.hadoop_scale_out {
            t.row([
                "scale-out@A".to_string(),
                format!("{n} nodes"),
                format!("{:.2}", d.min),
                format!("{:.2}", d.median),
                format!("{:.2}", d.max),
            ]);
        }
        for (name, d) in &self.hadoop_dataset {
            t.row([
                "dataset@A".to_string(),
                name.clone(),
                format!("{:.2}", d.min),
                format!("{:.2}", d.median),
                format!("{:.2}", d.max),
            ]);
        }
        write!(f, "{}", t.render())?;

        let mut t2 = TextTable::new("Fig.2 (bottom) memcached: knee QPS at p99 <= 1ms").header([
            "sweep",
            "point",
            "knee kQPS",
        ]);
        for (name, knee) in self.memcached_knees() {
            t2.row([
                "heterogeneity".to_string(),
                name,
                format!("{:.0}", knee / 1_000.0),
            ]);
        }
        for (name, curve) in &self.memcached_interference {
            let knee = curve
                .iter()
                .take_while(|p| p.p99_us <= 1_000.0)
                .map(|p| p.qps)
                .fold(0.0, f64::max);
            t2.row([
                "interference@D".to_string(),
                name.clone(),
                format!("{:.0}", knee / 1_000.0),
            ]);
        }
        for (cores, curve) in &self.memcached_scale_up {
            let knee = curve
                .iter()
                .take_while(|p| p.p99_us <= 1_000.0)
                .map(|p| p.qps)
                .fold(0.0, f64::max);
            t2.row([
                "scale-up@D".to_string(),
                format!("{cores} cores"),
                format!("{:.0}", knee / 1_000.0),
            ]);
        }
        for (name, curve) in &self.memcached_dataset {
            let knee = curve
                .iter()
                .take_while(|p| p.p99_us <= 1_000.0)
                .map(|p| p.qps)
                .fold(0.0, f64::max);
            t2.row([
                "dataset@D".to_string(),
                name.clone(),
                format!("{:.0}", knee / 1_000.0),
            ]);
        }
        write!(f, "{}", t2.render())?;
        writeln!(
            f,
            "heterogeneity spread {:.1}x; worst interference slowdown {:.1}x",
            self.heterogeneity_spread(),
            self.worst_interference_slowdown()
        )
    }
}

/// Core counts of the memcached scale-up sweep: 2, 4 and 8 where the
/// platform has more, then all of its cores.
fn scale_up_cores(platform_cores: u32) -> Vec<u32> {
    [2, 4, 8]
        .into_iter()
        .filter(|&c| c < platform_cores)
        .chain(std::iter::once(platform_cores))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each core count appears once: platform D has exactly 8 cores,
    /// which the fixed steps include.
    #[test]
    fn scale_up_sweep_strictly_increases_to_all_cores() {
        let d = PlatformCatalog::local().by_name("D").expect("D").cores;
        for cores in [d, 3, 6, 16] {
            let sweep = scale_up_cores(cores);
            assert!(sweep.windows(2).all(|w| w[0] < w[1]), "{sweep:?}");
            assert_eq!(sweep.last(), Some(&cores), "{sweep:?}");
        }
        assert_eq!(scale_up_cores(d), vec![2, 4, 8]);
    }

    #[test]
    fn shapes_match_the_paper() {
        let r = run_with(Scale::Quick, 1);
        assert_eq!(r.hadoop_heterogeneity.len(), 10);
        assert_eq!(r.hadoop_interference.len(), 9);
        assert_eq!(r.hadoop_scale_out.len(), 8);
        assert_eq!(r.hadoop_dataset.len(), 3);
        // The paper reports up to ~7x heterogeneity impact and up to ~10x
        // under interference+allocation effects; require substantial
        // spreads.
        assert!(
            r.heterogeneity_spread() > 2.0,
            "spread {:.1}",
            r.heterogeneity_spread()
        );
        assert!(
            r.worst_interference_slowdown() > 1.5,
            "slowdown {:.1}",
            r.worst_interference_slowdown()
        );
    }

    #[test]
    fn memcached_knee_moves_with_platform() {
        let r = run_with(Scale::Quick, 1);
        let knees: Vec<f64> = r.memcached_knees().into_iter().map(|(_, k)| k).collect();
        let hi = knees.iter().copied().fold(f64::MIN, f64::max);
        let lo = knees.iter().copied().fold(f64::MAX, f64::min).max(1.0);
        assert!(hi / lo > 2.0, "knee spread {:.2}", hi / lo);
    }

    #[test]
    fn latency_curves_are_monotone() {
        let r = run_with(Scale::Quick, 1);
        for (name, curve) in &r.memcached_heterogeneity {
            for w in curve.windows(2) {
                assert!(
                    w[1].p99_us >= w[0].p99_us * 0.999,
                    "{name}: latency must rise with load"
                );
            }
        }
    }
}
