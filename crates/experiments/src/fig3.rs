//! Figure 3: sensitivity of classification accuracy to input-matrix
//! density (panels a–d) and the profiling/decision overheads as density
//! grows, including four-parallel vs exhaustive decision time (panel e).

use std::fmt;

use quasar_core::history::ln_speed;
use quasar_core::par::{derive_seed, par_map_seeded};
use quasar_core::{
    Classifier, ProfilingData, SimilarityConfig, SimilarityIndex, SimilarityOutcome,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{mean, percentile, write_csv, TextTable};
use crate::validate::{AppClass, ErrorSamples, Validator};
use crate::{local_history, Scale};

/// Error/overhead measurements at one density point for one app class.
#[derive(Debug, Clone)]
pub struct DensityPoint {
    /// Entries per input-matrix row.
    pub density: usize,
    /// 90th-percentile error per axis: scale-up, scale-out,
    /// heterogeneity, interference (NaN-free; 0 where the axis is absent).
    pub p90_scale_up: f64,
    /// Scale-out 90th-percentile error.
    pub p90_scale_out: f64,
    /// Heterogeneity 90th-percentile error.
    pub p90_hetero: f64,
    /// Interference 90th-percentile error.
    pub p90_interference: f64,
    /// Mean profiling wall-clock seconds per workload.
    pub profile_s: f64,
    /// Mean 4-parallel decision time, microseconds.
    pub decide_us_parallel: f64,
    /// Mean exhaustive decision time, microseconds.
    pub decide_us_exhaustive: f64,
}

/// One app class's index-on vs index-off comparison on a repeat-heavy
/// arrival stream (see [`run_with`]'s compare pass).
#[derive(Debug, Clone)]
pub struct IndexComparePoint {
    /// Application class name.
    pub app: String,
    /// Arrivals streamed (bases plus in-bucket jittered repeats).
    pub arrivals: usize,
    /// Index hits across the stream.
    pub hits: u64,
    /// Misses (cold classifications) across the stream.
    pub misses: u64,
    /// Largest relative deviation of any index-on speed estimate
    /// (scale-up and heterogeneity columns) from the index-off
    /// classification of the same arrival.
    pub max_rel_dev: f64,
    /// Median per-decision latency with the index, µs (live).
    pub median_on_us: f64,
    /// Median per-decision latency without, µs (live).
    pub median_off_us: f64,
}

/// The Figure 3 dataset.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Per app class: the density sweep.
    pub sweeps: Vec<(String, Vec<DensityPoint>)>,
    /// Per app class: the similarity-index accuracy/latency comparison.
    pub index_compare: Vec<IndexComparePoint>,
}

impl Fig3Result {
    /// Whether errors at density 2 are at most those at density 1, per
    /// class (the paper's "two or more entries per row" finding).
    pub fn density_two_improves(&self) -> bool {
        self.sweeps.iter().all(|(_, points)| {
            let d1 = points.iter().find(|p| p.density == 1);
            let d2 = points.iter().find(|p| p.density == 2);
            match (d1, d2) {
                (Some(a), Some(b)) => b.p90_scale_up <= a.p90_scale_up * 1.05,
                _ => true,
            }
        })
    }
}

/// Runs the density sweep serially (equivalent to `run_with(scale, 1)`).
pub fn run(scale: Scale) -> Fig3Result {
    run_with(scale, 1)
}

/// Runs the density sweep, fanning the per-point workloads out over up
/// to `threads` workers (bit-identical to serial for any count).
///
/// The comparison across densities is *paired*: density point `d` of an
/// app class validates the same workloads with the same per-item seeds
/// as every other density point, so the matrix density is the only
/// variable. (An earlier version drew fresh workloads per density; with
/// a handful of samples per point, cross-density noise then swamped the
/// density effect itself.)
pub fn run_with(scale: Scale, threads: usize) -> Fig3Result {
    let (densities, per_point): (&[usize], usize) = match scale {
        Scale::Quick => (&[1, 2, 4], 4),
        Scale::Full => (&[1, 2, 3, 4, 5, 6, 8], 8),
    };
    let apps = [AppClass::Hadoop, AppClass::Memcached, AppClass::SingleNode];

    let mut sweeps = Vec::new();
    let mut index_compare = Vec::new();
    for app in apps {
        let validator = Validator::new(local_history(), 0xF163 ^ app as u64);
        let sweep_seed = 0xF163u64 ^ ((app as u64) << 32);
        index_compare.push(compare_index(&validator, app, scale));
        let mut points = Vec::new();
        for &d in densities {
            // Same items, same item seeds at every density.
            let per_item = par_map_seeded(
                threads,
                sweep_seed,
                (0..per_point).collect(),
                |i, seed, _| {
                    let workload = validator.generate(app, i);
                    // Exhaustive timing is only needed once per density point.
                    validator.validate_item(seed, workload, d, i == 0)
                },
            );
            let mut samples = ErrorSamples::default();
            for s in &per_item {
                samples.merge(s);
            }
            points.push(DensityPoint {
                density: d,
                p90_scale_up: percentile(&samples.scale_up, 0.90),
                p90_scale_out: percentile(&samples.scale_out, 0.90),
                p90_hetero: percentile(&samples.hetero, 0.90),
                p90_interference: percentile(&samples.interference, 0.90),
                profile_s: mean(&samples.profile_wall_s),
                decide_us_parallel: mean(&samples.decide_us_parallel),
                decide_us_exhaustive: mean(&samples.decide_us_exhaustive),
            });
        }
        sweeps.push((app.name().to_string(), points));
    }

    // The decision-time columns are live wall-clock measurements — the
    // one thing in this CSV not derived from the seeds. Masked runs
    // (the CI smokes, which `git diff` the tracked CSVs after a quick
    // rerun) write them as NaN so the file is byte-identical across
    // machines, thread counts, and kernel speeds; unmasked local runs
    // keep the real timings.
    let mask = crate::report::mask_live_timings();
    let live = |v: f64| if mask { f64::NAN } else { v };
    let rows: Vec<Vec<f64>> = sweeps
        .iter()
        .enumerate()
        .flat_map(|(a, (_, points))| {
            points.iter().map(move |p| {
                vec![
                    a as f64,
                    p.density as f64,
                    p.p90_scale_up,
                    p.p90_hetero,
                    p.p90_interference,
                    p.profile_s,
                    live(p.decide_us_parallel),
                    live(p.decide_us_exhaustive),
                ]
            })
        })
        .collect();
    write_csv(
        "fig3",
        "density_sweep",
        &[
            "app",
            "density",
            "p90_scale_up",
            "p90_hetero",
            "p90_interference",
            "profile_s",
            "decide_us_4p",
            "decide_us_exh",
        ],
        &rows,
    );

    let compare_rows: Vec<Vec<f64>> = index_compare
        .iter()
        .enumerate()
        .map(|(a, p)| {
            vec![
                a as f64,
                p.arrivals as f64,
                p.hits as f64,
                p.misses as f64,
                p.max_rel_dev,
                live(p.median_on_us),
                live(p.median_off_us),
            ]
        })
        .collect();
    write_csv(
        "fig3",
        "index_compare",
        &[
            "app",
            "arrivals",
            "hits",
            "misses",
            "max_rel_dev",
            "median_on_us",
            "median_off_us",
        ],
        &compare_rows,
    );

    Fig3Result {
        sweeps,
        index_compare,
    }
}

/// Returns `data` with every raw measurement nudged *within* its
/// quantization bucket: speeds move by up to ±20% of `ln_bucket` around
/// the bucket center, pressures by up to ±20% of `pressure_bucket`
/// (clamped to the 0–100 scale). The returned profile has different
/// bits from `data` but an identical [`quasar_core::Signature`], so the
/// similarity index sees a quantization-level duplicate. Deterministic
/// in `(data, config, salt)`.
fn jitter_within_buckets(
    data: &ProfilingData,
    config: &SimilarityConfig,
    salt: u64,
) -> ProfilingData {
    let mut rng = StdRng::seed_from_u64(salt);
    let mut u = move || rng.random::<f64>() * 2.0 - 1.0;
    let mut out = data.clone();
    let kind = out.kind;
    for entries in [
        &mut out.scale_up,
        &mut out.scale_out,
        &mut out.hetero,
        &mut out.params,
    ] {
        for (_, v) in entries.iter_mut() {
            let s = ln_speed(kind, *v);
            let center = (s / config.ln_bucket).round() * config.ln_bucket;
            *v = kind.from_speed((center + 0.2 * config.ln_bucket * u()).exp());
        }
    }
    for entries in [&mut out.tolerated, &mut out.caused] {
        for (_, v) in entries.iter_mut() {
            let center = (*v / config.pressure_bucket).round() * config.pressure_bucket;
            *v = (center + 0.2 * config.pressure_bucket * u()).clamp(0.0, 100.0);
        }
    }
    out
}

/// Classifies one app class's repeat-heavy arrival stream twice — plain
/// classifier vs the similarity index at its default enabled config —
/// and reports how far the index's reused estimates drift
/// from the per-arrival cold classifications, plus both median decision
/// latencies. Serial and thread-independent: the stream always runs in
/// arrival order against a fresh per-app index.
fn compare_index(validator: &Validator, app: AppClass, scale: Scale) -> IndexComparePoint {
    let (bases, repeats) = match scale {
        Scale::Quick => (2usize, 4usize),
        Scale::Full => (3, 8),
    };
    let config = SimilarityConfig::enabled();
    let cmp_seed = 0xF163_C0DEu64 ^ ((app as u64) << 40);

    // The stream: each base profiled once for real, then re-arrivals
    // whose raw measurements are jittered within the quantization
    // buckets (profiling noise on a repeat submission of the same
    // workload — see `jitter_within_buckets`).
    let mut arrivals = Vec::with_capacity(bases * repeats);
    for b in 0..bases {
        let workload = validator.generate(app, b);
        let data = validator.profile_item(derive_seed(cmp_seed, b as u64), workload, 2);
        for r in 0..repeats {
            if r == 0 {
                arrivals.push(data.clone());
            } else {
                let salt = derive_seed(cmp_seed, (1_000 + b * 100 + r) as u64);
                arrivals.push(jitter_within_buckets(&data, &config, salt));
            }
        }
    }

    let classifier: &Classifier = validator.classifier();
    let history = validator.history();
    let mut index = SimilarityIndex::new(config);
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut max_rel_dev = 0.0f64;
    let mut on_us = Vec::with_capacity(arrivals.len());
    let mut off_us = Vec::with_capacity(arrivals.len());
    for data in &arrivals {
        let (off, wall_us) = classifier.classify_timed(history, data);
        off_us.push(wall_us);
        let (on, decide_us, outcome) = index.classify_or_insert(classifier, history, data);
        on_us.push(decide_us);
        match outcome {
            SimilarityOutcome::Hit => hits += 1,
            SimilarityOutcome::Miss => misses += 1,
        }
        let pairs = on
            .scale_up_speed
            .iter()
            .zip(&off.scale_up_speed)
            .chain(on.hetero_speed.iter().zip(&off.hetero_speed));
        for (&a, &b) in pairs {
            max_rel_dev = max_rel_dev.max((a - b).abs() / b.abs().max(1e-12));
        }
    }

    IndexComparePoint {
        app: app.name().to_string(),
        arrivals: arrivals.len(),
        hits,
        misses,
        max_rel_dev,
        median_on_us: percentile(&on_us, 0.5),
        median_off_us: percentile(&off_us, 0.5),
    }
}

impl fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Fig.3 classification error (90th pct, %) and overheads vs matrix density",
        )
        .header([
            "app",
            "density",
            "scale-up",
            "scale-out",
            "hetero",
            "interference",
            "profile s",
            "decide 4p us",
            "decide exh us",
        ]);
        // Decision times are the one live wall-clock measurement in any
        // report; mask them when stdout must be reproducible (e.g. the
        // CI smoke comparing `--threads` values).
        let mask = crate::report::mask_live_timings();
        let us = |v: f64| {
            if mask {
                "-".to_string()
            } else {
                format!("{v:.0}")
            }
        };
        for (app, points) in &self.sweeps {
            for p in points {
                t.row([
                    app.clone(),
                    p.density.to_string(),
                    format!("{:.1}", p.p90_scale_up * 100.0),
                    format!("{:.1}", p.p90_scale_out * 100.0),
                    format!("{:.1}", p.p90_hetero * 100.0),
                    format!("{:.1}", p.p90_interference * 100.0),
                    format!("{:.0}", p.profile_s),
                    us(p.decide_us_parallel),
                    us(p.decide_us_exhaustive),
                ]);
            }
        }
        writeln!(f, "{}", t.render())?;

        let mut c =
            TextTable::new("Similarity index vs per-arrival classification (repeat-heavy stream)")
                .header([
                    "app",
                    "arrivals",
                    "hits",
                    "miss",
                    "max dev %",
                    "median on us",
                    "median off us",
                ]);
        for p in &self.index_compare {
            c.row([
                p.app.clone(),
                p.arrivals.to_string(),
                p.hits.to_string(),
                p.misses.to_string(),
                format!("{:.2}", p.max_rel_dev * 100.0),
                us(p.median_on_us),
                us(p.median_off_us),
            ]);
        }
        write!(f, "{}", c.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_core::Signature;

    #[test]
    fn sweep_has_expected_shape() {
        let r = run(Scale::Quick);
        assert_eq!(r.sweeps.len(), 3);
        for (_, points) in &r.sweeps {
            assert_eq!(points.len(), 3);
            // Profiling cost grows with density.
            assert!(points.last().unwrap().profile_s >= points.first().unwrap().profile_s);
        }
        assert!(r.density_two_improves());
    }

    #[test]
    fn jitter_preserves_the_signature_but_not_the_bits() {
        let config = SimilarityConfig::enabled();
        let validator = Validator::new(local_history(), 0x1);
        let workload = validator.generate(AppClass::Hadoop, 0);
        let data = validator.profile_item(3, workload, 2);
        let jittered = jitter_within_buckets(&data, &config, 99);
        assert_ne!(data, jittered, "raw bits must move");
        let a = Signature::of_profile(&data, &config);
        let b = Signature::of_profile(&jittered, &config);
        assert!(a.is_duplicate_of(&b), "signature must not move");
    }

    #[test]
    fn index_compare_reuses_and_stays_within_tolerance() {
        let r = run(Scale::Quick);
        assert_eq!(r.index_compare.len(), 3);
        for p in &r.index_compare {
            assert_eq!(p.arrivals, 8, "{}: 2 bases x 4 repeats", p.app);
            assert_eq!(p.hits + p.misses, p.arrivals as u64, "{}", p.app);
            // Every non-base arrival is an in-bucket repeat: only the
            // two bases may miss.
            assert!(p.misses <= 2, "{}: misses {}", p.app, p.misses);
            assert!(p.hits >= 6, "{}: hits {}", p.app, p.hits);
            // The documented accuracy tolerance of index reuse (see
            // DESIGN.md): reused estimates stay within 15% of the
            // per-arrival cold classification on every speed column.
            assert!(
                p.max_rel_dev < 0.15,
                "{}: max_rel_dev {:.3}",
                p.app,
                p.max_rel_dev
            );
        }
    }

    #[test]
    fn exhaustive_decisions_are_slower() {
        let r = run(Scale::Quick);
        // The paper reports ~two orders of magnitude; require clearly
        // slower.
        for (app, points) in &r.sweeps {
            let p = &points[0];
            assert!(
                p.decide_us_exhaustive > p.decide_us_parallel,
                "{app}: exhaustive {}us vs 4p {}us",
                p.decide_us_exhaustive,
                p.decide_us_parallel
            );
        }
    }
}
