//! `bench-classify`: per-decision classification latency with and
//! without the workload-similarity index, on a repeat-heavy arrival
//! stream.
//!
//! The stream models a production mix: `distinct` base workloads are
//! profiled once, and every later arrival is one of the bases with its
//! raw measurements jittered *within* the index's quantization buckets
//! ([`jitter_within_buckets`]) — a re-arrival of a known workload whose
//! noisy profile is never bit-identical to anything seen before. That
//! split is exactly what separates the two paths being compared:
//!
//! * **index on** — the jittered profile quantizes to the same signature
//!   as its base, so the index reuses the cached classification in O(µs)
//!   query time;
//! * **index off** — every arrival pays the full SVD+SGD reconstruction
//!   in O(ms).
//!
//! Rates and outcome counts are pure functions of the seeds; the latency
//! columns are live wall-clock and mask to `-`/NaN like every other
//! experiment under `QUASAR_MASK_TIMINGS`. The off path is only sampled
//! (the first *re-arrivals* of each point — base introductions pay the
//! cold path under both configurations, so timing them says nothing
//! about the index) — timing 100 000 cold reconstructions would take
//! hours and adds nothing to a median.

use std::fmt;

use quasar_core::history::ln_speed;
use quasar_core::par::derive_seed;
use quasar_core::{ProfilingData, SimilarityConfig, SimilarityIndex, SimilarityOutcome};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{mask_live_timings, percentile, TextTable};
use crate::validate::{AppClass, Validator};
use crate::{local_history, Scale};

/// Cold classifications timed for the off-path median at each point.
/// Quick keeps the sample small so the debug-build test suite stays
/// fast; a few dozen reconstructions already give a stable median.
fn off_sample(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 32,
        Scale::Full => 256,
    }
}

/// One arrival-count measurement point.
#[derive(Debug, Clone)]
pub struct ClassifyPoint {
    /// Arrivals streamed through the index at this point.
    pub arrivals: usize,
    /// Index hits (classification reused outright).
    pub hits: u64,
    /// Warm starts (reconstruction seeded from a neighbor's models).
    pub warm_starts: u64,
    /// Misses (full cold classification).
    pub misses: u64,
    /// Median per-decision latency with the index on, µs (live).
    pub median_on_us: f64,
    /// Median cold-classification latency (index off), µs (live).
    pub median_off_us: f64,
    /// Off-path arrivals actually timed (sampled).
    pub off_sampled: usize,
}

impl ClassifyPoint {
    /// Fraction of arrivals that hit the index.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.arrivals.max(1) as f64
    }

    /// Fraction of arrivals that skipped the *cold* path (hit or warm).
    pub fn skip_rate(&self) -> f64 {
        (self.hits + self.warm_starts) as f64 / self.arrivals.max(1) as f64
    }

    /// `median_off_us / median_on_us` — how many times faster the
    /// median decision is with the index.
    pub fn speedup(&self) -> f64 {
        self.median_off_us / self.median_on_us
    }
}

/// The `bench-classify` result set.
#[derive(Debug, Clone)]
pub struct ClassifyBenchReport {
    /// Scale the bench ran at (`quick` shrinks the base pool).
    pub scale: Scale,
    /// Distinct base workloads in the stream.
    pub distinct: usize,
    /// One point per arrival count.
    pub points: Vec<ClassifyPoint>,
}

/// Returns `data` with every raw measurement nudged *within* its
/// quantization bucket: speeds move by up to ±20% of `ln_bucket` around
/// the bucket center, pressures by up to ±20% of `pressure_bucket`
/// (clamped to the 0–100 scale). The returned profile has different
/// bits from `data` but an identical [`Signature`], so the similarity
/// index sees a quantization-level duplicate. Deterministic in
/// `(data, config, salt)`.
pub fn jitter_within_buckets(
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

/// Profiles the base pool: `distinct` workloads drawn round-robin from
/// the validation app classes, each profiled once at density 2.
fn base_profiles(validator: &Validator, distinct: usize, seed: u64) -> Vec<ProfilingData> {
    let apps = [
        AppClass::Hadoop,
        AppClass::Memcached,
        AppClass::Webserver,
        AppClass::SingleNode,
    ];
    (0..distinct)
        .map(|i| {
            let workload = validator.generate(apps[i % apps.len()], i);
            validator.profile_item(derive_seed(seed, i as u64), workload, 2)
        })
        .collect()
}

/// Runs the bench at `scale`: one shared base pool, then an independent
/// repeat-heavy stream per arrival count.
pub fn run(scale: Scale) -> ClassifyBenchReport {
    let distinct = match scale {
        Scale::Quick => 16,
        Scale::Full => 64,
    };
    let seed = 0xBC_1A55_u64;
    let history = local_history();
    let validator = Validator::new(history, seed);
    let bases = base_profiles(&validator, distinct, derive_seed(seed, 1));
    let config = SimilarityConfig::enabled();
    let off_n = off_sample(scale);

    let mut points = Vec::new();
    for (pi, &arrivals) in [1_000usize, 10_000, 100_000].iter().enumerate() {
        let point_seed = derive_seed(seed, 100 + pi as u64);
        let mut rng = StdRng::seed_from_u64(point_seed);
        let mut index = SimilarityIndex::new(config);
        let mut hits = 0u64;
        let mut warm_starts = 0u64;
        let mut misses = 0u64;
        let mut on_us = Vec::with_capacity(arrivals);
        let mut off_us = Vec::with_capacity(off_n);
        for i in 0..arrivals {
            // The first `distinct` arrivals introduce the bases; the rest
            // are jittered re-arrivals of a random base.
            let data = if i < bases.len() {
                bases[i].clone()
            } else {
                let b = rng.random_range(0..bases.len());
                jitter_within_buckets(&bases[b], &config, derive_seed(point_seed, i as u64))
            };
            // Off-path sample: only re-arrivals, which pay the full cold
            // path — the situation an index-less manager faces on this
            // stream.
            if i >= bases.len() && off_us.len() < off_n {
                let (_, wall_us) = validator.classifier().classify_timed(history, &data);
                off_us.push(wall_us);
            }
            let (_, decide_us, outcome) =
                index.classify_or_insert(validator.classifier(), history, &data);
            match outcome {
                SimilarityOutcome::Hit => hits += 1,
                SimilarityOutcome::WarmStart => warm_starts += 1,
                SimilarityOutcome::Miss => misses += 1,
            }
            on_us.push(decide_us);
        }
        points.push(ClassifyPoint {
            arrivals,
            hits,
            warm_starts,
            misses,
            median_on_us: percentile(&on_us, 0.5),
            median_off_us: percentile(&off_us, 0.5),
            off_sampled: off_us.len(),
        });
    }

    ClassifyBenchReport {
        scale,
        distinct,
        points,
    }
}

impl ClassifyBenchReport {
    /// Renders the result set as one JSON object
    /// (`quasar.bench_classify.v1` schema).
    pub fn to_json(&self) -> String {
        let scale = match self.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        let n = |v: f64| quasar_obs::json::number((v * 1e3).round() / 1e3);
        let mut out = format!(
            "{{\"schema\":\"quasar.bench_classify.v1\",\"scale\":\"{scale}\",\"distinct\":{},\"points\":[",
            self.distinct
        );
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"arrivals\":{},\"hits\":{},\"warm_starts\":{},\"misses\":{},\
                 \"hit_rate\":{},\"skip_rate\":{},\"median_on_us\":{},\"median_off_us\":{},\
                 \"speedup\":{},\"off_sampled\":{}}}",
                p.arrivals,
                p.hits,
                p.warm_starts,
                p.misses,
                n(p.hit_rate()),
                n(p.skip_rate()),
                n(p.median_on_us),
                n(p.median_off_us),
                n(p.speedup()),
                p.off_sampled,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

impl fmt::Display for ClassifyBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Classification latency vs similarity index ({:?}, {} distinct workloads)",
            self.scale, self.distinct
        ))
        .header([
            "arrivals",
            "hits",
            "warm",
            "miss",
            "hit rate",
            "skip rate",
            "median on (us)",
            "median off (us)",
            "speedup",
        ]);
        let mask = mask_live_timings();
        let us = |v: f64| {
            if mask {
                "-".to_string()
            } else {
                format!("{v:.1}")
            }
        };
        let x = |v: f64| {
            if mask {
                "-".to_string()
            } else {
                format!("{v:.0}x")
            }
        };
        for p in &self.points {
            t.row([
                p.arrivals.to_string(),
                p.hits.to_string(),
                p.warm_starts.to_string(),
                p.misses.to_string(),
                format!("{:.3}", p.hit_rate()),
                format!("{:.3}", p.skip_rate()),
                us(p.median_on_us),
                us(p.median_off_us),
                x(p.speedup()),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_core::Signature;

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
    fn quick_report_hits_dominate_and_json_is_valid() {
        let report = run(Scale::Quick);
        assert_eq!(report.points.len(), 3);
        for p in &report.points {
            assert_eq!(p.hits + p.warm_starts + p.misses, p.arrivals as u64);
            assert!(
                p.hit_rate() > 0.9,
                "repeat-heavy stream must mostly hit, got {}",
                p.hit_rate()
            );
            assert!(p.median_on_us > 0.0 && p.median_off_us > 0.0);
            assert!(
                p.speedup() >= 5.0,
                "index must be >=5x at the median, got {:.1}x",
                p.speedup()
            );
        }
        let json = report.to_json();
        quasar_obs::json::validate(&json)
            .unwrap_or_else(|at| panic!("invalid bench JSON at byte {at}: {json}"));
    }
}
