//! Sublinear classification: a banded MinHash index over quantized
//! profiling signatures.
//!
//! Quasar classifies every arrival from scratch — five SVD+SGD
//! reconstructions per workload. At cluster scale most arrivals are
//! *re*-arrivals: another instance of a workload the manager has already
//! classified. This module makes that case sublinear: each profiling row
//! is quantized into a sparse feature set, MinHashed, and filed into a
//! banded locality-sensitive index (band key → bucket of entries). A new
//! arrival probes its `bands` buckets — O(bands), independent of how
//! many workloads the index holds — and:
//!
//! * **hit** (quantization-level duplicate): reuse the neighbor's cached
//!   [`Classification`] with `runtime_calibration` reset to 1.0 and skip
//!   reconstruction entirely;
//! * **warm start** (estimated Jaccard ≥ `warm_threshold`): run the
//!   reconstructions, but seed each axis's SGD from the neighbor's
//!   cached [`AxisModels`], skipping the SVD initialization;
//! * **miss**: full cold classification, then insert the signature,
//!   classification, and models for future arrivals.
//!
//! Determinism contract: with the index disabled nothing here runs and
//! behavior is bit-identical to a build without this module. With it
//! enabled, every decision is a pure function of the arrival sequence —
//! query order, candidate order (band order, then insertion order), and
//! tie-breaks are all deterministic — so outcomes are byte-identical
//! across `--threads` values.

use std::collections::HashMap;
use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Histogram, Registry};
use quasar_obs::span::timed;

use crate::classify::{AxisModels, Classification, Classifier};
use crate::history::{ln_speed, HistorySet};
use crate::profile::ProfilingData;

/// Registry handles for the similarity-index metrics
/// (`quasar.core.similarity.*`). All of the counters are driven by the
/// deterministic arrival order, so they stay in deterministic
/// snapshots; `query_us` is wall-clock, but deterministic
/// snapshots already reduce histograms to their (deterministic) counts.
struct SimilarityMetrics {
    hits: Counter,
    warm_starts: Counter,
    misses: Counter,
    inserts: Counter,
    evictions: Counter,
    query_us: Histogram,
}

fn similarity_metrics() -> &'static SimilarityMetrics {
    static METRICS: OnceLock<SimilarityMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        SimilarityMetrics {
            hits: reg.counter("quasar.core.similarity.hits"),
            warm_starts: reg.counter("quasar.core.similarity.warm_starts"),
            misses: reg.counter("quasar.core.similarity.misses"),
            inserts: reg.counter("quasar.core.similarity.inserts"),
            evictions: reg.counter("quasar.core.similarity.evictions"),
            query_us: reg.histogram_us("quasar.core.similarity.query_us"),
        }
    })
}

/// Tunables of the workload-similarity index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityConfig {
    /// Whether the index runs at all. Disabled (the default) is the
    /// pre-index behavior, bit for bit.
    pub enabled: bool,
    /// Number of LSH bands. More bands catch lower-similarity pairs.
    pub bands: usize,
    /// MinHash rows per band. More rows make each band more selective.
    pub rows_per_band: usize,
    /// Similarity at or above which a neighbor's classification is
    /// reused outright. At the default `1.0` the test is exact
    /// feature-set equality (a quantization-level duplicate); values
    /// below 1.0 accept the estimated Jaccard similarity instead
    /// (explicitly approximate reuse).
    pub exact_threshold: f64,
    /// Estimated Jaccard at or above which a neighbor's cached axis
    /// models warm-start SGD. Set above 1.0 to disable warm starts.
    pub warm_threshold: f64,
    /// Quantization bucket width for speed-axis features, in ln-speed
    /// units (0.05 ≈ values within ~5% share a bucket).
    pub ln_bucket: f64,
    /// Quantization bucket width for pressure-axis features, in
    /// pressure points on the 0–100 scale.
    pub pressure_bucket: f64,
    /// Maximum entries held; past it the oldest entry is evicted
    /// (FIFO — deterministic, unlike recency under racing readers).
    pub capacity: usize,
    /// Seed for the MinHash permutation family.
    pub seed: u64,
}

impl Default for SimilarityConfig {
    fn default() -> SimilarityConfig {
        SimilarityConfig {
            enabled: false,
            bands: 16,
            rows_per_band: 2,
            exact_threshold: 1.0,
            warm_threshold: 0.55,
            ln_bucket: 0.05,
            pressure_bucket: 2.0,
            capacity: 4096,
            seed: 0x51A1,
        }
    }
}

impl SimilarityConfig {
    /// The default parameters with the index enabled.
    pub fn enabled() -> SimilarityConfig {
        SimilarityConfig {
            enabled: true,
            ..SimilarityConfig::default()
        }
    }

    /// Enabled, but reusing only quantization-level duplicates: warm
    /// starts are off, and anything short of feature-set equality is a
    /// full cold classification. In this mode classifications are
    /// bit-identical to the index-off path unless a true duplicate
    /// arrives.
    pub fn exact_only() -> SimilarityConfig {
        SimilarityConfig {
            enabled: true,
            warm_threshold: 2.0,
            ..SimilarityConfig::default()
        }
    }

    /// MinHash rows overall (`bands × rows_per_band`).
    fn minhash_len(&self) -> usize {
        self.bands.max(1) * self.rows_per_band.max(1)
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One quantized feature: a hash of `(axis tag, column, bucket)`.
fn feature_token(tag: u64, col: usize, bucket: i64) -> u64 {
    mix(tag ^ mix((col as u64).wrapping_add(mix(bucket as u64))))
}

/// Axis tags for [`feature_token`]. Distinct per axis so the same
/// `(column, bucket)` pair never collides across axes.
const TAG_KIND: u64 = 0x10;
const TAG_SCALE_UP: u64 = 0x21;
const TAG_SCALE_OUT: u64 = 0x22;
const TAG_HETERO: u64 = 0x23;
const TAG_PARAMS: u64 = 0x24;
const TAG_TOLERATED: u64 = 0x31;
const TAG_CAUSED: u64 = 0x32;

/// A workload's quantized profiling signature: the sorted set of feature
/// tokens plus its MinHash sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Sorted, deduplicated feature tokens.
    features: Vec<u64>,
    /// `bands × rows_per_band` MinHash values over `features`.
    minhash: Vec<u64>,
}

impl Signature {
    /// Quantizes a profiling row into a signature. Speed axes bucket
    /// `ln(speed)` by `ln_bucket` (so observations within the bucket
    /// width of each other fuse); pressure axes bucket the raw 0–100
    /// value by `pressure_bucket`. The goal kind joins as its own
    /// feature, so workloads with different goal kinds can never be
    /// duplicates of each other.
    pub fn of_profile(data: &ProfilingData, config: &SimilarityConfig) -> Signature {
        let kind = data.kind;
        let ln_bucket = config.ln_bucket.max(1e-9);
        let pressure_bucket = config.pressure_bucket.max(1e-9);
        let mut features = vec![feature_token(TAG_KIND, 0, kind as i64)];
        for (tag, entries) in [
            (TAG_SCALE_UP, &data.scale_up),
            (TAG_SCALE_OUT, &data.scale_out),
            (TAG_HETERO, &data.hetero),
            (TAG_PARAMS, &data.params),
        ] {
            for &(c, v) in entries {
                let bucket = (ln_speed(kind, v) / ln_bucket).round() as i64;
                features.push(feature_token(tag, c, bucket));
            }
        }
        for (tag, entries) in [(TAG_TOLERATED, &data.tolerated), (TAG_CAUSED, &data.caused)] {
            for &(c, v) in entries {
                let bucket = (v / pressure_bucket).round() as i64;
                features.push(feature_token(tag, c, bucket));
            }
        }
        Signature::of_tokens(features, config)
    }

    fn of_tokens(mut features: Vec<u64>, config: &SimilarityConfig) -> Signature {
        features.sort_unstable();
        features.dedup();
        let n = config.minhash_len();
        let mut minhash = Vec::with_capacity(n);
        for i in 0..n {
            let perm_seed = mix(config
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)));
            let slot = features
                .iter()
                .map(|&f| mix(f ^ perm_seed))
                .min()
                .unwrap_or(u64::MAX);
            minhash.push(slot);
        }
        Signature { features, minhash }
    }

    /// Estimated Jaccard similarity: the fraction of MinHash slots on
    /// which the two sketches agree.
    pub fn similarity(&self, other: &Signature) -> f64 {
        if self.minhash.is_empty() || self.minhash.len() != other.minhash.len() {
            return 0.0;
        }
        let agree = self
            .minhash
            .iter()
            .zip(&other.minhash)
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.minhash.len() as f64
    }

    /// Whether the quantized feature sets are identical — a true
    /// quantization-level duplicate, not just a MinHash agreement.
    pub fn is_duplicate_of(&self, other: &Signature) -> bool {
        self.features == other.features
    }
}

/// The key of one LSH band: a hash of the band index and the band's
/// MinHash rows.
fn band_key(sig: &Signature, band: usize, rows_per_band: usize) -> u64 {
    let r = rows_per_band.max(1);
    let mut h = mix(0xb4 ^ band as u64);
    for &m in &sig.minhash[band * r..band * r + r] {
        h = mix(h ^ m);
    }
    h
}

/// What the index did for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityOutcome {
    /// A duplicate was found; reconstruction was skipped entirely.
    Hit,
    /// A similar neighbor warm-started the reconstructions.
    WarmStart,
    /// No usable neighbor; full cold classification.
    Miss,
}

/// How a query resolved, before any classification work.
enum Decision {
    Hit(usize),
    Warm(usize),
    Miss,
}

#[derive(Debug, Clone)]
struct IndexEntry {
    signature: Signature,
    class: Classification,
    models: Option<AxisModels>,
}

/// The banded MinHash workload-similarity index, one instance per
/// manager.
#[derive(Debug, Clone)]
pub struct SimilarityIndex {
    config: SimilarityConfig,
    /// Entry slots; a FIFO ring once `capacity` is reached.
    entries: Vec<Option<IndexEntry>>,
    /// Next eviction victim once full.
    next_slot: usize,
    /// Band key → slots whose signature hashes there.
    buckets: HashMap<u64, Vec<u32>>,
}

impl SimilarityIndex {
    /// An empty index.
    pub fn new(config: SimilarityConfig) -> SimilarityIndex {
        SimilarityIndex {
            config,
            entries: Vec::new(),
            next_slot: 0,
            buckets: HashMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimilarityConfig {
        &self.config
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The classification front door when the index is enabled: probe
    /// with the profile's signature, then hit / warm-start / miss as
    /// described in the module docs. Returns the classification, the
    /// per-decision latency in microseconds (query plus any
    /// reconstruction), and the outcome. Warm and miss results are
    /// inserted for future arrivals.
    pub fn classify_or_insert(
        &mut self,
        classifier: &Classifier,
        history: &HistorySet,
        data: &ProfilingData,
    ) -> (Classification, f64, SimilarityOutcome) {
        let m = similarity_metrics();
        let ((sig, decision), query_us) = timed("core.similarity.query", || {
            let sig = Signature::of_profile(data, &self.config);
            let decision = self.decide(&sig);
            (sig, decision)
        });
        m.query_us.record(query_us);
        match decision {
            Decision::Hit(slot) => {
                m.hits.inc();
                let entry = self.entries[slot].as_ref().expect("hit slot is live");
                let mut class = entry.class.clone();
                // The neighbor's calibration reflects *its* runtime
                // feedback; a fresh arrival starts uncalibrated.
                class.runtime_calibration = 1.0;
                (class, query_us, SimilarityOutcome::Hit)
            }
            Decision::Warm(slot) => {
                m.warm_starts.inc();
                let warm = self.entries[slot]
                    .as_ref()
                    .expect("warm slot is live")
                    .models
                    .clone()
                    .expect("warm decisions require cached models");
                let (class, wall_us, models) = classifier.classify_warm(history, data, &warm);
                self.insert(sig, class.clone(), Some(models));
                (class, query_us + wall_us, SimilarityOutcome::WarmStart)
            }
            Decision::Miss => {
                m.misses.inc();
                let (class, wall_us, models) = classifier.classify_with_models(history, data);
                self.insert(sig, class.clone(), Some(models));
                (class, query_us + wall_us, SimilarityOutcome::Miss)
            }
        }
    }

    /// Inserts an entry, evicting the oldest once at capacity.
    pub fn insert(
        &mut self,
        signature: Signature,
        class: Classification,
        models: Option<AxisModels>,
    ) {
        let m = similarity_metrics();
        let slot = if self.entries.len() < self.config.capacity.max(1) {
            self.entries.push(None);
            self.entries.len() - 1
        } else {
            let victim = self.next_slot;
            self.next_slot = (self.next_slot + 1) % self.entries.len();
            if let Some(old) = self.entries[victim].take() {
                self.unlink(victim as u32, &old.signature);
                m.evictions.inc();
            }
            victim
        };
        for band in 0..self.config.bands.max(1) {
            let key = band_key(&signature, band, self.config.rows_per_band);
            let bucket = self.buckets.entry(key).or_default();
            if !bucket.contains(&(slot as u32)) {
                bucket.push(slot as u32);
            }
        }
        self.entries[slot] = Some(IndexEntry {
            signature,
            class,
            models,
        });
        m.inserts.inc();
    }

    /// Removes a slot's bucket references (on eviction).
    fn unlink(&mut self, slot: u32, signature: &Signature) {
        for band in 0..self.config.bands.max(1) {
            let key = band_key(signature, band, self.config.rows_per_band);
            if let Some(bucket) = self.buckets.get_mut(&key) {
                bucket.retain(|&s| s != slot);
                if bucket.is_empty() {
                    self.buckets.remove(&key);
                }
            }
        }
    }

    /// Resolves a signature against the thresholds.
    fn decide(&self, sig: &Signature) -> Decision {
        match self.best_candidate(sig) {
            Some((slot, sim, dup)) => {
                let hit = if self.config.exact_threshold >= 1.0 {
                    dup
                } else {
                    dup || sim >= self.config.exact_threshold
                };
                if hit {
                    Decision::Hit(slot)
                } else if sim >= self.config.warm_threshold
                    && self.entries[slot]
                        .as_ref()
                        .is_some_and(|e| e.models.is_some())
                {
                    Decision::Warm(slot)
                } else {
                    Decision::Miss
                }
            }
            None => Decision::Miss,
        }
    }

    /// The best candidate across the probe's buckets: candidates are
    /// collected in band order (deduplicated, first occurrence kept),
    /// preferred by duplicate-ness, then similarity, then lowest slot —
    /// a total, deterministic order.
    fn best_candidate(&self, sig: &Signature) -> Option<(usize, f64, bool)> {
        let mut seen: Vec<u32> = Vec::new();
        let mut best: Option<(usize, f64, bool)> = None;
        for band in 0..self.config.bands.max(1) {
            let key = band_key(sig, band, self.config.rows_per_band);
            let Some(bucket) = self.buckets.get(&key) else {
                continue;
            };
            for &slot in bucket {
                if seen.contains(&slot) {
                    continue;
                }
                seen.push(slot);
                let Some(entry) = self.entries[slot as usize].as_ref() else {
                    continue;
                };
                let sim = sig.similarity(&entry.signature);
                let dup = sig.is_duplicate_of(&entry.signature);
                let better = match best {
                    None => true,
                    Some((best_slot, best_sim, best_dup)) => {
                        if dup != best_dup {
                            dup
                        } else if sim != best_sim {
                            sim > best_sim
                        } else {
                            (slot as usize) < best_slot
                        }
                    }
                };
                if better {
                    best = Some((slot as usize, sim, dup));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_cluster::{managers::NullManager, ClusterSpec, SimConfig, Simulation};
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{Dataset, PlatformCatalog, Priority, WorkloadClass};

    use crate::axes::Axes;
    use crate::profile::Profiler;

    fn probe_data(seed: u64) -> (HistorySet, ProfilingData) {
        let catalog = PlatformCatalog::local();
        let history = HistorySet::bootstrap(&catalog, 8, 41);
        let axes = history.axes().clone();
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(NullManager),
            SimConfig::default(),
        );
        let mut generator = Generator::new(catalog, seed);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "sim-probe",
            Dataset::new("d", 12.0, 1.0),
            2,
            600.0,
            Priority::Guaranteed,
        );
        let id = job.id();
        sim.submit_at(job, 0.0);
        sim.run_until(5.0);
        let data = Profiler::new(2, seed ^ 9).profile(sim.world_mut(), &axes, id);
        (history, data)
    }

    fn axes() -> Axes {
        Axes::for_catalog(&PlatformCatalog::local())
    }

    #[test]
    fn duplicate_arrival_hits_and_reuses_the_classification() {
        let (history, data) = probe_data(7);
        let classifier = Classifier::new();
        let mut index = SimilarityIndex::new(SimilarityConfig::enabled());

        let (first, _, outcome) = index.classify_or_insert(&classifier, &history, &data);
        assert_eq!(outcome, SimilarityOutcome::Miss);
        assert_eq!(index.len(), 1);

        // Identical profiling data is a quantization-level duplicate:
        // the cached classification comes back bit-identical to a full
        // reconstruction of the same data, with calibration reset.
        let (second, _, outcome) = index.classify_or_insert(&classifier, &history, &data);
        assert_eq!(outcome, SimilarityOutcome::Hit);
        assert_eq!(first, second);
        assert_eq!(second, classifier.classify(&history, &data));
        assert_eq!(second.runtime_calibration, 1.0);
        assert_eq!(index.len(), 1, "hits do not insert");
    }

    #[test]
    fn in_bucket_jitter_is_still_a_duplicate() {
        let (history, data) = probe_data(11);
        let config = SimilarityConfig::enabled();
        let base = Signature::of_profile(&data, &config);

        // Nudge every speed observation to its quantization-bucket
        // center plus a sliver — the signature must not move.
        let mut nudged = data.clone();
        for (_, v) in nudged.scale_up.iter_mut() {
            let s = ln_speed(nudged.kind, *v);
            let center = (s / config.ln_bucket).round() * config.ln_bucket;
            *v = nudged
                .kind
                .from_speed((center + 0.2 * config.ln_bucket).exp());
        }
        let moved = Signature::of_profile(&nudged, &config);
        assert!(base.is_duplicate_of(&moved));
        assert_eq!(base.similarity(&moved), 1.0);

        let classifier = Classifier::new();
        let mut index = SimilarityIndex::new(config);
        let (_, _, first) = index.classify_or_insert(&classifier, &history, &data);
        let (_, _, second) = index.classify_or_insert(&classifier, &history, &nudged);
        assert_eq!(
            (first, second),
            (SimilarityOutcome::Miss, SimilarityOutcome::Hit)
        );
    }

    #[test]
    fn partial_overlap_warm_starts_below_the_duplicate_bar() {
        let (history, data) = probe_data(13);
        // Move a bucket's worth on one scale-up observation: no longer a
        // duplicate, but nearly every feature still agrees.
        let mut near = data.clone();
        let (_, v) = &mut near.scale_up[0];
        *v *= 1.5;
        let config = SimilarityConfig::enabled();
        let a = Signature::of_profile(&data, &config);
        let b = Signature::of_profile(&near, &config);
        assert!(!a.is_duplicate_of(&b));
        assert!(a.similarity(&b) > config.warm_threshold);

        let classifier = Classifier::new();
        let mut index = SimilarityIndex::new(config);
        index.classify_or_insert(&classifier, &history, &data);
        let (class, _, outcome) = index.classify_or_insert(&classifier, &history, &near);
        assert_eq!(outcome, SimilarityOutcome::WarmStart);
        assert!(class
            .scale_up_speed
            .iter()
            .all(|s| s.is_finite() && *s > 0.0));
        assert_eq!(index.len(), 2, "warm starts insert the new entry");
    }

    #[test]
    fn exact_only_config_never_warm_starts() {
        let (history, data) = probe_data(13);
        let mut other = data.clone();
        other.scale_up[0].1 *= 1.5;
        let classifier = Classifier::new();
        let mut index = SimilarityIndex::new(SimilarityConfig::exact_only());
        index.classify_or_insert(&classifier, &history, &data);
        let (class, _, outcome) = index.classify_or_insert(&classifier, &history, &other);
        assert_eq!(outcome, SimilarityOutcome::Miss);
        // Exact-only misses are bit-identical to the plain path.
        assert_eq!(class, classifier.classify(&history, &other));
    }

    #[test]
    fn outcomes_are_identical_across_classifier_thread_counts() {
        let (history, data) = probe_data(17);
        let mut warm = data.clone();
        warm.scale_up[0].1 *= 1.5;
        let run = |threads: usize| {
            let classifier = Classifier::new().with_threads(threads);
            let mut index = SimilarityIndex::new(SimilarityConfig::enabled());
            let mut out = Vec::new();
            for d in [&data, &warm, &data, &warm] {
                let (class, _, outcome) = index.classify_or_insert(&classifier, &history, d);
                out.push((class, outcome));
            }
            out
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "diverged at {threads} threads");
        }
    }

    #[test]
    fn capacity_evicts_fifo_and_counts() {
        let config = SimilarityConfig {
            capacity: 2,
            ..SimilarityConfig::enabled()
        };
        let mut index = SimilarityIndex::new(config);
        let class = Classification {
            kind: crate::axes::GoalKind::Rate,
            scale_up_speed: vec![1.0],
            scale_out_speed: None,
            hetero_speed: vec![1.0],
            params_speed: None,
            tolerated: quasar_interference::PressureVector::uniform(50.0),
            caused: quasar_interference::PressureVector::uniform(10.0),
            runtime_calibration: 1.0,
        };
        let sig = |i: i64| Signature::of_tokens(vec![feature_token(TAG_SCALE_UP, 0, i)], &config);
        index.insert(sig(0), class.clone(), None);
        index.insert(sig(1), class.clone(), None);
        assert_eq!(index.len(), 2);
        index.insert(sig(2), class.clone(), None);
        assert_eq!(index.len(), 2, "capacity bound holds");
        // The oldest entry (0) was evicted; 1 and 2 still hit.
        assert!(matches!(index.decide(&sig(0)), Decision::Miss));
        assert!(matches!(index.decide(&sig(1)), Decision::Hit(_)));
        assert!(matches!(index.decide(&sig(2)), Decision::Hit(_)));
    }

    #[test]
    fn different_goal_kinds_never_collide() {
        let config = SimilarityConfig::enabled();
        let mk = |kind| ProfilingData {
            kind,
            scale_up: vec![(0, 100.0)],
            scale_out: vec![],
            hetero: vec![(0, 90.0)],
            params: vec![],
            tolerated: vec![(0, 40.0)],
            caused: vec![(1, 10.0)],
            wall_seconds: 1.0,
            total_seconds: 1.0,
        };
        let a = Signature::of_profile(&mk(crate::axes::GoalKind::Qps), &config);
        let b = Signature::of_profile(&mk(crate::axes::GoalKind::Rate), &config);
        assert!(!a.is_duplicate_of(&b));
    }

    #[test]
    fn signature_of_scale_out_probe_uses_axes_columns() {
        // Columns index into the axes; sanity-check tokens differ per
        // column so distinct configurations stay distinct features.
        let axes = axes();
        assert!(axes.scale_out.len() > 2);
        let config = SimilarityConfig::default();
        let a = Signature::of_tokens(vec![feature_token(TAG_SCALE_OUT, 0, 5)], &config);
        let b = Signature::of_tokens(vec![feature_token(TAG_SCALE_OUT, 1, 5)], &config);
        assert!(!a.is_duplicate_of(&b));
        assert!(a.similarity(&b) < 1.0);
    }
}
