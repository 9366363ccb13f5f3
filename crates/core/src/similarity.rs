//! Exact classification reuse: an index from a profile's quantized
//! feature set to the classification it produced.
//!
//! Quasar classifies every arrival from scratch — five SVD+SGD
//! reconstructions per workload. Many arrivals are *re*-arrivals:
//! another instance of a workload the manager has already classified.
//! Each profiling row is quantized into a sparse feature set (see
//! [`Signature::of_profile`]), and the index maps feature sets it has
//! seen to their classifications. A new arrival is then a
//!
//! * **hit** (its feature set is in the index, a quantization-level
//!   duplicate): reuse the cached [`Classification`] with
//!   `runtime_calibration` reset to 1.0 and skip reconstruction
//!   entirely;
//! * **miss**: full cold classification, then insert the feature set
//!   and classification for future arrivals.
//!
//! Determinism contract: with the index disabled nothing here runs and
//! behavior is bit-identical to a build without this module. With it
//! enabled, every decision is a pure function of the arrival sequence,
//! so outcomes are byte-identical across `--threads` values, and a miss
//! is the plain classification: without hits the index changes nothing.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Histogram, Registry};
use quasar_obs::span::timed;

use crate::classify::{usable_ln_speeds, usable_pressures, Classification, Classifier};
use crate::history::HistorySet;
use crate::profile::ProfilingData;

/// Registry handles for the similarity-index metrics
/// (`quasar.core.similarity.*`). All of the counters are driven by the
/// deterministic arrival order, so they stay in deterministic
/// snapshots; `query_us` is wall-clock, but deterministic
/// snapshots already reduce histograms to their (deterministic) counts.
struct SimilarityMetrics {
    hits: Counter,
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
            misses: reg.counter("quasar.core.similarity.misses"),
            inserts: reg.counter("quasar.core.similarity.inserts"),
            evictions: reg.counter("quasar.core.similarity.evictions"),
            query_us: reg.histogram_us("quasar.core.similarity.query_us"),
        }
    })
}

/// Entries the index holds; past it the oldest entry is evicted (FIFO —
/// deterministic, unlike recency under racing readers).
const CAPACITY: usize = 4096;

/// Tunables of the workload-similarity index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityConfig {
    /// Whether the index runs at all. Disabled (the default) is the
    /// pre-index behavior, bit for bit.
    pub enabled: bool,
    /// Quantization bucket width for speed-axis features, in ln-speed
    /// units (0.05 ≈ values within ~5% share a bucket).
    pub ln_bucket: f64,
    /// Quantization bucket width for pressure-axis features, in
    /// pressure points on the 0–100 scale.
    pub pressure_bucket: f64,
}

impl Default for SimilarityConfig {
    fn default() -> SimilarityConfig {
        SimilarityConfig {
            enabled: false,
            ln_bucket: 0.05,
            pressure_bucket: 2.0,
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
/// tokens, the index's key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Sorted, deduplicated feature tokens.
    features: Vec<u64>,
}

impl Signature {
    /// Quantizes a profiling row into a signature. Speed axes bucket
    /// `ln(speed)` by `ln_bucket` (so observations within the bucket
    /// width of each other fuse); pressure axes bucket the raw 0–100
    /// value by `pressure_bucket`. The goal kind joins as its own
    /// feature, so workloads with different goal kinds can never be
    /// duplicates of each other. Only the observations classification
    /// uses become features: a non-finite one, which classification
    /// drops, must not land in a real bucket.
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
            for (c, s) in usable_ln_speeds(kind, entries) {
                features.push(feature_token(tag, c, (s / ln_bucket).round() as i64));
            }
        }
        for (tag, entries) in [(TAG_TOLERATED, &data.tolerated), (TAG_CAUSED, &data.caused)] {
            for (c, v) in usable_pressures(entries) {
                features.push(feature_token(tag, c, (v / pressure_bucket).round() as i64));
            }
        }
        Signature::of_tokens(features)
    }

    fn of_tokens(mut features: Vec<u64>) -> Signature {
        features.sort_unstable();
        features.dedup();
        Signature { features }
    }

    /// Whether the quantized feature sets are identical — a
    /// quantization-level duplicate.
    pub fn is_duplicate_of(&self, other: &Signature) -> bool {
        self == other
    }
}

/// What the index did for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityOutcome {
    /// A duplicate was found; reconstruction was skipped entirely.
    Hit,
    /// No duplicate; full cold classification.
    Miss,
}

/// The exact-duplicate classification cache, one instance per manager.
#[derive(Debug, Clone)]
pub struct SimilarityIndex {
    config: SimilarityConfig,
    capacity: usize,
    /// Signature → the classification it produced.
    entries: HashMap<Signature, Classification>,
    /// The keys of `entries`, oldest first.
    order: VecDeque<Signature>,
}

impl SimilarityIndex {
    /// An empty index.
    pub fn new(config: SimilarityConfig) -> SimilarityIndex {
        SimilarityIndex::with_capacity(config, CAPACITY)
    }

    fn with_capacity(config: SimilarityConfig, capacity: usize) -> SimilarityIndex {
        SimilarityIndex {
            config,
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimilarityConfig {
        &self.config
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The classification front door when the index is enabled: look the
    /// profile's signature up, then hit or miss as described in the
    /// module docs. Returns the classification, the per-decision latency
    /// in microseconds (lookup plus any reconstruction), and the outcome.
    /// Misses are inserted for future arrivals.
    pub fn classify_or_insert(
        &mut self,
        classifier: &Classifier,
        history: &HistorySet,
        data: &ProfilingData,
    ) -> (Classification, f64, SimilarityOutcome) {
        let m = similarity_metrics();
        let ((sig, cached), query_us) = timed("core.similarity.query", || {
            let sig = Signature::of_profile(data, &self.config);
            let cached = self.entries.get(&sig);
            (sig, cached)
        });
        m.query_us.record(query_us);
        match cached {
            Some(class) => {
                m.hits.inc();
                // A cached calibration would reflect an earlier arrival's
                // runtime feedback; a fresh arrival starts uncalibrated.
                let class = Classification {
                    runtime_calibration: 1.0,
                    ..class.clone()
                };
                (class, query_us, SimilarityOutcome::Hit)
            }
            None => {
                m.misses.inc();
                let (class, wall_us) = classifier.classify_timed(history, data);
                self.insert(sig, class.clone(), None);
                (class, query_us + wall_us, SimilarityOutcome::Miss)
            }
        }
    }

    /// Inserts an entry, evicting the oldest once at capacity. A
    /// signature already in the index keeps its older entry.
    ///
    /// `models` is always `None`: the index caches no trained models, and
    /// the parameter stays only because the benchmark adapter's pinned
    /// call passes it. It goes with the index (ROADMAP item 10).
    pub fn insert(
        &mut self,
        signature: Signature,
        class: Classification,
        _models: Option<Infallible>,
    ) {
        if self.entries.contains_key(&signature) {
            return;
        }
        let m = similarity_metrics();
        if self.order.len() == self.capacity {
            let oldest = self.order.pop_front().expect("capacity is at least 1");
            self.entries.remove(&oldest);
            m.evictions.inc();
        }
        self.order.push_back(signature.clone());
        self.entries.insert(signature, class);
        m.inserts.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quasar_cluster::{managers::NullManager, ClusterSpec, SimConfig, Simulation};
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{Dataset, PlatformCatalog, Priority, WorkloadClass};

    use crate::axes::{Axes, GoalKind};
    use crate::history::ln_speed;
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

    /// A small hand-written profile: one scale-up, one heterogeneity and
    /// one tolerated-pressure observation.
    fn small_profile(kind: GoalKind) -> ProfilingData {
        ProfilingData {
            kind,
            scale_up: vec![(0, 100.0)],
            scale_out: vec![],
            hetero: vec![(0, 90.0)],
            params: vec![],
            tolerated: vec![(0, 40.0)],
            caused: vec![(1, 10.0)],
            wall_seconds: 1.0,
            total_seconds: 1.0,
        }
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

        let classifier = Classifier::new();
        let mut index = SimilarityIndex::new(config);
        let (_, _, first) = index.classify_or_insert(&classifier, &history, &data);
        let (_, _, second) = index.classify_or_insert(&classifier, &history, &nudged);
        assert_eq!(
            (first, second),
            (SimilarityOutcome::Miss, SimilarityOutcome::Hit)
        );
    }

    /// A miss is the plain classification, so the index is invisible on
    /// a stream without duplicates; repeats then hit. Neither depends on
    /// the classifier's thread count.
    #[test]
    fn outcomes_are_identical_across_classifier_thread_counts() {
        let (history, data) = probe_data(17);
        let mut near = data.clone();
        near.scale_up[0].1 *= 1.5;
        let run = |threads: usize| {
            let classifier = Classifier::new().with_threads(threads);
            let mut index = SimilarityIndex::new(SimilarityConfig::enabled());
            let mut out = Vec::new();
            for d in [&data, &near, &data, &near] {
                let (class, _, outcome) = index.classify_or_insert(&classifier, &history, d);
                out.push((class, outcome));
            }
            out
        };
        let serial = run(1);
        let outcomes: Vec<SimilarityOutcome> = serial.iter().map(|(_, o)| *o).collect();
        use SimilarityOutcome::{Hit, Miss};
        assert_eq!(outcomes, [Miss, Miss, Hit, Hit]);
        assert_eq!(serial[1].0, Classifier::new().classify(&history, &near));
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "diverged at {threads} threads");
        }
    }

    #[test]
    fn capacity_evicts_fifo_and_counts() {
        let mut index = SimilarityIndex::with_capacity(SimilarityConfig::enabled(), 2);
        let class = |calibration: f64| Classification {
            kind: GoalKind::Rate,
            scale_up_speed: vec![1.0],
            scale_out_speed: None,
            hetero_speed: vec![1.0],
            params_speed: None,
            tolerated: quasar_interference::PressureVector::uniform(50.0),
            caused: quasar_interference::PressureVector::uniform(10.0),
            runtime_calibration: calibration,
        };
        let sig = |i: i64| Signature::of_tokens(vec![feature_token(TAG_SCALE_UP, 0, i)]);
        let evictions = || similarity_metrics().evictions.get();
        index.insert(sig(0), class(1.0), None);
        index.insert(sig(1), class(1.0), None);
        assert_eq!(index.len(), 2);
        // A re-insert of a live key keeps the older entry and its place
        // in the eviction order.
        index.insert(sig(0), class(2.0), None);
        assert_eq!(index.len(), 2);
        assert_eq!(index.entries[&sig(0)], class(1.0));
        let before = evictions();
        index.insert(sig(2), class(1.0), None);
        assert_eq!(index.len(), 2, "capacity bound holds");
        // Lower bound only: sibling tests share the global counter.
        assert!(evictions() > before);
        // The oldest entry (0) was evicted; 1 and 2 are still held.
        assert!(!index.entries.contains_key(&sig(0)));
        assert!(index.entries.contains_key(&sig(1)));
        assert!(index.entries.contains_key(&sig(2)));
        assert_eq!(Vec::from(index.order.clone()), [sig(1), sig(2)]);
    }

    #[test]
    fn different_goal_kinds_never_collide() {
        let config = SimilarityConfig::enabled();
        let a = Signature::of_profile(&small_profile(GoalKind::Qps), &config);
        let b = Signature::of_profile(&small_profile(GoalKind::Rate), &config);
        assert!(!a.is_duplicate_of(&b));
    }

    /// Regression: a NaN pressure used to quantize to bucket 0
    /// (`(NaN / 2.0).round() as i64`), colliding with a measured
    /// 0–1-point pressure, and a NaN or `inf` speed got a bucket too.
    /// Classification drops those observations, so the signature must
    /// as well: with them the profile is a duplicate of itself without
    /// them, never of one with a real value there.
    #[test]
    fn non_finite_observations_are_not_features() {
        let config = SimilarityConfig::enabled();
        let clean = small_profile(GoalKind::Rate);
        let nan_pressure = ProfilingData {
            tolerated: vec![(0, 40.0), (1, f64::NAN)],
            ..clean.clone()
        };
        let measured = ProfilingData {
            tolerated: vec![(0, 40.0), (1, 0.3)],
            ..clean.clone()
        };
        let bad_speeds = ProfilingData {
            scale_up: vec![(0, 100.0), (1, f64::INFINITY), (2, f64::NAN)],
            ..clean.clone()
        };
        let sig = |d: &ProfilingData| Signature::of_profile(d, &config);
        assert!(!sig(&nan_pressure).is_duplicate_of(&sig(&measured)));
        assert!(sig(&nan_pressure).is_duplicate_of(&sig(&clean)));
        assert!(sig(&bad_speeds).is_duplicate_of(&sig(&clean)));
    }

    #[test]
    fn signature_of_scale_out_probe_uses_axes_columns() {
        // Columns index into the axes; sanity-check tokens differ per
        // column so distinct configurations stay distinct features.
        let axes = axes();
        assert!(axes.scale_out.len() > 2);
        let a = Signature::of_tokens(vec![feature_token(TAG_SCALE_OUT, 0, 5)]);
        let b = Signature::of_tokens(vec![feature_token(TAG_SCALE_OUT, 1, 5)]);
        assert!(!a.is_duplicate_of(&b));
    }

    proptest! {
        // Every miss runs a (small) full classification.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Against a plain FIFO oracle: an arrival hits iff its feature
        /// set is among the last `capacity` misses.
        #[test]
        fn hits_are_exactly_the_last_capacity_misses(
            tokens in proptest::collection::vec(0i32..6, 1..20),
            capacity in 1usize..4,
        ) {
            static HISTORY: OnceLock<HistorySet> = OnceLock::new();
            let history = HISTORY.get_or_init(|| {
                HistorySet::bootstrap(&PlatformCatalog::local(), 3, 5)
            });
            let classifier = Classifier::new();
            let mut index = SimilarityIndex::with_capacity(SimilarityConfig::enabled(), capacity);
            let mut oracle: VecDeque<i32> = VecDeque::new();
            for t in tokens {
                // Tokens are 2x apart in speed: 14 ln-buckets, never fused.
                let data = ProfilingData {
                    scale_up: vec![(0, 100.0 * 2f64.powi(t))],
                    ..small_profile(GoalKind::Rate)
                };
                let (_, _, outcome) = index.classify_or_insert(&classifier, history, &data);
                let expected = if oracle.contains(&t) {
                    SimilarityOutcome::Hit
                } else {
                    if oracle.len() == capacity {
                        oracle.pop_front();
                    }
                    oracle.push_back(t);
                    SimilarityOutcome::Miss
                };
                prop_assert_eq!(outcome, expected, "token {}", t);
                prop_assert_eq!(index.len(), oracle.len());
            }
        }
    }
}
