//! Property-based tests on the Quasar scheduler machinery.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;

use quasar_core::estimate::PlannedNode;
use quasar_core::greedy::CandidateServer;
use quasar_core::{
    Axes, Classification, Classifier, Estimator, GoalKind, GreedyScheduler, HistorySet,
    ProfilingData, SimilarityConfig, SimilarityIndex, SimilarityOutcome,
};
use quasar_interference::PressureVector;
use quasar_workloads::{NodeResources, PlatformCatalog, QosTarget};

fn axes() -> Axes {
    Axes::for_catalog(&PlatformCatalog::local())
}

/// One small offline history shared across classification properties
/// (bootstrap is by far the most expensive step).
fn shared_history() -> &'static HistorySet {
    static HISTORY: OnceLock<HistorySet> = OnceLock::new();
    HISTORY.get_or_init(|| HistorySet::bootstrap(&PlatformCatalog::local(), 6, 42))
}

/// Builds a plausible profiling row from raw proptest draws: entry keys
/// are folded onto real axis columns (deduplicated — one observation per
/// column, like the profiler produces).
fn fold_profile(
    kind: GoalKind,
    su: &[(usize, f64)],
    he: &[(usize, f64)],
    tol: &[(usize, f64)],
) -> ProfilingData {
    let axes = shared_history().axes();
    let fold = |m: &[(usize, f64)], len: usize| -> Vec<(usize, f64)> {
        let mut cols: BTreeMap<usize, f64> = BTreeMap::new();
        for &(k, v) in m {
            cols.insert(k % len, v);
        }
        cols.into_iter().collect()
    };
    ProfilingData {
        kind,
        scale_up: fold(su, axes.scale_up.len()),
        scale_out: vec![],
        hetero: fold(he, axes.platforms.len()),
        params: vec![],
        tolerated: fold(tol, axes.resources.len()),
        caused: vec![],
        wall_seconds: 1.0,
        total_seconds: 1.0,
    }
}

fn classification(axes: &Axes, kind: GoalKind, speeds: &[f64]) -> Classification {
    Classification {
        kind,
        scale_up_speed: axes
            .scale_up
            .iter()
            .map(|r| r.cores as f64 * speeds[0].max(0.1))
            .collect(),
        scale_out_speed: Some(
            axes.scale_out
                .iter()
                .map(|&n| n as f64 * speeds[1].max(0.1))
                .collect(),
        ),
        hetero_speed: (0..axes.platforms.len())
            .map(|i| 0.5 + (i as f64 * speeds[2]).fract())
            .collect(),
        params_speed: None,
        tolerated: PressureVector::uniform(40.0 + 50.0 * speeds[3].fract().abs()),
        caused: PressureVector::uniform(20.0),
        runtime_calibration: 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every candidate has room for the smallest slice, so a plan
    /// exists; each of its nodes fits inside its candidate's free
    /// resources and refers to a real candidate.
    #[test]
    fn plans_respect_capacity(
        speeds in proptest::collection::vec(0.1..5.0f64, 4),
        frees in proptest::collection::vec((1u32..24, 1.0..48.0f64), 3..20),
        target_qps in 10.0..1e6f64,
    ) {
        let axes = axes();
        let class = classification(&axes, GoalKind::Qps, &speeds);
        let candidates: Vec<CandidateServer> = frees
            .iter()
            .enumerate()
            .map(|(i, &(c, m))| CandidateServer {
                server: i,
                platform_index: i % axes.platforms.len(),
                free_cores: c,
                free_memory_gb: m,
                pressure: PressureVector::zero(),
                victim_factor: 1.0,
                hourly_price: 0.5,
            })
            .collect();
        let scheduler = GreedyScheduler::new(8);
        let target = QosTarget::throughput(target_qps, 1_000.0);
        let plan = scheduler.plan(&axes, &class, &target, &candidates);
        prop_assert!(plan.is_some(), "candidates with room must yield a plan");
        let plan = plan.unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for (server, res) in &plan.nodes {
            prop_assert!(seen.insert(*server), "one slice per server");
            let cand = candidates.iter().find(|c| c.server == *server).expect("real candidate");
            prop_assert!(res.cores <= cand.free_cores);
            prop_assert!(res.memory_gb <= cand.free_memory_gb + 1e-9);
        }
        prop_assert!(!plan.nodes.is_empty() && plan.nodes.len() <= 8);
        prop_assert!(plan.predicted_goal.is_finite());
    }

    /// Predicted speed is non-negative, finite, and monotone in node
    /// count for a linear scale-out classification.
    #[test]
    fn estimator_is_sane(
        speeds in proptest::collection::vec(0.1..5.0f64, 4),
        pressure in 0.0..100.0f64,
        su_col_seed in 0usize..1000,
    ) {
        let axes = axes();
        let class = classification(&axes, GoalKind::Qps, &speeds);
        let est = Estimator::new(&axes, &class);
        let col = su_col_seed % axes.scale_up.len();
        let node = PlannedNode {
            platform_index: 0,
            scale_up_col: col,
            pressure: PressureVector::uniform(pressure),
        };
        let mut last = 0.0;
        for n in 1..=6 {
            let nodes = vec![node; n];
            let speed = est.total_speed(&nodes, None);
            prop_assert!(speed.is_finite() && speed >= 0.0);
            prop_assert!(speed >= last - 1e-9, "speed monotone in node count");
            last = speed;
        }
    }

    /// Axis quantization: the nearest scale-up column of an axis config
    /// is itself; nearest scale-out is within the axis bounds.
    #[test]
    fn axis_quantization_round_trips(cores in 1u32..64, mem in 0.5..64.0f64, n in 1usize..200) {
        let axes = axes();
        for (i, res) in axes.scale_up.iter().enumerate() {
            prop_assert_eq!(axes.nearest_scale_up(*res), i);
        }
        let col = axes.nearest_scale_up(NodeResources::new(cores, mem));
        prop_assert!(col < axes.scale_up.len());
        let so = axes.nearest_scale_out(n);
        prop_assert!(so < axes.scale_out.len());
    }

    /// Goal-kind conversions are involutions and order-preserving in the
    /// right direction.
    #[test]
    fn goal_kind_conversions(v in 0.001..1e9f64, kind_idx in 0usize..3) {
        let kind = GoalKind::ALL[kind_idx];
        let speed = kind.to_speed(v);
        prop_assert!(speed > 0.0);
        prop_assert!((kind.from_speed(speed) - v).abs() / v < 1e-9);
    }
}

proptest! {
    // Each case runs full SVD+SGD classifications; keep the case count
    // low so the suite stays fast in debug builds.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An exact-duplicate arrival hits the index and gets back exactly
    /// what a full reconstruction of the same row would produce, with
    /// runtime calibration reset to 1.0.
    #[test]
    fn exact_duplicate_hit_equals_full_reconstruction(
        kind_idx in 0usize..3,
        su in proptest::collection::vec((0usize..1000, 0.1..100.0f64), 1..3),
        he in proptest::collection::vec((0usize..1000, 0.1..100.0f64), 1..3),
    ) {
        let history = shared_history();
        let data = fold_profile(GoalKind::ALL[kind_idx], &su, &he, &[]);
        let classifier = Classifier::new();
        let mut index = SimilarityIndex::new(SimilarityConfig::enabled());
        let (first, _, o1) = index.classify_or_insert(&classifier, history, &data);
        prop_assert_eq!(o1, SimilarityOutcome::Miss);
        let (second, _, o2) = index.classify_or_insert(&classifier, history, &data);
        prop_assert_eq!(o2, SimilarityOutcome::Hit);
        prop_assert_eq!(&second, &first);
        let full = classifier.classify(history, &data);
        prop_assert_eq!(&second, &full);
        prop_assert_eq!(second.runtime_calibration, 1.0);
    }
}
