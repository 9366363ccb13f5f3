//! The four parallel classifications (and the exhaustive alternative).
//!
//! Each classification places the workload's sparse profiling row against
//! the dense offline history of its goal kind (paper §3.2). The history is
//! factored once per axis (SVD of the double-centred matrix); an arrival
//! is folded in by one small ridge least-squares solve for its bias and
//! latent vector ([`quasar_cf::FoldIn`]). Speed axes are reconstructed in
//! log space; interference axes in linear pressure space. The exhaustive
//! alternative keeps the full SVD + PQ/SGD retrain.

use std::sync::OnceLock;

use quasar_cf::{DenseMatrix, FoldIn, Reconstructor};
use quasar_interference::PressureVector;
use quasar_obs::registry::{Counter, Histogram, Registry};
use quasar_obs::span::timed;

use crate::axes::{Axes, GoalKind};
use crate::history::{ln_speed, HistoryAxis, HistorySet, KindHistory};
use crate::profile::ProfilingData;

/// Registry handles for the classification metrics
/// (`quasar.core.classify.*`).
struct ClassifyMetrics {
    classifications: Counter,
    axis_us: Histogram,
    decision_us: Histogram,
    exhaustive_us: Histogram,
}

fn classify_metrics() -> &'static ClassifyMetrics {
    static METRICS: OnceLock<ClassifyMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        ClassifyMetrics {
            classifications: reg.counter("quasar.core.classify.classifications"),
            axis_us: reg.histogram_us("quasar.core.classify.axis_us"),
            decision_us: reg.histogram_us("quasar.core.classify.decision_us"),
            exhaustive_us: reg.histogram_us("quasar.core.classify.exhaustive_us"),
        }
    })
}

/// The dense output of classification: estimated performance across every
/// axis column, in linear *speed* units (higher is better), plus estimated
/// interference vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Goal kind the estimates are expressed in.
    pub kind: GoalKind,
    /// Estimated speed per scale-up column.
    pub scale_up_speed: Vec<f64>,
    /// Estimated speed per scale-out column (None for single-node).
    pub scale_out_speed: Option<Vec<f64>>,
    /// Estimated speed per platform column.
    pub hetero_speed: Vec<f64>,
    /// Estimated speed per framework-parameter column (None when the
    /// workload has no framework knobs).
    pub params_speed: Option<Vec<f64>>,
    /// Estimated tolerated pressure per interference source.
    pub tolerated: PressureVector,
    /// Estimated caused pressure per interference source.
    pub caused: PressureVector,
    /// Runtime feedback multiplier on predicted speed (paper §3.2: "a
    /// simple feedback loop that updates the matrix entries when the
    /// performance measured at runtime deviates from the one estimated
    /// through classification"; it also covers scaling past the node
    /// counts profiling can reach). Starts at 1.0; the manager adjusts it
    /// from live measurements.
    pub runtime_calibration: f64,
}

/// The output of one axis task: a speed axis (`None` when the workload
/// lacks it), or the interference task's tolerated and caused pressures.
// Five of these exist per decision and each is moved once; boxing the
// interference pair would cost a heap allocation per decision instead.
#[allow(clippy::large_enum_variant)]
enum AxisOut {
    Speed(Option<Vec<f64>>),
    Pressure(PressureVector, PressureVector),
}

/// Runs the four parallel classifications.
#[derive(Debug, Clone)]
pub struct Classifier {
    threads: usize,
}

impl Default for Classifier {
    fn default() -> Classifier {
        Classifier { threads: 1 }
    }
}

impl Classifier {
    /// A classifier running its axis classifications serially.
    pub fn new() -> Classifier {
        Classifier::default()
    }

    /// Fans the per-axis classifications out over up to `threads` OS
    /// threads (paper §3.2 runs the four classifications concurrently).
    /// Every axis is a pure function of `(history, data)`, so the
    /// result is bit-identical to serial execution; only the wall-clock
    /// time changes. `threads <= 1` keeps the serial path.
    pub fn with_threads(mut self, threads: usize) -> Classifier {
        self.threads = threads.max(1);
        self
    }

    /// The configured fan-out width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Classifies one workload from its profiling signal against the
    /// offline history.
    pub fn classify(&self, history: &HistorySet, data: &ProfilingData) -> Classification {
        self.classify_timed(history, data).0
    }

    /// [`Classifier::classify`] plus the wall-clock decision time of the
    /// *parallel* scheme: the four classifications run concurrently
    /// (paper §3.2), so the decision latency is the maximum over the
    /// per-axis reconstruction times, returned in microseconds.
    ///
    /// The reported decision time is always the max over per-axis times
    /// (the parallel scheme's latency model), independent of whether
    /// this process actually ran the axes on one thread or several.
    pub fn classify_timed(
        &self,
        history: &HistorySet,
        data: &ProfilingData,
    ) -> (Classification, f64) {
        let kind = data.kind;
        let k: &KindHistory = history.kind(kind);
        let _decision_span = quasar_obs::span!("core.classify.decision");

        // The speed axes: span name, history (absent when the workload
        // kind lacks the axis), observations.
        let speed_axes = [
            (
                "core.classify.scale_up",
                HistoryAxis::ScaleUp,
                &data.scale_up,
            ),
            ("core.classify.hetero", HistoryAxis::Hetero, &data.hetero),
            (
                "core.classify.scale_out",
                HistoryAxis::ScaleOut,
                &data.scale_out,
            ),
            ("core.classify.params", HistoryAxis::Params, &data.params),
        ];

        // Each axis runs under a `timed` span: the span carries the
        // per-axis wall time into traces, and the returned microseconds
        // feed the registry histograms and the decision-latency model
        // below (no ad-hoc `Instant::now()` bookkeeping).
        type AxisTask<'a> = Box<dyn FnOnce() -> (AxisOut, f64) + Send + 'a>;
        let mut tasks: Vec<AxisTask<'_>> = Vec::with_capacity(speed_axes.len() + 1);
        for (span, axis, observed) in speed_axes {
            tasks.push(Box::new(move || {
                timed(span, || {
                    AxisOut::Speed(
                        k.factor(axis)
                            .and_then(|model| self.speed_axis(kind, model, observed)),
                    )
                })
            }));
        }
        tasks.push(Box::new(move || {
            timed("core.classify.interference", || {
                AxisOut::Pressure(
                    self.pressure_axis(k, HistoryAxis::Tolerated, &data.tolerated),
                    self.pressure_axis(k, HistoryAxis::Caused, &data.caused),
                )
            })
        }));

        let results = crate::par::par_invoke(self.threads, tasks);
        let wall_us = results.iter().map(|(_, us)| *us).fold(0.0, f64::max);
        let metrics = classify_metrics();
        metrics.classifications.inc();
        for (_, us) in &results {
            metrics.axis_us.record(*us);
        }
        metrics.decision_us.record(wall_us);

        // `par_invoke` returns outputs in task order.
        let mut speeds: [Option<Vec<f64>>; 4] = Default::default();
        let mut pressure = None;
        for (slot, (out, _)) in results.into_iter().enumerate() {
            match out {
                AxisOut::Speed(row) => speeds[slot] = row,
                AxisOut::Pressure(tolerated, caused) => pressure = Some((tolerated, caused)),
            }
        }
        let [scale_up, hetero, scale_out, params] = speeds;
        let (tolerated, caused) = pressure.expect("interference task ran");

        (
            Classification {
                kind,
                scale_up_speed: scale_up.unwrap_or_else(|| unobserved_speeds(&k.scale_up)),
                scale_out_speed: scale_out,
                hetero_speed: hetero.unwrap_or_else(|| unobserved_speeds(&k.hetero)),
                params_speed: params,
                tolerated,
                caused,
                runtime_calibration: 1.0,
            },
            wall_us,
        )
    }

    /// Reconstructs one speed axis: goal-value observations → ln-speed
    /// row → folded into the axis's history factor → linear speeds.
    /// Observations [`usable_ln_speeds`] drops are ignored; `None` when
    /// nothing usable is left.
    ///
    /// An unobserved column's speed is `exp(m − v)` for the fold-in's
    /// ln-speed prediction `m` and its variance `v`: when the ln-speed
    /// is normal, that is the estimate with the least expected relative
    /// error `|ŝ − s| / s`, the error the planner pays for (and Table 2
    /// and Fig. 3 score). `exp(m)` would be the median, which
    /// overestimates the speed of the configurations the row says least
    /// about. Observed columns keep their measurement.
    fn speed_axis(
        &self,
        kind: GoalKind,
        model: &FoldIn,
        observed: &[(usize, f64)],
    ) -> Option<Vec<f64>> {
        let target: Vec<(usize, f64)> = usable_ln_speeds(kind, observed).collect();
        if target.is_empty() {
            return None;
        }
        let row = model
            .fold_in_with_variance(&target)
            .expect("target is non-empty, finite and in range");
        Some(
            row.mean
                .iter()
                .zip(&row.variance)
                .map(|(m, v)| (m - v).exp())
                .collect(),
        )
    }

    /// Reconstructs one interference axis (`Tolerated` or `Caused`) of
    /// `history`. Pressure values live on a 0–100 scale; the axis factor
    /// is fitted on [0, 1] (see [`KindHistory::factor`]), so observations
    /// are scaled down and the row scaled back. Observations
    /// [`usable_pressures`] drops are ignored; an axis left with none
    /// falls back to a uniform estimate.
    pub(crate) fn pressure_axis(
        &self,
        history: &KindHistory,
        axis: HistoryAxis,
        observed: &[(usize, f64)],
    ) -> PressureVector {
        let scaled_observed: Vec<(usize, f64)> = usable_pressures(observed)
            .map(|(c, v)| (c, v / PressureVector::MAX))
            .collect();
        if scaled_observed.is_empty() {
            return PressureVector::uniform(PressureVector::MAX / 2.0);
        }
        let row = history
            .factor(axis)
            .expect("every kind has both pressure axes")
            .fold_in(&scaled_observed)
            .expect("target is non-empty, finite and in range");
        let mut v = PressureVector::zero();
        for (i, value) in row.into_iter().enumerate() {
            v.set(
                quasar_interference::SharedResource::from_index(i),
                value * PressureVector::MAX,
            );
        }
        v
    }
}

/// A speed axis's usable observations as `(column, ln-speed)`.
/// Profiling measurements come from outside this crate, so a non-finite
/// goal value, or one whose ln-speed overflows, is dropped. The
/// similarity signature quantizes exactly these observations.
pub(crate) fn usable_ln_speeds(
    kind: GoalKind,
    observed: &[(usize, f64)],
) -> impl Iterator<Item = (usize, f64)> + '_ {
    observed
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(move |&(c, v)| (c, ln_speed(kind, v)))
        .filter(|(_, s)| s.is_finite())
}

/// An interference axis's usable observations, on the raw 0–100 scale:
/// the finite ones. The similarity signature quantizes exactly these.
pub(crate) fn usable_pressures(
    observed: &[(usize, f64)],
) -> impl Iterator<Item = (usize, f64)> + '_ {
    observed.iter().copied().filter(|(_, v)| v.is_finite())
}

/// The estimate for a scale-up or heterogeneity axis left without a
/// usable observation: the column means of the kind's (ln-speed)
/// history, exponentiated.
fn unobserved_speeds(history: &DenseMatrix) -> Vec<f64> {
    history.col_means().into_iter().map(f64::exp).collect()
}

/// The single exhaustive classification the paper compares against
/// (§3.2, "multiple parallel versus single exhaustive classification"):
/// one matrix whose columns are joint (platform × scale-up × scale-out)
/// vectors. More robust to cross-term pathologies, but the column count
/// explodes and decision time rises by orders of magnitude (Fig. 3e).
#[derive(Debug, Clone)]
pub struct ExhaustiveClassifier {
    reconstructor: Reconstructor,
    /// The joint columns: (platform index, scale-up column, scale-out column).
    columns: Vec<(usize, usize, usize)>,
}

impl ExhaustiveClassifier {
    /// Builds the joint column space from the axes, subsampled to keep the
    /// matrix tractable: every platform × a spread of scale-up configs ×
    /// small node counts.
    pub fn new(axes: &Axes) -> ExhaustiveClassifier {
        // The whole scale-up grid joins the cross product: this is what
        // makes the exhaustive scheme's matrices explode (Fig. 3e).
        let su_cols: Vec<usize> = (0..axes.scale_up.len()).collect();
        let so_cols: Vec<usize> = axes
            .scale_out
            .iter()
            .enumerate()
            .filter(|(_, &n)| n <= 4)
            .map(|(i, _)| i)
            .collect();
        let mut columns = Vec::new();
        for p in 0..axes.platforms.len() {
            for &su in &su_cols {
                for &so in &so_cols {
                    columns.push((p, su, so));
                }
            }
        }
        ExhaustiveClassifier {
            reconstructor: Reconstructor::new(),
            columns,
        }
    }

    /// The joint columns.
    pub fn columns(&self) -> &[(usize, usize, usize)] {
        &self.columns
    }

    /// Reconstructs the full joint row from sparse joint observations
    /// (`(column index, ln-speed)`), given a dense joint history.
    ///
    /// # Panics
    ///
    /// Panics if `observed` is empty.
    pub fn classify_row(&self, history: &DenseMatrix, observed: &[(usize, f64)]) -> Vec<f64> {
        self.classify_row_timed(history, observed).0
    }

    /// [`ExhaustiveClassifier::classify_row`] plus its wall-clock
    /// decision time in microseconds, recorded as a
    /// `core.classify.exhaustive` span and into the
    /// `quasar.core.classify.exhaustive_us` histogram (Fig. 3e compares
    /// this latency against the parallel scheme's).
    ///
    /// # Panics
    ///
    /// Panics if `observed` is empty.
    pub fn classify_row_timed(
        &self,
        history: &DenseMatrix,
        observed: &[(usize, f64)],
    ) -> (Vec<f64>, f64) {
        assert!(!observed.is_empty(), "need at least one observation");
        let (row, us) = timed("core.classify.exhaustive", || {
            self.reconstructor
                .reconstruct_row(history, observed)
                .expect("dense history, non-empty target")
        });
        classify_metrics().exhaustive_us.record(us);
        (row, us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_cluster::{managers::NullManager, ClusterSpec, SimConfig, Simulation};
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{Dataset, PlatformCatalog, Priority, WorkloadClass};

    use crate::profile::Profiler;

    /// End-to-end: profile a fresh workload sparsely and check the
    /// classification predicts the (noiseless) ground truth measured
    /// through full profiling.
    #[test]
    fn classification_predicts_unseen_columns() {
        let catalog = PlatformCatalog::local();
        let history = HistorySet::bootstrap(&catalog, 12, 77);
        let axes = history.axes().clone();

        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(NullManager),
            SimConfig {
                noise: 0.0,
                ..SimConfig::default()
            },
        );
        let mut generator = Generator::new(catalog.clone(), 123);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "probe",
            Dataset::new("d", 25.0, 1.1),
            2,
            900.0,
            Priority::Guaranteed,
        );
        let id = job.id();
        sim.submit_at(job, 0.0);
        sim.run_until(5.0);

        let mut profiler = Profiler::new(2, 9);
        let data = profiler.profile(sim.world_mut(), &axes, id);
        let class = Classifier::new().classify(&history, &data);

        // Compare estimated vs measured across the heterogeneity axis.
        let mut errors = Vec::new();
        for (col, &pid) in axes.platforms.iter().enumerate() {
            let config = quasar_cluster::ProfileConfig::single(pid, axes.anchor());
            let actual = sim.world_mut().profile_config(id, &config).value;
            let actual_speed = GoalKind::Time.to_speed(actual);
            let rel = (class.hetero_speed[col] - actual_speed).abs() / actual_speed;
            errors.push(rel);
        }
        let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(
            mean_err < 0.30,
            "mean heterogeneity error {mean_err:.2} too high; errors {errors:?}"
        );
    }

    /// Fanning the axis classifications out over worker threads produces
    /// *bit-identical* output to the serial path, for every thread count,
    /// whether the worker threads build the history's lazy axis factors
    /// or find them built.
    #[test]
    fn parallel_classification_is_bit_identical_to_serial() {
        let catalog = PlatformCatalog::local();
        let history = HistorySet::bootstrap(&catalog, 8, 41);
        let axes = history.axes().clone();

        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(NullManager),
            SimConfig::default(),
        );
        let mut generator = Generator::new(catalog.clone(), 7);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "det-probe",
            Dataset::new("d", 12.0, 1.0),
            2,
            600.0,
            Priority::Guaranteed,
        );
        let id = job.id();
        sim.submit_at(job, 0.0);
        sim.run_until(5.0);
        let data = Profiler::new(2, 9).profile(sim.world_mut(), &axes, id);

        let unfactored = history.clone();
        let serial = Classifier::new().with_threads(1).classify(&history, &data);
        let cold = Classifier::new()
            .with_threads(4)
            .classify(&unfactored, &data);
        assert_eq!(serial, cold, "classification diverged on a cold history");
        for threads in [2, 4, 8] {
            let parallel = Classifier::new()
                .with_threads(threads)
                .classify(&history, &data);
            assert_eq!(
                serial, parallel,
                "classification diverged at {threads} threads"
            );
            // Byte-level check on the float vectors, not just PartialEq
            // (which would conflate -0.0 with 0.0 and panic on NaN).
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&serial.scale_up_speed), bits(&parallel.scale_up_speed));
            assert_eq!(bits(&serial.hetero_speed), bits(&parallel.hetero_speed));
        }
    }

    #[test]
    fn empty_interference_observations_fall_back() {
        let catalog = PlatformCatalog::local();
        let history = HistorySet::bootstrap(&catalog, 3, 5);
        let data = ProfilingData {
            kind: GoalKind::Rate,
            scale_up: vec![(0, 100.0)],
            scale_out: vec![],
            hetero: vec![(0, 90.0)],
            params: vec![],
            tolerated: vec![],
            caused: vec![],
            wall_seconds: 1.0,
            total_seconds: 1.0,
        };
        let class = Classifier::new().classify(&history, &data);
        assert!(
            class
                .tolerated
                .get(quasar_interference::SharedResource::Cpu)
                > 0.0
        );
    }

    /// Regression: a NaN pressure point or an `inf` rate used to reach
    /// the reconstructor and panic on its `InvalidObservation` error.
    /// Non-finite observations are dropped; the finite rest classifies
    /// exactly as if they had never been reported.
    #[test]
    fn non_finite_observations_are_dropped() {
        let catalog = PlatformCatalog::local();
        let history = HistorySet::bootstrap(&catalog, 3, 5);
        let clean = ProfilingData {
            kind: GoalKind::Rate,
            scale_up: vec![(0, 100.0), (2, 140.0)],
            scale_out: vec![],
            hetero: vec![(0, 90.0)],
            params: vec![],
            tolerated: vec![(0, 40.0)],
            caused: vec![],
            wall_seconds: 1.0,
            total_seconds: 1.0,
        };
        let dirty = ProfilingData {
            scale_up: vec![(0, 100.0), (1, f64::INFINITY), (2, 140.0)],
            hetero: vec![(0, f64::NAN), (1, f64::INFINITY)],
            tolerated: vec![(0, 40.0), (1, f64::NAN)],
            caused: vec![(0, f64::NAN)],
            ..clean.clone()
        };
        let classifier = Classifier::new();
        let expected = classifier.classify(&history, &clean);
        let class = classifier.classify(&history, &dirty);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&class.scale_up_speed), bits(&expected.scale_up_speed));
        assert_eq!(class.tolerated, expected.tolerated);
        // Nothing finite left: the unobserved fallbacks.
        assert_eq!(class.caused, expected.caused);
        let k = history.kind(GoalKind::Rate);
        assert_eq!(class.hetero_speed, unobserved_speeds(&k.hetero));
        assert!(class.hetero_speed.iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn exhaustive_columns_cover_all_platforms() {
        let axes = Axes::for_catalog(&PlatformCatalog::local());
        let ex = ExhaustiveClassifier::new(&axes);
        let platforms: std::collections::BTreeSet<usize> =
            ex.columns().iter().map(|&(p, _, _)| p).collect();
        assert_eq!(platforms.len(), axes.platforms.len());
        assert!(
            ex.columns().len() > axes.scale_up.len(),
            "joint space is bigger than any single axis"
        );
    }
}
