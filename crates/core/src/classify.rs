//! The four parallel classifications (and the exhaustive alternative).
//!
//! Each classification appends the workload's sparse profiling row to the
//! dense offline history of its goal kind and reconstructs the missing
//! entries with SVD + PQ/SGD (paper §3.2). Speed axes are reconstructed in
//! log space; interference axes in linear pressure space.

use std::sync::OnceLock;

use quasar_cf::{DenseMatrix, PqModel, Reconstructor};
use quasar_interference::PressureVector;
use quasar_obs::registry::{Counter, Histogram, Registry};
use quasar_obs::span::timed;

use crate::axes::{Axes, GoalKind};
use crate::history::{ln_speed, HistorySet, KindHistory};
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

/// The per-axis latent-factor models behind one [`Classification`],
/// captured so the similarity index can warm-start SGD for a later,
/// similar arrival ([`Classifier::classify_warm`]) instead of paying
/// the SVD initialization again.
///
/// Axes that were not reconstructed carry `None`: scale-out/params when
/// the workload lacks them, and any axis profiling left without a finite
/// observation (those take a fallback estimate without training
/// anything).
#[derive(Debug, Clone)]
pub struct AxisModels {
    /// Scale-up axis model.
    pub scale_up: Option<PqModel>,
    /// Heterogeneity axis model.
    pub hetero: Option<PqModel>,
    /// Scale-out axis model.
    pub scale_out: Option<PqModel>,
    /// Framework-parameter axis model.
    pub params: Option<PqModel>,
    /// Tolerated-pressure axis model.
    pub tolerated: Option<PqModel>,
    /// Caused-pressure axis model.
    pub caused: Option<PqModel>,
}

/// One reconstructed axis in its own units, plus the trained model when
/// the caller keeps it.
type AxisRow<T> = (T, Option<PqModel>);

/// The output of one axis task: a speed axis (`None` when the workload
/// lacks it), or the interference task's tolerated and caused pressures.
// Five of these exist per decision and each is moved once; boxing the
// interference pair would cost a heap allocation per decision instead.
#[allow(clippy::large_enum_variant)]
enum AxisOut {
    Speed(Option<AxisRow<Vec<f64>>>),
    Pressure(AxisRow<PressureVector>, AxisRow<PressureVector>),
}

/// Runs the four parallel classifications.
#[derive(Debug, Clone)]
pub struct Classifier {
    reconstructor: Reconstructor,
    threads: usize,
}

impl Default for Classifier {
    fn default() -> Classifier {
        Classifier {
            // Clamping stays off here: every tracked figure and outcome
            // digest was produced by unclamped axis reconstructions.
            reconstructor: Reconstructor::new().with_clamping(false),
            threads: 1,
        }
    }
}

impl Classifier {
    /// A classifier with default SGD hyper-parameters, running its axis
    /// classifications serially.
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
        self.classify_inner(history, data, None, false).0
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
        let (class, wall_us, _) = self.classify_inner(history, data, None, false);
        (class, wall_us)
    }

    /// [`Classifier::classify_timed`] that also captures the trained
    /// per-axis models, so the caller (the similarity index) can store
    /// them for later warm starts. The [`Classification`] is the one
    /// [`Classifier::classify`] returns.
    pub fn classify_with_models(
        &self,
        history: &HistorySet,
        data: &ProfilingData,
    ) -> (Classification, f64, AxisModels) {
        let (class, wall_us, models) = self.classify_inner(history, data, None, true);
        (class, wall_us, models.expect("models were kept"))
    }

    /// Classifies with every axis's SGD warm-started from a similar
    /// neighbor's captured models (skipping the SVD initialization), and
    /// captures the newly trained models in turn. Axes whose neighbor
    /// model is absent or shape-incompatible fall back to a cold train.
    pub fn classify_warm(
        &self,
        history: &HistorySet,
        data: &ProfilingData,
        warm: &AxisModels,
    ) -> (Classification, f64, AxisModels) {
        let (class, wall_us, models) = self.classify_inner(history, data, Some(warm), true);
        (class, wall_us, models.expect("models were kept"))
    }

    /// The one classification driver: the five-task fan-out, the
    /// decision-latency model, and the metrics. With `keep_models` the
    /// per-axis models come back as [`AxisModels`]; without, each task
    /// drops its model.
    fn classify_inner(
        &self,
        history: &HistorySet,
        data: &ProfilingData,
        warm: Option<&AxisModels>,
        keep_models: bool,
    ) -> (Classification, f64, Option<AxisModels>) {
        let kind = data.kind;
        let k: &KindHistory = history.kind(kind);
        let _decision_span = quasar_obs::span!("core.classify.decision");

        // The speed axes: span name, history (absent when the workload
        // kind lacks the axis), observations, neighbor model.
        let speed_axes = [
            (
                "core.classify.scale_up",
                Some(&k.scale_up),
                &data.scale_up,
                warm.and_then(|w| w.scale_up.as_ref()),
            ),
            (
                "core.classify.hetero",
                Some(&k.hetero),
                &data.hetero,
                warm.and_then(|w| w.hetero.as_ref()),
            ),
            (
                "core.classify.scale_out",
                k.scale_out.as_ref(),
                &data.scale_out,
                warm.and_then(|w| w.scale_out.as_ref()),
            ),
            (
                "core.classify.params",
                k.params.as_ref(),
                &data.params,
                warm.and_then(|w| w.params.as_ref()),
            ),
        ];

        // Each axis runs under a `timed` span: the span carries the
        // per-axis wall time into traces, and the returned microseconds
        // feed the registry histograms and the decision-latency model
        // below (no ad-hoc `Instant::now()` bookkeeping).
        type AxisTask<'a> = Box<dyn FnOnce() -> (AxisOut, f64) + Send + 'a>;
        let mut tasks: Vec<AxisTask<'_>> = Vec::with_capacity(speed_axes.len() + 1);
        for (span, axis_history, observed, axis_warm) in speed_axes {
            tasks.push(Box::new(move || {
                timed(span, || {
                    AxisOut::Speed(
                        axis_history.and_then(|m| {
                            self.speed_axis(kind, m, observed, axis_warm, keep_models)
                        }),
                    )
                })
            }));
        }
        tasks.push(Box::new(move || {
            timed("core.classify.interference", || {
                AxisOut::Pressure(
                    self.pressure_axis(
                        &k.tolerated,
                        &data.tolerated,
                        warm.and_then(|w| w.tolerated.as_ref()),
                        keep_models,
                    ),
                    self.pressure_axis(
                        &k.caused,
                        &data.caused,
                        warm.and_then(|w| w.caused.as_ref()),
                        keep_models,
                    ),
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
        let mut speeds: [Option<AxisRow<Vec<f64>>>; 4] = Default::default();
        let mut pressure = None;
        for (slot, (out, _)) in results.into_iter().enumerate() {
            match out {
                AxisOut::Speed(row) => speeds[slot] = row,
                AxisOut::Pressure(tolerated, caused) => pressure = Some((tolerated, caused)),
            }
        }
        let [scale_up, hetero, scale_out, params] =
            speeds.map(|row| row.map_or((None, None), |(speed, model)| (Some(speed), model)));
        let ((tolerated, tolerated_model), (caused, caused_model)) =
            pressure.expect("interference task ran");

        (
            Classification {
                kind,
                scale_up_speed: scale_up.0.unwrap_or_else(|| unobserved_speeds(&k.scale_up)),
                scale_out_speed: scale_out.0,
                hetero_speed: hetero.0.unwrap_or_else(|| unobserved_speeds(&k.hetero)),
                params_speed: params.0,
                tolerated,
                caused,
                runtime_calibration: 1.0,
            },
            wall_us,
            keep_models.then_some(AxisModels {
                scale_up: scale_up.1,
                hetero: hetero.1,
                scale_out: scale_out.1,
                params: params.1,
                tolerated: tolerated_model,
                caused: caused_model,
            }),
        )
    }

    /// Reconstructs `target` against `history`, warm-started from `warm`
    /// when given. The model comes back only with `keep_model`.
    fn reconstruct_axis(
        &self,
        history: &DenseMatrix,
        target: &[(usize, f64)],
        warm: Option<&PqModel>,
        keep_model: bool,
    ) -> AxisRow<Vec<f64>> {
        let r = &self.reconstructor;
        match (warm, keep_model) {
            (Some(w), _) => r
                .reconstruct_row_warm(history, target, w)
                .map(|(row, m)| (row, Some(m))),
            (None, true) => r
                .reconstruct_row_with_model(history, target)
                .map(|(row, m)| (row, Some(m))),
            (None, false) => r.reconstruct_row(history, target).map(|row| (row, None)),
        }
        .expect("history is dense; target is non-empty, finite and in range")
    }

    /// Reconstructs one speed axis: goal-value observations → ln-speed
    /// row → CF against history → linear speeds. Profiling measurements
    /// come from outside this crate, so non-finite ones (a NaN or `inf`
    /// goal value, or one whose ln-speed overflows) are dropped; `None`
    /// when nothing usable is left.
    fn speed_axis(
        &self,
        kind: GoalKind,
        history: &DenseMatrix,
        observed: &[(usize, f64)],
        warm: Option<&PqModel>,
        keep_model: bool,
    ) -> Option<AxisRow<Vec<f64>>> {
        let target: Vec<(usize, f64)> = observed
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|&(c, v)| (c, ln_speed(kind, v)))
            .filter(|(_, s)| s.is_finite())
            .collect();
        if target.is_empty() {
            return None;
        }
        let (row, model) = self.reconstruct_axis(history, &target, warm, keep_model);
        Some((row.into_iter().map(f64::exp).collect(), model))
    }

    /// Reconstructs one interference axis. Pressure values live on a
    /// 0–100 scale; they are normalized into [0, 1] for the SGD pass
    /// (whose learning rate is tuned for unit-scale data) and scaled back.
    /// Non-finite observations are dropped; an axis left with none falls
    /// back to a uniform estimate and trains nothing.
    fn pressure_axis(
        &self,
        history: &DenseMatrix,
        observed: &[(usize, f64)],
        warm: Option<&PqModel>,
        keep_model: bool,
    ) -> AxisRow<PressureVector> {
        let scaled_observed: Vec<(usize, f64)> = observed
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|&(c, v)| (c, v / PressureVector::MAX))
            .collect();
        if scaled_observed.is_empty() {
            return (PressureVector::uniform(PressureVector::MAX / 2.0), None);
        }
        let scaled_history = DenseMatrix::from_fn(history.rows(), history.cols(), |r, c| {
            history.get(r, c) / PressureVector::MAX
        });
        let (row, model) =
            self.reconstruct_axis(&scaled_history, &scaled_observed, warm, keep_model);
        let mut v = PressureVector::zero();
        for (i, value) in row.into_iter().enumerate() {
            v.set(
                quasar_interference::SharedResource::from_index(i),
                value * PressureVector::MAX,
            );
        }
        (v, model)
    }
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

    /// The tentpole guarantee: fanning the axis classifications out over
    /// worker threads produces *bit-identical* output to the serial path
    /// on the same seed, for every thread count.
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

        let serial = Classifier::new().with_threads(1).classify(&history, &data);
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

        // The runs above read SGD visit schedules the serial run had
        // already memoised. With an SGD seed nothing else in this test
        // process trains with, the four threads go first and race to
        // build theirs; the serial run then reads what they left.
        for seed in [0xc01d_0001_u64, 0xc01d_0002] {
            let seeded = |threads: usize| Classifier {
                reconstructor: Reconstructor::new()
                    .with_config(quasar_cf::SgdConfig {
                        seed,
                        ..quasar_cf::SgdConfig::default()
                    })
                    .with_clamping(false),
                threads,
            };
            let raced = seeded(4).classify(&history, &data);
            let serial = seeded(1).classify(&history, &data);
            assert_eq!(raced, serial, "cold-memo classification diverged");
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
        // The models-keeping entry point takes the same fallbacks.
        let (with_models, _, models) = classifier.classify_with_models(&history, &dirty);
        assert_eq!(with_models, class);
        assert!(models.scale_up.is_some() && models.hetero.is_none());
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
