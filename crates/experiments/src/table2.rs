//! Table 2: validation of the classification engine — average, 90th
//! percentile, and maximum relative errors per application class and per
//! classification (plus the single exhaustive classification).

use std::fmt;

use quasar_core::par::par_map_seeded;

use crate::report::{maximum, mean, percentile, TextTable};
use crate::validate::{AppClass, ErrorSamples, Validator};
use crate::{local_history, Scale};

/// avg / 90th / max summary of one error-sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorSummary {
    /// Mean relative error.
    pub avg: f64,
    /// 90th-percentile relative error.
    pub p90: f64,
    /// Maximum relative error.
    pub max: f64,
}

impl ErrorSummary {
    /// Summarizes raw samples.
    pub fn of(samples: &[f64]) -> ErrorSummary {
        ErrorSummary {
            avg: mean(samples),
            p90: percentile(samples, 0.90),
            max: maximum(samples),
        }
    }
}

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Application class name.
    pub app: String,
    /// Number of validated workloads.
    pub count: usize,
    /// Scale-up classification errors.
    pub scale_up: ErrorSummary,
    /// Scale-out classification errors (`None` for single-node).
    pub scale_out: Option<ErrorSummary>,
    /// Heterogeneity classification errors.
    pub hetero: ErrorSummary,
    /// Interference classification errors.
    pub interference: ErrorSummary,
    /// Single exhaustive classification errors.
    pub exhaustive: ErrorSummary,
}

/// The Table 2 dataset.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// One row per application class.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// The worst average error across classes and the four parallel
    /// classifications (the paper quotes < 8% on average).
    pub fn worst_parallel_avg(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| {
                [
                    r.scale_up.avg,
                    r.scale_out.map(|s| s.avg).unwrap_or(0.0),
                    r.hetero.avg,
                    r.interference.avg,
                ]
            })
            .fold(0.0, f64::max)
    }
}

/// Runs the validation, fanning workloads out over up to `threads`
/// workers. Each workload item is validated in its own twin worlds with
/// RNG streams seeded from `(sweep seed, item index)` alone, so the
/// result is bit-identical for every thread count.
pub fn run_with(scale: Scale, threads: usize) -> Table2Result {
    let per_class = match scale {
        Scale::Quick => 6,
        Scale::Full => 10,
    };
    let single_node = match scale {
        Scale::Quick => 20,
        Scale::Full => 413,
    };
    let validator = Validator::new(local_history(), 0x7AB2);

    let classes = [
        (AppClass::Hadoop, per_class),
        (AppClass::Memcached, per_class),
        (AppClass::Webserver, per_class),
        (AppClass::SingleNode, single_node),
    ];

    let mut rows = Vec::new();
    for (app, count) in classes {
        let sweep_seed = 0x7AB2u64 ^ ((app as u64) << 32);
        let per_item = par_map_seeded(threads, sweep_seed, (0..count).collect(), |i, seed, _| {
            let workload = validator.generate(app, i);
            validator.validate_item(seed, workload, 2, true)
        });
        let mut samples = ErrorSamples::default();
        for s in &per_item {
            samples.merge(s);
        }
        rows.push(Table2Row {
            app: format!("{} ({count})", app.name()),
            count,
            scale_up: ErrorSummary::of(&samples.scale_up),
            scale_out: if samples.scale_out.is_empty() {
                None
            } else {
                Some(ErrorSummary::of(&samples.scale_out))
            },
            hetero: ErrorSummary::of(&samples.hetero),
            interference: ErrorSummary::of(&samples.interference),
            exhaustive: ErrorSummary::of(&samples.exhaustive),
        });
    }

    Table2Result { rows }
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t =
            TextTable::new("Table 2: classification errors (relative, %) — avg / 90th / max")
                .header([
                    "app",
                    "scale-up",
                    "scale-out",
                    "heterogeneity",
                    "interference",
                    "exhaustive(8/row)",
                ]);
        let cell = |s: &ErrorSummary| {
            format!(
                "{:.1}/{:.1}/{:.1}",
                s.avg * 100.0,
                s.p90 * 100.0,
                s.max * 100.0
            )
        };
        for r in &self.rows {
            t.row([
                r.app.clone(),
                cell(&r.scale_up),
                r.scale_out
                    .as_ref()
                    .map(&cell)
                    .unwrap_or_else(|| "-".into()),
                cell(&r.hetero),
                cell(&r.interference),
                cell(&r.exhaustive),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sweep-level determinism: validating a batch of workloads on 4
    /// worker threads produces bit-identical error samples to 1 thread.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let validator = Validator::new(local_history(), 0x7AB2);
        let sweep = |threads: usize| {
            par_map_seeded(threads, 0xD15C, (0..6).collect(), |i, seed, _| {
                let workload = validator.generate(AppClass::SingleNode, i);
                validator.validate_item(seed, workload, 2, false)
            })
        };
        let serial = sweep(1);
        let parallel = sweep(4);
        assert_eq!(serial.len(), parallel.len());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(bits(&s.scale_up), bits(&p.scale_up));
            assert_eq!(bits(&s.hetero), bits(&p.hetero));
            assert_eq!(bits(&s.interference), bits(&p.interference));
            assert_eq!(bits(&s.profile_wall_s), bits(&p.profile_wall_s));
        }
    }

    #[test]
    fn classification_errors_are_small() {
        let r = run_with(Scale::Quick, 1);
        assert_eq!(r.rows.len(), 4);
        // The paper's average errors are < 8%; the simulated substrate's
        // response surfaces are deliberately more violent (memory cliffs,
        // in-memory bonuses), so the bounds here are looser — what matters
        // is that every classification is usefully accurate and that the
        // well-structured axes (heterogeneity, interference) are tight.
        // Fold-in measures a worst row average of 20.9% (Webserver
        // scale-up), at most 13.4% on scale-out, 3.2% on heterogeneity
        // and 15.4% on interference.
        let worst = r.worst_parallel_avg();
        assert!(
            worst < 0.40,
            "worst avg parallel error {:.1}%",
            worst * 100.0
        );
        for row in &r.rows {
            if let Some(scale_out) = &row.scale_out {
                assert!(
                    scale_out.avg < 0.28,
                    "{}: scale-out avg {:.1}%",
                    row.app,
                    scale_out.avg * 100.0
                );
            }
            assert!(
                row.hetero.avg < 0.07,
                "{}: hetero avg {:.1}%",
                row.app,
                row.hetero.avg * 100.0
            );
            assert!(
                row.interference.avg < 0.20,
                "{}: interference avg {:.1}%",
                row.app,
                row.interference.avg * 100.0
            );
        }
        // Single-node has no scale-out column.
        assert!(r.rows[3].scale_out.is_none());
        assert!(r.rows[0].scale_out.is_some());
    }
}
