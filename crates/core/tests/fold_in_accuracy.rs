//! Fold-in against the full retrain it replaced, leave one out: each row
//! of the offline history the experiments use (local catalog, 24
//! workloads per kind) is held out in turn, one or two of its cells are
//! revealed, and both methods predict the rest from the remaining rows.
//! Every prediction must be finite, and fold-in's mean error must be no
//! larger than the retrain's on every speed axis of every goal kind from
//! one cell and from two, and over the two pressure axes of every kind
//! from two cells.
//!
//! Each axis is factored by `HistoryAxis::fit`, as classification
//! factors it. A speed axis is scored as classification uses it:
//! fold-in's speed is `exp(m − v)` from its ln-speed prediction `m` and
//! variance `v` (`Classifier::speed_axis`), and the error is the
//! relative error of the linear speed. A pressure axis is queried on the
//! /100 scale and scored in points.
//!
//! On the speed axes fold-in's error is from under a tenth to about half
//! of the retrain's. On the pressure axes fold-in is ahead on the pooled axes
//! of every kind from two cells, and behind only on `Caused` from one
//! cell (by 0.2–0.5 points), on `Rate` `Tolerated` from one cell (0.3)
//! and on `Time` `Caused` from two (0.1), so the one-cell pressure case
//! is not asserted.
//!
//! The held-out rows come from the same generator as the history, so
//! this harness measures the in-distribution case. Workloads whose
//! scale-up shape lies outside the history's rows are scored by the
//! experiments' Table 2 and Fig. 3 tests.

use quasar_cf::{DenseMatrix, Reconstructor};
use quasar_core::history::HistoryAxis;
use quasar_core::{GoalKind, HistorySet};
use quasar_workloads::PlatformCatalog;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const TRAIN_PER_KIND: usize = 24;

const AXES: [HistoryAxis; 6] = [
    HistoryAxis::ScaleUp,
    HistoryAxis::ScaleOut,
    HistoryAxis::Hetero,
    HistoryAxis::Params,
    HistoryAxis::Tolerated,
    HistoryAxis::Caused,
];

/// `m` without row `skip`.
fn without_row(m: &DenseMatrix, skip: usize) -> DenseMatrix {
    let rows: Vec<f64> = (0..m.rows())
        .filter(|&r| r != skip)
        .flat_map(|r| m.row(r).iter().copied())
        .collect();
    DenseMatrix::from_vec(m.rows() - 1, m.cols(), rows)
}

/// Mean error over the hidden cells of every held-out row with
/// `revealed` cells shown, for fold-in and for the retrain.
fn loo_errors(axis: HistoryAxis, m: &DenseMatrix, revealed: usize, rng: &mut StdRng) -> (f64, f64) {
    let pressure = axis.is_pressure();
    let scale = if pressure { 100.0 } else { 1.0 };
    let retrain = Reconstructor::new().with_clamping(false);
    let (mut fold, mut full) = (Vec::new(), Vec::new());
    for held in 0..m.rows() {
        let rest = without_row(m, held);
        let factor = axis.fit(&rest);
        let rest = DenseMatrix::from_fn(rest.rows(), rest.cols(), |r, c| rest.get(r, c) / scale);
        let truth: Vec<f64> = m.row(held).iter().map(|v| v / scale).collect();
        let mut cols: Vec<usize> = (0..m.cols()).collect();
        cols.shuffle(rng);
        let target: Vec<(usize, f64)> = cols[..revealed].iter().map(|&c| (c, truth[c])).collect();

        let folded = factor.fold_in_with_variance(&target).unwrap();
        let by_retrain = retrain.reconstruct_row(&rest, &target).unwrap();
        // Speeds: the relative-error estimate exp(m − v) against the
        // retrain's exp(m); pressures: both means.
        let by_fold_in: Vec<f64> = if pressure {
            folded.mean
        } else {
            folded
                .mean
                .iter()
                .zip(&folded.variance)
                .map(|(m, v)| m - v)
                .collect()
        };
        for (row, errors) in [(&by_fold_in, &mut fold), (&by_retrain, &mut full)] {
            assert!(row.iter().all(|v| v.is_finite()), "{row:?}");
            for &c in &cols[revealed..] {
                errors.push(if pressure {
                    (row[c] - truth[c]).abs() * scale
                } else {
                    (row[c].exp() - truth[c].exp()).abs() / truth[c].exp()
                });
            }
        }
    }
    (mean(&fold), mean(&full))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Mean errors `(fold-in, retrain)` per axis of every kind with
/// `revealed` cells shown.
fn compare(revealed: usize, seed: u64) -> Vec<(GoalKind, HistoryAxis, f64, f64)> {
    let history = HistorySet::bootstrap(&PlatformCatalog::local(), TRAIN_PER_KIND, 0x0FF1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for kind in GoalKind::ALL {
        let k = history.kind(kind);
        for axis in AXES {
            if let Some(m) = k.matrix(axis) {
                let (fold, full) = loo_errors(axis, m, revealed, &mut rng);
                out.push((kind, axis, fold, full));
            }
        }
    }
    out
}

fn assert_speed_axes(errors: &[(GoalKind, HistoryAxis, f64, f64)], revealed: usize) {
    for &(kind, axis, fold, full) in errors.iter().filter(|e| !e.1.is_pressure()) {
        assert!(
            fold <= full,
            "{kind:?} {axis:?}, {revealed} revealed: fold-in mean error {fold:.4} > retrain {full:.4}"
        );
    }
}

#[test]
fn fold_in_is_no_less_accurate_than_retrain_from_one_cell() {
    assert_speed_axes(&compare(1, 0xACC1), 1);
}

#[test]
fn fold_in_is_no_less_accurate_than_retrain_from_two_cells() {
    let errors = compare(2, 0xACC2);
    assert_speed_axes(&errors, 2);
    for kind in GoalKind::ALL {
        // Both pressure axes have one column per interference source,
        // so the mean of their means is the pooled mean.
        let (fold, full) = errors
            .iter()
            .filter(|e| e.0 == kind && e.1.is_pressure())
            .fold((0.0, 0.0), |(f, r), e| (f + e.2 / 2.0, r + e.3 / 2.0));
        assert!(
            fold <= full,
            "{kind:?} pressure: fold-in mean error {fold:.4} > retrain {full:.4}"
        );
    }
}
