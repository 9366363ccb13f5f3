//! The end-to-end reconstruction pipeline used by Quasar's classifier.

use std::error::Error;
use std::fmt;

use crate::dense::DenseMatrix;
use crate::pq::{PqModel, SgdConfig};
use crate::sparse::SparseMatrix;

/// Error returned when a sparse matrix cannot be reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconstructError {
    /// The matrix has no observed entries at all.
    Empty,
    /// A row that must be predicted has no observations and no other row
    /// can anchor it (matrix has a single row).
    Unanchored,
    /// A target observation is not finite, or names a column the history
    /// does not have.
    InvalidObservation {
        /// The offending observation's column.
        col: usize,
    },
}

impl fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconstructError::Empty => write!(f, "matrix has no observed entries"),
            ReconstructError::Unanchored => {
                write!(f, "row cannot be anchored without other observations")
            }
            ReconstructError::InvalidObservation { col } => {
                write!(
                    f,
                    "observation at column {col} is non-finite or out of range"
                )
            }
        }
    }
}

impl Error for ReconstructError {}

/// End-to-end collaborative-filtering reconstruction: mean-fill → SVD →
/// PQ initialization → SGD → prediction, with optional clamping of the
/// predictions to the observed value range.
///
/// This is the "classification" primitive of the paper: given a sparse
/// matrix whose rows are workloads and whose columns are configurations,
/// produce the dense matrix of estimated performance.
///
/// # Examples
///
/// ```
/// use quasar_cf::{Reconstructor, SparseMatrix};
///
/// let mut a = SparseMatrix::new(4, 3);
/// for r in 0..4 {
///     for c in 0..3 {
///         if r != 2 || c != 1 {
///             a.insert(r, c, (r + 1) as f64 * (c + 1) as f64);
///         }
///     }
/// }
/// let dense = Reconstructor::new().reconstruct(&a);
/// assert!((dense.get(2, 1) - 6.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Reconstructor {
    config: SgdConfig,
    clamp_to_observed: bool,
}

impl Default for Reconstructor {
    fn default() -> Reconstructor {
        Reconstructor::new()
    }
}

impl Reconstructor {
    /// Creates a reconstructor with default SGD hyper-parameters and
    /// clamping enabled.
    pub fn new() -> Reconstructor {
        Reconstructor {
            config: SgdConfig::default(),
            clamp_to_observed: true,
        }
    }

    /// Overrides the SGD configuration.
    pub fn with_config(mut self, config: SgdConfig) -> Reconstructor {
        self.config = config;
        self
    }

    /// Enables or disables clamping predictions to the observed range
    /// (with 25% headroom on both sides).
    pub fn with_clamping(mut self, clamp: bool) -> Reconstructor {
        self.clamp_to_observed = clamp;
        self
    }

    /// The SGD configuration in use.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Reconstructs all cells of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is empty; use [`Reconstructor::try_reconstruct`] for a
    /// fallible variant.
    pub fn reconstruct(&self, a: &SparseMatrix) -> DenseMatrix {
        self.try_reconstruct(a).expect("matrix must be non-empty")
    }

    /// Reconstructs all cells of `a`, returning an error for degenerate
    /// inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ReconstructError::Empty`] when `a` has no observations.
    pub fn try_reconstruct(&self, a: &SparseMatrix) -> Result<DenseMatrix, ReconstructError> {
        if a.is_empty() {
            return Err(ReconstructError::Empty);
        }
        Ok(self.fit(a))
    }

    /// Trains a model on `a` and predicts every cell, with the observed
    /// entries restored and the rest clamped to the observed range.
    fn fit(&self, a: &SparseMatrix) -> DenseMatrix {
        let mut dense = PqModel::train(a, &self.config).predict_all();
        // Observed entries are authoritative; keep the raw measurements.
        for (r, c, v) in a.iter() {
            dense.set(r, c, v);
        }
        if self.clamp_to_observed {
            let (lo, hi) = observed_range(a);
            let span = (hi - lo).max(1e-12);
            let (lo, hi) = (lo - 0.25 * span, hi + 0.25 * span);
            for v in dense.as_mut_slice() {
                *v = v.clamp(lo, hi);
            }
        }
        dense
    }

    /// Predicts the missing entries of a single target row given a dense
    /// history of fully-observed rows (the offline-characterized and
    /// previously-scheduled workloads) plus sparse observations for the
    /// target (the profiling runs).
    ///
    /// Returns the full predicted row for the target.
    ///
    /// # Errors
    ///
    /// Returns [`ReconstructError::Empty`] when the target row has no
    /// observations, [`ReconstructError::Unanchored`] when `history` is
    /// empty and the target row alone cannot be reconstructed, and
    /// [`ReconstructError::InvalidObservation`] when an observation is
    /// not finite or names a column `history` does not have.
    pub fn reconstruct_row(
        &self,
        history: &DenseMatrix,
        target: &[(usize, f64)],
    ) -> Result<Vec<f64>, ReconstructError> {
        if target.is_empty() {
            return Err(ReconstructError::Empty);
        }
        if history.rows() == 0 {
            return Err(ReconstructError::Unanchored);
        }
        // `SparseMatrix::insert` asserts both conditions; the profiling
        // rows arrive from outside this crate, so reject them as errors.
        if let Some(&(col, _)) = target
            .iter()
            .find(|&&(c, v)| c >= history.cols() || !v.is_finite())
        {
            return Err(ReconstructError::InvalidObservation { col });
        }
        // The fully-observed `history` rows plus one sparse target row.
        let mut sparse = SparseMatrix::from_dense_rows(history);
        let target_row = sparse.push_row();
        for &(c, v) in target {
            sparse.insert(target_row, c, v);
        }
        Ok(self.fit(&sparse).row(target_row).to_vec())
    }
}

fn observed_range(a: &SparseMatrix) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, _, v) in a.iter() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_is_an_error() {
        let a = SparseMatrix::new(2, 2);
        assert_eq!(
            Reconstructor::new().try_reconstruct(&a),
            Err(ReconstructError::Empty)
        );
    }

    #[test]
    fn observed_entries_are_preserved_exactly() {
        let mut a = SparseMatrix::new(3, 3);
        a.insert(0, 0, 1.0);
        a.insert(1, 1, 7.0);
        a.insert(2, 2, 3.0);
        let d = Reconstructor::new().reconstruct(&a);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(1, 1), 7.0);
        assert_eq!(d.get(2, 2), 3.0);
    }

    #[test]
    fn clamping_bounds_predictions() {
        let mut a = SparseMatrix::new(3, 3);
        for r in 0..3 {
            a.insert(r, 0, 10.0 + r as f64);
        }
        a.insert(0, 1, 11.0);
        a.insert(0, 2, 12.0);
        let d = Reconstructor::new().reconstruct(&a);
        // Observed range is 10..=12 (span 2); clamping allows 25%
        // headroom on each side, i.e. 0.5.
        let headroom = 0.25 * 2.0;
        for r in 0..3 {
            for c in 0..3 {
                let v = d.get(r, c);
                assert!(
                    v >= 10.0 - headroom && v <= 12.0 + headroom,
                    "clamped value {v}"
                );
            }
        }
    }

    #[test]
    fn reconstruct_row_predicts_from_history() {
        // History: rows proportional to [1, 2, 3, 4].
        let history = DenseMatrix::from_fn(5, 4, |r, c| (r as f64 + 1.0) * (c as f64 + 1.0));
        // Target row: scale 2.5, observed at columns 0 and 2.
        let row = Reconstructor::new()
            .reconstruct_row(&history, &[(0, 2.5), (2, 7.5)])
            .unwrap();
        assert!((row[1] - 5.0).abs() < 1.0, "predicted {}", row[1]);
        assert!((row[3] - 10.0).abs() < 2.0, "predicted {}", row[3]);
    }

    #[test]
    fn reconstruct_row_requires_observations() {
        let history = DenseMatrix::zeros(2, 2);
        assert_eq!(
            Reconstructor::new().reconstruct_row(&history, &[]),
            Err(ReconstructError::Empty)
        );
    }

    #[test]
    fn invalid_observations_are_errors_not_panics() {
        let history = DenseMatrix::from_fn(5, 4, |r, c| (r as f64 + 1.0) * (c as f64 + 1.0));
        let rec = Reconstructor::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                rec.reconstruct_row(&history, &[(0, 2.5), (2, bad)]),
                Err(ReconstructError::InvalidObservation { col: 2 })
            );
        }
        // Column 4 is one past the history's last.
        assert_eq!(
            rec.reconstruct_row(&history, &[(0, 2.5), (4, 7.5)]),
            Err(ReconstructError::InvalidObservation { col: 4 })
        );
    }

    #[test]
    fn default_is_new() {
        assert_eq!(Reconstructor::default(), Reconstructor::new());
    }

    #[test]
    fn error_display_is_nonempty() {
        assert!(!ReconstructError::Empty.to_string().is_empty());
        assert!(!ReconstructError::Unanchored.to_string().is_empty());
        assert!(ReconstructError::InvalidObservation { col: 7 }
            .to_string()
            .contains('7'));
    }
}
