//! PQ-reconstruction: a latent-factor model trained with SGD.
//!
//! [`PqModel::train`] is the plain loop of the paper's update equations:
//! before every epoch the observed entries are reshuffled in place
//! (Fisher–Yates, one generator seeded once per training), then each
//! entry updates its row bias and its two factor rows. Classification
//! folds arrivals in against fixed history factors, so only the full
//! retrain ([`crate::Reconstructor`]) runs this loop, off the arrival
//! path. The fingerprint tests below pin its output bits.

use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dense::DenseMatrix;
use crate::sparse::SparseMatrix;
use crate::svd::{svd, Svd};

/// Registry handle for `quasar.cf.sgd.epochs`. Epochs are a pure
/// function of the training input, so the counter stays in
/// deterministic snapshots.
fn sgd_metrics() -> &'static Counter {
    static METRICS: OnceLock<Counter> = OnceLock::new();
    METRICS.get_or_init(|| Registry::global().counter("quasar.cf.sgd.epochs"))
}

/// Hyper-parameters for the SGD training loop.
///
/// The paper (§3.2) notes that the learning rate `η` and regularization
/// factor `λ` "are determined empirically"; these defaults converge for the
/// small, per-classification matrices Quasar builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// Regularization factor `λ`.
    pub regularization: f64,
    /// Maximum number of passes over the observed entries.
    pub max_epochs: usize,
    /// Stop once the L2 norm of residuals over observed entries falls
    /// below this, relative to the number of observations.
    pub tolerance: f64,
    /// Fraction of total squared spectral energy retained when truncating
    /// the SVD initialization.
    pub energy: f64,
    /// Hard cap on the latent rank.
    pub max_rank: usize,
    /// Seed for shuffling the training order.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> SgdConfig {
        SgdConfig {
            learning_rate: 0.015,
            regularization: 0.005,
            max_epochs: 800,
            tolerance: 1e-4,
            energy: 0.95,
            max_rank: 8,
            seed: 0x5eed,
        }
    }
}

/// A trained latent-factor model `r_ui ≈ μ + b_u + q_u · p_i`.
///
/// Rows are workloads (`u`), columns are configurations (`i`). `Q` holds
/// one latent vector per row, `P` one per column; `μ` is the global mean
/// and `b_u` the per-row bias, exactly the terms of the paper's SGD update
/// equations.
///
/// # Examples
///
/// ```
/// use quasar_cf::{PqModel, SgdConfig, SparseMatrix};
///
/// let mut a = SparseMatrix::new(4, 4);
/// for r in 0..4 {
///     for c in 0..4 {
///         if (r + c) % 2 == 0 {
///             a.insert(r, c, (r as f64 + 1.0) * (c as f64 + 1.0));
///         }
///     }
/// }
/// let model = PqModel::train(&a, &SgdConfig::default());
/// // Observed entries are fitted closely.
/// assert!((model.predict(0, 0) - 1.0).abs() < 0.7);
/// ```
#[derive(Debug, Clone)]
pub struct PqModel {
    mu: f64,
    row_bias: Vec<f64>,
    row_factors: DenseMatrix,
    col_factors: DenseMatrix,
    rank: usize,
    epochs_run: usize,
    final_residual: f64,
}

impl PqModel {
    /// Trains a model on the observed entries of `a`.
    ///
    /// Initialization follows the paper: SVD of the (mean-filled) matrix,
    /// then `Q ← U` and `Pᵀ ← Σ·Vᵀ`, then SGD over the observed entries
    /// until the residual norm becomes marginal.
    ///
    /// # Panics
    ///
    /// Panics if `a` has no observed entries.
    pub fn train(a: &SparseMatrix, config: &SgdConfig) -> PqModel {
        assert!(!a.is_empty(), "cannot train on an empty matrix");

        let mu = a.mean().expect("matrix is non-empty");
        let mut row_bias = vec![0.0; a.rows()];
        for (r, bias) in row_bias.iter_mut().enumerate() {
            let entries = a.row_entries(r);
            if !entries.is_empty() {
                let mean: f64 = entries.iter().map(|(_, v)| v).sum::<f64>() / entries.len() as f64;
                *bias = mean - mu;
            }
        }

        // Residual matrix for initialization: observed minus (μ + b_u),
        // missing cells filled via column means of the residuals.
        let mut residuals = SparseMatrix::new(a.rows(), a.cols());
        for (r, c, v) in a.iter() {
            residuals.insert(r, c, v - mu - row_bias[r]);
        }
        let decomposition: Svd = svd(&residuals.to_dense_filled());
        let rank = decomposition
            .rank_for_energy(config.energy)
            .min(config.max_rank)
            .min(a.rows())
            .min(a.cols())
            .max(1);

        // Q ← U_r, P ← V_r · Σ_r (so that Q·Pᵀ = U Σ Vᵀ), copied row by
        // row from the factor slices.
        let mut row_factors = DenseMatrix::zeros(a.rows(), rank);
        for r in 0..a.rows() {
            row_factors
                .row_mut(r)
                .copy_from_slice(&decomposition.u.row(r)[..rank]);
        }
        let sigma = &decomposition.singular_values[..rank];
        let mut col_factors = DenseMatrix::zeros(a.cols(), rank);
        for c in 0..a.cols() {
            let vrow = &decomposition.v.row(c)[..rank];
            for ((dst, &v), &s) in col_factors.row_mut(c).iter_mut().zip(vrow).zip(sigma) {
                *dst = v * s;
            }
        }

        let mut model = PqModel {
            mu,
            row_bias,
            row_factors,
            col_factors,
            rank,
            epochs_run: 0,
            final_residual: f64::INFINITY,
        };
        model.run_sgd(a, config);
        model
    }

    /// The SGD epochs: reshuffle the observed entries, then per entry
    /// predict, take the error, update the row bias and the two factor
    /// rows, until the RMS residual falls below the tolerance.
    fn run_sgd(&mut self, a: &SparseMatrix, config: &SgdConfig) {
        let mut order: Vec<(usize, usize, f64)> = a.iter().collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let eta = config.learning_rate;
        let lambda = config.regularization;
        let epochs_metric = sgd_metrics();
        let PqModel {
            mu,
            row_bias,
            row_factors,
            col_factors,
            epochs_run,
            final_residual,
            ..
        } = self;

        for epoch in 0..config.max_epochs {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut sq_err = 0.0;
            for &(u, i, r_ui) in &order {
                let q = row_factors.row_mut(u);
                let p = col_factors.row_mut(i);
                let mut dot = 0.0;
                for (&qk, &pk) in q.iter().zip(p.iter()) {
                    dot += qk * pk;
                }
                let err = r_ui - (*mu + row_bias[u] + dot);
                sq_err += err * err;
                row_bias[u] += eta * (err - lambda * row_bias[u]);
                for (qk, pk) in q.iter_mut().zip(p.iter_mut()) {
                    let (q0, p0) = (*qk, *pk);
                    *qk = q0 + eta * (err * p0 - lambda * q0);
                    *pk = p0 + eta * (err * q0 - lambda * p0);
                }
            }
            epochs_metric.inc();
            *epochs_run = epoch + 1;
            *final_residual = (sq_err / order.len() as f64).sqrt();
            if *final_residual < config.tolerance {
                break;
            }
        }
    }

    /// Predicted value for row `u`, column `i`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds.
    pub fn predict(&self, u: usize, i: usize) -> f64 {
        let mut dot = 0.0;
        for (&qk, &pk) in self.row_factors.row(u).iter().zip(self.col_factors.row(i)) {
            dot += qk * pk;
        }
        self.mu + self.row_bias[u] + dot
    }

    /// Dense matrix of predictions for every cell.
    ///
    /// Walks the factor rows as slices; `μ + b_u` is hoisted per row,
    /// which keeps the left-associated order of [`PqModel::predict`]
    /// (`(μ + b_u) + q_u·p_i`) bit-for-bit.
    pub fn predict_all(&self) -> DenseMatrix {
        let rows = self.row_factors.rows();
        let cols = self.col_factors.rows();
        let mut data = Vec::with_capacity(rows * cols);
        for u in 0..rows {
            let q = self.row_factors.row(u);
            let base = self.mu + self.row_bias[u];
            for i in 0..cols {
                let mut dot = 0.0;
                for (&qk, &pk) in q.iter().zip(self.col_factors.row(i)) {
                    dot += qk * pk;
                }
                data.push(base + dot);
            }
        }
        DenseMatrix::from_vec(rows, cols, data)
    }

    /// Latent rank of the model.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of SGD epochs actually run.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// RMS residual over the observed entries after training.
    pub fn final_residual(&self) -> f64 {
        self.final_residual
    }

    /// Row bias `b_u`.
    pub fn row_bias(&self, u: usize) -> f64 {
        self.row_bias[u]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a sparse view of a low-rank matrix, keeping `keep` of every
    /// `out_of` cells.
    fn low_rank_sparse(
        rows: usize,
        cols: usize,
        keep: usize,
        out_of: usize,
    ) -> (SparseMatrix, DenseMatrix) {
        let truth = DenseMatrix::from_fn(rows, cols, |r, c| {
            3.0 + (r as f64 + 1.0) * 0.7 * (c as f64 + 1.0) + (r as f64) * 0.5
        });
        let mut sparse = SparseMatrix::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r * cols + c) % out_of < keep {
                    sparse.insert(r, c, truth.get(r, c));
                }
            }
        }
        (sparse, truth)
    }

    #[test]
    fn fits_observed_entries() {
        let (sparse, _) = low_rank_sparse(6, 6, 2, 3);
        let model = PqModel::train(&sparse, &SgdConfig::default());
        for (r, c, v) in sparse.iter() {
            assert!(
                (model.predict(r, c) - v).abs() < 0.5,
                "observed ({r},{c}): predicted {} vs {v}",
                model.predict(r, c)
            );
        }
    }

    #[test]
    fn recovers_missing_entries_of_low_rank_matrix() {
        let (sparse, truth) = low_rank_sparse(8, 8, 2, 3);
        let model = PqModel::train(&sparse, &SgdConfig::default());
        let mut worst: f64 = 0.0;
        for r in 0..8 {
            for c in 0..8 {
                if sparse.get(r, c).is_none() {
                    let rel = (model.predict(r, c) - truth.get(r, c)).abs() / truth.get(r, c).abs();
                    worst = worst.max(rel);
                }
            }
        }
        assert!(worst < 0.25, "worst relative error {worst}");
    }

    #[test]
    fn respects_max_rank() {
        let (sparse, _) = low_rank_sparse(6, 6, 2, 2);
        let config = SgdConfig {
            max_rank: 2,
            ..SgdConfig::default()
        };
        let model = PqModel::train(&sparse, &config);
        assert!(model.rank() <= 2);
    }

    #[test]
    fn converges_before_epoch_cap_on_easy_input() {
        let (sparse, _) = low_rank_sparse(5, 5, 3, 4);
        let config = SgdConfig {
            tolerance: 0.05,
            regularization: 0.005,
            ..SgdConfig::default()
        };
        let model = PqModel::train(&sparse, &config);
        assert!(model.epochs_run() < config.max_epochs);
        assert!(model.final_residual() <= 0.05);
    }

    /// FNV-1a over the little-endian bytes of each value's bits.
    fn fingerprint(values: &[f64]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for byte in values.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    /// `(rank, epochs_run, final_residual bits, fingerprint of Q, P and
    /// the row biases)` of one training run.
    fn trained_bits(a: &SparseMatrix, config: &SgdConfig) -> (usize, usize, u64, u64) {
        let model = PqModel::train(a, config);
        let mut all = model.row_factors.as_slice().to_vec();
        all.extend_from_slice(model.col_factors.as_slice());
        all.extend_from_slice(&model.row_bias);
        (
            model.rank(),
            model.epochs_run(),
            model.final_residual().to_bits(),
            fingerprint(&all),
        )
    }

    /// The 9×7 input diverges under the default step (its entries reach
    /// ~50), so its pinned residual is a NaN bit pattern; the 6×6 one
    /// converges and pins finite factors.
    #[test]
    fn low_rank_training_bits_are_pinned() {
        let (sparse, _) = low_rank_sparse(9, 7, 2, 3);
        assert_eq!(
            trained_bits(&sparse, &SgdConfig::default()),
            (2, 800, 18444492273895866368, 3652823315368629632)
        );
        let (sparse, _) = low_rank_sparse(6, 6, 2, 3);
        assert_eq!(
            trained_bits(&sparse, &SgdConfig::default()),
            (1, 800, 4583122177068494535, 2794905589556354374)
        );
    }

    /// A single observed entry: the shuffle has nothing to draw.
    #[test]
    fn single_entry_training_bits_are_pinned() {
        let mut a = SparseMatrix::new(3, 4);
        a.insert(1, 2, 2.5);
        let config = SgdConfig {
            max_epochs: 12,
            ..SgdConfig::default()
        };
        assert_eq!(trained_bits(&a, &config), (1, 1, 0, 5336271292197485752));
    }

    /// A latent rank above 8, on a full-energy spectrum.
    #[test]
    fn rank_ten_training_bits_are_pinned() {
        let mut a = SparseMatrix::new(12, 11);
        for r in 0..12 {
            for c in 0..11 {
                if (r * 11 + c) % 3 != 0 {
                    a.insert(r, c, ((r * 7 + c * 5 + r * c) % 13) as f64 * 0.3 - 1.0);
                }
            }
        }
        let config = SgdConfig {
            max_rank: 10,
            energy: 1.0,
            max_epochs: 200,
            ..SgdConfig::default()
        };
        assert_eq!(
            trained_bits(&a, &config),
            (10, 200, 4575886846161115921, 4484097273333162587)
        );
    }

    #[test]
    fn predict_all_matches_per_cell_predict_bitwise() {
        let (sparse, _) = low_rank_sparse(6, 8, 2, 3);
        let model = PqModel::train(&sparse, &SgdConfig::default());
        let all = model.predict_all();
        for u in 0..6 {
            for i in 0..8 {
                assert_eq!(all.get(u, i).to_bits(), model.predict(u, i).to_bits());
            }
        }
    }

    #[test]
    fn epoch_counter_advances() {
        let epochs = sgd_metrics();
        let before = epochs.get();
        let (sparse, _) = low_rank_sparse(5, 5, 2, 3);
        let model = PqModel::train(&sparse, &SgdConfig::default());
        // Lower bound only: sibling tests may train concurrently and
        // bump the same process-global counter.
        assert!(epochs.get() - before >= model.epochs_run() as u64);
    }

    #[test]
    #[should_panic(expected = "cannot train on an empty matrix")]
    fn empty_matrix_panics() {
        PqModel::train(&SparseMatrix::new(2, 2), &SgdConfig::default());
    }
}
