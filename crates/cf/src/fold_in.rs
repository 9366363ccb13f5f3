//! Fold-in: factor a dense history once, then place each new row in its
//! latent space with one small regularised least-squares solve.
//!
//! [`Reconstructor::reconstruct_row`](crate::Reconstructor::reconstruct_row)
//! retrains SVD + SGD on the whole history plus the new row for every
//! query, though only the new row changed. [`FoldIn::fit`] keeps the part
//! that does not change (the mean, the column biases and the column
//! factors `P`); [`FoldIn::fold_in`] solves only the new row's bias `b`
//! and latent vector `q`:
//!
//! ```text
//! y_j ≈ μ + c_j + b + P_j·q
//! min_{b,q} Σ_obs (y_j − μ − c_j − b − P_j·q)² + λ‖q‖²
//! ```
//!
//! The history is double-centred (`R_ij = Y_ij − μ − b_i − c_j`) and
//! `R ≈ U_r·Σ_r·V_rᵀ` is truncated at [`SgdConfig`]'s default energy and
//! rank cap, so `P = V_r·Σ_r` and a history row's latent vector is its row
//! of `U_r`. Those rows have variance `1/n` per component over `n` history
//! rows, and the truncated tail leaves `σ̂²` of unexplained energy per
//! cell; the maximum a-posteriori `q` under that prior and that noise is
//! the ridge solve with `λ = n·σ̂²`. The bias carries no ridge.
//!
//! The same model gives each prediction a posterior variance,
//! `σ̂²·(1 + a_jᵀ·G⁻¹·a_j)` with `a_j = (1, P_j)` and `G` the solve's
//! normal matrix ([`FoldIn::fold_in_with_variance`]): small near the
//! observed columns, larger where the history's rows disagree.

use crate::dense::DenseMatrix;
use crate::pq::SgdConfig;
use crate::reconstruct::ReconstructError;
use crate::svd::svd;

/// Lower bound on `λ`, relative to the residual energy per column. It
/// only matters for a history whose truncated tail is (numerically)
/// zero: the solve stays positive definite however few observations the
/// row has.
const RIDGE_FLOOR: f64 = 1e-12;

/// A row folded into a history by [`FoldIn::fold_in_with_variance`].
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedRow {
    /// The predicted value of every column, observed entries restored.
    pub mean: Vec<f64>,
    /// The posterior variance of each prediction; 0 at the observed
    /// columns, which keep their measurement.
    pub variance: Vec<f64>,
}

/// A dense history factored for fold-in queries.
///
/// # Examples
///
/// ```
/// use quasar_cf::{DenseMatrix, FoldIn};
///
/// // Row i is (i+1)·[1 2 3 4] plus a per-row offset.
/// let history = DenseMatrix::from_fn(6, 4, |r, c| {
///     (r as f64 + 1.0) * (c as f64 + 1.0) + 0.5 * r as f64
/// });
/// let model = FoldIn::fit(&history);
/// // A new row 2.5·[1 2 3 4] + 1, seen at three columns.
/// let row = model.fold_in(&[(0, 3.5), (1, 6.0), (3, 11.0)]).unwrap();
/// assert!((row[2] - 8.5).abs() < 1e-6);
/// assert_eq!(row[1], 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FoldIn {
    mu: f64,
    col_bias: Vec<f64>,
    /// `P = V_r·Σ_r`: one row of `rank` per history column.
    col_factors: DenseMatrix,
    /// `σ̂²`: the truncated tail's energy per cell.
    noise: f64,
    lambda: f64,
}

/// The normal equations of one fold-in, solved: the row's bias and
/// latent vector, and the Cholesky factor of the normal matrix.
struct Solved {
    /// `(b, q₁, …, q_r)`.
    x: Vec<f64>,
    /// Row-major lower-triangular `L` with `L·Lᵀ = G`.
    chol: Vec<f64>,
}

impl FoldIn {
    /// Factors `history` (rows are workloads, columns configurations;
    /// every cell observed).
    pub fn fit(history: &DenseMatrix) -> FoldIn {
        let (n, m) = (history.rows(), history.cols());
        let mu = history.as_slice().iter().sum::<f64>() / (n * m) as f64;
        let col_bias: Vec<f64> = history.col_means().into_iter().map(|c| c - mu).collect();
        let row_bias: Vec<f64> = (0..n)
            .map(|r| history.row(r).iter().sum::<f64>() / m as f64 - mu)
            .collect();
        let residual = DenseMatrix::from_fn(n, m, |r, c| {
            history.get(r, c) - mu - row_bias[r] - col_bias[c]
        });

        let decomposition = svd(&residual);
        let config = SgdConfig::default();
        let rank = decomposition
            .rank_for_energy(config.energy)
            .min(config.max_rank)
            .min(n)
            .min(m)
            .max(1);
        let sigma = &decomposition.singular_values;
        let energy: f64 = sigma.iter().map(|s| s * s).sum();
        let tail: f64 = sigma[rank..].iter().map(|s| s * s).sum();
        // λ = n·σ̂² with σ̂² = tail / (n·m): the n cancels.
        let lambda = (tail.max(RIDGE_FLOOR * energy) / m as f64).max(f64::MIN_POSITIVE);
        let noise = lambda / n as f64;

        let mut col_factors = DenseMatrix::zeros(m, rank);
        for c in 0..m {
            let vrow = &decomposition.v.row(c)[..rank];
            for ((dst, &v), &s) in col_factors.row_mut(c).iter_mut().zip(vrow).zip(sigma) {
                *dst = v * s;
            }
        }
        FoldIn {
            mu,
            col_bias,
            col_factors,
            noise,
            lambda,
        }
    }

    /// The latent rank `r` the history was truncated to.
    fn rank(&self) -> usize {
        self.col_factors.cols()
    }

    /// Predicts every column of a new row from its sparse observations
    /// `(column, value)`, with the observed entries restored.
    ///
    /// # Errors
    ///
    /// Returns [`ReconstructError::Empty`] when `target` is empty and
    /// [`ReconstructError::InvalidObservation`] when an observation is
    /// not finite or names a column the history does not have.
    pub fn fold_in(&self, target: &[(usize, f64)]) -> Result<Vec<f64>, ReconstructError> {
        let solved = self.solve(target)?;
        Ok(self.predict(&solved.x, target))
    }

    /// [`FoldIn::fold_in`] plus the posterior variance of every
    /// prediction, `σ̂²·(1 + a_jᵀ·G⁻¹·a_j)`.
    ///
    /// # Errors
    ///
    /// As [`FoldIn::fold_in`].
    pub fn fold_in_with_variance(
        &self,
        target: &[(usize, f64)],
    ) -> Result<FoldedRow, ReconstructError> {
        let solved = self.solve(target)?;
        let dim = self.rank() + 1;
        let mut a = vec![1.0; dim];
        let mut variance: Vec<f64> = (0..self.col_bias.len())
            .map(|c| {
                a[0] = 1.0;
                a[1..].copy_from_slice(self.col_factors.row(c));
                // a_jᵀ·G⁻¹·a_j = ‖L⁻¹·a_j‖².
                forward_substitute(&solved.chol, &mut a, dim);
                self.noise * (1.0 + a.iter().map(|z| z * z).sum::<f64>())
            })
            .collect();
        for &(c, _) in target {
            variance[c] = 0.0;
        }
        Ok(FoldedRow {
            mean: self.predict(&solved.x, target),
            variance,
        })
    }

    /// Validates `target` and solves the normal equations over
    /// `x = (b, q)`: `G·x = h` with `G = Σ a·aᵀ + diag(0, λ, …, λ)` and
    /// `h = Σ a·t`, where `a = (1, P_j)` and `t = y_j − μ − c_j`.
    fn solve(&self, target: &[(usize, f64)]) -> Result<Solved, ReconstructError> {
        if target.is_empty() {
            return Err(ReconstructError::Empty);
        }
        let cols = self.col_bias.len();
        if let Some(&(col, _)) = target.iter().find(|&&(c, v)| c >= cols || !v.is_finite()) {
            return Err(ReconstructError::InvalidObservation { col });
        }

        let dim = self.rank() + 1;
        let mut g = vec![0.0; dim * dim];
        let mut h = vec![0.0; dim];
        let mut a = vec![1.0; dim];
        for &(c, y) in target {
            a[1..].copy_from_slice(self.col_factors.row(c));
            let t = y - self.mu - self.col_bias[c];
            for i in 0..dim {
                h[i] += a[i] * t;
                for j in 0..=i {
                    g[i * dim + j] += a[i] * a[j];
                }
            }
        }
        for i in 1..dim {
            g[i * dim + i] += self.lambda;
        }
        cholesky(&mut g, dim);
        // L·z = h, then Lᵀ·x = z.
        forward_substitute(&g, &mut h, dim);
        backward_substitute(&g, &mut h, dim);
        Ok(Solved { x: h, chol: g })
    }

    /// The row `μ + c_j + b + P_j·q` for `x = (b, q)`, with the observed
    /// entries restored.
    fn predict(&self, x: &[f64], target: &[(usize, f64)]) -> Vec<f64> {
        let (b, q) = (x[0], &x[1..]);
        let mut row: Vec<f64> = (0..self.col_bias.len())
            .map(|c| {
                let latent: f64 = self
                    .col_factors
                    .row(c)
                    .iter()
                    .zip(q)
                    .map(|(p, q)| p * q)
                    .sum();
                self.mu + self.col_bias[c] + b + latent
            })
            .collect();
        // Observed entries are authoritative; keep the raw measurements.
        for &(c, v) in target {
            row[c] = v;
        }
        row
    }
}

/// Overwrites the lower triangle of the row-major symmetric positive
/// definite `dim × dim` matrix `g` with its Cholesky factor `L`
/// (`L·Lᵀ = G`); only the lower triangle is read.
fn cholesky(g: &mut [f64], dim: usize) {
    for j in 0..dim {
        let mut d = g[j * dim + j];
        for k in 0..j {
            d -= g[j * dim + k] * g[j * dim + k];
        }
        let d = d.sqrt();
        g[j * dim + j] = d;
        for i in j + 1..dim {
            let mut s = g[i * dim + j];
            for k in 0..j {
                s -= g[i * dim + k] * g[j * dim + k];
            }
            g[i * dim + j] = s / d;
        }
    }
}

/// Solves `L·z = h` in place for the factor [`cholesky`] left in `l`.
fn forward_substitute(l: &[f64], h: &mut [f64], dim: usize) {
    for i in 0..dim {
        let mut s = h[i];
        for k in 0..i {
            s -= l[i * dim + k] * h[k];
        }
        h[i] = s / l[i * dim + i];
    }
}

/// Solves `Lᵀ·x = z` in place for the factor [`cholesky`] left in `l`.
fn backward_substitute(l: &[f64], h: &mut [f64], dim: usize) {
    for i in (0..dim).rev() {
        let mut s = h[i];
        for k in i + 1..dim {
            s -= l[k * dim + i] * h[k];
        }
        h[i] = s / l[i * dim + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Y_ij = α_i + β_j + u_i·v_j` with a rank-2 interaction whose two
    /// components carry comparable energy.
    fn low_rank(rows: usize, cols: usize) -> (DenseMatrix, impl Fn(f64, [f64; 2], usize) -> f64) {
        let beta = |c: usize| 0.3 * c as f64 - 1.0;
        let v = |c: usize| [(c as f64 * 0.7).sin() + 0.2, (c as f64 * 1.3).cos()];
        let cell = move |alpha: f64, u: [f64; 2], c: usize| {
            let v = v(c);
            alpha + beta(c) + u[0] * v[0] + u[1] * v[1]
        };
        let history = DenseMatrix::from_fn(rows, cols, |r, c| {
            let r = r as f64;
            cell(0.1 * r, [(r * 0.9).cos() * 2.0, (r * 0.4).sin() * 1.5], c)
        });
        (history, cell)
    }

    #[test]
    fn noiseless_low_rank_row_is_recovered() {
        let (history, cell) = low_rank(12, 10);
        let model = FoldIn::fit(&history);
        assert_eq!(model.rank(), 2);
        let (alpha, u) = (0.75, [-1.1, 0.6]);
        let target: Vec<(usize, f64)> = [1, 4, 8].iter().map(|&c| (c, cell(alpha, u, c))).collect();
        let row = model.fold_in(&target).unwrap();
        for (c, &got) in row.iter().enumerate() {
            let want = cell(alpha, u, c);
            assert!((got - want).abs() < 1e-9, "column {c}: {got} vs {want}");
        }
    }

    #[test]
    fn observed_entries_are_restored_exactly() {
        let (history, _) = low_rank(8, 6);
        let model = FoldIn::fit(&history);
        let row = model.fold_in(&[(0, 123.0), (5, -7.25)]).unwrap();
        assert_eq!(row[0], 123.0);
        assert_eq!(row[5], -7.25);
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn error_contract_matches_reconstruct_row() {
        let (history, _) = low_rank(5, 4);
        let model = FoldIn::fit(&history);
        assert_eq!(model.fold_in(&[]), Err(ReconstructError::Empty));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                model.fold_in(&[(0, 2.5), (2, bad)]),
                Err(ReconstructError::InvalidObservation { col: 2 })
            );
        }
        assert_eq!(
            model.fold_in(&[(0, 2.5), (4, 7.5)]),
            Err(ReconstructError::InvalidObservation { col: 4 })
        );
    }

    #[test]
    fn zero_tail_history_still_solves() {
        // Purely additive (residual exactly zero) and exactly rank-1
        // interactions: no tail energy, one observation, r + 1 unknowns.
        let additive = DenseMatrix::from_fn(6, 5, |r, c| r as f64 + 2.0 * c as f64);
        let rank_one = DenseMatrix::from_fn(6, 5, |r, c| (r as f64 - 2.5) * (c as f64 - 2.0));
        for history in [additive, rank_one] {
            let model = FoldIn::fit(&history);
            assert!(model.lambda > 0.0);
            let row = model.fold_in(&[(1, 4.0)]).unwrap();
            assert!(row.iter().all(|v| v.is_finite()), "{row:?}");
            assert_eq!(row[1], 4.0);
        }
        // The additive history predicts the row's offset exactly.
        let additive = DenseMatrix::from_fn(6, 5, |r, c| r as f64 + 2.0 * c as f64);
        let row = FoldIn::fit(&additive).fold_in(&[(1, 4.0)]).unwrap();
        for (c, &v) in row.iter().enumerate() {
            assert!((v - (2.0 + 2.0 * c as f64)).abs() < 1e-9, "column {c}: {v}");
        }
    }

    #[test]
    fn variance_vanishes_where_observed_and_shrinks_with_each_observation() {
        let (mut history, cell) = low_rank(12, 10);
        for (i, v) in history.as_mut_slice().iter_mut().enumerate() {
            *v += 0.05 * ((i * 7919) % 13) as f64 / 13.0;
        }
        let model = FoldIn::fit(&history);
        let (alpha, u) = (0.75, [-1.1, 0.6]);
        let mut target: Vec<(usize, f64)> = Vec::new();
        let mut previous: Option<Vec<f64>> = None;
        for c in [3, 7, 0, 9] {
            target.push((c, cell(alpha, u, c)));
            let row = model.fold_in_with_variance(&target).unwrap();
            // The mean is fold_in's row, bit for bit.
            assert_eq!(row.mean, model.fold_in(&target).unwrap());
            for (col, &v) in row.variance.iter().enumerate() {
                if target.iter().any(|&(t, _)| t == col) {
                    assert_eq!(v, 0.0, "observed column {col}");
                } else {
                    // Never below the per-cell noise σ̂² = λ / n.
                    assert!(v >= model.lambda / 12.0, "column {col}: {v}");
                }
            }
            // An observation adds information: no column's variance grows.
            if let Some(prev) = &previous {
                for (col, (&v, &p)) in row.variance.iter().zip(prev).enumerate() {
                    assert!(v <= p * (1.0 + 1e-12), "column {col}: {p} -> {v}");
                }
            }
            previous = Some(row.variance);
        }
    }

    #[test]
    fn ridge_is_the_tail_energy_per_column() {
        let (rows, cols) = (10, 8);
        let (mut history, _) = low_rank(rows, cols);
        // A little off-rank noise gives the truncation a tail.
        for (i, v) in history.as_mut_slice().iter_mut().enumerate() {
            *v += 0.01 * ((i * 7919) % 13) as f64 / 13.0;
        }
        let model = FoldIn::fit(&history);
        assert_eq!(model.rank(), 2);
        // λ = n·σ̂², σ̂² = tail energy / (n·m): the spectrum past the kept
        // rank of the double-centred history, per column.
        let mu = history.as_slice().iter().sum::<f64>() / (rows * cols) as f64;
        let col_means = history.col_means();
        let centred = DenseMatrix::from_fn(rows, cols, |r, c| {
            let row_mean = history.row(r).iter().sum::<f64>() / cols as f64;
            history.get(r, c) - row_mean - col_means[c] + mu
        });
        let tail: f64 = svd(&centred).singular_values[2..]
            .iter()
            .map(|s| s * s)
            .sum();
        assert!(tail > 0.0);
        let expected = tail / cols as f64;
        assert!(
            (model.lambda - expected).abs() <= 1e-9 * expected,
            "{} vs {expected}",
            model.lambda
        );
    }
}
