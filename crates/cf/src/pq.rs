//! PQ-reconstruction: a latent-factor model trained with SGD.
//!
//! The training inner loop ([`PqModel::train`]) is a fused slice kernel:
//! per observed entry it takes one mutable row slice from each factor
//! matrix and runs predict + bias + factor update in a single pass,
//! instead of `2·rank` bounds-checked `get`/`set` pairs. The
//! floating-point operation order matches the original scalar loops
//! exactly, so trained models are **bit-identical** to
//! [`PqModel::train_reference`], the frozen pre-refactor implementation
//! kept for property tests and the kernel benchmarks.
//!
//! The reference reshuffles its entries before every epoch; the kernel
//! instead reads each epoch's order from a table of the same
//! permutations, a function of `(seed, entry count, epoch)` alone. The
//! only state kept between calls is each thread's last such table,
//! reused while consecutive trainings on that thread share a seed and
//! entry count; a table over 8 MiB is never kept, its rows streamed from
//! the generator instead.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dense::DenseMatrix;
use crate::sparse::SparseMatrix;
use crate::svd::{svd, svd_reference, Svd};

/// Registry handle for `quasar.cf.sgd.epochs`. Epochs are a pure
/// function of the training input, so the counter stays in
/// deterministic snapshots.
fn sgd_metrics() -> &'static Counter {
    static METRICS: OnceLock<Counter> = OnceLock::new();
    METRICS.get_or_init(|| Registry::global().counter("quasar.cf.sgd.epochs"))
}

/// The per-epoch Fisher–Yates reshuffle of [`PqModel::run_sgd_reference`]
/// with the data taken out: the same draws from the same generator, the
/// stream continuing across epochs, applied to the identity permutation
/// of `0..n` instead of to the entries. The reference's visit order
/// after any epoch is then `base[perm[k]]` over its starting order
/// `base` — a function of `(seed, n, epoch)` alone.
#[derive(Debug)]
struct Shuffle {
    rng: StdRng,
    perm: Vec<u32>,
}

impl Shuffle {
    fn new(seed: u64, n: usize) -> Shuffle {
        let n = u32::try_from(n).expect("observed entries are indexed by u32");
        Shuffle {
            rng: StdRng::seed_from_u64(seed),
            perm: (0..n).collect(),
        }
    }

    /// Applies the next epoch's swaps and returns the cumulative
    /// permutation.
    fn next_epoch(&mut self) -> &[u32] {
        for i in (1..self.perm.len()).rev() {
            let j = self.rng.random_range(0..=i);
            self.perm.swap(i, j);
        }
        &self.perm
    }
}

/// The first epochs' permutations of one `(seed, n)` [`Shuffle`] as
/// flat rows of `n`. Row `e` does not depend on how many rows follow it,
/// so the table also serves any request for fewer epochs.
#[derive(Debug)]
struct Schedule {
    seed: u64,
    n: usize,
    rows: Vec<u32>,
}

impl Schedule {
    fn build(seed: u64, n: usize, epochs: usize) -> Schedule {
        let mut shuffle = Shuffle::new(seed, n);
        let mut rows = Vec::with_capacity(epochs * n);
        for _ in 0..epochs {
            rows.extend_from_slice(shuffle.next_epoch());
        }
        Schedule { seed, n, rows }
    }

    fn serves(&self, seed: u64, n: usize, epochs: usize) -> bool {
        (self.seed, self.n) == (seed, n) && self.rows.len() >= epochs * n
    }

    fn row(&self, epoch: usize) -> &[u32] {
        &self.rows[epoch * self.n..(epoch + 1) * self.n]
    }
}

/// Largest table a thread keeps; a request beyond it (the exhaustive
/// classifier's n in the tens of thousands) is streamed.
const SCHEDULE_KEY_BYTES: usize = 8 << 20;

thread_local! {
    /// The thread's last [`Schedule`]: every caller that still trains SGD
    /// trains one shape several times in a row on one thread.
    static LAST_SCHEDULE: RefCell<Option<Rc<Schedule>>> = const { RefCell::new(None) };
}

/// Where one training run reads its visit orders from.
enum Visits {
    /// Rows of the thread's table.
    Table(Rc<Schedule>),
    /// A key too large to retain: the generator itself, one reused row.
    Streamed(Shuffle),
}

impl Visits {
    /// The visit orders of the first `epochs` epochs of `(seed, n)`: the
    /// thread's table when it serves them, else a new table that replaces
    /// it, else (beyond [`SCHEDULE_KEY_BYTES`]) the generator.
    fn of(seed: u64, n: usize, epochs: usize) -> Visits {
        let bytes = epochs
            .saturating_mul(n)
            .saturating_mul(std::mem::size_of::<u32>());
        if bytes > SCHEDULE_KEY_BYTES {
            return Visits::Streamed(Shuffle::new(seed, n));
        }
        LAST_SCHEDULE.with_borrow_mut(|slot| {
            if !slot.as_ref().is_some_and(|t| t.serves(seed, n, epochs)) {
                *slot = None; // drop the old table first: a thread holds one
                *slot = Some(Rc::new(Schedule::build(seed, n, epochs)));
            }
            Visits::Table(Rc::clone(slot.as_ref().expect("the slot was just filled")))
        })
    }

    /// The visit order of `epoch`. Called with `epoch = 0, 1, 2, …` in
    /// order (the streamed generator cannot seek).
    fn epoch(&mut self, epoch: usize) -> &[u32] {
        match self {
            Visits::Table(schedule) => schedule.row(epoch),
            Visits::Streamed(shuffle) => shuffle.next_epoch(),
        }
    }
}

/// One SGD pass over the entries `base` in the order `visits` (indices
/// into `base`), returning the accumulated squared error.
///
/// Monomorphized per latent rank: `RANK > 0` turns the factor slices
/// into `&mut [f64; RANK]` so the dot product and the update loop fully
/// unroll (rank is 1–8 in practice — short enough that loop control
/// otherwise dominates). `RANK == 0` is the dynamic fallback for ranks
/// outside the specialized range. Both paths execute the identical
/// floating-point operations in identical order, so the trained model
/// does not depend on which one ran.
// The flat argument list is forced by the `Pass` fn-pointer dispatch in
// `run_sgd`: all rank instantiations must share one plain fn signature.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sgd_entry_pass<const RANK: usize>(
    rank: usize,
    base: &[(usize, usize, f64)],
    visits: &[u32],
    q_all: &mut [f64],
    p_all: &mut [f64],
    row_bias: &mut [f64],
    mu: f64,
    eta: f64,
    lambda: f64,
) -> f64 {
    debug_assert!(RANK == 0 || RANK == rank);
    let mut sq_err = 0.0;
    for &k in visits {
        let (u, i, r_ui) = base[k as usize];
        if RANK > 0 {
            let q: &mut [f64; RANK] = (&mut q_all[u * RANK..u * RANK + RANK])
                .try_into()
                .expect("slice length is RANK");
            let p: &mut [f64; RANK] = (&mut p_all[i * RANK..i * RANK + RANK])
                .try_into()
                .expect("slice length is RANK");
            let mut dot = 0.0;
            for k in 0..RANK {
                dot += q[k] * p[k];
            }
            let err = r_ui - (mu + row_bias[u] + dot);
            sq_err += err * err;
            row_bias[u] += eta * (err - lambda * row_bias[u]);
            for k in 0..RANK {
                let (q0, p0) = (q[k], p[k]);
                q[k] = q0 + eta * (err * p0 - lambda * q0);
                p[k] = p0 + eta * (err * q0 - lambda * p0);
            }
        } else {
            let q = &mut q_all[u * rank..u * rank + rank];
            let p = &mut p_all[i * rank..i * rank + rank];
            let mut dot = 0.0;
            for (&qk, &pk) in q.iter().zip(p.iter()) {
                dot += qk * pk;
            }
            let err = r_ui - (mu + row_bias[u] + dot);
            sq_err += err * err;
            row_bias[u] += eta * (err - lambda * row_bias[u]);
            for (qk, pk) in q.iter_mut().zip(p.iter_mut()) {
                let (q0, p0) = (*qk, *pk);
                *qk = q0 + eta * (err * p0 - lambda * q0);
                *pk = p0 + eta * (err * q0 - lambda * p0);
            }
        }
    }
    sq_err
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

    /// Fused SGD: one pass per observed entry over a `(q_u, p_i)` row
    /// slice pair — predict, bias update, and factor update together,
    /// monomorphized per latent rank (see [`sgd_entry_pass`]). The
    /// entries stay in `a.iter()` order and each epoch visits them
    /// through a permutation (see [`Shuffle`]) read from the thread's
    /// last [`Schedule`] or streamed (see [`Visits::of`]), which is the
    /// order [`PqModel::run_sgd_reference`] reaches by reshuffling them;
    /// operation order matches it exactly, so every intermediate (and
    /// hence the trained model) is bit-identical.
    fn run_sgd(&mut self, a: &SparseMatrix, config: &SgdConfig) {
        let base: Vec<(usize, usize, f64)> = a.iter().collect();
        let mut visits = Visits::of(config.seed, base.len(), config.max_epochs);
        let eta = config.learning_rate;
        let lambda = config.regularization;
        let epochs_metric = sgd_metrics();

        // Disjoint mutable views of the model: the factor buffers are
        // borrowed once per training run instead of once per `set`.
        let PqModel {
            mu,
            row_bias,
            row_factors,
            col_factors,
            rank,
            epochs_run,
            final_residual,
        } = self;
        let (mu, rank) = (*mu, *rank);
        let q_all = row_factors.as_mut_slice();
        let p_all = col_factors.as_mut_slice();

        // Pick the rank-specialized entry pass once per training run.
        type Pass = fn(
            usize,
            &[(usize, usize, f64)],
            &[u32],
            &mut [f64],
            &mut [f64],
            &mut [f64],
            f64,
            f64,
            f64,
        ) -> f64;
        let pass: Pass = match rank {
            1 => sgd_entry_pass::<1>,
            2 => sgd_entry_pass::<2>,
            3 => sgd_entry_pass::<3>,
            4 => sgd_entry_pass::<4>,
            5 => sgd_entry_pass::<5>,
            6 => sgd_entry_pass::<6>,
            7 => sgd_entry_pass::<7>,
            8 => sgd_entry_pass::<8>,
            _ => sgd_entry_pass::<0>,
        };

        for epoch in 0..config.max_epochs {
            let order = visits.epoch(epoch);
            let sq_err = pass(rank, &base, order, q_all, p_all, row_bias, mu, eta, lambda);
            epochs_metric.inc();
            *epochs_run = epoch + 1;
            *final_residual = (sq_err / base.len() as f64).sqrt();
            if *final_residual < config.tolerance {
                break;
            }
        }
    }

    /// The pre-refactor training loop, frozen verbatim as the correctness
    /// oracle: property tests assert [`PqModel::train`] matches it
    /// bit-for-bit, and `quasar-experiments bench-kernels` measures the
    /// fused kernel's speedup against it. Every factor access goes
    /// through bounds-checked `get`/`set`, and the SVD initialization uses
    /// [`svd_reference`] — exactly the pre-PR shape.
    pub fn train_reference(a: &SparseMatrix, config: &SgdConfig) -> PqModel {
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

        let mut residuals = SparseMatrix::new(a.rows(), a.cols());
        for (r, c, v) in a.iter() {
            residuals.insert(r, c, v - mu - row_bias[r]);
        }
        let filled = residuals.to_dense_filled();
        let decomposition: Svd = svd_reference(&filled);
        let rank = decomposition
            .rank_for_energy(config.energy)
            .min(config.max_rank)
            .min(a.rows())
            .min(a.cols())
            .max(1);

        let mut row_factors = DenseMatrix::zeros(a.rows(), rank);
        for r in 0..a.rows() {
            for k in 0..rank {
                row_factors.set(r, k, decomposition.u.get(r, k));
            }
        }
        let mut col_factors = DenseMatrix::zeros(a.cols(), rank);
        for c in 0..a.cols() {
            for k in 0..rank {
                col_factors.set(
                    c,
                    k,
                    decomposition.v.get(c, k) * decomposition.singular_values[k],
                );
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
        model.run_sgd_reference(a, config);
        model
    }

    /// The pre-refactor SGD loop (see [`PqModel::train_reference`]).
    fn run_sgd_reference(&mut self, a: &SparseMatrix, config: &SgdConfig) {
        let mut order: Vec<(usize, usize, f64)> = a.iter().collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let eta = config.learning_rate;
        let lambda = config.regularization;

        for epoch in 0..config.max_epochs {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut sq_err = 0.0;
            for &(u, i, r_ui) in &order {
                let mut dot = 0.0;
                for k in 0..self.rank {
                    dot += self.row_factors.get(u, k) * self.col_factors.get(i, k);
                }
                let err = r_ui - (self.mu + self.row_bias[u] + dot);
                sq_err += err * err;
                self.row_bias[u] += eta * (err - lambda * self.row_bias[u]);
                for k in 0..self.rank {
                    let q = self.row_factors.get(u, k);
                    let p = self.col_factors.get(i, k);
                    self.row_factors.set(u, k, q + eta * (err * p - lambda * q));
                    self.col_factors.set(i, k, p + eta * (err * q - lambda * p));
                }
            }
            self.epochs_run = epoch + 1;
            self.final_residual = (sq_err / order.len() as f64).sqrt();
            if self.final_residual < config.tolerance {
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

    #[test]
    fn fused_training_is_bit_identical_to_reference() {
        let (sparse, _) = low_rank_sparse(9, 7, 2, 3);
        let fast = PqModel::train(&sparse, &SgdConfig::default());
        let slow = PqModel::train_reference(&sparse, &SgdConfig::default());
        assert_eq!(fast.rank(), slow.rank());
        assert_eq!(fast.epochs_run(), slow.epochs_run());
        assert_eq!(
            fast.final_residual().to_bits(),
            slow.final_residual().to_bits()
        );
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast.row_factors), bits(&slow.row_factors));
        assert_eq!(bits(&fast.col_factors), bits(&slow.col_factors));
        let bias_bits = |b: &[f64]| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bias_bits(&fast.row_bias), bias_bits(&slow.row_bias));
    }

    /// Drives the thread's slot through build → prefix read → new key →
    /// more epochs → oversized; every row served on the way must be the
    /// row a straight run of the generator produces. Runs on a thread of
    /// its own, so the slot starts empty.
    #[test]
    fn schedule_slot_serves_generator_rows_in_every_state() {
        std::thread::spawn(|| {
            let serve = |seed: u64, n: usize, epochs: usize| {
                let mut visits = Visits::of(seed, n, epochs);
                let mut straight = Shuffle::new(seed, n);
                for epoch in 0..epochs {
                    assert_eq!(
                        visits.epoch(epoch),
                        straight.next_epoch(),
                        "{seed} {n} {epoch}"
                    );
                }
                match visits {
                    Visits::Table(table) => Some(table),
                    Visits::Streamed(_) => None,
                }
            };
            let kept = || LAST_SCHEDULE.with_borrow(|slot| slot.clone().unwrap());

            let built = serve(1, 8, 5).expect("build");
            assert!(
                Rc::ptr_eq(&serve(1, 8, 3).unwrap(), &built),
                "a prefix read"
            );
            let other = serve(2, 8, 5).expect("a new seed");
            assert!(!Rc::ptr_eq(&other, &built) && Rc::ptr_eq(&other, &kept()));
            let longer = serve(2, 8, 10).expect("more epochs");
            assert!(!Rc::ptr_eq(&longer, &other) && Rc::ptr_eq(&longer, &kept()));
            assert_eq!(longer.rows[..5 * 8], other.rows[..]);

            // Two rows of one entry more than half the cap each: 8 bytes
            // over it.
            assert!(
                serve(3, SCHEDULE_KEY_BYTES / 8 + 1, 2).is_none(),
                "streamed"
            );
            assert!(Rc::ptr_eq(&longer, &kept()), "streaming retains nothing");
        })
        .join()
        .unwrap();
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
