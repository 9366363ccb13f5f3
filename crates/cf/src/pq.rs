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

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

/// Registry handles for `quasar.cf.sgd.schedule.*`. Unlike the epoch
/// count these depend on process history (a second experiment in one
/// process hits where the first built; racing threads may both build),
/// so the prefix is listed in `quasar_obs::registry::LIVE_PREFIXES`.
struct ScheduleMetrics {
    hits: Counter,
    builds: Counter,
    evictions: Counter,
    streamed: Counter,
}

fn schedule_metrics() -> &'static ScheduleMetrics {
    static METRICS: OnceLock<ScheduleMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let counter = |name: &str| Registry::global().counter(name);
        ScheduleMetrics {
            hits: counter("quasar.cf.sgd.schedule.hits"),
            builds: counter("quasar.cf.sgd.schedule.builds"),
            evictions: counter("quasar.cf.sgd.schedule.evictions"),
            streamed: counter("quasar.cf.sgd.schedule.streamed"),
        }
    })
}

/// The per-epoch Fisher–Yates reshuffle of [`PqModel::run_sgd_reference`]
/// with the data taken out: the same draws from the same generator, the
/// stream continuing across epochs, applied to the identity permutation
/// of `0..n` instead of to the entries. The reference's visit order
/// after any epoch is then `base[perm[k]]` over its starting order
/// `base` — a function of `(seed, n, epoch)` alone.
#[derive(Debug, Clone)]
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

/// The first `epochs` permutations of one `(seed, n)` [`Shuffle`] as
/// flat rows of `n`, with the generator parked after the last row so a
/// request for more epochs extends the table instead of replaying it.
#[derive(Debug)]
struct Schedule {
    rows: Vec<u32>,
    epochs: usize,
    shuffle: Shuffle,
}

impl Schedule {
    /// A table of `epochs` rows, continuing from `prefix` (a shorter
    /// table of the same key) when there is one.
    fn build(prefix: Option<&Schedule>, seed: u64, n: usize, epochs: usize) -> Schedule {
        let mut rows = Vec::with_capacity(epochs * n);
        let (mut shuffle, have) = match prefix {
            Some(p) => {
                rows.extend_from_slice(&p.rows);
                (p.shuffle.clone(), p.epochs)
            }
            None => (Shuffle::new(seed, n), 0),
        };
        for _ in have..epochs {
            rows.extend_from_slice(shuffle.next_epoch());
        }
        Schedule {
            rows,
            epochs,
            shuffle,
        }
    }

    fn row(&self, epoch: usize) -> &[u32] {
        let n = self.shuffle.perm.len();
        &self.rows[epoch * n..(epoch + 1) * n]
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.rows.as_slice())
    }
}

/// Where one training run reads its visit orders from.
enum Visits {
    /// Rows of a memoised table.
    Memoised(Arc<Schedule>),
    /// A key too large to retain: the generator itself, one reused row.
    Streamed(Shuffle),
}

impl Visits {
    /// The visit order of `epoch`. Called with `epoch = 0, 1, 2, …` in
    /// order (the streamed generator cannot seek).
    fn epoch(&mut self, epoch: usize) -> &[u32] {
        match self {
            Visits::Memoised(schedule) => schedule.row(epoch),
            Visits::Streamed(shuffle) => shuffle.next_epoch(),
        }
    }
}

/// Total bytes of visit schedules [`SCHEDULES`] keeps resident. The four
/// live shapes (n = 242 / 338 / 602 / 770 at 800 epochs) need 6.2 MB;
/// fig3's density sweep mints dozens of distinct `n` and would otherwise
/// grow the process by hundreds of MB.
const SCHEDULE_BUDGET_BYTES: usize = 32 << 20;
/// Largest table retained for one key; a request beyond it (the
/// exhaustive classifier's n in the tens of thousands) is streamed.
const SCHEDULE_KEY_BYTES: usize = SCHEDULE_BUDGET_BYTES / 4;

/// Process-wide memo of [`Schedule`]s keyed by `(seed, n)`, filled on
/// first use and evicted least-recently-used to stay within `budget`.
struct ScheduleMemo {
    budget: usize,
    per_key: usize,
    state: Mutex<MemoState>,
}

struct MemoState {
    clock: u64,
    bytes: usize,
    /// Per key: the clock of its last use, and the table.
    tables: BTreeMap<(u64, usize), (u64, Arc<Schedule>)>,
}

static SCHEDULES: ScheduleMemo = ScheduleMemo::new(SCHEDULE_BUDGET_BYTES, SCHEDULE_KEY_BYTES);

impl ScheduleMemo {
    const fn new(budget: usize, per_key: usize) -> ScheduleMemo {
        assert!(per_key <= budget);
        ScheduleMemo {
            budget,
            per_key,
            state: Mutex::new(MemoState {
                clock: 0,
                bytes: 0,
                tables: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.state
            .lock()
            .expect("a thread panicked while updating the schedule memo")
    }

    /// The visit orders of the first `epochs` epochs of `(seed, n)`.
    fn visits(&self, seed: u64, n: usize, epochs: usize) -> Visits {
        let metrics = schedule_metrics();
        let bytes = epochs
            .saturating_mul(n)
            .saturating_mul(std::mem::size_of::<u32>());
        if bytes > self.per_key {
            metrics.streamed.inc();
            return Visits::Streamed(Shuffle::new(seed, n));
        }
        let key = (seed, n);
        let prefix = {
            let mut state = self.lock();
            state.clock += 1;
            let now = state.clock;
            match state.tables.get_mut(&key) {
                Some((used, table)) if table.epochs >= epochs => {
                    *used = now;
                    metrics.hits.inc();
                    return Visits::Memoised(Arc::clone(table));
                }
                shorter => shorter.map(|(_, table)| Arc::clone(table)),
            }
        };
        // Built outside the lock, so threads cold on different keys (the
        // four axes of a first arrival) do not queue behind one another;
        // two threads cold on the same key both build the same rows.
        let table = Arc::new(Schedule::build(prefix.as_deref(), seed, n, epochs));
        metrics.builds.inc();

        let mut state = self.lock();
        state.clock += 1;
        let now = state.clock;
        let raced = state
            .tables
            .get(&key)
            .is_some_and(|(_, theirs)| theirs.epochs >= epochs);
        if !raced {
            let old = state.tables.insert(key, (now, Arc::clone(&table)));
            state.bytes += table.bytes();
            state.bytes -= old.map_or(0, |(_, old)| old.bytes());
        }
        while state.bytes > self.budget {
            // `per_key <= budget`, so the table just stamped `now` is
            // never the one to go.
            let lru = state
                .tables
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(key, _)| *key)
                .expect("a non-zero byte count has a table behind it");
            let (_, evicted) = state.tables.remove(&lru).expect("key was just found");
            state.bytes -= evicted.bytes();
            metrics.evictions.inc();
        }
        Visits::Memoised(table)
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
    /// The per-row biases of `a` against the global mean `mu`.
    fn row_biases(a: &SparseMatrix, mu: f64) -> Vec<f64> {
        let mut row_bias = vec![0.0; a.rows()];
        for (r, bias) in row_bias.iter_mut().enumerate() {
            let entries = a.row_entries(r);
            if !entries.is_empty() {
                let mean: f64 = entries.iter().map(|(_, v)| v).sum::<f64>() / entries.len() as f64;
                *bias = mean - mu;
            }
        }
        row_bias
    }

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
        let row_bias = PqModel::row_biases(a, mu);

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

    /// Trains a model warm-started from the factors of `init` — a model
    /// previously trained on a closely-related matrix — instead of the
    /// SVD. `μ` and the per-row biases are recomputed from `a` (cheap,
    /// one pass over the observed entries); the factor matrices and rank
    /// are copied from `init`; SGD then refines everything as usual.
    /// Skipping the Jacobi SVD of the mean-filled matrix is where the
    /// similarity index's warm-start latency win comes from.
    ///
    /// Returns `None` when the shapes are incompatible: `init` must
    /// carry one factor row per row of `a` and one per column of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` has no observed entries.
    pub fn train_warm(a: &SparseMatrix, config: &SgdConfig, init: &PqModel) -> Option<PqModel> {
        assert!(!a.is_empty(), "cannot train on an empty matrix");
        if init.row_factors.rows() != a.rows() || init.col_factors.rows() != a.cols() {
            return None;
        }
        let mu = a.mean().expect("matrix is non-empty");
        let mut model = PqModel {
            mu,
            row_bias: PqModel::row_biases(a, mu),
            row_factors: init.row_factors.clone(),
            col_factors: init.col_factors.clone(),
            rank: init.rank,
            epochs_run: 0,
            final_residual: f64::INFINITY,
        };
        model.run_sgd(a, config);
        Some(model)
    }

    /// Fused SGD: one pass per observed entry over a `(q_u, p_i)` row
    /// slice pair — predict, bias update, and factor update together,
    /// monomorphized per latent rank (see [`sgd_entry_pass`]). The
    /// entries stay in `a.iter()` order and each epoch visits them
    /// through a memoised permutation (see [`Shuffle`]), which is the
    /// order [`PqModel::run_sgd_reference`] reaches by reshuffling them;
    /// operation order matches it exactly, so every intermediate (and
    /// hence the trained model) is bit-identical.
    fn run_sgd(&mut self, a: &SparseMatrix, config: &SgdConfig) {
        let base: Vec<(usize, usize, f64)> = a.iter().collect();
        let mut visits = SCHEDULES.visits(config.seed, base.len(), config.max_epochs);
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
    /// through bounds-checked `get`/`set`, and the SVD warm start uses
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

    /// `train_warm` shares `run_sgd` with `train`; its oracle is the
    /// frozen loop run from the same warm initialization.
    #[test]
    fn warm_training_is_bit_identical_to_reference_order() {
        let (sparse, _) = low_rank_sparse(9, 7, 2, 3);
        let init = PqModel::train(&sparse, &SgdConfig::default());
        let mut nudged = SparseMatrix::new(9, 7);
        for (r, c, v) in sparse.iter() {
            nudged.insert(r, c, v * (1.0 + 0.004 * ((r + 2 * c) % 5) as f64));
        }
        for (seed, max_epochs, tolerance) in [(0x5eed, 800, 1e-4), (7, 33, 1e-4), (7, 90, 0.05)] {
            let config = SgdConfig {
                seed,
                max_epochs,
                tolerance,
                ..SgdConfig::default()
            };
            let fast = PqModel::train_warm(&nudged, &config, &init).expect("shapes match");
            let mu = nudged.mean().expect("non-empty");
            let mut slow = PqModel {
                mu,
                row_bias: PqModel::row_biases(&nudged, mu),
                epochs_run: 0,
                final_residual: f64::INFINITY,
                ..init.clone()
            };
            slow.run_sgd_reference(&nudged, &config);
            assert_eq!(fast.epochs_run(), slow.epochs_run());
            assert_eq!(
                fast.final_residual().to_bits(),
                slow.final_residual().to_bits()
            );
            let bits =
                |m: &DenseMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast.predict_all()), bits(&slow.predict_all()));
        }
    }

    /// Drives a private small-budget memo through build → hit → extend →
    /// evict → rebuild → oversized; every row served on the way must be
    /// the row a straight run of the generator produces.
    #[test]
    fn schedule_memo_serves_generator_rows_in_every_state() {
        // Ten epochs of n = 8 are 320 bytes: two such tables fit, three do not.
        let memo = ScheduleMemo::new(700, 320);
        let serve = |seed: u64, n: usize, epochs: usize| {
            let mut visits = memo.visits(seed, n, epochs);
            let mut straight = Shuffle::new(seed, n);
            for epoch in 0..epochs {
                assert_eq!(
                    visits.epoch(epoch),
                    straight.next_epoch(),
                    "seed {seed} n {n} epoch {epoch}"
                );
            }
            matches!(visits, Visits::Memoised(_))
        };
        let resident = || memo.lock().tables.keys().copied().collect::<Vec<_>>();
        let table = |key: (u64, usize)| Arc::clone(&memo.lock().tables[&key].1);

        assert!(serve(1, 8, 5), "build");
        let built = table((1, 8));
        assert!(serve(1, 8, 3), "hit on a prefix");
        assert!(Arc::ptr_eq(&built, &table((1, 8))), "a hit builds nothing");
        assert!(serve(1, 8, 10), "extend");
        assert_eq!(table((1, 8)).epochs, 10);
        assert_eq!(table((1, 8)).rows[..5 * 8], built.rows[..]);

        assert!(serve(2, 8, 10));
        assert!(serve(1, 8, 10), "touch (1, 8): (2, 8) is now the oldest");
        assert!(serve(1, 9, 8), "a third key evicts");
        assert_eq!(resident(), [(1, 8), (1, 9)]);
        assert!(memo.lock().bytes <= 700);
        assert!(serve(2, 8, 10), "rebuild after eviction");
        assert_eq!(resident(), [(1, 9), (2, 8)]);

        assert!(!serve(1, 8, 11), "352 bytes > per-key budget: streamed");
        assert!(!serve(3, 81, 1), "one row too large to keep");
        assert_eq!(resident(), [(1, 9), (2, 8)], "streaming retains nothing");
        assert!(serve(4, 1, 20), "n = 1 draws nothing");
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

    #[test]
    fn warm_start_fits_a_perturbed_matrix_without_svd() {
        let (sparse, truth) = low_rank_sparse(8, 8, 2, 3);
        let cold = PqModel::train(&sparse, &SgdConfig::default());

        // The same matrix with every observation nudged by < 1%.
        let mut nudged = SparseMatrix::new(8, 8);
        for (r, c, v) in sparse.iter() {
            nudged.insert(r, c, v * (1.0 + 0.004 * ((r + 2 * c) % 5) as f64));
        }
        let warm = PqModel::train_warm(&nudged, &SgdConfig::default(), &cold)
            .expect("shapes match the init model");
        assert_eq!(warm.rank(), cold.rank());
        let mut worst: f64 = 0.0;
        for r in 0..8 {
            for c in 0..8 {
                if nudged.get(r, c).is_none() {
                    let rel = (warm.predict(r, c) - truth.get(r, c)).abs() / truth.get(r, c).abs();
                    worst = worst.max(rel);
                }
            }
        }
        assert!(worst < 0.3, "warm-started model drifted: {worst}");
    }

    #[test]
    fn warm_start_rejects_mismatched_shapes() {
        let (small, _) = low_rank_sparse(5, 5, 2, 3);
        let (large, _) = low_rank_sparse(8, 8, 2, 3);
        let init = PqModel::train(&small, &SgdConfig::default());
        assert!(PqModel::train_warm(&large, &SgdConfig::default(), &init).is_none());
    }
}
