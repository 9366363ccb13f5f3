//! Collaborative-filtering engine for the Quasar reproduction.
//!
//! Quasar (ASPLOS'14, §3.2) classifies workloads with the same machinery
//! popularized by the Netflix Challenge: a sparse matrix `A` with workloads
//! as rows and configurations as columns is decomposed with Singular Value
//! Decomposition (`A = U·Σ·Vᵀ`) and the missing entries are recovered with
//! PQ-reconstruction driven by Stochastic Gradient Descent, including a
//! global mean `μ` and per-row bias `b_u` exactly as in the paper's update
//! equations:
//!
//! ```text
//! ε_ui = r_ui − μ − b_u − q_i·p_uᵀ
//! q_i ← q_i + η (ε_ui p_u − λ q_i)
//! p_u ← p_u + η (ε_ui q_i − λ p_u)
//! ```
//!
//! This crate implements every piece from scratch:
//!
//! * [`DenseMatrix`] — row-major dense matrix with the operations the
//!   pipeline needs.
//! * [`SparseMatrix`] — observed entries of the ratings/performance matrix.
//! * [`svd`] — one-sided Jacobi SVD (no external linear-algebra crates).
//! * [`PqModel`] — latent-factor model trained with SGD.
//! * [`Reconstructor`] — the end-to-end pipeline (mean-fill → SVD →
//!   PQ-init → SGD → predict) used by Quasar's four classifications.
//!
//! The SVD and SGD kernels are flat-slice implementations with a strict
//! **bit-identical-output contract** against the frozen pre-refactor
//! scalar loops in [`reference`]; property tests enforce the contract
//! and `quasar-experiments bench-kernels` measures the speedup.
//!
//! # Examples
//!
//! ```
//! use quasar_cf::{Reconstructor, SparseMatrix};
//!
//! // A rank-1 matrix with a missing entry: row i is i+1 times [1 2 3].
//! let mut a = SparseMatrix::new(3, 3);
//! for r in 0..3 {
//!     for c in 0..3 {
//!         if (r, c) != (1, 2) {
//!             a.insert(r, c, (r as f64 + 1.0) * (c as f64 + 1.0));
//!         }
//!     }
//! }
//! let dense = Reconstructor::new().reconstruct(&a);
//! assert!((dense.get(1, 2) - 6.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod pq;
mod reconstruct;
mod sparse;
mod svd;

pub use dense::DenseMatrix;
pub use pq::{PqModel, SgdConfig};
pub use reconstruct::{ReconstructError, Reconstructor};
pub use sparse::SparseMatrix;
pub use svd::{svd, Svd};

/// The order-free elementwise loop kernels of the SVD (see DESIGN.md
/// §4f for the loop taxonomy that makes them safe to re-block).
///
/// Exposed so the micro-benchmarks and the `bench-kernels` emitter can
/// measure the blocked rotation against its scalar form directly; the
/// classification fast path always uses the blocked [`kernel::rotate_cols`].
pub mod kernel {
    pub use crate::svd::{rotate_cols, rotate_cols_scalar};
}

/// Frozen pre-refactor scalar-loop kernels, kept as correctness oracles.
///
/// The slice kernels ([`svd`], [`PqModel::train`]) must produce
/// bit-identical output to these; property tests assert it and the
/// `bench-kernels` emitter measures the before/after speedup. These are
/// reference implementations only — nothing on the classification fast
/// path calls them.
pub mod reference {
    pub use crate::svd::svd_reference;

    use crate::pq::{PqModel, SgdConfig};
    use crate::sparse::SparseMatrix;

    /// The pre-refactor SGD training loop; see [`PqModel::train_reference`].
    pub fn train_reference(a: &SparseMatrix, config: &SgdConfig) -> PqModel {
        PqModel::train_reference(a, config)
    }
}
