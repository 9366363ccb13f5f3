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
//!   PQ-init → SGD → predict): the full retrain of history plus one row.
//! * [`FoldIn`] — the history factored once; each new row is one small
//!   ridge least-squares solve against the fixed column factors. Quasar's
//!   four classifications run on it.
//!
//! The SVD and SGD are the plain loops of the paper's equations, one of
//! each: the SVD runs once per history axis when the fold-in factors are
//! built, and SGD only in the full retrain. Fingerprint tests pin the
//! bits of both.
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
mod fold_in;
mod pq;
mod reconstruct;
mod sparse;
mod svd;

pub use dense::DenseMatrix;
pub use fold_in::{FoldIn, FoldedRow};
pub use pq::{PqModel, SgdConfig};
pub use reconstruct::{ReconstructError, Reconstructor};
pub use sparse::SparseMatrix;
pub use svd::{svd, Svd};
