//! Singular Value Decomposition via one-sided Jacobi rotations.
//!
//! [`svd`] is the plain loop: bounds-checked `get`/`set` over a row-major
//! working copy. It runs once per history axis when the fold-in factors
//! are built and once per full retrain, off the arrival path. The
//! fingerprint tests below pin its output bits.

use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Registry};

use crate::dense::DenseMatrix;

/// Convergence threshold for column orthogonality, relative to column norms.
const JACOBI_TOL: f64 = 1e-12;

/// Maximum number of Jacobi sweeps; in practice a handful suffice.
const MAX_SWEEPS: usize = 60;

/// Registry handles for the Jacobi kernel counters
/// (`quasar.cf.svd.*`). Both count logical work — a pure function of
/// the decomposed matrices — so they stay in deterministic snapshots.
fn svd_metrics() -> &'static (Counter, Counter) {
    static METRICS: OnceLock<(Counter, Counter)> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        (
            reg.counter("quasar.cf.svd.sweeps"),
            reg.counter("quasar.cf.svd.rotations"),
        )
    })
}

/// The result of a singular value decomposition `A = U · diag(σ) · Vᵀ`.
///
/// `U` is `m × r`, `V` is `n × r`, and `singular_values` holds the `r =
/// min(m, n)` singular values in non-increasing order.
#[derive(Debug, Clone, PartialEq)]
pub struct Svd {
    /// Left singular vectors, one per column.
    pub u: DenseMatrix,
    /// Singular values in non-increasing order.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, one per column.
    pub v: DenseMatrix,
}

impl Svd {
    /// Reconstructs `U · diag(σ) · Vᵀ`.
    ///
    /// Evaluates each cell as a dot product of the `U` row and `V` row
    /// slices (this sits inside the fig3 exhaustive-baseline loop); the
    /// `k`-order summation matches the original `from_fn` closure
    /// bit-for-bit.
    pub fn reconstruct(&self) -> DenseMatrix {
        let m = self.u.rows();
        let n = self.v.rows();
        let r = self.singular_values.len();
        let sigma = &self.singular_values[..];
        let mut data = Vec::with_capacity(m * n);
        // The scaled products `u_ik · σ_k` are hoisted out of the inner
        // `j` loop: `m·n·r` multiplies become `m·r` scales plus a plain
        // inner product. `u * s * v` parses as `(u * s) * v`, so reusing
        // the `u * s` product changes no operation and no bit.
        let mut us = vec![0.0; r];
        for i in 0..m {
            let urow = &self.u.row(i)[..r];
            for (dst, (&u, &s)) in us.iter_mut().zip(urow.iter().zip(sigma)) {
                *dst = u * s;
            }
            for j in 0..n {
                let vrow = &self.v.row(j)[..r];
                let mut sum = 0.0;
                for (&us_k, &v) in us.iter().zip(vrow) {
                    sum += us_k * v;
                }
                data.push(sum);
            }
        }
        DenseMatrix::from_vec(m, n, data)
    }

    /// The smallest rank whose singular values capture at least `energy`
    /// (a fraction in `(0, 1]`) of the total squared spectrum.
    ///
    /// Always returns at least 1.
    pub fn rank_for_energy(&self, energy: f64) -> usize {
        let total: f64 = self.singular_values.iter().map(|s| s * s).sum();
        // A non-finite spectrum (NaN singular values from degenerate
        // inputs) must be guarded explicitly: a NaN total fails
        // `<= 0.0`, and downstream `acc >= NaN-target` never fires, so
        // the old code silently returned full rank.
        if !total.is_finite() || total <= 0.0 {
            return 1;
        }
        let target = energy.clamp(0.0, 1.0) * total;
        let mut acc = 0.0;
        for (k, s) in self.singular_values.iter().enumerate() {
            acc += s * s;
            if acc >= target {
                return k + 1;
            }
        }
        self.singular_values.len().max(1)
    }
}

/// Computes the thin SVD of `a` with the one-sided Jacobi method.
///
/// One-sided Jacobi applies plane rotations to the columns of a working
/// copy of `A` until all column pairs are mutually orthogonal; the column
/// norms are then the singular values, the normalized columns form `U`, and
/// the accumulated rotations form `V`. For matrices with more columns than
/// rows the decomposition is computed on `Aᵀ` and the factors swapped.
///
/// # Examples
///
/// ```
/// use quasar_cf::{svd, DenseMatrix};
///
/// let a = DenseMatrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
/// let d = svd(&a);
/// assert!((d.singular_values[0] - 4.0).abs() < 1e-9);
/// assert!((d.singular_values[1] - 3.0).abs() < 1e-9);
/// assert!(d.reconstruct().max_abs_diff(&a) < 1e-9);
/// ```
pub fn svd(a: &DenseMatrix) -> Svd {
    if a.rows() < a.cols() {
        let t = svd(&a.transpose());
        return Svd {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
        };
    }

    let m = a.rows();
    let n = a.cols();
    let mut work = a.clone();
    let mut v = DenseMatrix::identity(n);

    let (mut sweep_count, mut rotation_count) = (0u64, 0u64);
    for _ in 0..MAX_SWEEPS {
        sweep_count += 1;
        let mut off_diagonal = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for i in 0..m {
                    let ap = work.get(i, p);
                    let aq = work.get(i, q);
                    alpha += ap * ap;
                    beta += aq * aq;
                    gamma += ap * aq;
                }
                if gamma.abs() <= JACOBI_TOL * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                off_diagonal = true;
                rotation_count += 1;
                // Jacobi rotation that zeroes the (p, q) Gram entry.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let ap = work.get(i, p);
                    let aq = work.get(i, q);
                    work.set(i, p, c * ap - s * aq);
                    work.set(i, q, s * ap + c * aq);
                }
                for i in 0..n {
                    let vp = v.get(i, p);
                    let vq = v.get(i, q);
                    v.set(i, p, c * vp - s * vq);
                    v.set(i, q, s * vp + c * vq);
                }
            }
        }
        if !off_diagonal {
            break;
        }
    }
    // One batched registry update per decomposition, not one atomic RMW
    // per rotation inside the loop.
    let (sweeps, rotations) = svd_metrics();
    sweeps.add(sweep_count);
    rotations.add(rotation_count);

    // Column norms are the singular values; sort them descending.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n)
        .map(|c| (0..m).map(|i| work.get(i, c).powi(2)).sum::<f64>().sqrt())
        .collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));

    let mut u = DenseMatrix::zeros(m, n);
    let mut v_sorted = DenseMatrix::zeros(n, n);
    let mut singular_values = Vec::with_capacity(n);
    for (k, &c) in order.iter().enumerate() {
        let norm = norms[c];
        singular_values.push(norm);
        for i in 0..m {
            let val = if norm > 0.0 {
                work.get(i, c) / norm
            } else {
                0.0
            };
            u.set(i, k, val);
        }
        for i in 0..n {
            v_sorted.set(i, k, v.get(i, c));
        }
    }

    Svd {
        u,
        singular_values,
        v: v_sorted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_reconstructs(a: &DenseMatrix, tol: f64) {
        let d = svd(a);
        assert!(
            d.reconstruct().max_abs_diff(a) < tol,
            "SVD must reconstruct the input"
        );
        for w in d.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "singular values must be sorted");
        }
        for s in &d.singular_values {
            assert!(*s >= 0.0, "singular values must be non-negative");
        }
    }

    #[test]
    fn diagonal_matrix() {
        let a = DenseMatrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 1.0]);
        let d = svd(&a);
        assert!((d.singular_values[0] - 5.0).abs() < 1e-9);
        assert!((d.singular_values[1] - 2.0).abs() < 1e-9);
        assert!((d.singular_values[2] - 1.0).abs() < 1e-9);
        assert_reconstructs(&a, 1e-9);
    }

    #[test]
    fn tall_matrix() {
        let a = DenseMatrix::from_fn(5, 3, |r, c| ((r + 1) * (c + 2)) as f64 + (r as f64) * 0.3);
        assert_reconstructs(&a, 1e-8);
    }

    #[test]
    fn wide_matrix() {
        let a = DenseMatrix::from_fn(3, 6, |r, c| (r as f64 - 1.0) * (c as f64 + 0.5) + 2.0);
        assert_reconstructs(&a, 1e-8);
    }

    #[test]
    fn rank_one_matrix_has_one_singular_value() {
        let a = DenseMatrix::from_fn(4, 4, |r, c| ((r + 1) * (c + 1)) as f64);
        let d = svd(&a);
        assert!(d.singular_values[0] > 1.0);
        for s in &d.singular_values[1..] {
            assert!(*s < 1e-8, "rank-1 matrix has a single non-zero σ");
        }
        assert_eq!(d.rank_for_energy(0.99), 1);
    }

    #[test]
    fn zero_matrix() {
        let a = DenseMatrix::zeros(3, 2);
        let d = svd(&a);
        assert!(d.singular_values.iter().all(|&s| s == 0.0));
        assert!(d.reconstruct().max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn u_columns_are_orthonormal() {
        let a = DenseMatrix::from_fn(6, 4, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
        let d = svd(&a);
        for p in 0..d.u.cols() {
            for q in p..d.u.cols() {
                let dot: f64 = (0..d.u.rows()).map(|i| d.u.get(i, p) * d.u.get(i, q)).sum();
                let expect = if p == q { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8, "u columns {p},{q}: dot={dot}");
            }
        }
    }

    #[test]
    fn rank_for_energy_is_monotone() {
        let a = DenseMatrix::from_fn(5, 5, |r, c| 1.0 / (1.0 + r as f64 + c as f64));
        let d = svd(&a);
        assert!(d.rank_for_energy(0.5) <= d.rank_for_energy(0.9));
        assert!(d.rank_for_energy(0.9) <= d.rank_for_energy(1.0));
        assert!(d.rank_for_energy(0.0) >= 1);
    }

    #[test]
    fn rank_for_energy_guards_non_finite_spectrum() {
        // Regression: a NaN total used to slip past `total <= 0.0`, and
        // `acc >= NaN` never fires, so the old code returned full rank.
        let nan = Svd {
            u: DenseMatrix::identity(3),
            singular_values: vec![f64::NAN, 1.0, 0.5],
            v: DenseMatrix::identity(3),
        };
        assert_eq!(nan.rank_for_energy(0.95), 1);
        let inf = Svd {
            u: DenseMatrix::identity(2),
            singular_values: vec![f64::INFINITY, 1.0],
            v: DenseMatrix::identity(2),
        };
        assert_eq!(inf.rank_for_energy(0.95), 1);
    }

    /// FNV-1a over the little-endian bytes of each value's bits.
    fn fingerprint(values: &[f64]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for byte in values.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    fn svd_fingerprint(a: &DenseMatrix) -> u64 {
        let d = svd(a);
        let mut all = d.singular_values.clone();
        all.extend_from_slice(d.u.as_slice());
        all.extend_from_slice(d.v.as_slice());
        fingerprint(&all)
    }

    #[test]
    fn history_shaped_svd_bits_are_pinned() {
        // The shape of one history axis: 25 rows, 81 columns.
        let a = DenseMatrix::from_fn(25, 81, |r, c| {
            ((r * 13 + c * 7) % 17) as f64 * 0.25 + (r as f64) * 0.1
        });
        assert_eq!(svd_fingerprint(&a), 15946386061459307781);
    }

    #[test]
    fn wide_and_tall_svd_bits_are_pinned() {
        let wide = DenseMatrix::from_fn(3, 6, |r, c| (r as f64 - 1.0) * (c as f64 + 0.5) + 2.0);
        assert_eq!(svd_fingerprint(&wide), 3524502025637256766);
        let tall = DenseMatrix::from_fn(7, 5, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
        assert_eq!(svd_fingerprint(&tall), 5767909761184389818);
    }

    #[test]
    fn sweep_and_rotation_counters_advance() {
        let (sweeps, rotations) = svd_metrics();
        let (s0, r0) = (sweeps.get(), rotations.get());
        let a = DenseMatrix::from_fn(6, 4, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
        let _ = svd(&a);
        assert!(sweeps.get() > s0, "a non-trivial SVD must record sweeps");
        assert!(rotations.get() > r0, "a non-trivial SVD must rotate");
    }
}
