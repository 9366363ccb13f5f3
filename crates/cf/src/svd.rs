//! Singular Value Decomposition via one-sided Jacobi rotations.
//!
//! The [`svd`] kernel works on a contiguous **column-major** copy of the
//! input: one-sided Jacobi touches whole columns (Gram accumulation and
//! plane rotations), so laying each column out as a flat slice turns
//! every inner loop into a bounds-check-free `zip` over contiguous
//! memory. The floating-point accumulation order of the original
//! per-element loops is preserved exactly, so the output is
//! **bit-identical** to the naive implementation (kept as
//! [`svd_reference`] for property tests and the kernel benchmarks).

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

/// Two disjoint column slices (`p < q`) of a column-major buffer whose
/// columns are `len` elements long.
#[inline]
fn col_pair_mut(data: &mut [f64], len: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q, "column pair must be ordered");
    let (left, right) = data.split_at_mut(q * len);
    (&mut left[p * len..p * len + len], &mut right[..len])
}

/// Lanes per block of the width-blocked rotation kernel: one 4-wide
/// `f64` vector (AVX2) or two 2-wide ones (SSE2/NEON).
const ROTATE_LANES: usize = 4;

/// The straight-line rotation loop, kept both as the remainder handler
/// of [`rotate_cols`] and as the comparison baseline for the
/// blocked-vs-scalar benches and proptests.
#[inline]
pub fn rotate_cols_scalar(colp: &mut [f64], colq: &mut [f64], c: f64, s: f64) {
    for (x, y) in colp.iter_mut().zip(colq.iter_mut()) {
        let (ap, aq) = (*x, *y);
        *x = c * ap - s * aq;
        *y = s * ap + c * aq;
    }
}

/// Applies the plane rotation `(x, y) ← (c·x − s·y, s·x + c·y)` to a
/// column pair, blocked into `ROTATE_LANES`-wide (4) bodies over fixed-size
/// array chunks (so every lane is bounds-check-free and the block maps
/// onto one SIMD register) with a scalar remainder. Each element is
/// rotated independently — there is no cross-element accumulation to
/// reassociate — so blocking stays inside the §4f bit-identity contract:
/// the output is identical to [`rotate_cols_scalar`] bit for bit.
#[inline]
pub fn rotate_cols(colp: &mut [f64], colq: &mut [f64], c: f64, s: f64) {
    debug_assert_eq!(colp.len(), colq.len(), "column pair lengths match");
    let mut ps = colp.chunks_exact_mut(ROTATE_LANES);
    let mut qs = colq.chunks_exact_mut(ROTATE_LANES);
    for (p, q) in ps.by_ref().zip(qs.by_ref()) {
        let p: &mut [f64; ROTATE_LANES] = p.try_into().expect("chunk is ROTATE_LANES wide");
        let q: &mut [f64; ROTATE_LANES] = q.try_into().expect("chunk is ROTATE_LANES wide");
        for k in 0..ROTATE_LANES {
            let (ap, aq) = (p[k], q[k]);
            p[k] = c * ap - s * aq;
            q[k] = s * ap + c * aq;
        }
    }
    rotate_cols_scalar(ps.into_remainder(), qs.into_remainder(), c, s);
}

/// Computes the thin SVD of `a` with the one-sided Jacobi method.
///
/// One-sided Jacobi applies plane rotations to the columns of a working
/// copy of `A` until all column pairs are mutually orthogonal; the column
/// norms are then the singular values, the normalized columns form `U`, and
/// the accumulated rotations form `V`. For matrices with more columns than
/// rows the decomposition is computed on `Aᵀ` and the factors swapped.
///
/// The working copy (and the rotation accumulator `V`) live in flat
/// column-major buffers, so the Gram accumulation, the rotations, and
/// the final norm pass all run over contiguous slices. Output is
/// bit-identical to [`svd_reference`].
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
    // The decomposition runs on the tall orientation: M = Aᵀ when A is
    // wide. The column-major layout of Aᵀ is exactly A's row-major
    // buffer, so the wide case needs no transpose pass at all — just a
    // copy of the data and a swap of the factors on the way out.
    let wide = a.rows() < a.cols();
    let (m, n) = if wide {
        (a.cols(), a.rows())
    } else {
        (a.rows(), a.cols())
    };
    // Column-major working set: column c occupies work[c·m .. (c+1)·m].
    // Laying the working set out by column is what makes every sweep
    // below contiguous.
    let mut work = if wide {
        a.as_slice().to_vec()
    } else {
        let mut work = vec![0.0; m * n];
        for r in 0..m {
            for (c, &value) in a.row(r).iter().enumerate() {
                work[c * m + r] = value;
            }
        }
        work
    };
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let (mut sweep_count, mut rotation_count) = (0u64, 0u64);
    for _ in 0..MAX_SWEEPS {
        sweep_count += 1;
        let mut off_diagonal = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (wp, wq) = col_pair_mut(&mut work, m, p, q);
                // Fused Gram accumulation: α = ‖a_p‖², β = ‖a_q‖²,
                // γ = a_p·a_q in one pass, each sum in ascending row
                // order exactly as the reference loops.
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for (&ap, &aq) in wp.iter().zip(wq.iter()) {
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
                rotate_cols(wp, wq, c, s);
                let (vp, vq) = col_pair_mut(&mut v, n, p, q);
                rotate_cols(vp, vq, c, s);
            }
        }
        if !off_diagonal {
            break;
        }
    }
    // One batched registry update per decomposition, not one atomic RMW
    // per rotation inside the hot loop.
    let (sweeps, rotations) = svd_metrics();
    sweeps.add(sweep_count);
    rotations.add(rotation_count);

    // Column norms are the singular values; sort them descending.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = work
        .chunks_exact(m)
        .map(|col| col.iter().map(|x| x.powi(2)).sum::<f64>().sqrt())
        .collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));

    let mut u_data = vec![0.0; m * n];
    let mut v_data = vec![0.0; n * n];
    let mut singular_values = Vec::with_capacity(n);
    for (k, &c) in order.iter().enumerate() {
        let norm = norms[c];
        singular_values.push(norm);
        if norm > 0.0 {
            for (i, &w) in work[c * m..(c + 1) * m].iter().enumerate() {
                u_data[i * n + k] = w / norm;
            }
        }
        for (i, &x) in v[c * n..(c + 1) * n].iter().enumerate() {
            v_data[i * n + k] = x;
        }
    }

    let u = DenseMatrix::from_vec(m, n, u_data);
    let v = DenseMatrix::from_vec(n, n, v_data);
    if wide {
        Svd {
            u: v,
            singular_values,
            v: u,
        }
    } else {
        Svd {
            u,
            singular_values,
            v,
        }
    }
}

/// The pre-refactor scalar-loop Jacobi SVD, frozen verbatim as the
/// correctness oracle: property tests assert [`svd`] matches it
/// bit-for-bit, and `quasar-experiments bench-kernels` measures the
/// slice kernel's speedup against it. Every element access goes through
/// bounds-checked `get`/`set` with column-strided reads over the
/// row-major buffer — exactly the cache-hostile shape the flat-slice
/// kernel replaces.
pub fn svd_reference(a: &DenseMatrix) -> Svd {
    if a.rows() < a.cols() {
        let t = svd_reference(&a.transpose());
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

    for _ in 0..MAX_SWEEPS {
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

    fn assert_bit_identical(a: &DenseMatrix) {
        let fast = svd(a);
        let slow = svd_reference(a);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&fast.singular_values),
            bits(&slow.singular_values),
            "singular values must match the reference bit-for-bit"
        );
        assert_eq!(bits(fast.u.as_slice()), bits(slow.u.as_slice()));
        assert_eq!(bits(fast.v.as_slice()), bits(slow.v.as_slice()));
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
        assert_bit_identical(&a);
    }

    #[test]
    fn wide_matrix() {
        let a = DenseMatrix::from_fn(3, 6, |r, c| (r as f64 - 1.0) * (c as f64 + 0.5) + 2.0);
        assert_reconstructs(&a, 1e-8);
        assert_bit_identical(&a);
    }

    #[test]
    fn history_shaped_matrix_is_bit_identical_to_reference() {
        // The shape the classifier decomposes on every arrival.
        let a = DenseMatrix::from_fn(25, 81, |r, c| {
            ((r * 13 + c * 7) % 17) as f64 * 0.25 + (r as f64) * 0.1
        });
        assert_bit_identical(&a);
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
        assert_bit_identical(&a);
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

    #[test]
    fn blocked_rotation_matches_scalar_across_remainder_classes() {
        let (c, s) = (0.8, 0.6);
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 81] {
            let base_p: Vec<f64> = (0..len).map(|i| i as f64 * 0.37 - 4.0).collect();
            let base_q: Vec<f64> = (0..len).map(|i| 2.5 - i as f64 * 0.11).collect();
            let (mut bp, mut bq) = (base_p.clone(), base_q.clone());
            let (mut sp, mut sq) = (base_p, base_q);
            rotate_cols(&mut bp, &mut bq, c, s);
            rotate_cols_scalar(&mut sp, &mut sq, c, s);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&bp), bits(&sp), "len {len}");
            assert_eq!(bits(&bq), bits(&sq), "len {len}");
        }
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
