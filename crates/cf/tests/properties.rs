//! Property-based tests for the collaborative-filtering engine.

use proptest::prelude::*;

use quasar_cf::{svd, DenseMatrix, PqModel, Reconstructor, SgdConfig, SparseMatrix};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strategy: a small dense matrix with bounded entries.
fn dense_matrix(max_dim: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| DenseMatrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SVD must reconstruct any matrix to numerical precision, and the
    /// singular values must be sorted and non-negative.
    #[test]
    fn svd_reconstructs_any_matrix(a in dense_matrix(8)) {
        let d = svd(&a);
        let err = d.reconstruct().max_abs_diff(&a);
        prop_assert!(err < 1e-6, "reconstruction error {err}");
        for w in d.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        for s in &d.singular_values {
            prop_assert!(*s >= 0.0);
        }
    }

    /// The energy-rank is monotone in the requested energy and within the
    /// matrix dimensions.
    #[test]
    fn rank_for_energy_is_monotone_and_bounded(a in dense_matrix(8), e1 in 0.0..1.0f64, e2 in 0.0..1.0f64) {
        let d = svd(&a);
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(d.rank_for_energy(lo) <= d.rank_for_energy(hi));
        prop_assert!(d.rank_for_energy(hi) <= d.singular_values.len().max(1));
        prop_assert!(d.rank_for_energy(lo) >= 1);
    }

    /// A rank-1 matrix observed at high density is recovered usefully
    /// everywhere by the full reconstruction pipeline. (Columns with no
    /// coverage at all are unrecoverable in principle, so the mask keeps
    /// every row and column well observed.)
    #[test]
    fn reconstructor_recovers_rank_one(
        row_f in proptest::collection::vec(0.5..3.0f64, 6),
        col_f in proptest::collection::vec(0.5..3.0f64, 6),
        mask in proptest::collection::vec(0u8..100, 36),
    ) {
        let truth = DenseMatrix::from_fn(6, 6, |r, c| row_f[r] * col_f[c]);
        let mut sparse = SparseMatrix::new(6, 6);
        let mut per_row = [0usize; 6];
        let mut per_col = [0usize; 6];
        for r in 0..6 {
            for c in 0..6 {
                // ~70% density plus the two diagonals for coverage.
                if mask[r * 6 + c] < 70 || c == r || (c + 1) % 6 == r {
                    sparse.insert(r, c, truth.get(r, c));
                    per_row[r] += 1;
                    per_col[c] += 1;
                }
            }
        }
        prop_assume!(per_row.iter().all(|&n| n >= 3));
        prop_assume!(per_col.iter().all(|&n| n >= 3));
        let dense = Reconstructor::new().reconstruct(&sparse);
        // Two robust properties: the typical relative error is bounded,
        // and collaborative filtering is never much worse than the naive
        // column-mean predictor (and usually far better) — the value
        // proposition the classification engine rests on.
        let rms = |pred: &dyn Fn(usize, usize) -> f64| -> f64 {
            let mut sum_sq = 0.0;
            for r in 0..6 {
                for c in 0..6 {
                    let rel = (pred(r, c) - truth.get(r, c)).abs() / truth.get(r, c);
                    sum_sq += rel * rel;
                }
            }
            (sum_sq / 36.0).sqrt()
        };
        let cf_rms = rms(&|r, c| dense.get(r, c));
        let col_means = sparse.col_means();
        let global = sparse.mean().unwrap_or(0.0);
        let mean_rms = rms(&|_, c| col_means[c].unwrap_or(global));
        prop_assert!(cf_rms < 1.5, "cf rms {cf_rms}");
        prop_assert!(
            cf_rms <= mean_rms * 1.10 + 1e-9,
            "cf rms {cf_rms} vs column-mean rms {mean_rms}"
        );
    }

    /// PQ training never produces non-finite predictions on bounded data.
    #[test]
    fn pq_predictions_are_finite(
        entries in proptest::collection::vec((0usize..5, 0usize..7, -5.0..5.0f64), 6..30)
    ) {
        let mut a = SparseMatrix::new(5, 7);
        for (r, c, v) in entries {
            a.insert(r, c, v);
        }
        prop_assume!(!a.is_empty());
        let model = PqModel::train(&a, &SgdConfig::default());
        for r in 0..5 {
            for c in 0..7 {
                prop_assert!(model.predict(r, c).is_finite());
            }
        }
    }

    /// Observed entries always survive reconstruction verbatim.
    #[test]
    fn observed_entries_are_authoritative(
        entries in proptest::collection::vec((0usize..4, 0usize..4, -3.0..3.0f64), 4..16)
    ) {
        let mut a = SparseMatrix::new(4, 4);
        for (r, c, v) in &entries {
            a.insert(*r, *c, *v);
        }
        let dense = Reconstructor::new().reconstruct(&a);
        for (r, c, v) in a.iter() {
            prop_assert_eq!(dense.get(r, c), v);
        }
    }

    /// Bulk construction from dense rows is exactly per-cell insertion.
    #[test]
    fn from_dense_rows_matches_per_cell_insertion(a in dense_matrix(8)) {
        let bulk = SparseMatrix::from_dense_rows(&a);
        let mut cellwise = SparseMatrix::new(a.rows(), a.cols());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                cellwise.insert(r, c, a.get(r, c));
            }
        }
        prop_assert_eq!(&bulk, &cellwise);
        prop_assert_eq!(bulk.len(), a.rows() * a.cols());
        prop_assert_eq!(
            bits(bulk.to_dense_filled().as_slice()),
            bits(cellwise.to_dense_filled().as_slice())
        );
    }

    /// End-to-end: `reconstruct_row` returns the same bits when run
    /// twice in a row on this thread and once on a fresh thread: the
    /// kernels keep no state between calls.
    #[test]
    fn reconstruct_row_bits_do_not_depend_on_the_thread(
        h in dense_matrix(6),
        t0 in -5.0..5.0f64,
        t1 in -5.0..5.0f64,
        seed in any::<u64>(),
    ) {
        let config = SgdConfig { max_epochs: 30, seed, ..SgdConfig::default() };
        let target = [(0usize, t0), (h.cols() - 1, t1)];
        let run = || {
            Reconstructor::new()
                .with_config(config)
                .reconstruct_row(&h, &target)
                .unwrap()
        };
        let first = run();
        let again = run();
        let on_fresh_thread = std::thread::scope(|scope| scope.spawn(run).join().unwrap());
        prop_assert_eq!(bits(&first), bits(&again));
        prop_assert_eq!(bits(&first), bits(&on_fresh_thread));
    }

    /// Sparse-matrix bookkeeping: density matches unique cells.
    #[test]
    fn sparse_density_counts_unique_cells(
        entries in proptest::collection::vec((0usize..5, 0usize..5, 0.0..1.0f64), 0..40)
    ) {
        let mut a = SparseMatrix::new(5, 5);
        let mut unique = std::collections::BTreeSet::new();
        for (r, c, v) in &entries {
            a.insert(*r, *c, *v);
            unique.insert((*r, *c));
        }
        prop_assert_eq!(a.len(), unique.len());
        prop_assert!((a.density() - unique.len() as f64 / 25.0).abs() < 1e-12);
    }
}
