//! Sparse observation matrices.

use crate::dense::DenseMatrix;

/// A sparse matrix of observed entries, the input to collaborative
/// filtering: rows are workloads, columns are configurations, and an entry
/// is a measured performance value (paper §3.2).
///
/// # Examples
///
/// ```
/// use quasar_cf::SparseMatrix;
///
/// let mut a = SparseMatrix::new(2, 4);
/// a.insert(0, 1, 3.5);
/// a.insert(1, 3, 7.0);
/// assert_eq!(a.get(0, 1), Some(3.5));
/// assert_eq!(a.get(0, 0), None);
/// assert!((a.density() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<Vec<(usize, f64)>>,
    count: usize,
}

impl SparseMatrix {
    /// Creates an empty `rows × cols` sparse matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> SparseMatrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        SparseMatrix {
            rows,
            cols,
            entries: vec![Vec::new(); rows],
            count: 0,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of observed entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no entries have been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fraction of cells that are observed, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.count as f64 / (self.rows * self.cols) as f64
    }

    /// Inserts (or overwrites) an observation.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or `value` is not finite.
    pub fn insert(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        assert!(value.is_finite(), "observations must be finite");
        let row_entries = &mut self.entries[row];
        match row_entries.iter_mut().find(|(c, _)| *c == col) {
            Some((_, v)) => *v = value,
            None => {
                row_entries.push((col, value));
                self.count += 1;
            }
        }
    }

    /// The observation at (`row`, `col`), if present.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.entries[row]
            .iter()
            .find(|(c, _)| *c == col)
            .map(|(_, v)| *v)
    }

    /// The observed `(col, value)` pairs in row `row`.
    pub fn row_entries(&self, row: usize) -> &[(usize, f64)] {
        assert!(row < self.rows, "row out of bounds");
        &self.entries[row]
    }

    /// Iterates over all observations as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |&(c, v)| (r, c, v)))
    }

    /// Mean of all observed values; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.iter().map(|(_, _, v)| v).sum::<f64>() / self.count as f64)
    }

    /// Mean of the observed values in each column; `None` for columns with
    /// no observations.
    pub fn col_means(&self) -> Vec<Option<f64>> {
        let mut sums = vec![0.0; self.cols];
        let mut counts = vec![0usize; self.cols];
        for (_, c, v) in self.iter() {
            sums[c] += v;
            counts[c] += 1;
        }
        sums.into_iter()
            .zip(counts)
            .map(|(s, n)| if n > 0 { Some(s / n as f64) } else { None })
            .collect()
    }

    /// Densifies by filling missing cells: first with the column mean, then
    /// (for columns with no observations at all) with the global mean, and
    /// finally with zero if the matrix is empty.
    pub fn to_dense_filled(&self) -> DenseMatrix {
        let global = self.mean().unwrap_or(0.0);
        let col_means = self.col_means();
        let mut dense =
            DenseMatrix::from_fn(self.rows, self.cols, |_, c| col_means[c].unwrap_or(global));
        for (r, c, v) in self.iter() {
            dense.set(r, c, v);
        }
        dense
    }

    /// Builds a fully-observed sparse matrix from the rows of `dense` in
    /// one pass.
    ///
    /// Equivalent to calling [`SparseMatrix::insert`] for every cell in
    /// row-major order, but without `insert`'s per-call linear duplicate
    /// scan of the row (which makes dense per-cell insertion
    /// O(rows · cols²)); each row slice is copied straight into the
    /// entry list.
    ///
    /// # Panics
    ///
    /// Panics if any value is not finite.
    pub fn from_dense_rows(dense: &DenseMatrix) -> SparseMatrix {
        let rows = dense.rows();
        let cols = dense.cols();
        let entries: Vec<Vec<(usize, f64)>> = (0..rows)
            .map(|r| {
                dense
                    .row(r)
                    .iter()
                    .enumerate()
                    .map(|(c, &v)| {
                        assert!(v.is_finite(), "observations must be finite");
                        (c, v)
                    })
                    .collect()
            })
            .collect();
        SparseMatrix {
            rows,
            cols,
            entries,
            count: rows * cols,
        }
    }

    /// Appends an all-missing row, returning its index.
    pub fn push_row(&mut self) -> usize {
        self.entries.push(Vec::new());
        self.rows += 1;
        self.rows - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_overwrites() {
        let mut a = SparseMatrix::new(1, 2);
        a.insert(0, 0, 1.0);
        a.insert(0, 0, 2.0);
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(0, 0), Some(2.0));
    }

    #[test]
    fn density_counts_unique_cells() {
        let mut a = SparseMatrix::new(2, 2);
        a.insert(0, 0, 1.0);
        a.insert(1, 1, 1.0);
        assert!((a.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(SparseMatrix::new(2, 2).mean(), None);
    }

    #[test]
    fn fill_uses_column_then_global_mean() {
        let mut a = SparseMatrix::new(2, 3);
        a.insert(0, 0, 2.0);
        a.insert(1, 0, 4.0);
        a.insert(0, 1, 10.0);
        let d = a.to_dense_filled();
        // Column 0 fully observed.
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 0), 4.0);
        // Column 1 missing row 1 -> column mean 10.
        assert_eq!(d.get(1, 1), 10.0);
        // Column 2 unobserved -> global mean (2+4+10)/3.
        assert!((d.get(0, 2) - 16.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn push_row_grows() {
        let mut a = SparseMatrix::new(1, 2);
        let r = a.push_row();
        assert_eq!(r, 1);
        assert_eq!(a.rows(), 2);
        a.insert(1, 1, 9.0);
        assert_eq!(a.get(1, 1), Some(9.0));
    }

    #[test]
    fn from_dense_rows_equals_per_cell_insertion() {
        let dense = DenseMatrix::from_fn(4, 5, |r, c| (r * 5 + c) as f64 * 0.5 - 3.0);
        let bulk = SparseMatrix::from_dense_rows(&dense);
        let mut cellwise = SparseMatrix::new(4, 5);
        for r in 0..4 {
            for c in 0..5 {
                cellwise.insert(r, c, dense.get(r, c));
            }
        }
        assert_eq!(bulk, cellwise);
        assert_eq!(bulk.len(), 20);
        assert!((bulk.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "observations must be finite")]
    fn from_dense_rows_rejects_non_finite() {
        let dense = DenseMatrix::from_fn(1, 2, |_, c| if c == 0 { 1.0 } else { f64::INFINITY });
        let _ = SparseMatrix::from_dense_rows(&dense);
    }

    #[test]
    #[should_panic(expected = "observations must be finite")]
    fn non_finite_observation_panics() {
        SparseMatrix::new(1, 1).insert(0, 0, f64::NAN);
    }
}
