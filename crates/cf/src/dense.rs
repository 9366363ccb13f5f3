//! Row-major dense matrices.

use std::fmt;

/// A row-major dense matrix of `f64`.
///
/// Provides exactly the operations the collaborative-filtering pipeline
/// needs: element access, transpose, multiplication, column statistics, and
/// norms. Dimensions are fixed at construction.
///
/// # Examples
///
/// ```
/// use quasar_cf::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 3);
/// m.set(0, 1, 5.0);
/// assert_eq!(m.get(0, 1), 5.0);
/// assert_eq!(m.transpose().get(1, 0), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> DenseMatrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> DenseMatrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        DenseMatrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` in row-major order.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> DenseMatrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix::from_vec(rows, cols, data)
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// A view of row `row` as a slice.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// A mutable view of row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The underlying row-major data, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The transpose of this matrix.
    ///
    /// Reads each row as a contiguous slice and scatters it into the
    /// output column — one pass, no per-element bounds checks.
    pub fn transpose(&self) -> DenseMatrix {
        let mut data = vec![0.0; self.rows * self.cols];
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                data[c * self.rows + r] = v;
            }
        }
        DenseMatrix::from_vec(self.cols, self.rows, data)
    }

    /// Mean of each column.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (m, &v) in means.iter_mut().zip(self.row(r)) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Largest absolute difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = DenseMatrix::from_fn(3, 2, |r, c| (r + 10 * c) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn col_means_are_correct() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 10.0, 3.0, 20.0]);
        assert_eq!(m.col_means(), vec![2.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        DenseMatrix::zeros(2, 2).get(2, 0);
    }
}
