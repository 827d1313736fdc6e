//! Dense row-major matrices.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::{LuDecomposition, Result, Vector};

/// A dense row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use nncps_linalg::{Matrix, Vector};
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = Vector::from_slice(&[1.0, 1.0]);
/// assert_eq!(a.mat_vec(&x).as_slice(), &[3.0, 7.0]);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// ```
    /// use nncps_linalg::Matrix;
    /// let eye = Matrix::identity(2);
    /// assert_eq!(eye[(0, 0)], 1.0);
    /// assert_eq!(eye[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a function of the row and column index.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by copying a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols, "row {i} has inconsistent length");
        }
        Matrix::from_fn(nrows, ncols, |i, j| rows[i][j])
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &Vector) -> Self {
        let n = diag.len();
        Matrix::from_fn(n, n, |i, j| if i == j { diag[i] } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the underlying row-major data as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the given row as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> Vector {
        assert!(row < self.rows, "row index out of bounds");
        Vector::from_slice(&self.data[row * self.cols..(row + 1) * self.cols])
    }

    /// Returns the given column as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn column(&self, col: usize) -> Vector {
        assert!(col < self.cols, "column index out of bounds");
        Vector::from_fn(self.rows, |i| self[(i, col)])
    }

    /// Returns the diagonal as a vector (length `min(rows, cols)`).
    pub fn diagonal(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mat_vec(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.cols, "mat_vec dimension mismatch");
        Vector::from_fn(self.rows, |i| {
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += self[(i, j)] * x[j];
            }
            acc
        })
    }

    /// Vector–matrix product `xᵀ * A`, returned as a vector of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn vec_mat(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.rows, "vec_mat dimension mismatch");
        Vector::from_fn(self.cols, |j| {
            let mut acc = 0.0;
            for i in 0..self.rows {
                acc += x[i] * self[(i, j)];
            }
            acc
        })
    }

    /// Matrix–matrix product `A * B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mat_mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "mat_mul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Returns `self` scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] * factor)
    }

    /// Computes the quadratic form `xᵀ A x`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `x` has the wrong length.
    pub fn quadratic_form(&self, x: &Vector) -> f64 {
        assert!(self.is_square(), "quadratic form requires a square matrix");
        x.dot(&self.mat_vec(x))
    }

    /// Symmetrizes the matrix in place: `A ← (A + Aᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Solves `A x = b` for `x` using LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square,
    /// [`LinalgError::DimensionMismatch`] if `b` has the wrong length, or
    /// [`LinalgError::Singular`] if the matrix is numerically singular.
    ///
    /// [`LinalgError::NotSquare`]: crate::LinalgError::NotSquare
    /// [`LinalgError::DimensionMismatch`]: crate::LinalgError::DimensionMismatch
    /// [`LinalgError::Singular`]: crate::LinalgError::Singular
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        LuDecomposition::new(self)?.solve(b)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition shape mismatch"
        );
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] + rhs[(i, j)])
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix subtraction shape mismatch"
        );
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] - rhs[(i, j)])
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.mat_mul(rhs)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinalgError;
    use proptest::prelude::*;

    fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn constructors_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(Matrix::identity(3)[(2, 2)], 1.0);
        assert_eq!(Matrix::zeros(2, 3).as_slice(), &[0.0; 6]);
        let d = Matrix::from_diagonal(&Vector::from_slice(&[1.0, 2.0]));
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        let rm = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(rm, m);
    }

    #[test]
    fn rows_columns_and_diagonal() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.row(1).as_slice(), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(2).as_slice(), &[3.0, 6.0]);
        assert_eq!(m.diagonal().as_slice(), &[1.0, 5.0]);
    }

    #[test]
    fn products() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let ab = a.mat_mul(&b);
        assert_eq!(ab, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
        let x = Vector::from_slice(&[1.0, -1.0]);
        assert_eq!(a.mat_vec(&x).as_slice(), &[-1.0, -1.0]);
        assert_eq!(a.vec_mat(&x).as_slice(), &[-2.0, -2.0]);
        assert_eq!((&a * &b), ab);
        assert_eq!((&a * 2.0)[(0, 0)], 2.0);
    }

    #[test]
    fn add_sub_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        assert_eq!((&a - &b)[(1, 1)], 3.0);
        assert_eq!(a.transpose()[(0, 1)], 3.0);
    }

    #[test]
    fn quadratic_form_and_symmetry() {
        let mut a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let x = Vector::from_slice(&[1.0, 2.0]);
        // x' A x = 2 + 2 + 12 = 16
        assert_eq!(a.quadratic_form(&x), 16.0);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 0.5);
        assert_eq!(a[(1, 0)], 0.5);
    }

    #[test]
    fn solve_and_inverse() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = Vector::from_slice(&[1.0, 2.0]);
        let x = a.solve(&b).unwrap();
        let r = &a.mat_vec(&x) - &b;
        assert!(r.norm() < 1e-12);
        // The inverse, one solve per column of the identity.
        let inv = Matrix::from_fn(2, 2, |i, j| {
            a.solve(&Matrix::identity(2).column(j)).unwrap()[i]
        });
        let eye = a.mat_mul(&inv);
        assert!(approx_eq(eye[(0, 0)], 1.0, 1e-12));
        assert!(approx_eq(eye[(0, 1)], 0.0, 1e-12));
    }

    #[test]
    fn norms_and_finiteness() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.norm_frobenius(), 5.0);
        assert!(a.is_finite());
        let mut b = a.clone();
        b[(0, 0)] = f64::NAN;
        assert!(!b.is_finite());
    }

    #[test]
    fn singular_solve_is_error() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(
            a.solve(&Vector::from_slice(&[1.0, 1.0])).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn display_shows_rows() {
        let a = Matrix::identity(2);
        let s = format!("{a}");
        assert_eq!(s.lines().count(), 2);
    }

    proptest! {
        #[test]
        fn prop_transpose_involution(vals in proptest::collection::vec(-100.0f64..100.0, 12)) {
            let m = Matrix::from_row_major(3, 4, vals);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_identity_is_neutral(vals in proptest::collection::vec(-100.0f64..100.0, 9)) {
            let m = Matrix::from_row_major(3, 3, vals);
            let eye = Matrix::identity(3);
            prop_assert_eq!(m.mat_mul(&eye), m.clone());
            prop_assert_eq!(eye.mat_mul(&m), m);
        }

        #[test]
        fn prop_solve_recovers_solution(vals in proptest::collection::vec(-5.0f64..5.0, 9),
                                        xs in proptest::collection::vec(-5.0f64..5.0, 3)) {
            // Make the matrix diagonally dominant so it is well-conditioned.
            let mut m = Matrix::from_row_major(3, 3, vals);
            for i in 0..3 {
                m[(i, i)] += 20.0;
            }
            let x_true = Vector::from_slice(&xs);
            let b = m.mat_vec(&x_true);
            let x = m.solve(&b).unwrap();
            prop_assert!((&x - &x_true).norm() < 1e-8);
        }
    }
}
