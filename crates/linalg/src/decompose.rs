//! LU decomposition with partial pivoting.

use crate::{LinalgError, Matrix, Result, Vector};

/// Threshold below which a pivot is treated as zero.
const PIVOT_TOL: f64 = 1e-12;

/// LU decomposition with partial (row) pivoting: `P A = L U`.
///
/// # Examples
///
/// ```
/// use nncps_linalg::{LuDecomposition, Matrix, Vector};
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = LuDecomposition::new(&a).expect("a is invertible");
/// let x = lu.solve(&Vector::from_slice(&[3.0, 5.0])).expect("solvable");
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined storage: strictly-lower part holds L (unit diagonal implied),
    /// upper triangle (including diagonal) holds U.
    lu: Matrix,
    /// Row permutation: row `i` of the factorization corresponds to row
    /// `perm[i]` of the original matrix.
    perm: Vec<usize>,
}

impl LuDecomposition {
    /// Factorizes the given square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square and
    /// [`LinalgError::Singular`] if a pivot smaller than `1e-12` in magnitude
    /// is encountered.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Find the pivot row.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < PIVOT_TOL {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(LuDecomposition { lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        // Forward substitution with the permuted right-hand side.
        let mut y = Vector::from_fn(n, |i| b[self.perm[i]]);
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * y[j];
            }
            y[i] = acc;
        }
        // Back substitution.
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lu_factors_and_solves() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 1.0, 1.0], &[2.0, 0.0, 3.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert_eq!(lu.dim(), 3);
        let b = Vector::from_slice(&[5.0, 6.0, 13.0]);
        let x = lu.solve(&b).unwrap();
        assert!((&a.mat_vec(&x) - &b).norm() < 1e-12);
    }

    #[test]
    fn lu_rejects_bad_inputs() {
        assert!(matches!(
            LuDecomposition::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            LuDecomposition::new(&Matrix::zeros(3, 3)),
            Err(LinalgError::Singular)
        ));
        let a = Matrix::identity(2);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(matches!(
            lu.solve(&Vector::zeros(3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    proptest! {
        #[test]
        fn prop_lu_solution_satisfies_system(
            vals in proptest::collection::vec(-3.0f64..3.0, 16),
            rhs in proptest::collection::vec(-3.0f64..3.0, 4),
        ) {
            let mut a = Matrix::from_row_major(4, 4, vals);
            for i in 0..4 {
                a[(i, i)] += 15.0; // diagonally dominant => invertible
            }
            let b = Vector::from_slice(&rhs);
            let x = LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
            prop_assert!((&a.mat_vec(&x) - &b).norm() < 1e-8);
        }
    }
}
