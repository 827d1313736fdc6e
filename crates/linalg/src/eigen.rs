//! Symmetric eigendecomposition via the cyclic Jacobi method.

use crate::{LinalgError, Matrix, Result, Vector};

/// Eigendecomposition `A = V Λ Vᵀ` of a real symmetric matrix.
///
/// The cyclic Jacobi method repeatedly zeroes off-diagonal entries with Givens
/// rotations. It is slow for very large matrices but extremely robust, which
/// is exactly what the CMA-ES covariance update and the barrier-template
/// positive-semidefiniteness checks need (dimensions up to a few thousand).
///
/// # Examples
///
/// ```
/// use nncps_linalg::{Matrix, SymmetricEigen};
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = SymmetricEigen::new(&a).expect("a is symmetric");
/// let mut vals: Vec<f64> = eig.eigenvalues().iter().copied().collect();
/// vals.sort_by(|x, y| x.partial_cmp(y).unwrap());
/// assert!((vals[0] - 1.0).abs() < 1e-10);
/// assert!((vals[1] - 3.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vector,
    eigenvectors: Matrix,
}

/// Maximum number of Jacobi sweeps.
const MAX_SWEEPS: usize = 100;

impl SymmetricEigen {
    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// The input is symmetrized (averaged with its transpose) before the
    /// iteration to absorb round-off asymmetry.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::NoConvergence`] if the off-diagonal mass does not drop
    /// below tolerance within 100 sweeps.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut m = a.clone();
        m.symmetrize();
        let mut v = Matrix::identity(n);

        if n <= 1 {
            return Ok(SymmetricEigen {
                eigenvalues: m.diagonal(),
                eigenvectors: v,
            });
        }

        let tol = 1e-14 * m.norm_frobenius().max(1.0);
        for _sweep in 0..MAX_SWEEPS {
            let off = off_diagonal_norm(&m);
            if off <= tol {
                return Ok(SymmetricEigen {
                    eigenvalues: m.diagonal(),
                    eigenvectors: v,
                });
            }
            for p in 0..n - 1 {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Compute the Jacobi rotation (c, s) that annihilates m[(p, q)].
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Update rows/columns p and q of m.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate the rotation into the eigenvector matrix.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        if off_diagonal_norm(&m) <= tol * 10.0 {
            Ok(SymmetricEigen {
                eigenvalues: m.diagonal(),
                eigenvectors: v,
            })
        } else {
            Err(LinalgError::NoConvergence {
                iterations: MAX_SWEEPS,
            })
        }
    }

    /// Eigenvalues, in the order matching the eigenvector columns (not sorted).
    pub fn eigenvalues(&self) -> &Vector {
        &self.eigenvalues
    }

    /// Matrix whose columns are the (orthonormal) eigenvectors.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Smallest eigenvalue.
    pub fn min_eigenvalue(&self) -> f64 {
        self.eigenvalues
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Returns `true` if all eigenvalues exceed `tol` (positive definiteness).
    pub fn is_positive_definite(&self, tol: f64) -> bool {
        self.min_eigenvalue() > tol
    }
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                acc += m[(i, j)] * m[(i, j)];
            }
        }
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted_eigenvalues(eig: &SymmetricEigen) -> Vec<f64> {
        let mut v: Vec<f64> = eig.eigenvalues().iter().copied().collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    /// `V Λ Vᵀ`, the matrix the decomposition claims to factor.
    fn reconstruct(eig: &SymmetricEigen) -> Matrix {
        let v = eig.eigenvectors();
        v.mat_mul(&Matrix::from_diagonal(eig.eigenvalues()))
            .mat_mul(&v.transpose())
    }

    #[test]
    fn known_2x2_spectrum() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        let vals = sorted_eigenvalues(&eig);
        assert!((vals[0] - 1.0).abs() < 1e-10);
        assert!((vals[1] - 3.0).abs() < 1e-10);
        assert!(eig.is_positive_definite(0.0));
        assert!((eig.min_eigenvalue() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn indefinite_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!(!eig.is_positive_definite(0.0));
        let vals = sorted_eigenvalues(&eig);
        assert!((vals[0] + 1.0).abs() < 1e-10);
        assert!((vals[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::from_diagonal(&Vector::from_slice(&[5.0, -2.0, 0.5]));
        let eig = SymmetricEigen::new(&a).unwrap();
        let vals = sorted_eigenvalues(&eig);
        assert!((vals[0] + 2.0).abs() < 1e-12);
        assert!((vals[1] - 0.5).abs() < 1e-12);
        assert!((vals[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_original() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((&reconstruct(&eig) - &a).norm_frobenius() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        let v = eig.eigenvectors();
        let vtv = v.transpose().mat_mul(v);
        assert!((&vtv - &Matrix::identity(3)).norm_frobenius() < 1e-10);
    }

    #[test]
    fn one_by_one_and_errors() {
        let a = Matrix::from_rows(&[&[7.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[7.0]);
        assert!(matches!(
            SymmetricEigen::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn eigenpairs_satisfy_definition() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 3.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        for k in 0..2 {
            let v = eig.eigenvectors().column(k);
            let av = a.mat_vec(&v);
            let lv = v.scaled(eig.eigenvalues()[k]);
            assert!((&av - &lv).norm() < 1e-10);
        }
    }

    proptest! {
        #[test]
        fn prop_spd_matrices_have_positive_spectrum(
            vals in proptest::collection::vec(-2.0f64..2.0, 16)
        ) {
            let b = Matrix::from_row_major(4, 4, vals);
            let a = &b.mat_mul(&b.transpose()) + &Matrix::identity(4);
            let eig = SymmetricEigen::new(&a).unwrap();
            prop_assert!(eig.is_positive_definite(1e-9));
        }

        #[test]
        fn prop_trace_equals_eigenvalue_sum(
            vals in proptest::collection::vec(-3.0f64..3.0, 9)
        ) {
            let mut a = Matrix::from_row_major(3, 3, vals);
            a.symmetrize();
            let eig = SymmetricEigen::new(&a).unwrap();
            let trace: f64 = a.diagonal().iter().sum();
            let sum: f64 = eig.eigenvalues().iter().sum();
            prop_assert!((trace - sum).abs() < 1e-8);
        }

        #[test]
        fn prop_reconstruction(vals in proptest::collection::vec(-3.0f64..3.0, 9)) {
            let mut a = Matrix::from_row_major(3, 3, vals);
            a.symmetrize();
            let eig = SymmetricEigen::new(&a).unwrap();
            prop_assert!((&reconstruct(&eig) - &a).norm_frobenius() < 1e-8);
        }
    }
}
