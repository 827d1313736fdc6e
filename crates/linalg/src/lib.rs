//! Dense linear algebra primitives used throughout the `nncps` workspace.
//!
//! The barrier-certificate pipeline needs only small, dense problems: the
//! generator-function template is a quadratic form over a handful of state
//! variables, the CMA-ES covariance matrix has dimension equal to the number
//! of neural-network parameters, and the neural networks themselves are
//! evaluated with dense matrix–vector products.  This crate therefore provides
//! a compact, dependency-free implementation of:
//!
//! * [`Vector`] and [`Matrix`] value types with the usual arithmetic,
//! * LU decomposition with partial pivoting ([`LuDecomposition`]),
//! * symmetric eigendecomposition via the cyclic Jacobi method
//!   ([`SymmetricEigen`]), and
//! * quadratic-form helpers used by the barrier templates.
//!
//! # Examples
//!
//! ```
//! use nncps_linalg::{Matrix, Vector};
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.solve(&b).expect("matrix is invertible");
//! let residual = &a.mat_vec(&x) - &b;
//! assert!(residual.norm() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decompose;
mod eigen;
mod error;
mod matrix;
mod vector;

pub use decompose::LuDecomposition;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use vector::Vector;

/// Convenience alias for results returned by fallible linear-algebra routines.
pub type Result<T> = std::result::Result<T, LinalgError>;
