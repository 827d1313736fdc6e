//! Error type shared by the fallible linear-algebra routines.

use std::error::Error;
use std::fmt;

/// Errors produced by decomposition and solve routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of what was expected.
        expected: String,
        /// Human-readable description of what was found.
        found: String,
    },
    /// A matrix that must be square was not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A matrix required to be (numerically) invertible is singular.
    Singular,
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "iteration did not converge after {iterations} sweeps")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = LinalgError::NotSquare { rows: 2, cols: 3 };
        assert_eq!(err.to_string(), "matrix must be square, got 2x3");
        let err = LinalgError::Singular;
        assert!(err.to_string().contains("singular"));
        let err = LinalgError::NoConvergence { iterations: 7 };
        assert!(err.to_string().contains('7'));
        let err = LinalgError::DimensionMismatch {
            expected: "3".into(),
            found: "4".into(),
        };
        assert!(err.to_string().contains("expected 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
