//! Public linear-program description and solution types.

use std::error::Error;
use std::fmt;

use crate::simplex;

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparison {
    /// `a·x <= b`
    Le,
    /// `a·x >= b`
    Ge,
    /// `a·x = b`
    Eq,
}

impl Comparison {
    /// Symbol used for display.
    pub fn symbol(self) -> &'static str {
        match self {
            Comparison::Le => "<=",
            Comparison::Ge => ">=",
            Comparison::Eq => "=",
        }
    }
}

/// Errors reported by [`LpProblem::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LpError {
    /// The constraint set is empty of feasible points.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// A constraint row or the objective has the wrong number of coefficients.
    DimensionMismatch {
        /// Expected number of variables.
        expected: usize,
        /// Number of coefficients supplied.
        found: usize,
    },
    /// The simplex iteration limit was exceeded or the basis became
    /// singular (numerically pathological input).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::DimensionMismatch { expected, found } => write!(
                f,
                "constraint has {found} coefficients but the problem has {expected} variables"
            ),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl Error for LpError {}

/// A single linear constraint `coefficients · x ⋈ rhs`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinearConstraint {
    pub(crate) coefficients: Vec<f64>,
    pub(crate) comparison: Comparison,
    pub(crate) rhs: f64,
}

/// Solution of a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    values: Vec<f64>,
    objective: f64,
}

impl LpSolution {
    pub(crate) fn new(values: Vec<f64>, objective: f64) -> Self {
        LpSolution { values, objective }
    }

    /// Optimal values of the decision variables.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Optimal objective value (of the minimization problem).
    pub fn objective(&self) -> f64 {
        self.objective
    }
}

/// A linear program in the form `minimize cᵀx subject to Ax ⋈ b`, with all
/// decision variables free (unrestricted in sign).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<LinearConstraint>,
}

impl LpProblem {
    /// Creates a problem with `num_vars` free decision variables and a zero
    /// objective (a pure feasibility problem until an objective is set).
    pub fn new(num_vars: usize) -> Self {
        LpProblem {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the objective coefficients `c` of `minimize cᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the number of variables.
    pub fn set_objective(&mut self, coefficients: &[f64]) {
        assert_eq!(
            coefficients.len(),
            self.num_vars,
            "objective length must equal the number of variables"
        );
        self.objective = coefficients.to_vec();
    }

    /// Adds the constraint `coefficients · x ⋈ rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient slice length differs from the number of
    /// variables.
    pub fn add_constraint(&mut self, coefficients: &[f64], comparison: Comparison, rhs: f64) {
        assert_eq!(
            coefficients.len(),
            self.num_vars,
            "constraint length must equal the number of variables"
        );
        self.constraints.push(LinearConstraint {
            coefficients: coefficients.to_vec(),
            comparison,
            rhs,
        });
    }

    /// Solves the linear program.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] if no point satisfies all constraints.
    /// * [`LpError::Unbounded`] if the objective can decrease without bound.
    /// * [`LpError::IterationLimit`] on pathological cycling or a singular
    ///   basis (neither should occur: Bland's rule prevents cycling and the
    ///   ratio test only admits nonsingular bases; both are guarded against
    ///   defensively).
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        simplex::solve(self)
    }

    /// Checks whether a candidate point satisfies every constraint to within
    /// `tolerance` (useful for validating solutions in tests and callers).
    pub fn is_feasible(&self, point: &[f64], tolerance: f64) -> bool {
        if point.len() != self.num_vars {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c
                .coefficients
                .iter()
                .zip(point.iter())
                .map(|(a, x)| a * x)
                .sum();
            match c.comparison {
                Comparison::Le => lhs <= c.rhs + tolerance,
                Comparison::Ge => lhs >= c.rhs - tolerance,
                Comparison::Eq => (lhs - c.rhs).abs() <= tolerance,
            }
        })
    }

    /// Evaluates the objective at a point.
    ///
    /// # Panics
    ///
    /// Panics if the point length differs from the number of variables.
    pub fn objective_value(&self, point: &[f64]) -> f64 {
        assert_eq!(point.len(), self.num_vars, "point length mismatch");
        self.objective
            .iter()
            .zip(point.iter())
            .map(|(c, x)| c * x)
            .sum()
    }

    pub(crate) fn objective(&self) -> &[f64] {
        &self.objective
    }

    pub(crate) fn constraints(&self) -> &[LinearConstraint] {
        &self.constraints
    }
}

impl fmt::Display for LpProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "minimize {:?}", self.objective)?;
        writeln!(f, "subject to")?;
        for c in &self.constraints {
            writeln!(
                f,
                "  {:?} {} {}",
                c.coefficients,
                c.comparison.symbol(),
                c.rhs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_display() {
        let mut lp = LpProblem::new(2);
        lp.set_objective(&[1.0, -1.0]);
        lp.add_constraint(&[1.0, 1.0], Comparison::Le, 3.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.objective_value(&[2.0, 1.0]), 1.0);
        assert!(lp.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!lp.is_feasible(&[4.0, 0.0], 1e-9));
        assert!(!lp.is_feasible(&[1.0], 1e-9));
        let s = format!("{lp}");
        assert!(s.contains("minimize"));
        assert!(s.contains("<="));
        assert_eq!(Comparison::Eq.symbol(), "=");
        assert_eq!(Comparison::Ge.symbol(), ">=");
    }

    #[test]
    fn error_display() {
        assert!(LpError::Infeasible.to_string().contains("infeasible"));
        assert!(LpError::Unbounded.to_string().contains("unbounded"));
        assert!(LpError::IterationLimit.to_string().contains("iteration"));
        let e = LpError::DimensionMismatch {
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    #[should_panic(expected = "objective length")]
    fn wrong_objective_length_panics() {
        let mut lp = LpProblem::new(2);
        lp.set_objective(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "constraint length")]
    fn wrong_constraint_length_panics() {
        let mut lp = LpProblem::new(2);
        lp.add_constraint(&[1.0], Comparison::Le, 1.0);
    }
}
