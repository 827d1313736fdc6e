//! A linear-programming solver sized for many rows over few unknowns.
//!
//! The barrier-certificate procedure of the paper repeatedly solves one kind
//! of linear program: the coefficients of the templated generator function
//! `W(x)` (plus a decrease margin) are the decision variables, and every
//! simulation sample contributes a linear constraint (positivity of `W`
//! outside the initial set, decrease of `W` along the trace).  The problems
//! have a handful of unknowns — 7 for the 2-D quadratic template — and
//! hundreds to thousands of constraints.
//!
//! The solver therefore runs a revised primal simplex on the LP's dual.  The
//! dual has one equality row per unknown, so a basis is `n` of the
//! constraints and the basis matrix is `n × n`, refactored from scratch at
//! every pivot; one pivot prices all `m` constraints in `O(m·n)`.  Variables
//! are free in sign, with no splitting.  A two-phase method (phase 1 over
//! `n` artificial columns) finds a first basis, and Dantzig's pricing falls
//! back to Bland's rule, which guarantees termination under degeneracy.
//!
//! # Examples
//!
//! ```
//! use nncps_lp::{Comparison, LpProblem};
//!
//! // maximize x + y  subject to  x + 2y <= 4,  3x + y <= 6,  x, y free.
//! let mut lp = LpProblem::new(2);
//! lp.set_objective(&[-1.0, -1.0]); // the solver minimizes
//! lp.add_constraint(&[1.0, 2.0], Comparison::Le, 4.0);
//! lp.add_constraint(&[3.0, 1.0], Comparison::Le, 6.0);
//! // Keep the region bounded from below so the LP has an optimum.
//! lp.add_constraint(&[1.0, 0.0], Comparison::Ge, 0.0);
//! lp.add_constraint(&[0.0, 1.0], Comparison::Ge, 0.0);
//! let solution = lp.solve()?;
//! assert!((solution.objective() + 2.8).abs() < 1e-9); // optimum at (1.6, 1.2)
//! # Ok::<(), nncps_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
mod simplex;

pub use problem::{Comparison, LpError, LpProblem, LpSolution};
