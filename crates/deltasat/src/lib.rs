//! A δ-satisfiability solver for nonlinear arithmetic over the reals.
//!
//! This crate is the workspace's stand-in for the **dReal** SMT solver used by
//! the paper.  It decides existential queries of the form
//!
//! ```text
//!   ∃ x ∈ B : φ(x)
//! ```
//!
//! where `B` is an axis-aligned box and `φ` is a Boolean combination of
//! nonlinear inequalities built from polynomials, trigonometric functions,
//! exponentials, and the `tanh`/`sigmoid` activations of neural-network
//! controllers.  Like dReal it implements a *δ-complete decision procedure*
//! ([Gao, Avigad, Clarke 2012]) based on interval constraint propagation (ICP)
//! with branch and prune:
//!
//! * **`Unsat`** answers are exact: interval arithmetic is outward rounded, so
//!   when every box has been refuted there is truly no real solution.
//! * **`DeltaSat`** answers are numerically weakened: a box of width at most
//!   the solver's precision is returned in which the δ-relaxation of every
//!   constraint holds at the box midpoint.
//!
//! This is exactly the guarantee the barrier-certificate procedure needs: an
//! `Unsat` answer to the negated conditions certifies the barrier, and a
//! `DeltaSat` answer provides a counterexample point used to refine the
//! candidate.
//!
//! # Compiled evaluation
//!
//! The solver compiles every DNF clause of a query into a flat evaluation
//! tape ([`CompiledClause`], built on [`nncps_expr::Tape`]) before searching:
//! constraints of a clause share one tape (common subexpressions are
//! evaluated once per box), the HC4 contractor runs forward/backward sweeps
//! over recorded slot values in O(n), and all scratch state is reused so the
//! per-box loop is allocation-free.  Verdicts, witnesses, and explored box
//! trees are bit-identical to the recursive tree-walking evaluators, which
//! remain available as a reference via [`DeltaSolver::with_tree_evaluator`].
//! Queries can be pre-compiled once with [`CompiledFormula::compile`] and
//! solved repeatedly with [`DeltaSolver::solve_compiled`].
//!
//! # Examples
//!
//! ```
//! use nncps_deltasat::{Constraint, DeltaSolver, Formula, SatResult};
//! use nncps_expr::Expr;
//! use nncps_interval::IntervalBox;
//!
//! // Is there a point in [-1, 1]^2 with x^2 + y^2 <= 0.1 and x + y >= 0.5?
//! let x = Expr::var(0);
//! let y = Expr::var(1);
//! let formula = Formula::and(vec![
//!     Formula::atom(Constraint::le(x.clone().powi(2) + y.clone().powi(2), 0.1)),
//!     Formula::atom(Constraint::ge(x + y, 0.5)),
//! ]);
//! let solver = DeltaSolver::new(1e-3);
//! let domain = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
//! match solver.solve(&formula, &domain) {
//!     SatResult::DeltaSat(witness) => {
//!         let p = witness.midpoint();
//!         assert!(p[0] * p[0] + p[1] * p[1] <= 0.1 + 1e-2);
//!     }
//!     SatResult::Unsat => { /* also acceptable: the sets barely touch */ }
//!     SatResult::Unknown(reason) => panic!("solver gave up: {reason}"),
//! }
//! ```
//!
//! [Gao, Avigad, Clarke 2012]: https://doi.org/10.1109/LICS.2012.41

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod compiled;
mod constraint;
mod contractor;
mod formula;
mod solver;

pub use cache::CompilationCache;
pub use compiled::{ClauseFeasibility, ClauseScratch, CompiledClause, CompiledFormula};
pub use constraint::{Constraint, Feasibility, Relation};
pub use contractor::{contract_clause, hc4_revise};
pub use formula::Formula;
pub use solver::{DeltaSolver, SatResult, SolverStats};
// The governance vocabulary travels with the solver API: a `SatResult::
// Unknown` carries an `ExhaustionReason`, and `DeltaSolver::with_budget`
// takes a `Budget`.
pub use nncps_parallel::{Budget, ExhaustionReason};
