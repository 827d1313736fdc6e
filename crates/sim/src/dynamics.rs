//! The `Dynamics` trait and its standard implementations.

use std::fmt;
use std::sync::{Arc, OnceLock};

use nncps_expr::{Expr, ScalarProgram};

/// An autonomous continuous-time system `ẋ = f(x)`.
///
/// The closed-loop models produced by composing a plant with a neural-network
/// controller (Equation (4) of the paper) are autonomous, so the trait does
/// not carry an explicit time argument.
///
/// Symbolic fields ([`ExprDynamics`], and the verifier's closed loop built on
/// it) are compiled once, on their first evaluation, into a
/// [`ScalarProgram`] that is bit-identical to walking the expression trees;
/// through [`Dynamics::derivative_into`] and a reused
/// [`StepWorkspace`](crate::StepWorkspace) an integration step over such a
/// field performs no heap allocation.
pub trait Dynamics {
    /// Dimension of the state vector.
    fn dim(&self) -> usize;

    /// Evaluates the vector field at `state`, returning `ẋ`.
    ///
    /// Implementations may assume `state.len() == self.dim()` and must return
    /// a vector of the same length.
    fn derivative(&self, state: &[f64]) -> Vec<f64>;

    /// Evaluates the vector field at `state` into `out` (`out.len() ==
    /// self.dim()`), using `slots` as caller-owned evaluation scratch (for a
    /// compiled field, the program's register file).
    ///
    /// This is the form the integrators call: with the scratch reused across
    /// steps, a compiled field ([`ExprDynamics`]) evaluates without heap
    /// allocation.  The default implementation copies
    /// [`Dynamics::derivative`] and ignores `slots`; the result must be
    /// bit-identical to [`Dynamics::derivative`] either way.
    fn derivative_into(&self, state: &[f64], out: &mut [f64], slots: &mut Vec<f64>) {
        let _ = slots;
        out.copy_from_slice(&self.derivative(state));
    }
}

/// Dynamics defined by a plain Rust closure.
///
/// # Examples
///
/// ```
/// use nncps_sim::{Dynamics, FnDynamics};
///
/// // Harmonic oscillator: x' = v, v' = -x.
/// let oscillator = FnDynamics::new(2, |s: &[f64]| vec![s[1], -s[0]]);
/// assert_eq!(oscillator.derivative(&[0.0, 1.0]), vec![1.0, 0.0]);
/// ```
pub struct FnDynamics<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(&[f64]) -> Vec<f64>> FnDynamics<F> {
    /// Wraps a closure computing the vector field of a `dim`-dimensional system.
    pub fn new(dim: usize, f: F) -> Self {
        FnDynamics { dim, f }
    }
}

impl<F: Fn(&[f64]) -> Vec<f64>> Dynamics for FnDynamics<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn derivative(&self, state: &[f64]) -> Vec<f64> {
        debug_assert_eq!(state.len(), self.dim, "state dimension mismatch");
        let out = (self.f)(state);
        debug_assert_eq!(out.len(), self.dim, "derivative dimension mismatch");
        out
    }
}

impl<F> std::fmt::Debug for FnDynamics<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnDynamics")
            .field("dim", &self.dim)
            .finish()
    }
}

/// Dynamics defined by symbolic expressions, one per state component.
///
/// Using [`ExprDynamics`] for simulation guarantees that the trajectories the
/// LP is fitted to and the vector field inside the δ-SAT queries come from
/// the *same* mathematical object — the consistency requirement the paper
/// discusses at the end of Section 3.
///
/// The field is evaluated through one multi-root [`ScalarProgram`] shared by
/// all components, compiled once on the first evaluation (never in the
/// constructor, so a field that is never simulated costs no compile).  The
/// program hoists the field's constants into registers and runs each neuron
/// pre-activation as one fused linear instruction; it is bit-identical to
/// walking the expression trees with [`Expr::eval`], and
/// [`Dynamics::derivative_into`] with a warm scratch performs no heap
/// allocation.
///
/// # Examples
///
/// ```
/// use nncps_expr::Expr;
/// use nncps_sim::{Dynamics, ExprDynamics};
///
/// let x = Expr::var(0);
/// let v = Expr::var(1);
/// let oscillator = ExprDynamics::new(vec![v, -x]);
/// assert_eq!(oscillator.derivative(&[0.0, 1.0]), vec![1.0, -0.0]);
/// ```
#[derive(Clone)]
pub struct ExprDynamics {
    components: Vec<Expr>,
    /// The components compiled into one program (root `k` is component
    /// `k`), filled on the first evaluation.  Clones share the cell, so a
    /// cloned field compiles at most once between all of its copies.
    program: Arc<OnceLock<ScalarProgram>>,
}

impl ExprDynamics {
    /// Creates dynamics from one expression per state derivative.
    ///
    /// # Panics
    ///
    /// Panics if any expression references a variable index outside
    /// `0..components.len()`.
    pub fn new(components: Vec<Expr>) -> Self {
        let dim = components.len();
        for (i, c) in components.iter().enumerate() {
            assert!(
                c.num_vars() <= dim,
                "component {i} references variable x{} outside the {dim}-dimensional state",
                c.num_vars() - 1
            );
        }
        ExprDynamics {
            components,
            program: Arc::new(OnceLock::new()),
        }
    }

    /// The symbolic components of the vector field.
    pub fn components(&self) -> &[Expr] {
        &self.components
    }

    /// The compiled field, compiling it on first use.
    fn program(&self) -> &ScalarProgram {
        self.program
            .get_or_init(|| ScalarProgram::compile_many(&self.components))
    }
}

impl fmt::Debug for ExprDynamics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExprDynamics")
            .field("components", &self.components)
            .finish_non_exhaustive()
    }
}

impl Dynamics for ExprDynamics {
    fn dim(&self) -> usize {
        self.components.len()
    }

    fn derivative(&self, state: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.derivative_into(state, &mut out, &mut Vec::new());
        out
    }

    fn derivative_into(&self, state: &[f64], out: &mut [f64], slots: &mut Vec<f64>) {
        let program = self.program();
        program.eval_into(state, slots);
        for (k, value) in out.iter_mut().enumerate() {
            *value = slots[program.root_register(k)];
        }
    }
}

/// A plant (or closed loop) that can export its vector field symbolically.
///
/// This is the common interface the scenario registry uses to register
/// heterogeneous plants — the Dubins error dynamics, the pendulum, the train
/// speed controller — behind one trait: the same object simulates (via
/// [`Dynamics`]) and produces the `f(x)` expressions that appear inside the
/// δ-SAT queries, so the simulated and verified models provably coincide.
///
/// # Examples
///
/// ```
/// use nncps_expr::Expr;
/// use nncps_sim::{ExprDynamics, SymbolicDynamics};
///
/// let decay = ExprDynamics::new(vec![-Expr::var(0)]);
/// let field = decay.symbolic_vector_field();
/// assert_eq!(field.len(), 1);
/// assert_eq!(field[0].eval(&[2.0]), -2.0);
/// ```
pub trait SymbolicDynamics: Dynamics {
    /// The symbolic vector field, one expression per state component, using
    /// variable indices `0..self.dim()`.
    fn symbolic_vector_field(&self) -> Vec<Expr>;
}

impl SymbolicDynamics for ExprDynamics {
    fn symbolic_vector_field(&self) -> Vec<Expr> {
        self.components.clone()
    }
}

impl<D: SymbolicDynamics + ?Sized> SymbolicDynamics for &D {
    fn symbolic_vector_field(&self) -> Vec<Expr> {
        (**self).symbolic_vector_field()
    }
}

impl<D: Dynamics + ?Sized> Dynamics for &D {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn derivative(&self, state: &[f64]) -> Vec<f64> {
        (**self).derivative(state)
    }

    fn derivative_into(&self, state: &[f64], out: &mut [f64], slots: &mut Vec<f64>) {
        (**self).derivative_into(state, out, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_dynamics_evaluates_closure() {
        let d = FnDynamics::new(2, |s: &[f64]| vec![s[1], -2.0 * s[0]]);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.derivative(&[1.0, 3.0]), vec![3.0, -2.0]);
        assert!(format!("{d:?}").contains("dim"));
    }

    #[test]
    fn expr_dynamics_matches_expressions() {
        let x = Expr::var(0);
        let y = Expr::var(1);
        let d = ExprDynamics::new(vec![y.clone(), -x.clone() - y.clone() * 0.1]);
        assert_eq!(d.dim(), 2);
        let out = d.derivative(&[2.0, -1.0]);
        assert!((out[0] + 1.0).abs() < 1e-15);
        assert!((out[1] - (-2.0 + 0.1)).abs() < 1e-15);
        assert_eq!(d.components().len(), 2);
    }

    #[test]
    fn reference_implements_dynamics() {
        let d = FnDynamics::new(1, |s: &[f64]| vec![-s[0]]);
        let r: &dyn Dynamics = &d;
        assert_eq!(r.dim(), 1);
        assert_eq!((&r).derivative(&[2.0]), vec![-2.0]);
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn expr_dynamics_rejects_out_of_range_variables() {
        let _ = ExprDynamics::new(vec![Expr::var(3)]);
    }
}
