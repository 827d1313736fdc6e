//! The closed-loop system model handed to the verifier.

use nncps_expr::Expr;
use nncps_sim::{Dynamics, ExprDynamics, SymbolicDynamics};

use crate::SafetySpec;

/// A closed-loop autonomous system `ẋ = f(x)` together with its safety
/// specification.
///
/// The vector field is given *symbolically* (one [`Expr`] per state
/// component).  This is deliberate: the same expression tree is used both to
/// simulate the system (for the LP constraints) and inside the δ-SAT queries
/// (for the soundness-critical checks), which realises the paper's assumption
/// that the deployed dynamics and the solver share one interpretation of the
/// network weights and activation functions.
///
/// Point evaluation (simulation and [`ClosedLoopSystem::derivative`]) goes
/// through the field's [`ExprDynamics`], which compiles it once on first use
/// into a fused scalar program bit-identical to the expression trees.
///
/// # Examples
///
/// ```
/// use nncps_barrier::{ClosedLoopSystem, SafetySpec};
/// use nncps_expr::Expr;
/// use nncps_interval::IntervalBox;
///
/// let system = ClosedLoopSystem::new(
///     vec![-Expr::var(0), -Expr::var(1)],
///     SafetySpec::rectangular(
///         IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
///         IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
///     ),
/// );
/// assert_eq!(system.dim(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoopSystem {
    field: ExprDynamics,
    spec: SafetySpec,
}

impl ClosedLoopSystem {
    /// Creates a system from its symbolic vector field and safety spec.
    ///
    /// # Panics
    ///
    /// Panics if the vector-field dimension differs from the specification
    /// dimension, or any component references a variable outside the state.
    pub fn new(vector_field: Vec<Expr>, spec: SafetySpec) -> Self {
        assert_eq!(
            vector_field.len(),
            spec.dim(),
            "vector field dimension must match the safety specification"
        );
        ClosedLoopSystem {
            field: ExprDynamics::new(vector_field),
            spec,
        }
    }

    /// Builds the closed loop from any symbolic plant and a safety spec —
    /// the constructor the scenario registry uses for every registered
    /// plant, regardless of its concrete type.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ClosedLoopSystem::new`].
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_barrier::{ClosedLoopSystem, SafetySpec};
    /// use nncps_expr::Expr;
    /// use nncps_interval::IntervalBox;
    /// use nncps_sim::ExprDynamics;
    ///
    /// let plant = ExprDynamics::new(vec![-Expr::var(0)]);
    /// let spec = SafetySpec::rectangular(
    ///     IntervalBox::from_bounds(&[(-0.5, 0.5)]),
    ///     IntervalBox::from_bounds(&[(-2.0, 2.0)]),
    /// );
    /// let system = ClosedLoopSystem::from_dynamics(&plant, spec);
    /// assert_eq!(system.dim(), 1);
    /// ```
    pub fn from_dynamics<D: SymbolicDynamics>(plant: &D, spec: SafetySpec) -> Self {
        ClosedLoopSystem::new(plant.symbolic_vector_field(), spec)
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.field.dim()
    }

    /// The symbolic vector field `f(x)`.
    pub fn vector_field(&self) -> &[Expr] {
        self.field.components()
    }

    /// The safety specification.
    pub fn spec(&self) -> &SafetySpec {
        &self.spec
    }

    /// Evaluates the vector field numerically at a point.
    pub fn derivative(&self, state: &[f64]) -> Vec<f64> {
        self.field.derivative(state)
    }

    /// The vector field as simulatable dynamics, sharing this system's
    /// compiled program.
    pub fn dynamics(&self) -> ExprDynamics {
        self.field.clone()
    }
}

impl Dynamics for ClosedLoopSystem {
    fn dim(&self) -> usize {
        self.field.dim()
    }

    fn derivative(&self, state: &[f64]) -> Vec<f64> {
        self.field.derivative(state)
    }

    fn derivative_into(&self, state: &[f64], out: &mut [f64], slots: &mut Vec<f64>) {
        self.field.derivative_into(state, out, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncps_interval::IntervalBox;
    use nncps_sim::{Integrator, Simulator};

    fn stable_system() -> ClosedLoopSystem {
        ClosedLoopSystem::new(
            vec![-Expr::var(0), -Expr::var(1) * 2.0],
            SafetySpec::rectangular(
                IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
                IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
            ),
        )
    }

    #[test]
    fn accessors_and_evaluation() {
        let system = stable_system();
        assert_eq!(system.dim(), 2);
        assert_eq!(system.vector_field().len(), 2);
        assert_eq!(system.spec().dim(), 2);
        let d = system.derivative(&[1.0, 2.0]);
        assert!((d[0] + 1.0).abs() < 1e-15);
        assert!((d[1] + 4.0).abs() < 1e-15);
        let d2 = Dynamics::derivative(&system, &[1.0, 2.0]);
        assert_eq!(d, d2);
    }

    #[test]
    fn dynamics_can_be_simulated() {
        let system = stable_system();
        let sim = Simulator::new(Integrator::RungeKutta4, 0.01, 1.0);
        let trace = sim.simulate(&system.dynamics(), &[1.0, 1.0]);
        let end = trace.final_state();
        assert!((end[0] - (-1.0_f64).exp()).abs() < 1e-6);
        assert!((end[1] - (-2.0_f64).exp()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimension must match")]
    fn mismatched_dimensions_panic() {
        let _ = ClosedLoopSystem::new(
            vec![-Expr::var(0)],
            SafetySpec::rectangular(
                IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
                IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
            ),
        );
    }

    #[test]
    #[should_panic(expected = "outside the 2-dimensional state")]
    fn out_of_range_variable_panics() {
        let _ = ClosedLoopSystem::new(
            vec![-Expr::var(0), Expr::var(5)],
            SafetySpec::rectangular(
                IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
                IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
            ),
        );
    }
}
