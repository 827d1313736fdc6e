//! Construction of the paper's SMT queries (5), (6), and (7).

use nncps_deltasat::{CompiledFormula, Constraint, Formula};
use nncps_expr::Expr;
use nncps_interval::IntervalBox;

use crate::{ClosedLoopSystem, GeneratorFunction};

/// Builds the δ-SAT queries used by the verification procedure.
///
/// All three queries are *negations* of the desired properties, so an `Unsat`
/// answer from the solver certifies the property:
///
/// * **query (5)** — `∃x ∈ D : x ∉ X0 ∧ (∇W)ᵀ·f(x) ≥ −γ`
///   (negation of the decrease condition),
/// * **query (6)** — `∃x ∈ X0 : W(x) > ℓ`
///   (negation of `X0 ⊆ L`),
/// * **query (7)** — `∃x : W(x) ≤ ℓ ∧ x ∈ U`
///   (negation of `L ∩ U = ∅`).
///
/// # Examples
///
/// ```
/// use nncps_barrier::{ClosedLoopSystem, GeneratorFunction, QueryBuilder, SafetySpec};
/// use nncps_deltasat::DeltaSolver;
/// use nncps_expr::Expr;
/// use nncps_interval::IntervalBox;
/// use nncps_linalg::{Matrix, Vector};
///
/// // Stable linear system x' = -x, y' = -y with W(x) = x² + y².
/// let system = ClosedLoopSystem::new(
///     vec![-Expr::var(0), -Expr::var(1)],
///     SafetySpec::rectangular(
///         IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
///         IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
///     ),
/// );
/// let w = GeneratorFunction::new(Matrix::identity(2), Vector::zeros(2), 0.0);
/// let (formula, domain) = QueryBuilder::new(&system, 1e-6).decrease_query(&w);
/// // W strictly decreases along this flow, so query (5) must be UNSAT.
/// assert!(DeltaSolver::new(1e-3).solve(&formula, &domain).is_unsat());
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder<'a> {
    system: &'a ClosedLoopSystem,
    gamma: f64,
}

impl<'a> QueryBuilder<'a> {
    /// Creates a query builder with the decrease slack `γ` (the paper uses
    /// `γ = 10⁻⁶`).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is negative.
    pub fn new(system: &'a ClosedLoopSystem, gamma: f64) -> Self {
        assert!(gamma >= 0.0, "gamma must be non-negative");
        QueryBuilder { system, gamma }
    }

    /// The decrease slack `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The Lie derivative `(∇W)ᵀ·f(x)` as a symbolic expression.
    pub fn lie_derivative(&self, generator: &GeneratorFunction) -> Expr {
        let grad = generator.gradient_exprs();
        let mut lie = Expr::constant(0.0);
        for (g, f) in grad.iter().zip(self.system.vector_field()) {
            lie = lie + g.clone() * f.clone();
        }
        lie.simplified()
    }

    /// Query (5): the negated decrease condition over `D \ X0`, together with
    /// the solver domain (`D`).
    pub fn decrease_query(&self, generator: &GeneratorFunction) -> (Formula, IntervalBox) {
        let spec = self.system.spec();
        let lie = self.lie_derivative(generator);
        let formula = Formula::and(vec![
            spec.outside_initial_set(),
            Formula::atom(Constraint::ge(lie, -self.gamma)),
        ]);
        (formula, spec.domain().clone())
    }

    /// Query (5) pre-compiled for the solver's tape evaluator.
    ///
    /// The Lie derivative of an NN-controlled system repeats every neuron
    /// pre-activation across the chain-rule terms; compiling the query up
    /// front deduplicates them once, outside the pipeline's timed SMT
    /// section, and each clause of the decrease query shares one evaluation
    /// tape, so the timed branch-and-prune section starts with everything
    /// lowered.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_barrier::{ClosedLoopSystem, GeneratorFunction, QueryBuilder, SafetySpec};
    /// use nncps_deltasat::DeltaSolver;
    /// use nncps_expr::Expr;
    /// use nncps_interval::IntervalBox;
    /// use nncps_linalg::{Matrix, Vector};
    ///
    /// let system = ClosedLoopSystem::new(
    ///     vec![-Expr::var(0), -Expr::var(1)],
    ///     SafetySpec::rectangular(
    ///         IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
    ///         IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
    ///     ),
    /// );
    /// let w = GeneratorFunction::new(Matrix::identity(2), Vector::zeros(2), 0.0);
    /// let (query, domain) = QueryBuilder::new(&system, 1e-6).compiled_decrease_query(&w);
    /// assert!(DeltaSolver::new(1e-3).solve_compiled(&query, &domain).is_unsat());
    /// ```
    pub fn compiled_decrease_query(
        &self,
        generator: &GeneratorFunction,
    ) -> (CompiledFormula, IntervalBox) {
        let (formula, domain) = self.decrease_query(generator);
        (CompiledFormula::compile(&formula), domain)
    }

    /// Query (6): the negated initial-set containment `∃x ∈ X0 : W(x) > ℓ`,
    /// together with the solver domain (`X0`).
    pub fn initial_containment_query(
        &self,
        generator: &GeneratorFunction,
        level: f64,
    ) -> (Formula, IntervalBox) {
        let spec = self.system.spec();
        let formula = Formula::atom(Constraint::gt(generator.to_expr(), level));
        (formula, spec.initial_set().clone())
    }

    /// Query (7): the negated unsafe-set disjointness
    /// `∃x : W(x) ≤ ℓ ∧ x ∈ U`, together with a solver domain that is
    /// guaranteed to contain every possible witness (the bounding box of the
    /// sublevel set `{W ≤ ℓ}`).
    ///
    /// Returns `None` when the quadratic part of `W` is not positive definite,
    /// in which case the sublevel set may be unbounded and no finite solver
    /// domain is sound.
    pub fn unsafe_disjointness_query(
        &self,
        generator: &GeneratorFunction,
        level: f64,
    ) -> Option<(Formula, IntervalBox)> {
        let spec = self.system.spec();
        let bounds = generator.sublevel_bounding_box(level)?;
        let domain = IntervalBox::from_bounds(&bounds);
        let formula = Formula::and(vec![
            Formula::atom(Constraint::le(generator.to_expr(), level)),
            spec.inside_unsafe_set(),
        ]);
        Some((formula, domain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SafetySpec;
    use nncps_deltasat::DeltaSolver;
    use nncps_linalg::{Matrix, Vector};

    /// A stable linear closed loop x' = -x, y' = -y with the paper-style
    /// rectangular specification.
    fn stable_system() -> ClosedLoopSystem {
        ClosedLoopSystem::new(
            vec![-Expr::var(0), -Expr::var(1)],
            SafetySpec::rectangular(
                IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
                IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
            ),
        )
    }

    fn unit_generator() -> GeneratorFunction {
        GeneratorFunction::new(Matrix::identity(2), Vector::zeros(2), 0.0)
    }

    #[test]
    fn lie_derivative_of_quadratic_on_linear_system() {
        let system = stable_system();
        let builder = QueryBuilder::new(&system, 1e-6);
        let lie = builder.lie_derivative(&unit_generator());
        // For W = x^2 + y^2 and f = (-x, -y): ∇W·f = -2(x^2 + y^2).
        for &p in &[[1.0, 2.0], [0.3, -0.7], [-2.0, 0.0]] {
            let expected = -2.0 * (p[0] * p[0] + p[1] * p[1]);
            assert!((lie.eval(&p) - expected).abs() < 1e-10);
        }
        assert_eq!(builder.gamma(), 1e-6);
    }

    #[test]
    fn decrease_query_is_unsat_for_true_lyapunov_function() {
        let system = stable_system();
        let builder = QueryBuilder::new(&system, 1e-6);
        let (formula, domain) = builder.decrease_query(&unit_generator());
        let solver = DeltaSolver::new(1e-3);
        assert!(solver.solve(&formula, &domain).is_unsat());
    }

    #[test]
    fn decrease_query_finds_counterexample_for_bad_candidate() {
        let system = stable_system();
        let builder = QueryBuilder::new(&system, 1e-6);
        // W = x^2 - y^2 increases along some directions of the stable flow.
        let bad = GeneratorFunction::new(
            Matrix::from_diagonal(&Vector::from_slice(&[1.0, -1.0])),
            Vector::zeros(2),
            0.0,
        );
        let (formula, domain) = builder.decrease_query(&bad);
        let solver = DeltaSolver::new(1e-3);
        let result = solver.solve(&formula, &domain);
        let witness = result.witness().expect("expected a counterexample");
        // The witness must lie in D but outside X0.
        assert!(system.spec().domain().contains_point(&witness));
        assert!(!system.spec().is_initial(&witness));
    }

    #[test]
    fn containment_queries_behave_for_known_levels() {
        let system = stable_system();
        let builder = QueryBuilder::new(&system, 1e-6);
        let w = unit_generator();
        let solver = DeltaSolver::new(1e-4);

        // X0 = [-0.5, 0.5]^2, so max W on X0 is 0.5 at the corners.
        // Level 1.0 contains X0 (query (6) unsat)...
        let (q6, x0) = builder.initial_containment_query(&w, 1.0);
        assert!(solver.solve(&q6, &x0).is_unsat());
        // ...but level 0.3 does not (corner value 0.5 > 0.3).
        let (q6_bad, x0) = builder.initial_containment_query(&w, 0.3);
        assert!(solver.solve(&q6_bad, &x0).is_delta_sat());

        // The unsafe set starts at |x| >= 3, i.e. W >= 9 on U. Level 4 keeps
        // L = {W <= 4} away from U (query (7) unsat)...
        let (q7, dom) = builder.unsafe_disjointness_query(&w, 4.0).unwrap();
        assert!(solver.solve(&q7, &dom).is_unsat());
        // ...but level 10 lets the sublevel set reach the unsafe region.
        let (q7_bad, dom) = builder.unsafe_disjointness_query(&w, 10.0).unwrap();
        assert!(solver.solve(&q7_bad, &dom).is_delta_sat());
    }

    #[test]
    fn unsafe_query_requires_positive_definite_quadratic_part() {
        let system = stable_system();
        let builder = QueryBuilder::new(&system, 1e-6);
        let indefinite = GeneratorFunction::new(
            Matrix::from_diagonal(&Vector::from_slice(&[1.0, -1.0])),
            Vector::zeros(2),
            0.0,
        );
        assert!(builder
            .unsafe_disjointness_query(&indefinite, 1.0)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "gamma must be non-negative")]
    fn negative_gamma_panics() {
        let system = stable_system();
        let _ = QueryBuilder::new(&system, -1.0);
    }
}
